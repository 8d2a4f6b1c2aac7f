"""Golden output of the command-line front end: stdout, stderr, exit code and --out file.

Each command line below runs in a directory holding the input files that
`inputs` writes, so no output names a temporary path.  The expected values
live in cli_golden.json, one entry per command line; a test fails naming the
command whose report changed.
"""
import json
import shlex
from pathlib import Path

import pytest

from tverberg.cli import main

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

PARTITIONS = {
    "tverberg.json": [[1, 4, 7], [2, 5], [3, 6]],
    "not_tverberg.json": [[1, 2, 3], [4, 5], [6, 7]],
    "improper.json": [[1, 2, 3, 4], [5, 6], [7]],
}

COMMANDS = [
    "gen --d 2 --r 3",
    "gen --d 2 --r 3 --schedule uniform",
    "check --seq chain.json --partition tverberg.json",
    "check --seq chain.json --partition not_tverberg.json",
    "check --seq chain.json --partition improper.json",
    "check --seq line.json --partition line_part.json",
    "check --seq chain.json --partition five.json",
    "enumerate --seq chain.json",
    "enumerate --seq uniform.json",
    "enumerate --seq line.json",
    "rainbow --d 2 --r 3",
    "rainbow --d 3 --r 3",
    "rainbow --d 2 --r 4",
    "verify-universality --d 2 --r 3",
    "verify-universality --seq uniform.json",
    "dominant --partition not_tverberg.json",
    "dominant --partition not_tverberg.json --oracle",
    "witness --partition not_tverberg.json",
    "witness --partition not_tverberg.json --seq chain.json",
    "witness --partition tverberg.json",
    "sgp --seq chain.json",
    "sgp --seq uniform.json",
]
COMMAND_LINES = COMMANDS + [c + " --json" for c in COMMANDS] + [
    "check --seq chain.json --partition tverberg.json --out report.txt",
]


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """Write the input files into tmp_path and run from there."""
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--d", "2", "--r", "3", "--out", "chain.json"]) == 0
    assert main(["gen", "--d", "2", "--r", "3", "--schedule", "uniform", "--out", "uniform.json"]) == 0
    files = {name: {"n": 7, "classes": classes} for name, classes in PARTITIONS.items()}
    files["line.json"] = {"d": 1, "n": 3, "points": [["1"], ["2"], ["5"]]}
    files["line_part.json"] = {"n": 3, "classes": [[1, 3], [2]]}
    files["five.json"] = {"n": 5, "classes": [[1, 2], [3, 4], [5]]}
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    return tmp_path


def run(command_line, capsys):
    """The exit code, stdout, stderr and --out file text of one command line."""
    argv = shlex.split(command_line)
    code = main(argv)
    captured = capsys.readouterr()
    out = Path(argv[argv.index("--out") + 1]).read_text() if "--out" in argv else None
    return {"exit": code, "stdout": captured.out, "stderr": captured.err, "out": out}


def test_golden_file_covers_every_command_line():
    assert list(json.loads(GOLDEN.read_text())) == COMMAND_LINES


def test_input_files_are_the_golden_gen_reports(inputs):
    golden = json.loads(GOLDEN.read_text())
    assert (inputs / "chain.json").read_text() == golden["gen --d 2 --r 3"]["stdout"]
    assert (inputs / "uniform.json").read_text() == golden["gen --d 2 --r 3 --schedule uniform"]["stdout"]


@pytest.mark.parametrize("command_line", COMMAND_LINES)
def test_command_output_is_unchanged(command_line, inputs, capsys):
    expected = json.loads(GOLDEN.read_text())[command_line]
    assert run(command_line, capsys) == expected, command_line
