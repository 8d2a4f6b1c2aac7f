"""Exit codes and output shapes of the command-line front end."""
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from tverberg import cli, fillings, partitions
from tverberg.cli import build_parser, main
from tverberg.sequences import sequence_from_json

README = Path(__file__).resolve().parent.parent / "README.md"

# The flags each command's handler reads; * marks a required one.
READS = {
    "gen": "--d* --r* --q --base --schedule --out --json",
    "check": "--seq* --partition* --out --json",
    "enumerate": "--seq* --r --out --json",
    "rainbow": "--d* --r* --out --json",
    "verify-universality": "--seq --d --r --q --base --out --json",
    "dominant": "--partition* --seq --d --r --q --base --oracle --out --json",
    "witness": "--partition* --seq --d --r --q --base --out --json",
    "sgp": "--seq* --r --out --json",
}
FLAG_VALUES = {
    "--d": "1", "--r": "2", "--q": "3", "--base": "3", "--schedule": "chain",
    "--seq": "s.json", "--partition": "p.json", "--oracle": None, "--out": "o.json", "--json": None,
}


def reads(command, required_only=False):
    return [f.rstrip("*") for f in READS[command].split() if f.endswith("*") or not required_only]


def flag_args(flags):
    return [a for f in flags for a in (f, FLAG_VALUES[f]) if a is not None]


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def line_seq(tmp_path):
    return write_json(tmp_path / "line.json", {"d": 1, "n": 3, "points": [["1"], ["2"], ["5"]]})


@pytest.fixture
def good_partition(tmp_path):
    return write_json(tmp_path / "part.json", {"n": 3, "classes": [[1, 3], [2]]})


def test_check_tverberg_exits_zero(capsys, line_seq, good_partition):
    assert main(["check", "--seq", line_seq, "--partition", good_partition]) == 0
    out = capsys.readouterr().out
    assert "TVERBERG" in out
    assert "z = (2)" in out


def test_check_failing_partition_exits_one(capsys, tmp_path, line_seq):
    part = write_json(tmp_path / "p.json", {"n": 3, "classes": [[1, 2], [3]]})
    assert main(["check", "--seq", line_seq, "--partition", part]) == 1
    assert "NOT TVERBERG" in capsys.readouterr().out


def test_check_non_proper_partition_exits_one(capsys, tmp_path):
    seq = write_json(
        tmp_path / "s.json",
        {"d": 1, "n": 5, "points": [["1"], ["2"], ["3"], ["4"], ["5"]]},
    )
    part = write_json(tmp_path / "p.json", {"n": 5, "classes": [[1], [2], [3, 4, 5]]})
    assert main(["check", "--seq", seq, "--partition", part]) == 1
    assert "NOT TVERBERG" in capsys.readouterr().out


def test_malformed_json_exits_two(capsys, tmp_path, good_partition):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["check", "--seq", str(bad), "--partition", good_partition]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_missing_file_exits_two(capsys, good_partition):
    assert main(["check", "--seq", "/nonexistent.json", "--partition", good_partition]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_required_flags_exit_two(capsys, line_seq):
    assert main(["check", "--seq", line_seq]) == 2
    assert main(["gen"]) == 2
    assert main(["nonsense"]) == 2
    capsys.readouterr()


def test_bad_threshold_exits_two(capsys):
    assert main(["gen", "--d", "1", "--r", "2", "--q", "1"]) == 2
    assert "--q" in capsys.readouterr().err
    for flag, argv in (
        ("--d", ["gen", "--d", "0", "--r", "2"]),
        ("--r", ["gen", "--d", "1", "--r", "1"]),
        ("--base", ["gen", "--d", "1", "--r", "2", "--base", "1"]),
        ("--q", ["gen", "--d", "1", "--r", "2", "--q", "1/0"]),
    ):
        assert main(argv) == 2
        assert flag in capsys.readouterr().err.strip().splitlines()[-1]


def test_gen_is_deterministic_and_round_trips(capsys):
    assert main(["gen", "--d", "1", "--r", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--d", "1", "--r", "2"]) == 0
    assert capsys.readouterr().out == first
    points = sequence_from_json(json.loads(first))
    assert points.dim == 1 and points.length == 3


def test_gen_uniform_schedule(capsys):
    assert main(["gen", "--d", "2", "--r", "2", "--schedule", "uniform", "--base", "3"]) == 0
    points = sequence_from_json(json.loads(capsys.readouterr().out))
    assert points.dim == 2 and points.length == 4
    assert points.entry(1, 2) == 9
    assert points.entry(2, 2) == 81


def test_enumerate_lists_the_single_partition(capsys, line_seq):
    assert main(["enumerate", "--seq", line_seq]) == 0
    out = capsys.readouterr().out
    assert "tverberg partitions: 1" in out
    assert "{1,3} | {2}" in out


def test_rainbow_counts(capsys):
    assert main(["rainbow", "--d", "1", "--r", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2


def test_verify_universality_constructed_passes(capsys):
    assert main(["verify-universality", "--d", "1", "--r", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "tverberg partitions: 1" in out


def test_verify_universality_flags_inner_point(capsys, tmp_path):
    seq = write_json(
        tmp_path / "inner.json",
        {"d": 2, "n": 4, "points": [["0", "0"], ["4", "0"], ["0", "4"], ["1", "1"]]},
    )
    assert main(["verify-universality", "--seq", seq]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "tverberg only" in out


def test_dominant_with_oracle_agrees(capsys, tmp_path):
    part = write_json(tmp_path / "p.json", {"n": 5, "classes": [[3], [1, 2], [4, 5]]})
    assert main(["dominant", "--partition", part, "--oracle", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_agree"] is True
    assert len(payload["ells"]) == 5
    assert all(rec["sign"] in (-1, 1) for rec in payload["ells"])
    assert all(rec["oracle"] == "agree" for rec in payload["ells"])
    argv = ["dominant", "--oracle", "--d", "1", "--r", "3", "--partition", part, "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == payload


def test_dominant_oracle_lifts_once(capsys, monkeypatch, tmp_path):
    part = write_json(tmp_path / "p.json", {"n": 5, "classes": [[3], [1, 2], [4, 5]]})
    calls = []

    def counted(original):
        def wrapper(*args):
            calls.append(args)
            return original(*args)
        return wrapper

    for module in (cli, fillings):
        monkeypatch.setattr(module, "ordered_lift", counted(module.ordered_lift))
    assert main(["dominant", "--partition", part, "--oracle", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle_agree"] is True
    assert len(calls) == 1


def test_dominant_grid_matches_rainbow_layout(capsys, tmp_path):
    part = write_json(tmp_path / "p.json", {"n": 5, "classes": [[1, 4], [2, 5], [3]]})
    assert main(["dominant", "--partition", part]) == 0
    out = capsys.readouterr().out
    assert "ell = 1" in out and "ell = 5" in out
    assert "z0" in out and "z1" in out


def test_dominant_rejects_slow_sequence(capsys, tmp_path):
    seq = write_json(
        tmp_path / "slow.json",
        {"d": 1, "n": 5, "points": [["1"], ["2"], ["3"], ["4"], ["5"]]},
    )
    part = write_json(tmp_path / "p.json", {"n": 5, "classes": [[3], [1, 2], [4, 5]]})
    assert main(["dominant", "--partition", part, "--seq", seq]) == 2
    assert "not dominant" in capsys.readouterr().err


def test_witness_finds_pair_and_rejects_rainbow(capsys, tmp_path):
    non_rainbow = write_json(tmp_path / "nr.json", {"n": 5, "classes": [[3], [1, 2], [4, 5]]})
    assert main(["witness", "--partition", non_rainbow]) == 0
    out = capsys.readouterr().out
    assert "witness pair: 1, 2" in out
    assert "NOT TVERBERG" in out
    rainbow = write_json(tmp_path / "rb.json", {"n": 5, "classes": [[1, 4], [2, 5], [3]]})
    assert main(["witness", "--partition", rainbow]) == 2
    assert "rainbow" in capsys.readouterr().err


def test_sgp_verdicts(capsys, tmp_path, line_seq):
    assert main(["sgp", "--seq", line_seq]) == 0
    assert "yes" in capsys.readouterr().out
    dup = write_json(tmp_path / "dup.json", {"d": 1, "n": 3, "points": [["1"], ["2"], ["2"]]})
    assert main(["sgp", "--seq", dup]) == 1
    assert "no" in capsys.readouterr().out


def test_out_file_receives_the_report(capsys, tmp_path, line_seq, good_partition):
    target = tmp_path / "report.json"
    rc = main([
        "check", "--seq", line_seq, "--partition", good_partition,
        "--json", "--out", str(target),
    ])
    assert rc == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text())
    assert payload["is_tverberg"] is True
    assert payload["alphas"] == ["3/4", "1", "1/4"]


def test_r_contradicting_sequence_exits_two(capsys, line_seq):
    assert main(["enumerate", "--seq", line_seq, "--r", "3"]) == 2
    assert "contradicts" in capsys.readouterr().err


def test_seed_flag_is_gone(capsys):
    assert main(["rainbow", "--d", "1", "--r", "2", "--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_unwritable_out_exits_two(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    assert main(["rainbow", "--d", "1", "--r", "2", "--out", str(target)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_cross_check_failure_exits_three(capsys, monkeypatch, line_seq, good_partition):
    real = partitions.det_sign
    calls = []

    def flip_first(m):
        calls.append(m)
        return -real(m) if len(calls) == 1 else real(m)

    monkeypatch.setattr(partitions, "det_sign", flip_first)
    assert main(["check", "--seq", line_seq, "--partition", good_partition]) == 3
    assert "internal cross-check failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(
            [command, *flag_args(reads(command, required_only=True)), *flag_args([flag])],
            flag,
            id=f"{command}{flag}",
        )
        for command in READS
        for flag in FLAG_VALUES
        if flag not in reads(command)
    ]
    + [
        pytest.param(
            ["rainbow", "--d", "1", "--r", "2", "--partition", "/nonexistent",
             "--seq", "/nonexistent", "--oracle"],
            "--oracle",
            id="rainbow-unread-files",
        )
    ],
)
def test_command_rejects_flag_it_does_not_read(capsys, argv, flag):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err.strip().splitlines()[-1]


@pytest.mark.parametrize("command", READS)
def test_command_parses_every_flag_it_reads(capsys, command):
    flags = reads(command)
    assert build_parser().parse_args([command, *flag_args(flags)]).command == command
    for missing in reads(command, required_only=True):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, *flag_args(f for f in flags if f != missing)])
        assert missing in capsys.readouterr().err.strip().splitlines()[-1]


def test_entry_beyond_int_digit_limit(capsys, tmp_path, good_partition):
    big = "1" + "0" * 5000  # 10**5000, spelled out without an int-to-str conversion
    seq = write_json(tmp_path / "big.json", {"d": 1, "n": 3, "points": [["1"], ["2"], [big]]})
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    assert main(["check", "--seq", seq, "--partition", good_partition]) == 0
    assert "TVERBERG" in capsys.readouterr().out
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_zero_denominator_in_sequence_exits_two(capsys, tmp_path, good_partition):
    seq = write_json(tmp_path / "zero.json", {"d": 1, "n": 3, "points": [["1"], ["2"], ["1/0"]]})
    assert main(["check", "--seq", seq, "--partition", good_partition]) == 2
    assert "bad sequence file" in capsys.readouterr().err


def test_readme_command_examples_parse():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = {
        build_parser().parse_args(shlex.split(line)[1:]).command
        for line in block.splitlines()
        if line.startswith("tverberg ")
    }
    assert commands == set(READS)


@pytest.mark.parametrize(
    "command, flag",
    [
        ("verify-universality", "--base"),
        ("verify-universality", "--q"),
        ("dominant", "--base"),
        ("witness", "--base"),
    ],
)
def test_construction_flag_beside_seq_exits_two(capsys, tmp_path, line_seq, command, flag):
    # A flag only the constructor reads would go unused with a sequence file.
    part = write_json(tmp_path / "p.json", {"n": 3, "classes": [[1, 2], [3]]})
    argv = [command, "--seq", line_seq, flag, "7"]
    if command != "verify-universality":
        argv += ["--partition", part]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err.strip().splitlines()[-1]
