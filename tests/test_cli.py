"""Exit codes and output shapes of the command-line front end."""
import dataclasses
import json
import re
import shlex
import sys
import time
from pathlib import Path

import pytest

from tverberg import cli, fillings, partitions, sequences
from tverberg.cli import build_parser, main
from tverberg.exact import det_sign
from tverberg.fillings import enumerate_valid_fillings
from tverberg.partitions import build_system, enumerate_proper_partitions, partition_to_json
from tverberg.sequences import gen_super_dominant, sequence_from_json

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


def test_non_utf8_file_exits_two_and_names_it(capsys, tmp_path, line_seq, good_partition):
    png = tmp_path / "image.png"
    png.write_bytes(b"\x89PNG\r\n\x1a\n")
    for argv in (["check", "--seq", str(png), "--partition", good_partition],
                 ["check", "--seq", line_seq, "--partition", str(png)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"error: malformed JSON in {png}: 'utf-8' codec can't decode byte 0x89"
            " in position 0: invalid start byte"
        ]


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


def test_huge_decimal_exponent_exits_two_at_once(capsys, tmp_path):
    # Fraction would build 10**999999999999 before any later check could run
    huge = write_json(tmp_path / "s.json", {"d": 1, "n": 3, "points": [["1"], ["1e999999999999"], ["5"]]})
    slow = write_json(tmp_path / "t.json", {"d": 1, "n": 3, "points": [["1"], ["1e16000000"], ["5"]]})
    part = write_json(tmp_path / "p.json", {"n": 3, "classes": [[1, 3], [2]]})
    budget = "the exponent of '1e999999999999' passes the budget of 1000000 for decimal exponents"
    for argv, message in ((["check", "--seq", huge, "--partition", part], budget),
                          (["check", "--seq", slow, "--partition", part],
                           "the exponent of '1e16000000' passes the budget of 1000000 for decimal exponents"),
                          (["gen", "--d", "1", "--r", "2", "--q", "1e999999999999"], "argument --q: " + budget),
                          (["gen", "--d", "1", "--r", "2", "--base", "1e999999999999"], "argument --base: " + budget)):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.strip().splitlines()[-1].endswith(message)


def test_malformed_flag_values_keep_the_argparse_message(capsys):
    for flag, text, kind in (("--q", "abc", "scalar"), ("--base", "2/x", "scalar"),
                             ("--d", "1e9", "int"), ("--r", "2.5", "int")):
        argv = ["gen", "--d", "1", "--r", "2", flag, text]
        assert main(argv) == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.endswith(f"argument {flag}: invalid {kind} value: '{text}'")


def test_gen_is_deterministic_and_round_trips(capsys):
    assert main(["gen", "--d", "1", "--r", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--d", "1", "--r", "2"]) == 0
    assert capsys.readouterr().out == first
    points = sequence_from_json(json.loads(first))
    assert points.dim == 1 and points.length == 3


def test_gen_with_a_base_just_above_one_finishes(capsys):
    # Its chain multiplier is about 1.1 million, the base-log of 3.
    start = time.perf_counter()
    assert main(["gen", "--d", "1", "--r", "2", "--base", "1000001/1000000"]) == 0
    assert time.perf_counter() - start < 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["base"] == "1000001/1000000" and payload["exponents"] == [[2197228, 4394456, 6591684]]


def test_slow_logarithm_and_oversized_uniform_table_exit_two_at_once(capsys, tmp_path):
    near_one = "1." + "0" * 2000 + "1"
    compact = write_json(tmp_path / "near_one.json",
                         {"d": 2, "n": 4, "base": near_one, "exponents": [[1, 2, 3, 4], [2, 4, 6, 8]]})
    precision = ("error: the threshold's logarithm to this base needs 13360 bits of precision, over the"
                 " 8192-bit budget for logarithms; a base closer to 1 needs more")
    uniform = "error: a uniform table of 5000 x 5002 exponents passes the budget of 16384 for constructed instances"
    for argv, message in ((["gen", "--d", "2", "--r", "2", "--base", near_one], precision),
                          (["verify-universality", "--seq", compact], precision),
                          (["gen", "--schedule", "uniform", "--d", "5000", "--r", "2"], uniform)):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [message]


def test_gen_with_the_largest_decimal_threshold_finishes(capsys):
    # reading q takes about 0.4 s; the threshold exponent's search does not grow with q
    start = time.perf_counter()
    assert main(["gen", "--d", "2", "--r", "3", "--base", "1." + "0" * 76 + "1", "--q", "1e1000000"]) == 0
    assert time.perf_counter() - start < 2
    c = 230258509299404568401799145468436420760110148862877297603332790096757260967736399317
    exponents = json.loads(capsys.readouterr().out)["exponents"]
    assert exponents[0][0] == (c + 1) * 3  # the chain multiplier c + 1, at the witness's third position


def test_gen_uniform_schedule(capsys):
    assert main(["gen", "--d", "2", "--r", "2", "--schedule", "uniform", "--base", "3"]) == 0
    points = sequence_from_json(json.loads(capsys.readouterr().out))
    assert points.dim == 2 and points.length == 4
    assert points.entry(1, 2) == 9
    assert points.entry(2, 2) == 81


def test_gen_uniform_schedule_rejects_q(capsys):
    # The uniform schedule reads no threshold, so --q would go unused.
    assert main(["gen", "--d", "1", "--r", "2", "--schedule", "uniform", "--q", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--q" in captured.err.strip().splitlines()[-1]


@pytest.mark.parametrize("schedule", ["chain", "uniform"])
def test_gen_writes_exponent_tables_that_round_trip(capsys, tmp_path, schedule):
    assert main(["gen", "--d", "2", "--r", "3", "--schedule", schedule]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"d", "n", "base", "exponents"}
    points = sequence_from_json(payload)
    assert points._exponents is not None and points._rows is None
    assert sequences.sequence_to_json(points) == payload
    if schedule == "chain":
        assert points == gen_super_dominant(2, 3).points
    else:
        assert points == sequences.gen_power_sequence(2, sequences.uniform_exponents(2, 7))
    # the decimal form of the same points still loads, without a table, and
    # every command gives the same report on either file
    decimal = sequences.sequence_to_json(sequences.PointSequence(points.rows))
    assert set(decimal) == {"d", "n", "points"}
    assert sequence_from_json(decimal) == points
    assert sequence_from_json(decimal)._exponents is None
    part = write_json(tmp_path / "p.json", {"n": 7, "classes": [[1, 4, 7], [2, 5], [3, 6]]})
    reports = []
    for form in (payload, decimal):
        seq = write_json(tmp_path / "s.json", form)  # reports name the file
        for argv in (["enumerate", "--seq", seq], ["check", "--seq", seq, "--partition", part],
                     ["dominant", "--oracle", "--seq", seq, "--partition", part]):
            code = main(argv + ["--json"])
            reports.append((code, capsys.readouterr()))
    assert reports[:3] == reports[3:]
    assert [code for code, _ in reports[:2]] == [0, 0]


VALID_COMPACT = {"d": 2, "n": 4, "base": "2", "exponents": [[0, 1, 2, 3], [0, 2, 5, 9]]}


@pytest.mark.parametrize("change, message", [
    ({"exponents": [[0, 1, 2, 3], [0, 2, 5.0, 9]]}, "exponents must be plain integers, got 5.0"),
    ({"exponents": [[0, 1, 2, 3], [0, 2, "5", 9]]}, "exponents must be plain integers, got '5'"),
    ({"exponents": [[0, True, 2, 3], [0, 2, 5, 9]]}, "exponents must be plain integers, got True"),
    ({"base": "1"}, "base must exceed 1"),
    ({"base": "1/2"}, "base must exceed 1"),
    ({"base": True}, "cannot interpret True as an exact scalar"),
    ({"exponents": [[0, 1, 2, 3], [0, 1, 2, 3]]}, "exponent gaps between rows 1 and 2 must strictly increase"),
    ({"exponents": [[0, 1, 2, 3], [0, 2, 3, 9]]}, "exponent gaps between rows 1 and 2 must strictly increase"),
    ({"d": 3}, "sequence payload shape does not match its declared d and n"),
    ({"n": 5}, "sequence payload shape does not match its declared d and n"),
    ({"exponents": [[0, 1, 2, 3], [0, 2, 5]]}, "sequence payload shape does not match its declared d and n"),
    ({"exponents": 7}, "object of type 'int' has no len()"),
    ({"d": "2"}, "'d' must be a plain integer, got '2'"),
])
def test_malformed_compact_sequence_exits_two(capsys, tmp_path, change, message):
    good = write_json(tmp_path / "good.json", VALID_COMPACT)
    assert main(["enumerate", "--seq", good]) == 0
    capsys.readouterr()
    seq = write_json(tmp_path / "s.json", {**VALID_COMPACT, **change})
    for argv in (["enumerate", "--seq", seq], ["sgp", "--seq", seq]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"error: bad sequence file {seq}: {message}"
    without_base = {k: v for k, v in VALID_COMPACT.items() if k != "base"}
    seq = write_json(tmp_path / "s.json", without_base)
    assert main(["sgp", "--seq", seq]) == 2
    assert "needs keys 'd', 'n', 'base', 'exponents'" in capsys.readouterr().err


NEEDS_KEYS = "partition payload needs keys 'n' and 'classes'"


@pytest.mark.parametrize("payload, message", [
    ({"n": 3}, NEEDS_KEYS),
    ([1, 2], NEEDS_KEYS),
    ("text", NEEDS_KEYS),
    (None, NEEDS_KEYS),
    ({"n": 3, "classes": 5}, "'int' object is not iterable"),
    ({"n": 3, "classes": [1, 2, 3]}, "'int' object is not iterable"),
    ({"n": 3, "classes": [[1, 3], [2], []]}, "classes must be nonempty"),
    ({"n": "3", "classes": [[1, 3], [2]]}, "positions must be plain integers, got '3'"),
    ({"n": 3, "classes": [[1, "a"], [2]]}, "positions must be plain integers, got 'a'"),
])
def test_malformed_partition_file_exits_two(capsys, tmp_path, line_seq, payload, message):
    part = write_json(tmp_path / "p.json", payload)
    for argv in (["check", "--seq", line_seq], ["dominant"], ["witness"]):
        assert main(argv + ["--partition", part]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"error: bad partition file {part}: {message}"


def test_commands_that_need_entries_refuse_an_oversized_file(capsys, tmp_path):
    # The (5,2) file's largest entry, 2**1579486062, would take about 0.18 GiB;
    # the four commands that read entries exit 2 before building any.
    seq = str(tmp_path / "s.json")
    assert main(["gen", "--d", "5", "--r", "2", "--out", seq]) == 0
    part = write_json(tmp_path / "p.json", {"n": 7, "classes": [[1, 2, 3], [4, 5, 6, 7]]})
    for argv in (["check", "--seq", seq, "--partition", part],
                 ["witness", "--seq", seq, "--partition", part],
                 ["sgp", "--seq", seq],
                 ["dominant", "--oracle", "--seq", seq, "--partition", part]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            r"error: the sequence's largest entry would have up to 1579486063 bits,"
            r" over the \d+-bit budget for building entries",
            captured.err.strip(),
        )
    # the dominant route reads the exponents only
    assert main(["dominant", "--seq", seq, "--partition", part]) == 0
    assert main(["verify-universality", "--seq", seq]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_universality_five_two_passes(capsys):
    start = time.perf_counter()
    assert main(["verify-universality", "--d", "5", "--r", "2", "--json"]) == 0
    assert time.perf_counter() - start < 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] and payload["n"] == 7 and len(payload["tverberg"]) == 1


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

    monkeypatch.setattr(sequences, "ordered_lift", counted(sequences.ordered_lift))
    assert main(["dominant", "--partition", part, "--oracle", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle_agree"] is True
    assert len(calls) == 1


def _planted_violation(report):
    return dataclasses.replace(report, violations=("planted: the runner-up outweighs the dominant",))


def _planted_argmax(report):
    fillings = enumerate_valid_fillings(report.dominant.partition, report.ell)
    other = next(f for f in fillings if f != report.dominant)
    return dataclasses.replace(report, dominant=other)


@pytest.mark.parametrize(
    "plant, reason",
    [
        (_planted_violation, "planted: the runner-up outweighs the dominant"),
        (_planted_argmax, "argmax-mismatch: the brute-force largest monomial has grid [["),
    ],
    ids=["violation", "argmax"],
)
def test_dominant_oracle_disagreement_says_why(capsys, monkeypatch, tmp_path, plant, reason):
    part = write_json(tmp_path / "p.json", {"n": 5, "classes": [[3], [1, 2], [4, 5]]})
    real = cli.dominance_report

    def planted_on_ell_two(points, partition, ell, q, coords):
        report = real(points, partition, ell, q, coords)
        return plant(report) if ell == 2 else report

    monkeypatch.setattr(cli, "dominance_report", planted_on_ell_two)
    assert main(["dominant", "--partition", part, "--oracle"]) == 1
    out = capsys.readouterr().out
    assert out.count("oracle: DISAGREE") == 1
    assert f"oracle: DISAGREE\n  {reason}" in out
    assert out.rstrip().endswith("ORACLE DISAGREE")
    assert main(["dominant", "--partition", part, "--oracle", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_agree"] is False
    verdicts = [(rec["oracle"], "oracle_reasons" in rec) for rec in payload["ells"]]
    assert verdicts == [("agree", False), ("disagree", True)] + [("agree", False)] * 3
    (reported,) = payload["ells"][1]["oracle_reasons"]
    assert reported.startswith(reason)


@pytest.mark.parametrize("factor, reasons", [(2, ["sum-mismatch"]), (-1, ["sign-mismatch", "sum-mismatch"])])
def test_dominant_oracle_reports_a_planted_determinant(capsys, monkeypatch, tmp_path, factor, reasons):
    # dominance_report's own checks, reached through the CLI: ell 2's
    # determinant is planted, the other ells keep theirs
    part = write_json(tmp_path / "p.json", {"n": 7, "classes": [[1, 4, 7], [2, 5], [3, 6]]})
    real = fillings._cramer_det
    monkeypatch.setattr(fillings, "_cramer_det", lambda k, dn, j: (factor if j == 1 else 1) * real(k, dn, j))
    assert main(["dominant", "--oracle", "--d", "2", "--r", "3", "--partition", part]) == 1
    out = capsys.readouterr().out
    assert out.count("oracle: DISAGREE") == 1
    shown = re.search(r"oracle: DISAGREE\n((?:  .*\n)+)", out).group(1).splitlines()
    assert [line.strip().split(":")[0] for line in shown] == reasons
    assert out.rstrip().endswith("ORACLE DISAGREE")
    assert main(["dominant", "--oracle", "--d", "2", "--r", "3", "--partition", part, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_agree"] is False
    verdicts = [rec["oracle"] for rec in payload["ells"]]
    assert verdicts == ["agree", "disagree"] + ["agree"] * 5
    assert [v.split(":")[0] for v in payload["ells"][1]["oracle_reasons"]] == reasons


def test_dominant_grid_matches_rainbow_layout(capsys, tmp_path):
    part = write_json(tmp_path / "p.json", {"n": 5, "classes": [[1, 4], [2, 5], [3]]})
    assert main(["dominant", "--partition", part]) == 0
    out = capsys.readouterr().out
    assert "ell = 1" in out and "ell = 5" in out
    assert "z0" in out and "z1" in out


@pytest.mark.parametrize("d, r", [(1, 3), (3, 2)])
def test_dominant_sign_is_the_determinant_sign(capsys, tmp_path, d, r):
    # On odd d the transversal parity alone is the opposite of sign det(M_ell).
    points = gen_super_dominant(d, r).points
    n = points.length
    for partition in enumerate_proper_partitions(n, r, d + 1):
        part = write_json(tmp_path / "p.json", partition_to_json(partition))
        assert main(["dominant", "--partition", part, "--json"]) == 0
        signs = [rec["sign"] for rec in json.loads(capsys.readouterr().out)["ells"]]
        system = build_system(points, partition)
        assert signs == [det_sign(system.matrix.with_column(col, system.rhs)) for col in range(n)]


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


def test_witness_without_a_pair_fails(capsys, monkeypatch, tmp_path):
    part = write_json(tmp_path / "nr.json", {"n": 5, "classes": [[3], [1, 2], [4, 5]]})
    monkeypatch.setattr(cli, "sign_flip_witness", lambda partition, profile: None)
    assert main(["witness", "--partition", part]) == 1
    out = capsys.readouterr().out
    assert "FAIL: no consecutive same-class pair shares its marker pattern" in out.splitlines()
    assert main(["witness", "--partition", part, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert "witness" in payload and payload["witness"] is None


@pytest.mark.parametrize("command", ["enumerate", "verify-universality"])
def test_degenerate_points_exit_two(capsys, tmp_path, command):
    # {1,2}|{3} is singular on three equal points, and its hulls meet
    seq = write_json(tmp_path / "same.json", {"d": 1, "n": 3, "points": [["1"], ["1"], ["1"]]})
    assert main([command, "--seq", seq]) == 2
    err = capsys.readouterr().err
    assert err == "error: singular system; the points are degenerate for this partition\n"


def test_enumerate_skips_a_singular_partition_with_disjoint_hulls(capsys, tmp_path):
    seq = write_json(tmp_path / "near.json", {"d": 1, "n": 3, "points": [["1"], ["1"], ["2"]]})
    assert main(["enumerate", "--seq", seq]) == 0
    assert "tverberg partitions: 0" in capsys.readouterr().out
    assert main(["enumerate", "--seq", seq, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["partitions"] == []


def test_sgp_verdicts(capsys, tmp_path, line_seq):
    assert main(["sgp", "--seq", line_seq]) == 0
    assert "yes" in capsys.readouterr().out
    dup = write_json(tmp_path / "dup.json", {"d": 1, "n": 3, "points": [["1"], ["2"], ["2"]]})
    assert main(["sgp", "--seq", dup]) == 1
    assert "no" in capsys.readouterr().out


def test_sgp_with_a_huge_class_count_is_the_largest_useful_one(capsys, tmp_path):
    # Seven points hold at most seven disjoint subsets, so any r >= 7 gives
    # the r = 7 verdict; the family walk stops at the points, not at r.
    seq = str(tmp_path / "s.json")
    assert main(["gen", "--d", "1", "--r", "4", "--out", seq]) == 0
    assert main(["sgp", "--seq", seq, "--r", "7", "--json"]) == 0
    expected = json.loads(capsys.readouterr().out)["strong_general_position"]
    start = time.perf_counter()
    assert main(["sgp", "--seq", seq, "--r", "1000000", "--json"]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out) == {"r": 1000000, "strong_general_position": expected}


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
    captured = capsys.readouterr()
    assert "cannot write" in captured.err
    assert captured.out == ""


def test_cross_check_failure_exits_three(capsys, monkeypatch, line_seq, good_partition):
    real = partitions._cramer_signs

    def flip_first(points, partition):
        base_sign, det_signs = real(points, partition)
        return base_sign, (-det_signs[0], *det_signs[1:])

    monkeypatch.setattr(partitions, "_cramer_signs", flip_first)
    assert main(["check", "--seq", line_seq, "--partition", good_partition]) == 3
    captured = capsys.readouterr()
    assert "internal cross-check failed" in captured.err
    assert captured.out == ""


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


def test_boolean_sequence_entry_exits_two(capsys, tmp_path, good_partition):
    seq = write_json(tmp_path / "bool.json", {"d": 1, "n": 3, "points": [["1"], ["2"], [True]]})
    assert main(["check", "--seq", seq, "--partition", good_partition]) == 2
    assert "bad sequence file" in capsys.readouterr().err


def test_non_integer_sequence_shape_exits_two(capsys, tmp_path, good_partition):
    points = [["1"], ["2"], ["5"]]
    for key, payload in (("d", {"d": True, "n": 3, "points": points}),
                         ("n", {"d": 1, "n": 3.0, "points": points})):
        seq = write_json(tmp_path / f"{key}.json", payload)
        for argv in (["enumerate", "--seq", seq],
                     ["check", "--seq", seq, "--partition", good_partition],
                     ["verify-universality", "--seq", seq]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"'{key}' must be a plain integer" in captured.err


def test_consecutive_calls_do_not_share_flags(capsys, tmp_path, line_seq, good_partition):
    check = ["check", "--seq", line_seq, "--partition", good_partition]
    assert main([*check, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["is_tverberg"] is True
    assert main(check) == 0
    assert capsys.readouterr().out.startswith("verdict: TVERBERG")
    out = tmp_path / "out.txt"
    assert main([*check, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith("verdict: TVERBERG")
    out.unlink()
    assert main(check) == 0
    assert capsys.readouterr().out.startswith("verdict: TVERBERG")
    assert not out.exists()


def test_one_class_partition_exits_two(capsys, tmp_path, line_seq):
    part = write_json(tmp_path / "p.json", {"n": 3, "classes": [[1, 2, 3]]})
    for argv, message in (
        (["dominant"], "at least two classes"),
        (["witness"], "at least two classes"),
        (["check", "--seq", line_seq], "expects a partition into r = 2 classes, got 1"),
    ):
        assert main(argv + ["--partition", part]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert message in captured.err


def test_readme_command_examples_parse():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = {
        build_parser().parse_args(shlex.split(line)[1:]).command
        for line in block.splitlines()
        if line.startswith("tverberg ")
    }
    assert commands == set(READS)


def test_readme_flag_table_matches_what_each_command_reads():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    table = re.search(r"\| command \| flags \|\n\|---\|---\|\n((?:\|.*\n)+)", section).group(1)
    rows = {}
    for line in table.splitlines():
        command, flags = (cell.strip() for cell in line.strip("|").split("|"))
        rows[command.strip("`")] = " ".join(flag.strip("`") for flag in flags.split())
    assert rows == READS


def test_readme_python_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("True ")


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


def test_oversized_constructed_instance_exits_two_at_once(capsys, tmp_path):
    # Each asks for a witness table of about 10**9 exponents; the partition alone sets d = 999.
    part = write_json(tmp_path / "p.json", {"n": 1001, "classes": [list(range(1, 501)), list(range(501, 1002))]})
    for argv, d in ((["gen", "--d", "1000", "--r", "2"], 1000),
                    (["verify-universality", "--d", "1000", "--r", "2"], 1000),
                    (["dominant", "--partition", part], 999)):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            rf"error: a \({d},2\) instance needs a witness table of \d+ exponents,"
            r" over the budget of 16384 for constructed instances",
            captured.err.strip(),
        )


def test_input_past_the_recursion_limit_exits_two(capsys, tmp_path):
    # the partition walk recurses once per element, 999 here
    assert main(["rainbow", "--d", "1", "--r", "500"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.strip().splitlines() == [
        "error: the input is too large to enumerate within Python's recursion limit"
    ]
    # the JSON decoder recurses once per nesting level
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["sgp", "--seq", str(deep)]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: malformed JSON in {deep}: nested too deeply"]


@pytest.mark.parametrize("command", ["verify-universality", "enumerate", "sgp", "check"])
def test_one_point_sequence_exits_two(capsys, tmp_path, command):
    # One point fits r = 1, below the two classes a partition needs.
    seq = write_json(tmp_path / "one.json", {"d": 1, "n": 1, "points": [["5"]]})
    argv = [command, "--seq", seq]
    if command == "check":
        argv += ["--partition", write_json(tmp_path / "p.json", {"n": 1, "classes": [[1]]})]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "at least 2 classes" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify-universality --seq d2.json --d 3", "--d 3 contradicts the sequence file (d = 2)"),
        ("dominant --partition p7.json --d 3", "--d 3 contradicts the partition (d = 2)"),
        ("dominant --partition p7.json --r 4", "--r 4 contradicts the partition (r = 3)"),
        ("verify-universality --d 2", "need --seq FILE, or --d and --r to construct an instance"),
        ("dominant --seq d2.json --partition p5.json", "partition covers 5 elements but the sequence has 7"),
        ("witness --seq d2.json --partition p5.json", "partition covers 5 elements but the sequence has 7"),
        ("check --seq d2.json --partition p5.json", "partition covers 5 elements but the sequence has 7"),
    ],
)
def test_instance_shape_mismatch_exits_two(capsys, tmp_path, argv, message):
    write_json(tmp_path / "d2.json", {"d": 2, "n": 7, "points": [[str(i), str(i * i)] for i in range(1, 8)]})
    write_json(tmp_path / "p7.json", {"n": 7, "classes": [[1, 2, 3], [4, 5], [6, 7]]})
    write_json(tmp_path / "p5.json", {"n": 5, "classes": [[1, 2], [3, 4], [5]]})
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in argv.split()]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1] == f"error: {message}"


@pytest.mark.parametrize("command", ["check", "dominant", "witness"])
@pytest.mark.parametrize("classes", [[[1], [2], [3], [4]], [[1, 2], [3], [4]]])
def test_partition_class_count_must_fit_the_sequence(capsys, tmp_path, command, classes):
    # A (2,2) file splits into r = 2 classes; every command that reads a
    # partition beside it says so in the same words.
    seq = write_json(tmp_path / "s.json", sequences.sequence_to_json(gen_super_dominant(2, 2).points))
    part = write_json(tmp_path / "p.json", {"n": 4, "classes": classes})
    assert main([command, "--seq", seq, "--partition", part]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = f"the sequence shape expects a partition into r = 2 classes, got {len(classes)}"
    assert captured.err.strip().splitlines()[-1] == f"error: {expected}"
