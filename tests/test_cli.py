"""Exit codes and output shapes of the command-line front end."""
import json

import pytest

from tverberg import partitions
from tverberg.cli import main
from tverberg.sequences import sequence_from_json


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
