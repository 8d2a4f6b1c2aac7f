"""Command-line front end: generation, checking, enumeration, and reports.

This is the only I/O boundary of the package.  Every command reads JSON files
in the formats of sequence_from_json / partition_from_json and returns its
report as (exit code, text lines, payload); main writes either the aligned
text or (with --json) the payload as a machine-readable document, once.  The
exit code is 0 on success or PASS, 1 on a FAIL verdict, 2 on any input
problem, and 3 when an internal cross-check fails (the two exact routes
disagree: a bug, not bad input).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .exact import _BudgetError, scalar
from .fillings import (
    _dominant_sign,
    _grid_height,
    dominance_report,
    filling_to_json,
    find_dominant_filling,
    sign_flip_witness,
)
from .partitions import (
    CertificateMismatchError,
    Partition,
    _class_count,
    decide_tverberg,
    enumerate_rainbow,
    enumerate_tverberg,
    is_rainbow,
    is_strong_general_position,
    partition_from_json,
    partition_to_json,
    tverberg_number,
)
from .sequences import (
    NotDominantError,
    PointSequence,
    _certified_profile,
    default_threshold,
    gen_power_sequence,
    gen_super_dominant,
    sequence_from_json,
    sequence_to_json,
    uniform_exponents,
)

PASS, FAIL, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3
DEFAULT_BASE = Fraction(2)


class InputError(ValueError):
    """A bad flag, file, or unmet precondition; maps to exit status 2."""


# ---------------------------------------------------------------------------
# input and output plumbing


def _load_payload(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"malformed JSON in {path}: nested too deeply") from exc


def _load_sequence(path: str) -> PointSequence:
    payload = _load_payload(path)
    try:
        return sequence_from_json(payload)
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise InputError(f"bad sequence file {path}: {exc}") from exc


def _load_partition(path: str) -> Partition:
    payload = _load_payload(path)
    try:
        return partition_from_json(payload)
    except (ValueError, TypeError, KeyError) as exc:
        raise InputError(f"bad partition file {path}: {exc}") from exc


def _emit(config: argparse.Namespace, lines: Sequence[str], payload: dict) -> None:
    text = json.dumps(payload, indent=2) if config.as_json else "\n".join(lines)
    if config.out_path:
        try:
            with open(config.out_path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write {config.out_path}: {exc}") from exc
    else:
        print(text)


def _format_partition(partition: Partition) -> str:
    return " | ".join("{" + ",".join(str(e) for e in cls) + "}" for cls in partition.classes)


def _listing(found: list, lines: list, payload: dict) -> tuple:
    """A report of the partitions found: one line each, then count and partitions in the payload."""
    lines.extend("  " + _format_partition(p) for p in found)
    payload.update(count=len(found), partitions=[partition_to_json(p) for p in found])
    return PASS, lines, payload


def _grid_lines(grid: list) -> list:
    """Aligned text of a filling_to_json grid, one column per class."""
    cells = [[str(cell) for cell in row] for row in grid]
    heads = [f"A{m}" for m in range(1, len(cells[0]) + 1)]
    width = max(len(c) for row in [heads, *cells] for c in row)
    return ["        " + "  ".join(c.rjust(width) for c in heads)] + [
        f"row {k}".ljust(8) + "  ".join(c.rjust(width) for c in row) for k, row in enumerate(cells)
    ]


def _check_fit(points: PointSequence, partition: Partition) -> None:
    """Reject a partition whose size or class count does not fit the sequence."""
    if partition.n != points.length:
        raise InputError(
            f"partition covers {partition.n} elements but the sequence has {points.length}"
        )
    r = _class_count(points)
    if partition.r != r:
        raise InputError(
            f"the sequence shape expects a partition into r = {r} classes, got {partition.r}"
        )


def _derive_r(points: PointSequence, declared: Optional[int]) -> int:
    r = _class_count(points)
    if declared is not None and declared != r:
        raise InputError(f"--r {declared} contradicts the sequence shape (expects r = {r})")
    return r


def _resolve_instance(config: argparse.Namespace, partition: Optional[Partition] = None):
    """Points plus (d, r, q) from a file or from the stock constructor."""
    if config.seq_path:
        if config.base is not None:
            raise InputError("--base applies to constructed instances only, not beside --seq")
        points = _load_sequence(config.seq_path)
        d = points.dim
        r = _derive_r(points, config.r)
        if config.d is not None and config.d != d:
            raise InputError(f"--d {config.d} contradicts the sequence file (d = {d})")
        if partition is not None:
            _check_fit(points, partition)
        q = config.q if config.q is not None else default_threshold(d, r)
        source = f"file {config.seq_path}"
    else:
        if partition is not None:
            r = partition.r
            d = _grid_height(partition) - 1
            if config.d is not None and config.d != d:
                raise InputError(f"--d {config.d} contradicts the partition (d = {d})")
            if config.r is not None and config.r != r:
                raise InputError(f"--r {config.r} contradicts the partition (r = {r})")
        else:
            if config.d is None or config.r is None:
                raise InputError("need --seq FILE, or --d and --r to construct an instance")
            d, r = config.d, config.r
        base = config.base if config.base is not None else DEFAULT_BASE
        built = gen_super_dominant(d, r, config.q, base)
        points, q = built.points, built.q
        source = f"constructed super-dominant (base {base})"
    return points, d, r, q, source


def _profile_for(points: PointSequence, q: Fraction):
    try:
        return _certified_profile(points, q)
    except NotDominantError as exc:
        raise InputError(f"sequence not dominant: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_gen(config: argparse.Namespace) -> tuple:
    n = tverberg_number(config.r, config.d)
    base = config.base if config.base is not None else DEFAULT_BASE
    if config.schedule == "chain":
        points = gen_super_dominant(config.d, config.r, config.q, base).points
    elif config.q is not None:
        raise InputError("--q applies to --schedule chain only, not to uniform")
    else:
        points = gen_power_sequence(base, uniform_exponents(config.d, n))
    payload = sequence_to_json(points)
    return PASS, [json.dumps(payload, indent=2)], payload


def cmd_check(config: argparse.Namespace) -> tuple:
    points = _load_sequence(config.seq_path)
    partition = _load_partition(config.partition_path)
    _check_fit(points, partition)
    verdict = decide_tverberg(points, partition)
    payload = {
        "is_tverberg": verdict.is_tverberg,
        "reason": verdict.reason,
        "z": [str(x) for x in verdict.z] if verdict.z is not None else None,
        "alphas": [str(a) for a in verdict.alphas] if verdict.alphas is not None else None,
        "base_sign": verdict.base_sign,
        "det_signs": list(verdict.det_signs) if verdict.det_signs is not None else None,
    }
    if verdict.is_tverberg:
        lines = [
            "verdict: TVERBERG",
            "z = (" + ", ".join(payload["z"]) + ")",
            "alphas: " + ", ".join(payload["alphas"]),
        ]
    else:
        lines = [f"verdict: NOT TVERBERG ({verdict.reason})"]
    if verdict.base_sign is not None:
        lines.append(f"base determinant sign: {verdict.base_sign:+d}")
        lines.append("Cramer signs: " + ", ".join(f"{s:+d}" for s in verdict.det_signs))
    return (PASS if verdict.is_tverberg else FAIL), lines, payload


def cmd_enumerate(config: argparse.Namespace) -> tuple:
    points = _load_sequence(config.seq_path)
    r = _derive_r(points, config.r)
    found = enumerate_tverberg(points)
    lines = [f"n = {points.length}, d = {points.dim}, r = {r}", f"tverberg partitions: {len(found)}"]
    return _listing(found, lines, {"n": points.length, "d": points.dim, "r": r})


def cmd_rainbow(config: argparse.Namespace) -> tuple:
    found = enumerate_rainbow(config.d, config.r)
    lines = [f"rainbow partitions for d = {config.d}, r = {config.r}: {len(found)}"]
    return _listing(found, lines, {"d": config.d, "r": config.r})


def cmd_verify_universality(config: argparse.Namespace) -> tuple:
    if config.seq_path and config.q is not None:
        raise InputError("--q applies to constructed instances only, not beside --seq")
    points, d, r, _, source = _resolve_instance(config)
    tverberg_set = enumerate_tverberg(points)
    rainbow_set = enumerate_rainbow(d, r)
    only_tverberg = [p for p in tverberg_set if p not in rainbow_set]
    only_rainbow = [p for p in rainbow_set if p not in tverberg_set]
    equal = not only_tverberg and not only_rainbow
    lines = [
        f"instance: d = {d}, r = {r}, n = {points.length} ({source})",
        f"tverberg partitions: {len(tverberg_set)}",
        f"rainbow partitions:  {len(rainbow_set)}",
    ]
    if equal:
        lines.append("PASS: the Tverberg partitions are exactly the rainbow partitions")
    else:
        lines.append("FAIL: the two sets differ")
        lines.extend("  tverberg only: " + _format_partition(p) for p in only_tverberg)
        lines.extend("  rainbow only:  " + _format_partition(p) for p in only_rainbow)
    payload = {
        "d": d,
        "r": r,
        "n": points.length,
        "source": source,
        "pass": equal,
        "tverberg": [partition_to_json(p) for p in tverberg_set],
        "rainbow": [partition_to_json(p) for p in rainbow_set],
        "tverberg_only": [partition_to_json(p) for p in only_tverberg],
        "rainbow_only": [partition_to_json(p) for p in only_rainbow],
    }
    return (PASS if equal else FAIL), lines, payload


def cmd_dominant(config: argparse.Namespace) -> tuple:
    partition = _load_partition(config.partition_path)
    points, d, r, q, source = _resolve_instance(config, partition)
    profile, coords = _profile_for(points, q)
    lines = [f"instance: d = {d}, r = {r}, q = {q} ({source})"]
    records = []
    agree = True
    for ell in range(1, partition.n + 1):
        filling = find_dominant_filling(partition, ell, profile)
        # the sign of the dominant term, which is sign det(M_ell)
        sign = _dominant_sign(filling.grid, ell, partition.n, coords)
        record = {"ell": ell, "filling": filling_to_json(filling), "sign": sign}
        lines += ["", f"ell = {ell}  dominant monomial sign {sign:+d}"]
        lines += _grid_lines(record["filling"]["grid"])
        if config.oracle:
            report = dominance_report(points, partition, ell, q, coords)
            reasons = list(report.violations)
            if report.dominant != filling:
                grid = json.dumps(filling_to_json(report.dominant)["grid"])
                reasons.append(f"argmax-mismatch: the brute-force largest monomial has grid {grid}")
            agree = agree and not reasons
            record["oracle"] = "disagree" if reasons else "agree"
            lines.append(f"oracle: {'DISAGREE' if reasons else 'AGREE'}")
            if reasons:
                record["oracle_reasons"] = reasons
                lines.extend("  " + v for v in reasons)
        records.append(record)
    payload = {"d": d, "r": r, "q": str(q), "source": source, "ells": records}
    if config.oracle:
        lines += ["", "ORACLE AGREE" if agree else "ORACLE DISAGREE"]
        payload["oracle_agree"] = agree
    return (PASS if agree else FAIL), lines, payload


def cmd_witness(config: argparse.Namespace) -> tuple:
    partition = _load_partition(config.partition_path)
    points, d, r, q, source = _resolve_instance(config, partition)
    if is_rainbow(partition, d):
        raise InputError("partition is rainbow; no sign-flip witness exists")
    profile, _ = _profile_for(points, q)
    pair = sign_flip_witness(partition, profile)
    lines = [f"instance: d = {d}, r = {r}, q = {q} ({source})"]
    payload = {"d": d, "r": r, "q": str(q), "source": source, "witness": pair and list(pair)}
    if pair is None:
        lines.append("FAIL: no consecutive same-class pair shares its marker pattern")
        return FAIL, lines, payload
    ell1, ell2 = pair
    verdict = decide_tverberg(points, partition)
    lines.append(
        f"witness pair: {ell1}, {ell2} (class {partition.class_of(ell1)});"
        " their dominant fillings share every marker position"
    )
    lines.append(
        "decide_tverberg: "
        + ("TVERBERG (unexpected)" if verdict.is_tverberg else f"NOT TVERBERG ({verdict.reason})")
    )
    payload["is_tverberg"] = verdict.is_tverberg
    return (FAIL if verdict.is_tverberg else PASS), lines, payload


def cmd_sgp(config: argparse.Namespace) -> tuple:
    points = _load_sequence(config.seq_path)
    r = config.r if config.r is not None else _derive_r(points, None)
    ok = is_strong_general_position(points, r)
    lines = [f"strong general position (r = {r}): {'yes' if ok else 'no'}"]
    return (PASS if ok else FAIL), lines, {"r": r, "strong_general_position": ok}


# ---------------------------------------------------------------------------
# argument parsing


def _checked(kind, holds, requirement: str):
    """An argparse type: parse with kind, then reject values failing holds.

    A decimal exponent past scalar's budget is refused with the budget's own
    message; argparse words every other ValueError as "invalid <kind> value".
    """

    def parse(text: str):
        try:
            value = kind(text)
        except ZeroDivisionError as exc:
            raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from exc
        except _BudgetError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must {requirement}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


_ABOVE_ONE = _checked(scalar, lambda v: v > 1, "exceed 1")

_FLAGS = {
    "d": dict(type=_checked(int, lambda v: v >= 1, "be at least 1"), help="ambient dimension"),
    "r": dict(type=_checked(int, lambda v: v >= 2, "be at least 2"), help="number of classes"),
    "q": dict(type=_ABOVE_ONE, help="dominance threshold, e.g. 49 or 3/2"),
    "base": dict(type=_ABOVE_ONE, help="power base of a constructed sequence (default 2)"),
    "seq": dict(dest="seq_path", metavar="FILE", help="point sequence JSON file"),
    "partition": dict(dest="partition_path", metavar="FILE", help="partition JSON file"),
    "schedule": dict(
        choices=("chain", "uniform"),
        default="chain",
        help="chain builds a verified super-dominant instance, uniform a plain geometric one",
    ),
    "oracle": dict(action="store_true", help="brute-force cross-check"),
    "out": dict(dest="out_path", metavar="FILE", help="write the report to FILE instead of stdout"),
    "json": dict(dest="as_json", action="store_true", help="machine-readable output"),
}

# name: (handler, the flags it reads with * marking the required ones, help)
_COMMANDS = {
    "gen": (cmd_gen, "d* r* q base schedule out json",
            "construct a point sequence and print its JSON document"),
    "check": (cmd_check, "seq* partition* out json",
              "decide whether one partition is Tverberg for a sequence"),
    "enumerate": (cmd_enumerate, "seq* r out json",
                  "list every Tverberg partition of a sequence"),
    "rainbow": (cmd_rainbow, "d* r* out json", "list the rainbow partitions for (d, r)"),
    "verify-universality": (cmd_verify_universality, "seq d r q base out json",
                            "compare Tverberg and rainbow partition sets, PASS/FAIL"),
    "dominant": (cmd_dominant, "partition* seq d r q base oracle out json",
                 "print the dominant grid filling for every omitted column"),
    "witness": (cmd_witness, "partition* seq d r q base out json",
                "find a consecutive same-class pair with matching marker patterns"),
    "sgp": (cmd_sgp, "seq* r out json", "check strong general position"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tverberg",
        description="Exact-arithmetic Tverberg partition toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (handler, flags, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        for flag in flags.split():
            key = flag.rstrip("*")
            cmd.add_argument(f"--{key}", required=flag.endswith("*"), **_FLAGS[key])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Entries of verified instances outgrow Python's 4300-digit int/str
    # conversion limit from (3,2) on; lift it for this call only.  Interpreters
    # older than the limit have no setter.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        ns = build_parser().parse_args(argv)
        code, lines, payload = ns.handler(ns)
        _emit(ns, lines, payload)
        return code
    except SystemExit as exc:
        return INPUT_ERROR if exc.code else PASS
    except CertificateMismatchError as exc:
        print(f"error: internal cross-check failed: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except RecursionError:
        # the partition walk recurses once per element
        print("error: the input is too large to enumerate within Python's recursion limit", file=sys.stderr)
        return INPUT_ERROR
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
