"""Benchmark of the tverberg command line, driven in-process.

One run is one Python process, single-threaded.  It sets up the instance
and partition files, then repeats passes over one workload's operations in a
closed loop (each `tverberg.cli.main([...])` call starts after the previous
one returns) for about --seconds seconds, and checks the exit code and the
JSON verdict of every call.  The last line of standard output is the result:

    {"correct": true, "attempted": 525, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 each
round is an untraced pass followed by a pass with the library's public
functions wrapped from outside (spans.py), and the metrics are the per-layer
ones plus the tracing overhead.

    python3 bench/run.py --workload check-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --trace 1   # each workload in its own process

The package is imported from the src/ directory beside bench/; files are
written only to a temporary directory under bench/, removed at exit.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import spans

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

WORKLOADS = ("universality", "check-sweep", "sgp", "dominant-oracle")
DEFAULT_SEED = 1
SETUP_MIN = 5
RUN_LIMIT_S = 150  # an operation still running then is stopped and counted failed
P90_MIN_OPS = 100  # op_p90_s needs at least ten samples above it per pass

# Rungs written to files by `gen` during set-up.  check-sweep and sgp use
# (2,3) and (1,4) for run length: `check` at (3,2) costs about 4 s per
# partition.  (3,2) could not be written anyway: its entries exceed Python's
# 4300-digit int/str conversion limit, so `gen --d 3 --r 2` exits 2.  That
# is an open defect of the CLI; this harness never raises the limit.
INSTANCES = {(2, 3): "seq-2-3.json", (1, 4): "seq-1-4.json"}

# dominant-oracle takes this many non-rainbow partitions of each class-size
# shape, besides the 4 rainbow ones.  A partition's filling count depends
# only on its shape, so every count metric is the same for every seed.  The
# picks are evenly spaced in listing order from an offset drawn by the seed:
# neighbouring partitions cost alike, so the pass time varies less from seed
# to seed than with a free draw.
DOMINANT_SAMPLE = {(2, 2, 3): 10, (1, 3, 3): 10}


def proper_partitions(n: int, r: int, max_size: int) -> list:
    """Partitions of 1..n into r classes of at most max_size elements.

    Built here rather than taken from the library, so that the benchmark's
    inputs and expected verdicts do not move with the code it measures.
    """
    found, classes = [], []

    def place(i):
        if i > n:
            if len(classes) == r:
                found.append([list(cls) for cls in classes])
            return
        for cls in classes:
            if len(cls) < max_size:
                cls.append(i)
                place(i + 1)
                cls.pop()
        if len(classes) < r:
            classes.append([i])
            place(i + 1)
            classes.pop()

    place(1)
    return found


def is_rainbow(classes: list, d: int, r: int) -> bool:
    """Each class meets each window of r consecutive positions exactly once."""
    windows = [range((s - 1) * (r - 1) + 1, s * (r - 1) + 2) for s in range(1, d + 2)]
    return all(sum(i in window for i in cls) == 1 for cls in classes for window in windows)


def family_count(n: int, r: int) -> int:
    """Families of 1..r disjoint nonempty subsets of 1..n.

    Those of k subsets number S(n+1, k+1): in a partition of 1..n+1 the class
    holding n+1 collects the unused elements.
    """
    stirling = [1]  # S(m, 0..m), starting at m = 0
    for m in range(1, n + 2):
        stirling = [0] + [
            k * (stirling[k] if k < m else 0) + stirling[k - 1] for k in range(1, m + 1)
        ]
    return sum(stirling[k + 1] for k in range(1, r + 1))


PARTITIONS = proper_partitions(7, 3, 3)  # the (2,3) rung: n = 7, r = 3
RAINBOW = [is_rainbow(classes, 2, 3) for classes in PARTITIONS]


class Op(NamedTuple):
    """One CLI call and the verdict it must give."""

    argv: list
    exit_code: int
    key: str
    value: bool


class SetUpError(RuntimeError):
    """Set-up did not produce the inputs; no result can be measured."""


class RunTimeout(BaseException):
    """Raised by SIGALRM at RUN_LIMIT_S; a BaseException so no handler swallows it."""


def _raise_timeout(signum, frame):
    raise RunTimeout


def operations(workload: str, seed: int, work: Path) -> list:
    rng = random.Random(seed)
    seq23, seq14 = (str(work / INSTANCES[rung]) for rung in ((2, 3), (1, 4)))

    def part(i):
        return str(work / f"part-{i}.json")

    if workload == "universality":
        return [Op(["verify-universality", "--d", "3", "--r", "2", "--json"], 0, "pass", True)]
    if workload == "sgp":
        return [Op(["sgp", "--seq", seq14, "--json"], 0, "strong_general_position", True)]
    if workload == "check-sweep":
        order = list(range(len(PARTITIONS)))
        rng.shuffle(order)
        return [
            Op(["check", "--seq", seq23, "--partition", part(i), "--json"],
               0 if RAINBOW[i] else 1, "is_tverberg", RAINBOW[i])
            for i in order
        ]
    chosen = [i for i, rainbow in enumerate(RAINBOW) if rainbow]
    for shape, count in DOMINANT_SAMPLE.items():
        pool = [
            i for i, classes in enumerate(PARTITIONS)
            if not RAINBOW[i] and tuple(sorted(map(len, classes))) == shape
        ]
        step = len(pool) / count
        start = rng.random() * step
        chosen += [pool[int(start + k * step)] for k in range(count)]
    rng.shuffle(chosen)
    return [
        Op(["dominant", "--oracle", "--d", "2", "--r", "3", "--partition", part(i), "--json"],
           0, "oracle_agree", True)
        for i in chosen
    ]


def set_up(work: Path):
    """Fresh import of the package, instance files through `gen`, partition files."""
    for name in [m for m in sys.modules if m == "tverberg" or m.startswith("tverberg.")]:
        del sys.modules[name]
    cli = importlib.import_module("tverberg.cli")
    for (d, r), name in INSTANCES.items():
        code = cli.main(["gen", "--d", str(d), "--r", str(r), "--out", str(work / name)])
        if code != 0:
            raise SetUpError(f"gen --d {d} --r {r} exited {code}")
    for i, classes in enumerate(PARTITIONS):
        (work / f"part-{i}.json").write_text(json.dumps({"n": 7, "classes": classes}))
    return cli


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def fail(self, op: Op, reason: str):
        self.failures.append({"argv": op.argv, "reason": reason})


def run_op(cli, op: Op):
    """Latency of one call and why its verdict is wrong (None when it is right)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            code = cli.main(op.argv)
            latency = perf_counter() - start
    except Exception as exc:  # a traceback out of the CLI is a failed operation
        return None, f"raised {type(exc).__name__}: {exc}"
    if code != op.exit_code:
        return latency, f"exit {code}, expected {op.exit_code}: {err.getvalue().strip()[:300]}"
    try:
        verdict = json.loads(out.getvalue()).get(op.key)
    except (ValueError, AttributeError) as exc:
        return latency, f"unreadable JSON output: {exc}"
    if verdict is not op.value:
        return latency, f"{op.key} = {verdict!r}, expected {op.value!r}"
    return latency, None


def run_pass(cli, ops: list, tally: Tally) -> list:
    latencies = []
    for op in ops:
        tally.attempted += 1
        try:
            latency, reason = run_op(cli, op)
        except RunTimeout:
            tally.fail(op, f"timeout: run limit of {RUN_LIMIT_S} s reached")
            raise
        if reason:
            tally.fail(op, reason)
        if latency is not None:
            latencies.append(latency)
    return latencies


def measure(work: Path, ops: list, seconds: float, tracer):
    """Rounds of a set-up and an untraced pass (and a traced one, given a tracer).

    A round starts only if a round as long as the last one still ends within
    `seconds`; the first round always runs.  Set-ups continue after the last
    round until there are SETUP_MIN of them.  Spreading the set-ups over the
    run keeps their median from resting on one moment of the machine's load.
    """
    plain, traced, layers, setup_times = [], [], [], []
    tally = Tally()
    begin = perf_counter()

    def timed_set_up():
        gc.collect()  # the previous round's garbage is not part of a set-up
        start = perf_counter()
        cli = set_up(work)
        setup_times.append(perf_counter() - start)
        return cli

    try:
        while True:
            round_start = perf_counter()
            cli = timed_set_up()
            plain.append(run_pass(cli, ops, tally))
            if tracer:
                with spans.installed(tracer):
                    traced.append(run_pass(cli, ops, tally))
                layers.append(tracer.snapshot())
            now = perf_counter()
            if (now - begin) + (now - round_start) > seconds:
                break
        while len(setup_times) < SETUP_MIN:
            timed_set_up()
    except RunTimeout:
        pass
    return plain, traced, layers, setup_times, tally


def covariates(workload: str, seed: int, ops: list, work: Path) -> dict:
    """Input sizes and platform facts stored with every result."""
    sequences = importlib.import_module("tverberg.sequences")
    if workload == "universality":
        points = sequences.gen_super_dominant(3, 2).points
    else:
        rung = (1, 4) if workload == "sgp" else (2, 3)
        payload = json.loads((work / INSTANCES[rung]).read_text())
        points = sequences.sequence_from_json(payload)
    partitions = {"universality": len(proper_partitions(5, 2, 4)), "check-sweep": len(ops)}
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "operations_per_pass": len(ops),
        "max_entry_bits": spans.entry_bits(x for row in points.rows for x in row),
        "partitions_per_pass": partitions.get(workload, 0),
        "families_per_pass": family_count(7, 4) if workload == "sgp" else 0,
    }


def end_to_end(plain: list, setup_times: list, peak_rss_mib: float, ops: list, tally: Tally):
    """The metrics of BENCHMARK.json's end_to_end list, and the ones reported beside them."""
    walls = [sum(latencies) for latencies in plain]
    samples = [x for latencies in plain for x in latencies]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(samples), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    extra = {
        "op_samples": (len(samples), "count"),
        "fail_share": (len(tally.failures) / tally.attempted, "ratio"),
    }
    if len(ops) >= P90_MIN_OPS:
        extra["op_p90_s"] = (statistics.quantiles(samples, n=10)[-1], "s")
    return metrics, extra


def per_layer(plain: list, traced: list, layers: list):
    metrics = {
        name: (statistics.median(layer[name] for layer in layers), spans.unit_of(name))
        for name in spans.LAYER_METRICS
    }
    overhead = statistics.median(map(sum, traced)) - statistics.median(map(sum, plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def run_one(args) -> int:
    if not (SRC_DIR / "tverberg" / "cli.py").is_file():
        print(f"error: no tverberg package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, RUN_LIMIT_S)
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        cli = set_up(work)  # untimed: pays the one-off standard-library imports
        if not Path(cli.__file__).resolve().is_relative_to(SRC_DIR):
            raise SetUpError(f"tverberg was imported from {cli.__file__}, not {SRC_DIR}")
        ops = operations(args.workload, args.seed, work)
        tracer = spans.Tracer() if args.trace else None
        plain, traced, layers, setup_times, tally = measure(work, ops, args.seconds, tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        facts = covariates(args.workload, args.seed, ops, work)
    except (SetUpError, RunTimeout, OSError) as exc:
        print(f"error: no result: {exc!r}", file=sys.stderr)
        return 2
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(work, ignore_errors=True)

    complete = plain[: len(layers)] if args.trace else plain
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "covariates": facts, "failures": tally.failures[:20]}
    if not complete or (args.trace and not layers):
        print(json.dumps({"record": record}))
        print("error: no pass completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics, extra = per_layer(complete, traced, layers), {}
        record["spans"] = layers[-1]["spans"]
    else:
        metrics, extra = end_to_end(complete, setup_times, peak_rss_mib, ops, tally)
    record["passes"] = len(complete)
    record["pass_walls"] = [sum(latencies) for latencies in complete]
    record["setup_times"] = setup_times
    record["metrics"] = {name: value for name, (value, _) in {**metrics, **extra}.items()}

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  passes {len(complete)}  "
          f"operations {tally.attempted}  failed {len(tally.failures)}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:46} {value:>14.6g} {unit}")
    for failure in tally.failures[:5]:
        print(f"  FAILED {' '.join(failure['argv'])}: {failure['reason']}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, then one summary table."""
    results, status = {}, 0
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S + 60)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith('{"record"')))
        if proc.returncode != 0 or not lines:
            status = status or proc.returncode or 1
            continue
        results[workload] = json.loads(lines[-1])
    names = list(dict.fromkeys(name for r in results.values() for name in r["metrics"]))
    print(f"\n{'metric':46}" + "".join(f"{w:>17}" for w in results))
    for name in names:
        cells = (r["metrics"].get(name, {}).get("value") for r in results.values())
        print(f"{name:46}" + "".join(f"{'-' if v is None else format(v, '.6g'):>17}" for v in cells))
    print(f"{'correct':46}" + "".join(f"{str(r['correct']):>17}" for r in results.values()))
    print(json.dumps(results))
    return status or (0 if all(r["correct"] for r in results.values()) else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="orders check-sweep and draws the dominant-oracle sample")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
