"""Per-layer spans for the traced benchmark run, recorded from outside the library.

Each public function named in WRAPPED is replaced, in every tverberg module
that binds it, by a wrapper that records a span (inclusive time, self time,
call count) and a few counters.  Nothing under src/ changes; the originals
are put back when the `installed` block ends.

Self time is a span's duration minus the time of the spans it directly
encloses, taken from the nesting of the wrappers on one stack.
"""
from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

MODULES = ("tverberg", "tverberg.exact", "tverberg.sequences", "tverberg.partitions",
           "tverberg.fillings", "tverberg.cli")

# (defining module, function[, {binding module: span name}]).  Without the
# mapping the span is "<module>.<function>" at every binding.  det and
# det_sign are split by caller: partitions calls them for the Cramer
# cross-check, fillings for dominance_report.  Their bindings inside exact
# stay unwrapped, so det called from det_sign opens no second span.
WRAPPED = (
    ("sequences", "gen_super_dominant"),
    ("sequences", "sequence_from_json"),
    ("sequences", "is_dominant"),
    ("sequences", "ordered_lift"),
    ("sequences", "dominance_profile"),
    ("partitions", "enumerate_tverberg"),
    ("partitions", "decide_tverberg"),
    ("partitions", "build_system"),
    ("partitions", "enumerate_proper_partitions"),
    ("partitions", "is_strong_general_position"),
    ("partitions", "affine_intersection_dim"),
    ("exact", "solve_linear"),
    ("exact", "rank"),
    ("exact", "det", {"tverberg.partitions": "exact.det.cramer",
                      "tverberg.fillings": "exact.det.report"}),
    ("exact", "det_sign", {"tverberg.partitions": "exact.det.cramer",
                           "tverberg.fillings": "exact.det.report"}),
    ("fillings", "dominance_report"),
    ("fillings", "enumerate_valid_fillings"),
    ("fillings", "monomial_value"),
    ("fillings", "find_dominant_filling"),
    ("cli", "main"),
)

# The per-layer metrics of BENCHMARK.json, in its order.  A name ending in
# "_s" is a span's inclusive seconds, ".self_s" its self seconds, ".calls"
# its call count; any other name is a counter (see layer_value).
LAYER_METRICS = (
    "sequences.gen_super_dominant_s",
    "sequences.is_dominant_s",
    "sequences.ordered_lift_s",
    "sequences.ordered_lift.calls",
    "sequences.dominance_profile_s",
    "sequences.dominance_profile.calls",
    "sequences.max_entry_bits",
    "partitions.decide_tverberg.calls",
    "partitions.tverberg_found",
    "partitions.hit_ratio",
    "partitions.singular_systems",
    "partitions.build_system_s",
    "partitions.enumerate_proper_partitions_s",
    "partitions.is_strong_general_position.self_s",
    "partitions.affine_intersection_dim_s",
    "partitions.affine_intersection_dim.calls",
    "exact.solve_linear_s",
    "exact.solve_linear.calls",
    "exact.solve_linear.max_bits",
    "exact.det.cramer_s",
    "exact.det.cramer.calls",
    "exact.det.report_s",
    "exact.det.report.calls",
    "exact.rank_s",
    "exact.rank.calls",
    "fillings.dominance_report.self_s",
    "fillings.enumerate_valid_fillings_s",
    "fillings.enumerate_valid_fillings.calls",
    "fillings.fillings_enumerated",
    "fillings.monomial_value_s",
    "fillings.monomial_value.calls",
    "fillings.find_dominant_filling_s",
    "fillings.find_dominant_filling.calls",
    "cli.main.self_s",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def entry_bits(values) -> int:
    """Largest numerator or denominator bit length among exact rationals."""
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for x in values),
        default=0,
    )


class Tracer:
    """Span totals and counters for one traced pass."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.inclusive = Counter()
        self.self_time = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []

    def note_max(self, key: str, value: int):
        self.counts[key] = max(self.counts[key], value)

    def wrap(self, span: str, fn):
        before, after, on_error = _HOOKS.get(span, (None, None, None))

        def traced(*args, **kwargs):
            if before:
                before(self, args)
            frame = [perf_counter(), 0.0]  # start, time of enclosed spans
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(self, exc)
                raise
            finally:
                duration = perf_counter() - frame[0]
                self._stack.pop()
                self.inclusive[span] += duration
                self.self_time[span] += duration - frame[1]
                self.calls[span] += 1
                if self._stack:
                    self._stack[-1][1] += duration
            if after:
                after(self, result)
            return result

        return traced

    def layer_value(self, name: str):
        if name == "partitions.hit_ratio":
            tried = self.calls["partitions.decide_tverberg"]
            return self.counts["partitions.tverberg_found"] / tried if tried else 0.0
        if name.endswith(".self_s"):
            return self.self_time[name[: -len(".self_s")]]
        if name.endswith(".calls"):
            return self.calls[name[: -len(".calls")]]
        if name.endswith("_s"):
            return self.inclusive[name[: -len("_s")]]
        return self.counts[name]

    def snapshot(self) -> dict:
        """The per-layer metrics of the pass just traced, then a clean slate."""
        values = {name: self.layer_value(name) for name in LAYER_METRICS}
        values["spans"] = {
            span: {"s": self.inclusive[span], "self_s": self.self_time[span],
                   "calls": self.calls[span]}
            for span in sorted(self.calls)
        }
        self.reset()
        return values


def _sequence_bits(tracer, points):
    tracer.note_max("sequences.max_entry_bits", entry_bits(x for row in points.rows for x in row))


def _on_verdict(tracer, verdict):
    tracer.counts["partitions.tverberg_found"] += bool(verdict.is_tverberg)


def _on_decide_error(tracer, exc):
    if isinstance(exc, importlib.import_module("tverberg.partitions").DegeneratePointsError):
        tracer.counts["partitions.singular_systems"] += 1


def _solve_bits(tracer, args):
    tracer.note_max("exact.solve_linear.max_bits", entry_bits(x for row in args[0] for x in row))


def _on_fillings(tracer, found):
    tracer.counts["fillings.fillings_enumerated"] += len(found)


# span -> (before(tracer, args), after(tracer, result), on_error(tracer, exc));
# `before` runs outside the span's clock.
_HOOKS = {
    "sequences.gen_super_dominant": (None, lambda t, built: _sequence_bits(t, built.points), None),
    "sequences.sequence_from_json": (None, _sequence_bits, None),
    "partitions.decide_tverberg": (None, _on_verdict, _on_decide_error),
    "exact.solve_linear": (_solve_bits, None, None),
    "fillings.enumerate_valid_fillings": (None, _on_fillings, None),
}


@contextmanager
def installed(tracer: Tracer):
    """Wrap every binding of the WRAPPED functions; restore them on exit."""
    modules = {name: importlib.import_module(name) for name in MODULES}
    saved = []
    try:
        for entry in WRAPPED:
            home, func = entry[0], entry[1]
            original = getattr(modules[f"tverberg.{home}"], func)
            bindings = entry[2] if len(entry) > 2 else dict.fromkeys(MODULES, f"{home}.{func}")
            for module_name, span in bindings.items():
                module = modules[module_name]
                if getattr(module, func, None) is original:
                    saved.append((module, func, original))
                    setattr(module, func, tracer.wrap(span, original))
        yield tracer
    finally:
        for module, func, original in reversed(saved):
            setattr(module, func, original)
