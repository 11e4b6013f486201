"""Metric catalogue and the statistics the benchmark reports.

Kept free of numpy and of gexpect so that it can be imported (and tested)
before the program under test is imported and timed.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128
TAIL_BEYOND = 10  # samples that must lie above the reported tail value

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

CHECK_IDS = (
    "moments",
    "cross-backend",
    "conditional-algebra",
    "qv-identity",
    "qv-band",
    "isometry",
    "doob",
    "downcrossing",
    "bdg",
    "representation",
    "gbm-characterization",
    "symmetric-martingale",
    "additivity",
    "transfer",
    "compensator",
)
# The verify workload leaves out the two checks whose work another workload
# already measures, so that every run of every workload fits the benchmark's
# time budget even when a shared 2-core machine runs 1.5x slow: cross-backend
# (~19 s: six n=400 lattice values with their PDE twins, as in the lattice
# workload) and doob (~19 s: 24 ensembles of 1e5 x 100 paths, as in paths).
VERIFY_SKIPPED = ("cross-backend", "doob")
VERIFY_CHECKS = tuple(c for c in CHECK_IDS if c not in VERIFY_SKIPPED)

# Span names recorded by the tracer, one per layer boundary, each with the
# names of its busy-time and self-time metrics.
def _pair(prefix: str) -> tuple:
    return prefix + "_s", prefix + "_self_s"


SPAN_METRICS = {
    **{name: _pair(name) for name in (
        "glattice.expect", "glattice.tables", "glattice.lookup", "glattice.policy",
        "glattice.sample", "dp.run_walk", "gheat.solve")},
    "stochastic": ("stochastic.busy_s", "stochastic.self_s"),
    **{f"verifier.{cid}": _pair(f"verifier.{cid}") for cid in VERIFY_CHECKS},
}

COUNTERS = (
    "glattice.table_cells",
    "glattice.policy_bytes",
    "glattice.path_steps",
    "dp.calls",
    "dp.stop_states",
    "gheat.cell_steps",
    "stochastic.path_steps",
    "verifier.unexpected",
)
COUNTER_UNITS = {"glattice.policy_bytes": "bytes"}


def per_layer_catalogue() -> dict:
    """name -> (unit, better) for every per-layer metric, in report order."""
    out = {}
    for busy, own in SPAN_METRICS.values():
        out[busy] = out[own] = ("s", "lower")
    for name in COUNTERS:
        out[name] = (COUNTER_UNITS.get(name, "count"), "lower")
    out["trace_overhead_s"] = ("s", "lower")
    return out


def tail(values):
    """Highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns (value, percentile, sample count).  With n sorted samples the
    answer is the k-th smallest, k = n - TAIL_BEYOND (nearest-rank
    percentile 100*k/n).  Fewer than TAIL_BEYOND + 1 samples have no such
    percentile, which is an error in the workload's design.
    """
    xs = sorted(values)
    n = len(xs)
    k = n - TAIL_BEYOND
    if k < 1:
        raise ValueError(
            f"need at least {TAIL_BEYOND + 1} samples for a tail, got {n}"
        )
    return float(xs[k - 1]), 100.0 * k / n, n


def self_time(span, children) -> float:
    """Span duration minus the part of its interval that children cover.

    ``span`` and ``children`` are (start, end) pairs; children may overlap
    each other or stick out of the span.
    """
    start, end = span
    covered = 0.0
    cur_a = cur_b = None
    for a, b in sorted((max(a, start), min(b, end)) for a, b in children):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                covered += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        covered += cur_b - cur_a
    return (end - start) - covered


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    if not intervals:
        return 0.0
    lo = min(a for a, _ in intervals)
    hi = max(b for _, b in intervals)
    return (hi - lo) - self_time((lo, hi), intervals)


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None
