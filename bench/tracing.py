"""Spans and counters recorded from outside the program.

The tracer wraps gexpect's public functions where the benchmark's own
workloads and ``gexpect.verifier`` bind them, records one span per call
(name, start, end, parent span, operation id) and a few counters derived from
the call's arguments and result.  Nothing inside ``src/gexpect`` is changed:
functions that gexpect modules call on each other internally are not seen.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

from metrics import COUNTERS, SPAN_METRICS, self_time, union_length

# --- counters, computed from a traced call's arguments and result ------------


def _table_cells(counts, result, bound):
    tables = result.values() if isinstance(result, dict) else (result,)
    for t in tables:
        vals = getattr(t, "values", None)
        if isinstance(vals, np.ndarray):
            counts["glattice.table_cells"] += int(vals.size)


def _policy_bytes(counts, result, bound):
    counts["glattice.policy_bytes"] += sum(
        int(np.asarray(pol).nbytes) for _, pol in result.frames.values()
    )


def _path_steps_of(arr) -> int:
    return int(arr.shape[0]) * (int(arr.shape[1]) - 1)


def _sampled(counts, result, bound):
    counts["glattice.path_steps"] += _path_steps_of(result.B)


def _walk(counts, result, bound):
    counts["dp.calls"] += 1
    counts["dp.stop_states"] += sum(int(st.shape[0]) for st, _ in result.stops.values())


def _make_pde_counter(make_grid):
    def count(counts, result, bound):
        args = bound.arguments
        grid = args.get("grid")
        if grid is None:
            grid = make_grid(args["t"], args["params"], nx=args["nx"],
                             cfl_safety=args["cfl_safety"])
        counts["gheat.cell_steps"] += int(grid.nt) * int(grid.nx)

    return count


def _stochastic(counts, result, bound):
    """Paths x steps of the ensemble(s) a calculus call works on; calls that
    take only an array (quadratic_variation) count that array."""
    args = bound.arguments
    ens = args.get("ens", args.get("ensembles"))
    if ens is None:
        counts["stochastic.path_steps"] += _path_steps_of(args["M"])
        return
    for e in ens if isinstance(ens, (list, tuple)) else (ens,):
        counts["stochastic.path_steps"] += _path_steps_of(e.B)


def _unexpected(counts, result, bound):
    counts["verifier.unexpected"] += int(result[1])


def layer_bindings(gx) -> dict:
    """Public function name -> (module, span name or None, counter), for every
    layer function that the workloads or gexpect.verifier call."""
    pde = _make_pde_counter(gx.gheat.make_grid)
    table = {
        "lattice_expect": (gx.glattice, "glattice.expect", _table_cells),
        "conditional_expect": (gx.glattice, "glattice.expect", _table_cells),
        "conditional_tables": (gx.glattice, "glattice.tables", _table_cells),
        "eval_tables_on_paths": (gx.glattice, "glattice.lookup", None),
        "extract_worst_policy": (gx.glattice, "glattice.policy", _policy_bytes),
        "sample_paths": (gx.glattice, "glattice.sample", _sampled),
        "run_walk": (gx.dp, "dp.run_walk", _walk),
        "gnormal_expect": (gx.gheat, "gheat.solve", pde),
        "run_suite": (gx.verifier, None, _unexpected),
    }
    for name in ("ito_integral", "quadratic_variation", "qv_identity_gap",
                 "mg_norm", "g_compensated"):
        table[name] = (gx.stochastic, "stochastic", _stochastic)
    return table


# --- the tracer ----------------------------------------------------------------


class Tracer:
    """Single-threaded span recorder.

    A span is [name, start, end, parent index, op id].  ``begin_op`` opens the
    root span of one benchmark operation; spans recorded until ``end_op`` share
    its id.  ``overhead`` accumulates the time wrappers spend outside the
    calls they wrap, which is all the code a traced run adds.
    """

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(lambda: defaultdict(int))  # pass -> name -> n
        self.overhead = defaultdict(float)  # pass -> seconds
        self.op_pass: dict = {}
        self._stack: list = []
        self._op = None
        self._pass = None

    def begin_op(self, op_id: int, pass_index: int) -> None:
        self._op, self._pass = op_id, pass_index
        self.op_pass[op_id] = pass_index
        self._stack = [self._open("op")]

    def end_op(self) -> None:
        self.spans[self._stack[0]][2] = perf_counter()
        self._stack = []
        self._op = self._pass = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        return len(self.spans) - 1

    def wrap(self, fn, span: str | None, counter=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = perf_counter()
            idx = None
            if span is not None and self._op is not None:
                idx = self._open(span)
                self._stack.append(idx)
            t0 = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if idx is not None:
                    self._stack.pop()
                    self.spans[idx][1] = t0
                    self.spans[idx][2] = t1
            if self._pass is not None:
                if counter is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(self.counts[self._pass], return_value, bound)
                self.overhead[self._pass] += (t0 - t_in) + (perf_counter() - t1)
            return return_value

        return traced

    def install(self, api, gx):
        """Wrap the layer functions on ``api`` and in ``gexpect.verifier``.

        Returns an undo callable that restores every original binding.
        """
        undo = []
        for name, (module, span, counter) in layer_bindings(gx).items():
            original = getattr(module, name)
            for target in (api, gx.verifier):
                if getattr(target, name, None) is original:
                    setattr(target, name, self.wrap(original, span, counter))
                    undo.append((setattr, target, name, original))
        checks = gx.verifier.CHECKS
        for cid, fn in list(checks.items()):
            checks[cid] = self.wrap(fn, f"verifier.{cid}")
            undo.append((checks.__setitem__, cid, fn))

        def restore():
            for action, *args in reversed(undo):
                action(*args)

        return restore

    # --- reduction -------------------------------------------------------------

    def per_pass_metrics(self) -> dict:
        """pass -> {per-layer metric name -> value}."""
        children = defaultdict(list)
        for s in self.spans:
            if s[3] is not None:
                children[s[3]].append(s)
        by_pass = defaultdict(lambda: defaultdict(list))
        for idx, s in enumerate(self.spans):
            if s[0] in SPAN_METRICS:
                kids = [(c[1], c[2]) for c in children.get(idx, ())]
                by_pass[self.op_pass[s[4]]][s[0]].append((s[1], s[2], kids))
        out = {}
        for p in sorted(set(self.op_pass.values())):
            m = {}
            for span, (busy, own) in SPAN_METRICS.items():
                recs = by_pass[p].get(span, [])
                m[busy] = union_length([(a, b) for a, b, _ in recs])
                m[own] = sum(self_time((a, b), k) for a, b, k in recs)
            for name in COUNTERS:
                m[name] = self.counts[p].get(name, 0)
            m["trace_overhead_s"] = self.overhead.get(p, 0.0)
            out[p] = m
        return out

    def dump(self, path) -> None:
        base = min((s[1] for s in self.spans), default=0.0)
        rows = [
            {"id": i, "name": s[0], "start": s[1] - base, "end": s[2] - base,
             "parent": s[3], "op": s[4]}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "op_pass": self.op_pass}, fh)
