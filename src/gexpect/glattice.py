"""Adversarial-volatility lattice: exact dynamic programming for upper
expectations and conditional upper expectations of cylinder functionals,
worst-case policy extraction, and seeded path sampling.

State representation.  With volatility choice set {s_1 < ... < s_r} (variance
rates), a node reached after k steps is described exactly by the net counts
(c_1, ..., c_r) of up-minus-down moves taken at each volatility: the per-step
increment under choice s_j is +-sqrt(s_j*dt), so the position is
x = sum_j c_j*sqrt(s_j*dt).  Distinct count vectors need not recombine for
generic volatility ratios; the integer representation keeps the backward
induction exact.  A cylinder functional with anchor levels l_1 < ... < l_m
gets one block of count axes per inter-anchor segment, and the backward pass
collapses a block (all counts zero) each time it crosses the segment's start.

Validity: after e steps into a segment the reachable counts form the diamond
sum_j |c_j| <= e with sum_j |c_j| = e (mod 2).  Backward values on the
diamond for e elapsed steps only read values on the diamond for e+1 steps, so
the NaN fill used at array edges never reaches a reachable node.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .gcore import GParams, VolatilityPolicy
from .payoff import PayoffExpr, arity, eval_expr, to_str

__all__ = [
    "Lattice",
    "build_lattice",
    "backward_step",
    "CylinderFunctional",
    "ConditionalTable",
    "lattice_expect",
    "conditional_expect",
    "conditional_tables",
    "extract_worst_policy",
    "LatticePolicy",
    "PathEnsemble",
    "sample_paths",
    "eval_tables_on_paths",
    "ensemble_to_csv",
    "policy_to_csv",
]

_MAX_TABLE_CELLS = 200_000_000  # guard against runaway state spaces


@dataclass(frozen=True)
class Lattice:
    """Discrete-time tree with a per-step volatility choice set."""

    T: float
    n_steps: int
    params: GParams
    sigma_grid: tuple

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 1:
            raise ValueError("need n_steps >= 1")
        grid = tuple(float(s) for s in self.sigma_grid)
        if list(grid) != sorted(set(grid)):
            raise ValueError("sigma_grid must be strictly increasing")
        lo, hi = self.params.sigma_lower_sq, self.params.sigma_upper_sq
        if abs(grid[0] - lo) > 1e-12 or abs(grid[-1] - hi) > 1e-12:
            raise ValueError("sigma_grid must contain both band endpoints")
        if any(s < lo - 1e-12 or s > hi + 1e-12 for s in grid):
            raise ValueError("sigma_grid values must lie in the band")
        object.__setattr__(self, "sigma_grid", grid)

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def n_sigma(self) -> int:
        return len(self.sigma_grid)

    @property
    def sigma_values(self) -> tuple:
        return tuple(math.sqrt(s) for s in self.sigma_grid)

    def level_of_time(self, t: float) -> int:
        k = t / self.dt
        if abs(k - round(k)) > 1e-9:
            raise ValueError(f"time {t} is not a lattice level")
        return int(round(k))


def build_lattice(
    T: float, n_steps: int, params: GParams, sigma_refinement: int = 0
) -> Lattice:
    """Volatility grid = band endpoints plus ``sigma_refinement`` interior points."""
    if sigma_refinement < 0:
        raise ValueError("sigma_refinement must be >= 0")
    lo, hi = params.sigma_lower_sq, params.sigma_upper_sq
    if lo == hi:
        grid = (lo,)
    else:
        grid = tuple(np.linspace(lo, hi, sigma_refinement + 2))
    return Lattice(T=T, n_steps=n_steps, params=params, sigma_grid=grid)


@dataclass(frozen=True)
class CylinderFunctional:
    """phi evaluated on the path at anchor levels l_1 < ... < l_m.

    mode "increments": phi(B_{l1} - B_0, B_{l2} - B_{l1}, ...).
    mode "levels": phi(B_{l1}, B_{l2}, ...).
    """

    levels: tuple
    phi: PayoffExpr
    mode: str = "increments"

    def __post_init__(self):
        levels = tuple(int(l) for l in self.levels)
        if not levels or any(l < 1 for l in levels):
            raise ValueError("anchor levels must be positive lattice levels")
        if list(levels) != sorted(set(levels)):
            raise ValueError("anchor levels must be strictly increasing")
        if self.mode not in ("increments", "levels"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if arity(self.phi) > len(levels):
            raise ValueError(
                f"phi uses x{arity(self.phi)} but only {len(levels)} anchors given"
            )
        object.__setattr__(self, "levels", levels)

    @property
    def segment_lengths(self) -> tuple:
        anchors = (0,) + self.levels
        return tuple(b - a for a, b in zip(anchors, anchors[1:]))


# --- dense DP machinery ----------------------------------------------------


def _shift(a: np.ndarray, axis: int, d: int) -> np.ndarray:
    """out[..., i, ...] = a[..., i+d, ...], NaN at the vacated edge."""
    out = np.empty_like(a)
    src = [slice(None)] * a.ndim
    dst = [slice(None)] * a.ndim
    if d == 1:
        dst[axis] = slice(0, -1)
        src[axis] = slice(1, None)
        edge = slice(-1, None)
    else:
        dst[axis] = slice(1, None)
        src[axis] = slice(0, -1)
        edge = slice(0, 1)
    out[tuple(dst)] = a[tuple(src)]
    fill = [slice(None)] * a.ndim
    fill[axis] = edge
    out[tuple(fill)] = np.nan
    return out


def backward_step(averages, reward=None, record: bool = False):
    """The backward-step rule shared by the lattice sweep and ``dp.run_walk``.

    ``averages`` yields, one volatility choice at a time in ascending order,
    the branch average 0.5 * (up + down) of every node; ``reward(j)``, if
    given, is added to the average of choice j.  Returns the nodewise maximum
    over choices and, with ``record``, the int8 index of the winning choice
    (else None).  Ties keep the smallest volatility: a later choice wins only
    where it is strictly larger.  Callers build each average from temporaries,
    which numpy sums in place.
    """
    best = None
    pol = None
    for j, cand in enumerate(averages):
        if reward is not None:
            cand = cand + reward(j)
        if best is None:
            best = cand
            if record:
                pol = np.zeros(cand.shape, dtype=np.int8)
        else:
            mask = cand > best
            best[mask] = cand[mask]
            if record:
                pol[mask] = j
    return best, pol


def _dp_step(values: np.ndarray, n_sigma: int, record: bool):
    """One backward step over the choice axes, the last ``n_sigma`` axes."""
    averages = (
        0.5 * (_shift(values, ax, 1) + _shift(values, ax, -1))
        for ax in range(values.ndim - n_sigma, values.ndim)
    )
    return backward_step(averages, record=record)


def _segment_abs_grid(L: int, n_sigma: int) -> np.ndarray:
    tot = np.abs(np.arange(-L, L + 1))
    for _ in range(n_sigma - 1):
        tot = np.add.outer(tot, np.abs(np.arange(-L, L + 1)))
    return tot


def _segment_delta(L: int, sigma_values, sqdt: float) -> np.ndarray:
    """Position increment over one segment as a function of its count block."""
    n_sigma = len(sigma_values)
    g = np.zeros((2 * L + 1,) * n_sigma)
    for j, sv in enumerate(sigma_values):
        shape = [1] * n_sigma
        shape[j] = 2 * L + 1
        g = g + (np.arange(-L, L + 1) * (sv * sqdt)).reshape(shape)
    return g


@dataclass(frozen=True)
class ConditionalTable:
    """Conditional upper expectation at a level, as a dense node table.

    ``seg_lengths`` are the full lengths of the segments started so far; the
    last one may be only partially elapsed (elapsed = level - earlier total).
    The array has one block of count axes per segment.
    """

    lattice: Lattice
    level: int
    seg_lengths: tuple
    values: np.ndarray

    @property
    def elapsed_last(self) -> int:
        if not self.seg_lengths:
            return 0
        return self.level - sum(self.seg_lengths[:-1])

    def _radii(self):
        radii = list(self.seg_lengths)
        if radii:
            radii[-1] = self.elapsed_last
        return radii

    def valid_mask(self) -> np.ndarray:
        """Reachability mask: per-segment count diamond with parity."""
        mask = np.ones((), dtype=bool)
        n_sigma = self.lattice.n_sigma
        for L, r in zip(self.seg_lengths, self._radii()):
            tot = _segment_abs_grid(L, n_sigma)
            seg = (tot <= r) & ((tot - r) % 2 == 0)
            mask = np.multiply.outer(mask, seg)
        return np.broadcast_to(mask, self.values.shape).copy()

    def positions(self) -> np.ndarray:
        """Path value B at the table's level for every node."""
        sv = self.lattice.sigma_values
        sqdt = math.sqrt(self.lattice.dt)
        pos = np.zeros((), dtype=float)
        for L in self.seg_lengths:
            pos = np.add.outer(pos, _segment_delta(L, sv, sqdt))
        return np.broadcast_to(pos, self.values.shape).copy()

    def value_at_origin(self) -> float:
        idx = tuple(
            L
            for L in self.seg_lengths
            for _ in range(self.lattice.n_sigma)
        )
        return float(self.values[idx])

    def condition_to(self, level: int) -> "ConditionalTable":
        if level == self.level:
            return self
        table, _, _ = _backward(self, level)
        return table


def _backward(
    table: ConditionalTable,
    target: int,
    record: bool = False,
    capture=None,
):
    """Run the backward induction from table.level down to ``target``.

    Returns (table_at_target, policy_frames, captured_tables).  Policy frames
    map level -> (seg_lengths at that level, argmax volatility-index array
    over that level's nodes); captures are deep copies at requested levels.
    """
    if not (0 <= target <= table.level):
        raise ValueError(f"target level {target} outside [0, {table.level}]")
    lat = table.lattice
    n_sigma = lat.n_sigma
    capture = set(capture or ())
    frames: dict = {}
    caps: dict = {}
    segs = list(table.seg_lengths)
    lvl = table.level
    vals = table.values
    if lvl in capture:
        caps[lvl] = table
    while lvl > target:
        vals, pol = _dp_step(vals, n_sigma, record)
        lvl -= 1
        if segs and lvl == sum(segs[:-1]):
            center = (slice(None),) * (vals.ndim - n_sigma) + (segs[-1],) * n_sigma
            vals = np.array(vals[center])  # np.array keeps 0-d results 0-d
            if record:
                pol = np.array(pol[center])
            segs.pop()
        if record:
            frames[lvl] = (tuple(segs), pol)
        if lvl in capture:
            caps[lvl] = ConditionalTable(
                lattice=lat, level=lvl, seg_lengths=tuple(segs), values=vals.copy()
            )
    out = ConditionalTable(
        lattice=lat, level=lvl, seg_lengths=tuple(segs), values=vals
    )
    return out, frames, caps


def _terminal_table(lat: Lattice, X: CylinderFunctional) -> ConditionalTable:
    segs = X.segment_lengths
    if X.levels[-1] > lat.n_steps:
        raise ValueError("functional horizon exceeds the lattice")
    n_sigma = lat.n_sigma
    shape = tuple(2 * L + 1 for L in segs for _ in range(n_sigma))
    cells = int(np.prod(shape, dtype=np.int64))
    if cells > _MAX_TABLE_CELLS:
        raise ValueError(
            f"state space too large ({cells} nodes); reduce n_steps or anchors"
        )
    sv = lat.sigma_values
    sqdt = math.sqrt(lat.dt)
    args = []
    for i, L in enumerate(segs):
        d = _segment_delta(L, sv, sqdt)
        bshape = [1] * len(shape)
        for j in range(n_sigma):
            bshape[i * n_sigma + j] = 2 * L + 1
        args.append(d.reshape(bshape))
    if X.mode == "levels":
        acc = []
        run = 0.0
        for d in args:
            run = run + d
            acc.append(run)
        args = acc
    vals = eval_expr(X.phi, args)
    vals = np.ascontiguousarray(
        np.broadcast_to(np.asarray(vals, dtype=float), shape)
    )
    return ConditionalTable(
        lattice=lat, level=X.levels[-1], seg_lengths=segs, values=vals
    )


def conditional_expect(
    lat: Lattice, X: CylinderFunctional, j: int
) -> ConditionalTable:
    """Node table of the conditional upper expectation at level ``j``."""
    terminal = _terminal_table(lat, X)
    if j > terminal.level:
        raise ValueError(f"level {j} is beyond the functional horizon")
    return terminal.condition_to(j)


def conditional_tables(
    lat: Lattice, X: CylinderFunctional, levels
) -> dict:
    """One backward sweep capturing the conditional table at each level."""
    levels = sorted(set(int(l) for l in levels))
    terminal = _terminal_table(lat, X)
    if levels and levels[-1] > terminal.level:
        raise ValueError("requested level beyond the functional horizon")
    _, _, caps = _backward(terminal, min(levels) if levels else 0, capture=levels)
    return caps


def lattice_expect(lat: Lattice, X: CylinderFunctional) -> float:
    """Exact discrete upper expectation of X by backward induction."""
    return conditional_expect(lat, X, 0).value_at_origin()


@dataclass
class LatticePolicy(VolatilityPolicy):
    """Worst-case (argmax) volatility choice recorded per level and node."""

    lattice: Lattice
    anchors: tuple
    frames: dict
    name: str = "worst"

    def sigma_index(self, level: int, seg_coords) -> np.ndarray:
        if level not in self.frames:
            # beyond the functional horizon the value is choice-independent
            return np.zeros(len(seg_coords[0]) if seg_coords else 1, dtype=np.int8)
        segs, pol = self.frames[level]
        if not segs:
            n = len(seg_coords[0]) if seg_coords else 1
            return np.full(n, int(pol), dtype=np.int8)
        idx = []
        for i, L in enumerate(segs):
            for j in range(self.lattice.n_sigma):
                idx.append(seg_coords[i][:, j] + L)
        return pol[tuple(idx)]

    def sigma_sq(self, level, positions, coords=None):
        if coords is None:
            raise ValueError("lattice policy lookup needs node coordinates")
        grid = np.asarray(self.lattice.sigma_grid)
        return grid[self.sigma_index(level, coords)]


def extract_worst_policy(lat: Lattice, X: CylinderFunctional) -> LatticePolicy:
    """Argmax selector of the backward induction; sampling under it converges
    to lattice_expect(X)."""
    terminal = _terminal_table(lat, X)
    _, frames, _ = _backward(terminal, 0, record=True)
    return LatticePolicy(
        lattice=lat,
        anchors=X.levels,
        frames=frames,
        name=f"worst:{to_str(X.phi)}",
    )


# --- path sampling ----------------------------------------------------------


@dataclass
class PathEnsemble:
    """Seeded sample of discrete paths under one volatility policy."""

    lattice: Lattice
    policy_name: str
    seed: int
    B: np.ndarray  # (n_paths, n_steps + 1)
    sigma_sq: np.ndarray  # (n_paths, n_steps)
    coords: np.ndarray | None = None  # (n_paths, n_steps + 1, n_sigma) net counts

    @property
    def n_paths(self) -> int:
        return self.B.shape[0]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.lattice.n_steps + 1) * self.lattice.dt

    @property
    def d_qv(self) -> np.ndarray:
        return self.sigma_sq * self.lattice.dt

    @property
    def qv(self) -> np.ndarray:
        out = np.zeros_like(self.B)
        np.cumsum(self.d_qv, axis=1, out=out[:, 1:])
        return out


def sample_paths(
    lat: Lattice,
    policy: VolatilityPolicy,
    n_paths: int,
    seed: int,
    track_coords: bool = False,
) -> PathEnsemble:
    """Draw +-sigma*sqrt(dt) steps with probability 1/2 each, reproducibly.

    ``track_coords`` records the exact integer node coordinates (net counts
    per volatility); it requires every chosen variance rate to lie on the
    lattice's volatility grid.
    """
    if n_paths < 1:
        raise ValueError("need n_paths >= 1")
    n = lat.n_steps
    dt = lat.dt
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(n_paths, n)).astype(np.int64) * 2 - 1
    B = np.zeros((n_paths, n + 1))
    sig = np.empty((n_paths, n))
    grid = np.asarray(lat.sigma_grid)
    lo, hi = lat.params.sigma_lower_sq, lat.params.sigma_upper_sq

    is_lat = isinstance(policy, LatticePolicy)
    want_coords = track_coords or is_lat
    coords = None
    if want_coords:
        coords = np.zeros((n_paths, n + 1, lat.n_sigma), dtype=np.int64)
    seg_coords = [np.zeros((n_paths, lat.n_sigma), dtype=np.int64)] if is_lat else None
    rows = np.arange(n_paths)

    for k in range(n):
        if is_lat:
            sidx = np.asarray(policy.sigma_index(k, seg_coords), dtype=np.int64)
            s2 = grid[sidx]
        else:
            s2 = np.asarray(policy.sigma_sq(k, B[:, k]), dtype=float)
            s2 = np.broadcast_to(s2, (n_paths,))
            if np.any(s2 < lo - 1e-12) or np.any(s2 > hi + 1e-12):
                raise ValueError(f"policy value outside the band at step {k}")
            if want_coords:
                sidx = np.argmin(np.abs(grid[:, None] - s2), axis=0)
                if np.any(np.abs(grid[sidx] - s2) > 1e-12):
                    raise ValueError(
                        "track_coords requires grid-aligned volatility choices"
                    )
        sig[:, k] = s2
        B[:, k + 1] = B[:, k] + signs[:, k] * np.sqrt(s2 * dt)
        if want_coords:
            coords[:, k + 1] = coords[:, k]
            coords[rows, k + 1, sidx] += signs[:, k]
        if is_lat:
            seg_coords[-1][rows, sidx] += signs[:, k]
            if (k + 1) in policy.anchors and (k + 1) < n:
                seg_coords.append(np.zeros((n_paths, lat.n_sigma), dtype=np.int64))

    name = getattr(policy, "name", "policy")
    return PathEnsemble(
        lattice=lat,
        policy_name=name,
        seed=seed,
        B=B,
        sigma_sq=sig,
        coords=coords if track_coords or is_lat else None,
    )


def eval_tables_on_paths(tables: dict, ens: PathEnsemble) -> np.ndarray:
    """Evaluate per-level conditional tables along sampled paths.

    Supports single-anchor functionals (one count block); requires the
    ensemble to carry integer coordinates.
    """
    if ens.coords is None:
        raise ValueError("ensemble was sampled without coordinate tracking")
    n = ens.lattice.n_steps
    out = np.empty((ens.n_paths, n + 1))
    for k in range(n + 1):
        table = tables[k]
        if not table.seg_lengths:
            out[:, k] = float(table.values)
            continue
        if len(table.seg_lengths) != 1:
            raise ValueError("path evaluation supports single-segment tables only")
        L = table.seg_lengths[0]
        idx = tuple(ens.coords[:, k, j] + L for j in range(ens.lattice.n_sigma))
        out[:, k] = table.values[idx]
    return out


# --- CSV export -------------------------------------------------------------


def ensemble_to_csv(ens: PathEnsemble, path: str) -> None:
    """Columns: path_id, step, t, B, sigma_sq, qv (sigma_sq blank at horizon)."""
    qv = ens.qv
    times = ens.times
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path_id", "step", "t", "B", "sigma_sq", "qv"])
        for p in range(ens.n_paths):
            for k in range(ens.lattice.n_steps + 1):
                s = repr(float(ens.sigma_sq[p, k])) if k < ens.lattice.n_steps else ""
                w.writerow(
                    [p, k, repr(float(times[k])), repr(float(ens.B[p, k])), s,
                     repr(float(qv[p, k]))]
                )


def policy_to_csv(policy: LatticePolicy, path: str) -> None:
    """Columns: level, node_position, sigma_sq — reachable nodes only."""
    lat = policy.lattice
    grid = np.asarray(lat.sigma_grid)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["level", "node_position", "sigma_sq"])
        for level in sorted(policy.frames):
            segs, pol = policy.frames[level]
            table = ConditionalTable(
                lattice=lat,
                level=level,
                seg_lengths=segs,
                values=np.asarray(pol, dtype=float),
            )
            mask = table.valid_mask()
            pos = table.positions()
            sel = np.asarray(pol)[mask] if segs else np.array([int(pol)])
            positions = pos[mask] if segs else np.array([0.0])
            for x, j in zip(positions, np.atleast_1d(sel)):
                w.writerow([level, repr(float(x)), repr(float(grid[int(j)]))])
