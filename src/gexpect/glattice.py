"""Adversarial-volatility lattice: exact dynamic programming for upper
expectations and conditional upper expectations of cylinder functionals,
worst-case policy extraction, and seeded path sampling.

State representation.  With volatility choice set {s_1 < ... < s_r} (variance
rates), one step under choice j moves the path by +-sigma_j*sqrt(dt),
sigma_j = sqrt(s_j).  A node has integer coordinates on the axes of a
:class:`NodeBasis`: choice j moves it by ``steps[j]`` up or down, and axis a
adds ``unit[a]*sqrt(dt)`` per unit to the position.  Each :class:`Lattice`
groups its volatilities into classes of small-integer multiples q_j of one
unit, and its basis has one axis per class: choice j moves its class's axis
by +-q_j.  Paths that reach the same coordinates recombine, so after n
steps a class's axis spans 2*max(q)*n + 1 nodes, max over the class.

- The default band [0.25, 1] gives sigma = 0.5, 1: one class, q = (1, 2),
  u = 0.5, so a node is its position.
- The refined grid {0.25, 0.625, 1} gives sigma = 0.5, 0.79, 1: the classes
  {0.5, 1} (u = 0.5) and {0.79}, two axes.  Coordinates of different
  classes need not recombine, so they keep the induction exact.
- The count basis (``Lattice.count_basis``) makes each volatility its own
  class with step 1: one axis of net up-minus-down counts per volatility.

All these bases give the same values up to roundoff in the node positions.
A cylinder functional with anchor levels l_1 < ... < l_m gets one block of
basis axes per inter-anchor segment.

Window.  A table holds each finished segment at its full length and the
current one at its elapsed steps e: axis a spans |c_a| <= e*reach_a, where
reach_a is the largest |step| on it.  A backward step reads ``v[c+step]`` and
``v[c-step]`` as slice views and writes the window for e-1, shorter by
reach_a at both ends of each axis, so every read stays in the array.  At e = 0
the current segment's axes have one node, its start, and are dropped.

Validity.  Not every node of a window is reachable: count vectors obey a
diamond with parity, and positions can skip values.  ``valid_mask`` marks the
reachable nodes exactly.  A reachable node reads only nodes one step away,
which are reachable, so the finite values at other nodes never reach it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gcore import GParams, VolatilityPolicy
from .payoff import PayoffExpr, arity, eval_expr, to_str

__all__ = [
    "NodeBasis",
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
]

# Guard against runaway state spaces: the bytes a sweep may hold at once.
_MAX_WORKSET_BYTES = 4 << 30
# Peak bytes per cell of the largest table while a sweep runs: the table, the
# running maximum, one choice's average, the mask and the masked copy.
# tracemalloc measured 31-38 on 0.7-1.0 M-cell tables; a payoff that holds
# several full-size temporaries at once while it is evaluated can exceed it.
_STEP_BYTES_PER_CELL = 40
# Largest integer step q_j = sigma_j / u within one class of commensurate
# volatilities; a sigma that is no such multiple of a larger one's unit
# starts a class of its own.
_MAX_STEP = 16


@dataclass(frozen=True)
class NodeBasis:
    """Integer node axes of one segment.

    Choice j moves a node by ``steps[j]`` (one integer per axis) up or down;
    a node with axis coordinates c lies sum_a c_a * unit[a] * sqrt(dt) from
    its segment's start.
    """

    steps: tuple  # n_sigma tuples of n_axes ints
    unit: tuple  # n_axes floats

    @property
    def n_axes(self) -> int:
        return len(self.unit)

    @cached_property  # frozen, but not slotted: the value goes in __dict__
    def reach(self) -> tuple:
        """Largest |step| per axis: how far one step moves along it."""
        return tuple(max(abs(s[a]) for s in self.steps) for a in range(self.n_axes))

    def axis_sizes(self, radius: int) -> tuple:
        """Nodes per axis of a segment after ``radius`` steps."""
        return tuple(2 * radius * w + 1 for w in self.reach)

    def displacements(self, radius: int, sqdt: float) -> np.ndarray:
        """Position of every node of a segment after ``radius`` steps."""
        d = np.zeros(())
        for w, u in zip(self.reach, self.unit):
            R = radius * w
            d = np.add.outer(d, np.arange(-R, R + 1) * (u * sqdt))
        return d

    def reachable(self, radius: int) -> np.ndarray:
        """Mask of the nodes a segment reaches in exactly ``radius`` steps."""
        cells = np.ones((1,) * self.n_axes, dtype=bool)
        for k in range(1, radius + 1):
            grown = np.zeros(self.axis_sizes(k), dtype=bool)
            for s in self.steps:
                for sign in (1, -1):
                    grown[tuple(
                        slice(w + sign * d, w + sign * d + n)
                        for w, d, n in zip(self.reach, s, cells.shape)
                    )] |= cells
            cells = grown
        return cells


def _node_basis(sigma_values, grouped: bool = True) -> NodeBasis:
    """One node axis per class of commensurate volatilities.

    The largest sigma not yet in a class, top, starts one with unit top / den,
    for the smallest den <= _MAX_STEP whose unit takes the most of the
    remaining sigma_j as integer multiples q_j * unit, to 1e-12 * top; repeat
    until every sigma_j is in a class.  Choice j moves its class's axis by q_j
    and leaves the other axes at 0.  sigma = 0 is 0 * unit of the first class,
    so it never starts one.  With ``grouped=False`` each sigma_j is its own
    class with step 1, in grid order: the count basis.
    """
    r = len(sigma_values)
    if not grouped:
        classes = [(s, {j: 1}) for j, s in enumerate(sigma_values)]
    else:
        classes, left = [], set(range(r))
        while left:
            top = sigma_values[max(left)]  # the grid ascends
            best, best_unit = {}, top
            for den in range(1, _MAX_STEP + 1):
                unit = top / den
                q = {j: round(sigma_values[j] / unit) for j in left}
                fit = {j: qj for j, qj in q.items()
                       if abs(qj * unit - sigma_values[j]) <= 1e-12 * top}
                if len(fit) > len(best):
                    best, best_unit = fit, unit
            classes.append((best_unit, best))
            left -= best.keys()
    return NodeBasis(
        steps=tuple(tuple(q.get(j, 0) for _, q in classes) for j in range(r)),
        unit=tuple(u for u, _ in classes),
    )


@dataclass(frozen=True)
class Lattice:
    """Discrete-time tree with a per-step volatility choice set."""

    T: float
    n_steps: int
    params: GParams
    sigma_grid: tuple
    basis: NodeBasis = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "basis", _node_basis(self.sigma_values))

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def n_sigma(self) -> int:
        return len(self.sigma_grid)

    @property
    def sigma_values(self) -> tuple:
        return tuple(math.sqrt(s) for s in self.sigma_grid)

    @property
    def count_basis(self) -> NodeBasis:
        """Net counts per volatility: exact on every grid."""
        return _node_basis(self.sigma_values, grouped=False)


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


def _dp_step(values: np.ndarray, basis: NodeBasis, record: bool):
    """One backward step over the current segment, the last ``basis.n_axes``
    axes of ``values``: each axis shrinks by its reach at both ends."""
    lead = (slice(None),) * (values.ndim - basis.n_axes)
    sizes = values.shape[values.ndim - basis.n_axes:]

    def shifted(step):  # out[c] = values[c + step] on the shrunken window
        return values[lead + tuple(
            slice(w + d, n - w + d) for w, d, n in zip(basis.reach, step, sizes)
        )]

    averages = (
        0.5 * (shifted(s) + shifted(tuple(-d for d in s))) for s in basis.steps
    )
    return backward_step(averages, record=record)


@dataclass(frozen=True)
class ConditionalTable:
    """Conditional upper expectation at a level, as a dense node table.

    ``seg_lengths`` are the full lengths of the segments started so far; the
    last one may be only partially elapsed (elapsed = level - earlier total).
    The array has one block of ``basis`` axes per segment, each at the radius
    the segment has reached: its full length, or the elapsed steps for the
    last one.
    """

    lattice: Lattice
    level: int
    seg_lengths: tuple
    values: np.ndarray
    basis: NodeBasis

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
        """Reachability mask: the nodes each segment reaches exactly."""
        mask = np.ones((), dtype=bool)
        for r in self._radii():
            mask = np.multiply.outer(mask, self.basis.reachable(r))
        return mask

    def positions(self) -> np.ndarray:
        """Path value B at the table's level for every node."""
        sqdt = math.sqrt(self.lattice.dt)
        pos = np.zeros((), dtype=float)
        for r in self._radii():
            pos = np.add.outer(pos, self.basis.displacements(r, sqdt))
        return pos

    def value_at_origin(self) -> float:
        return float(self.values[tuple(n // 2 for n in self.values.shape)])

    def at(self, seg_coords) -> np.ndarray:
        """Values at nodes given by their coordinates in ``self.basis``.

        ``seg_coords`` holds one (n_nodes, n_axes) integer array per segment
        (segments beyond the table's are ignored): each node's axis
        coordinates relative to its segment's start.
        """
        idx = [r * w + coords[:, a]
               for coords, r in zip(seg_coords, self._radii())
               for a, w in enumerate(self.basis.reach)]
        return np.broadcast_to(self.values[tuple(idx)], (len(seg_coords[0]),))

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
    basis = table.basis
    capture = set(capture or ())
    frames: dict = {}
    caps: dict = {}
    segs = list(table.seg_lengths)
    lvl = table.level
    vals = table.values
    if lvl in capture:
        caps[lvl] = table
    while lvl > target:
        vals, pol = _dp_step(vals, basis, record)
        lvl -= 1
        if segs and lvl == sum(segs[:-1]):
            # the last segment is back at its start node: drop its axes
            vals = vals.reshape(vals.shape[:-basis.n_axes])
            if record:
                pol = pol.reshape(pol.shape[:-basis.n_axes])
            segs.pop()
        if record:
            frames[lvl] = (tuple(segs), pol)
        if lvl in capture:
            caps[lvl] = ConditionalTable(
                lattice=lat, level=lvl, seg_lengths=tuple(segs),
                values=vals.copy(), basis=basis,
            )
    out = ConditionalTable(
        lattice=lat, level=lvl, seg_lengths=tuple(segs), values=vals, basis=basis
    )
    return out, frames, caps


def _table_cells(basis: NodeBasis, seg_lengths, level: int) -> int:
    """Cells of the table at ``level`` of a functional with these segments."""
    cells, start = 1, 0
    for L in seg_lengths:
        if level <= start:
            break
        cells *= math.prod(basis.axis_sizes(min(L, level - start)))
        start += L
    return cells


def _terminal_table(
    lat: Lattice, X: CylinderFunctional, basis: NodeBasis
) -> ConditionalTable:
    segs = X.segment_lengths
    sqdt = math.sqrt(lat.dt)
    n_axes = basis.n_axes
    shape = tuple(n for L in segs for n in basis.axis_sizes(L))
    args = []
    for i, L in enumerate(segs):
        bshape = [1] * len(shape)
        bshape[i * n_axes:(i + 1) * n_axes] = basis.axis_sizes(L)
        args.append(basis.displacements(L, sqdt).reshape(bshape))
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
        lattice=lat, level=X.levels[-1], seg_lengths=segs, values=vals, basis=basis
    )


def _sweep(
    lat: Lattice,
    X: CylinderFunctional,
    basis: NodeBasis,
    target: int,
    record: bool = False,
    capture=(),
):
    """Build X's terminal table in ``basis`` and run ``_backward`` to
    ``target``, after checking that the working set fits the memory guard."""
    top = X.levels[-1]
    if top > lat.n_steps:
        raise ValueError("functional horizon exceeds the lattice")
    beyond = [l for l in (target, *capture) if l > top]
    if beyond:
        raise ValueError(f"level {max(beyond)} is beyond the functional horizon {top}")
    segs = X.segment_lengths
    need = _STEP_BYTES_PER_CELL * _table_cells(basis, segs, top)
    need += 8 * sum(_table_cells(basis, segs, l) for l in set(capture))
    if record:  # one int8 policy frame per level
        need += sum(_table_cells(basis, segs, l) for l in range(target, top))
    if need > _MAX_WORKSET_BYTES:
        raise ValueError(
            f"state space too large (about {need} bytes of working set); "
            "reduce n_steps or anchors"
        )
    return _backward(_terminal_table(lat, X, basis), target, record, capture)


def conditional_expect(
    lat: Lattice, X: CylinderFunctional, j: int
) -> ConditionalTable:
    """Node table of the conditional upper expectation at level ``j``."""
    table, _, _ = _sweep(lat, X, lat.basis, j)
    return table


def conditional_tables(
    lat: Lattice, X: CylinderFunctional, levels
) -> dict:
    """One backward sweep capturing the conditional table at each level."""
    levels = sorted(set(int(l) for l in levels))
    _, _, caps = _sweep(lat, X, lat.basis, min(levels, default=0), capture=levels)
    return caps


def lattice_expect(lat: Lattice, X: CylinderFunctional) -> float:
    """Exact discrete upper expectation of X by backward induction."""
    return conditional_expect(lat, X, 0).value_at_origin()


@dataclass
class LatticePolicy(VolatilityPolicy):
    """Worst-case (argmax) volatility choice recorded per level and node.

    ``frames`` map level -> (seg_lengths, choice-index array) laid out like a
    ConditionalTable in ``basis``, the count basis; look a choice up with
    ``sigma_index``.
    """

    lattice: Lattice
    anchors: tuple
    frames: dict
    basis: NodeBasis
    name: str = "worst"

    def sigma_index(self, level: int, seg_counts) -> np.ndarray:
        """Choice index at each node given by its per-segment net counts per
        volatility, which are its coordinates in the count basis."""
        if level not in self.frames:
            # beyond the functional horizon the value is choice-independent
            return np.zeros(len(seg_counts[0]), dtype=np.int8)
        segs, pol = self.frames[level]
        return ConditionalTable(
            lattice=self.lattice, level=level, seg_lengths=segs,
            values=np.asarray(pol), basis=self.basis,
        ).at(seg_counts)


def extract_worst_policy(lat: Lattice, X: CylinderFunctional) -> LatticePolicy:
    """Argmax selector of the backward induction; sampling under it converges
    to lattice_expect(X).

    The sweep runs in the count basis, whatever the lattice's basis: where
    choices tie exactly, the lowest volatility is recorded, and position
    roundoff in another basis could break such ties.
    """
    basis = lat.count_basis
    _, frames, _ = _sweep(lat, X, basis, 0, record=True)
    return LatticePolicy(
        lattice=lat,
        anchors=X.levels,
        frames=frames,
        basis=basis,
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
    lat: Lattice, policy: VolatilityPolicy, n_paths: int, seed: int
) -> PathEnsemble:
    """Draw +-sigma*sqrt(dt) steps with probability 1/2 each, reproducibly.

    Two samplers give the bits of one per-step loop.  A node-indexed
    ``LatticePolicy`` is sampled level by level, each path's choice looked up
    at its current node.  Every other policy gives its rates as a
    ``schedule``: the steps are one broadcast product and ``B`` is their
    running sum along each path.  A ``LatticePolicy`` extracted on another
    lattice than ``lat`` is refused.
    """
    if n_paths < 1:
        raise ValueError("need n_paths >= 1")
    need = 25 * n_paths * lat.n_steps  # peak: about 3.1 full float64 arrays
    if need > _MAX_WORKSET_BYTES:
        raise ValueError(
            f"ensemble too large (about {need} bytes at its peak); "
            "reduce n_paths or n_steps"
        )
    if isinstance(policy, LatticePolicy):
        if policy.lattice != lat:
            raise ValueError("the policy was extracted on another lattice")
        B, sig = _sample_stepwise(lat, policy, n_paths, seed)
    else:
        B, sig = _sample_scheduled(lat, policy.schedule(lat.n_steps), n_paths, seed)
    return PathEnsemble(
        lattice=lat, policy_name=policy.name, seed=seed, B=B, sigma_sq=sig
    )


def _signs(n_paths: int, n: int, seed: int) -> np.ndarray:
    """The seed's +-1 step signs, (n_paths, n) int8."""
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(n_paths, n)).astype(np.int8)
    signs *= 2
    signs -= 1
    return signs


def _sample_scheduled(lat: Lattice, schedule, n_paths: int, seed: int):
    """B and sigma_sq for a policy whose rates depend on the level alone."""
    n = lat.n_steps
    s2 = np.asarray(schedule, dtype=float)
    if s2.shape != (n,):
        raise ValueError(f"policy schedule has shape {s2.shape}, need ({n},)")
    lo, hi = lat.params.sigma_lower_sq - 1e-12, lat.params.sigma_upper_sq + 1e-12
    bad = np.flatnonzero(~((s2 >= lo) & (s2 <= hi)))  # NaN included
    if bad.size:
        raise ValueError(f"policy value outside the band at step {bad[0]}")
    B = np.zeros((n_paths, n + 1))
    np.multiply(_signs(n_paths, n, seed), np.sqrt(s2 * lat.dt), out=B[:, 1:])
    # accumulate adds left to right from B[:, 0] = 0, as the loop does
    np.cumsum(B, axis=1, out=B)
    sig = np.empty((n_paths, n))
    sig[:] = s2
    return B, sig


def _sample_stepwise(lat: Lattice, policy: LatticePolicy, n_paths: int,
                     seed: int):
    """B and sigma_sq under a node-indexed policy, one level at a time.

    The signs, B and sigma_sq are held level-major, so each step reads and
    writes contiguous rows; each buffer is freed as soon as its path-major
    transpose is written, which keeps the peak at three full arrays.
    """
    n, dt = lat.n_steps, lat.dt
    signs_t = np.ascontiguousarray(_signs(n_paths, n, seed).T)
    grid = np.asarray(lat.sigma_grid)
    B_t = np.zeros((n + 1, n_paths))
    sig_t = np.empty((n, n_paths))
    seg_counts = [np.zeros((n_paths, lat.n_sigma), dtype=np.int64)]
    flat_rows = np.arange(n_paths) * lat.n_sigma

    for k in range(n):
        sidx = np.asarray(policy.sigma_index(k, seg_counts), dtype=np.int64)
        s2 = grid[sidx]
        sig_t[k] = s2
        np.add(B_t[k], signs_t[k] * np.sqrt(s2 * dt), out=B_t[k + 1])
        # one flat gather-scatter costs a third of a (rows, sidx) one
        seg_counts[-1].reshape(-1)[flat_rows + sidx] += signs_t[k]
        if (k + 1) in policy.anchors and (k + 1) < n:
            seg_counts.append(np.zeros((n_paths, lat.n_sigma), dtype=np.int64))

    del signs_t, seg_counts
    B = np.ascontiguousarray(B_t.T)
    del B_t
    return B, np.ascontiguousarray(sig_t.T)


def eval_tables_on_paths(tables: dict, ens: PathEnsemble) -> np.ndarray:
    """Evaluate per-level conditional tables along sampled paths.

    Supports single-anchor functionals (one segment) on ``lat.basis``, with
    every table built on the ensemble's lattice.  Each
    path keeps a row of node coordinates (one position on the default band)
    advanced by sign * steps[choice]: the choice is its rate's index on the
    volatility grid (an off-grid rate is an error), the sign that of the step
    of ``B``.  A zero-volatility step gets sign 0, which is exact: its steps
    move the position by nothing, so every table is constant along them.
    """
    lat = ens.lattice
    n = lat.n_steps
    grid = np.asarray(lat.sigma_grid)
    mids = 0.5 * (grid[1:] + grid[:-1])  # a rate's rank among them: nearest grid index
    steps = np.array(lat.basis.steps, dtype=np.int64)
    coords = np.zeros((ens.n_paths, lat.basis.n_axes), dtype=np.int64)
    out = np.empty((ens.n_paths, n + 1))
    for k in range(n + 1):
        table = tables[k]
        if table.lattice != lat:
            raise ValueError(f"the table at level {k} was built on another lattice")
        if len(table.seg_lengths) > 1:
            raise ValueError("path evaluation supports single-segment tables only")
        out[:, k] = table.at([coords])
        if k == n:
            break
        s2 = ens.sigma_sq[:, k]
        sidx = np.searchsorted(mids, s2)
        if not np.all(np.abs(grid[sidx] - s2) <= 1e-12):  # NaN fails too
            raise ValueError("path evaluation requires grid-aligned volatility choices")
        sign = np.sign(ens.B[:, k + 1] - ens.B[:, k]).astype(np.int64)
        coords += sign[:, None] * steps[sidx]
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
