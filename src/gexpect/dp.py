"""Augmented-state dynamic programming for path functionals that are not
cylinder functionals of the increments alone (running integrals, quadratic
variation, adapted integrands).

States are integer row vectors; each builder below chooses coordinates that
make its functional an exact function of the state.  Positions live on the
lattice's node basis (:attr:`gexpect.glattice.Lattice.basis`, through
:func:`basis_axes`): choice i moves a block of position axes by
+-``steps[i]``, so on a commensurate grid such as the default band one axis
holds the position and paths that reach the same position merge.  One
transition (``_shift_walk``) moves such blocks, one per nonzero integrand
value for a step integrand, with per-volatility step totals for the
quadratic variation; ``adapted_abs_walk`` adds to that move one exact
integer sum per pair of axes for the running integral of an adapted
integrand.  ``coord_walk`` alone keeps net counts per volatility
(``lat.count_basis``), because the benchmark's dual walk reads its states
as counts.

The forward pass enumerates reachable states level by level.  It packs each
child state into an integer key within the box of the children's per-column
bounds and deduplicates the keys with a bool occupancy table over that box,
or with ``np.unique`` when the box is much larger than the number of
children; either way a level's states are sorted lexicographically and its
child index maps are int32.  The states and maps of every level stay held
until the backward pass; their bytes, plus each level's child blocks, keys
and dedup tables, are guarded before they are allocated.
The backward pass applies, at every state, the lattice's backward-step rule
(:func:`gexpect.glattice.backward_step`): the maximum over volatility choices
of the branch average plus an optional per-step reward, resolving ties toward
the smallest volatility.  Callers derive a problem from a builder's spec with
``dataclasses.replace``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .glattice import Lattice, NodeBasis, backward_step

__all__ = [
    "WalkSpec",
    "WalkResult",
    "run_walk",
    "basis_axes",
    "coord_walk",
    "qv_coord_walk",
    "weighted_coord_walk",
    "adapted_abs_walk",
]

# Dedup with an occupancy table when the packed key box holds at most this
# many cells per child state; larger boxes fall back to np.unique.
_OCCUPANCY_FACTOR = 8
# Guard against runaway state spaces: the bytes of the states (8 per
# coordinate) and child index maps (4 per entry) a walk holds, plus the child
# blocks, keys and dedup tables of the level being built.  It also keeps
# every level far below the 2**31 states the int32 maps can index.
_MAX_WALK_BYTES = 2 << 30


@dataclass
class WalkSpec:
    """A backward-induction problem over integer augmented states.

    transition(level, states, sigma_index, sign) -> child states (int64).
    terminal(states) -> values at the final level.
    reward(level, states, sigma_sq) -> per-state value added inside the
    per-step maximum (independent of the branch sign).
    decode(states) -> any per-state quantity (used by callers to interpret
    captured levels); optional.
    """

    lattice: Lattice
    init_state: np.ndarray
    transition: Callable
    terminal: Callable
    reward: Callable | None = None
    decode: Callable | None = None


@dataclass
class WalkResult:
    value: float
    stops: dict  # level -> (states (N, d) int64, values (N,))


def _pack(blocks):
    """Mixed-radix pack of the int64 rows of ``blocks`` into one array of
    int64 keys in [0, box) (for dedup); returns (keys, lo, span).

    Each column's bounds are reduced on their own: an axis-0 reduce over a
    few int64 columns is several times slower than one reduce per column.
    """
    d = blocks[0].shape[1]
    lo = [min(int(b[:, c].min()) for b in blocks) for c in range(d)]
    span = [max(int(b[:, c].max()) for b in blocks) - lo[c] + 1 for c in range(d)]
    if math.prod(span) >= 2**62:
        raise RuntimeError("state coordinates out of packable range")
    keys = np.zeros(sum(b.shape[0] for b in blocks), dtype=np.int64)
    start = 0
    for b in blocks:
        part = keys[start:start + b.shape[0]]
        start += b.shape[0]
        for c in range(d):
            part *= span[c]
            part += b[:, c]
            part -= lo[c]
    return keys, lo, span


def _unpack(keys, lo, span):
    """The int64 rows whose ``_pack`` keys are ``keys``."""
    rows = np.empty((keys.size, len(span)), dtype=np.int64)
    for c in range(len(span) - 1, 0, -1):
        keys, rows[:, c] = np.divmod(keys, span[c])
    if span:
        rows[:, 0] = keys
    rows += np.asarray(lo, dtype=np.int64)
    return rows


def _dedup(keys: np.ndarray, box: int, n_parts: int):
    """``np.unique(keys, return_inverse=True)`` for keys in [0, box), with the
    inverse as ``n_parts`` equal int32 arrays.

    A box of at most ``_OCCUPANCY_FACTOR`` cells per key is deduplicated with
    a bool occupancy table and an int32 rank table, with no sort; the sorted
    keys and the inverse are the same either way.  The parts are separate
    arrays, not views of one block: the block layout measured 5-10% more peak
    RSS on n=100 walks.
    """
    if box > _OCCUPANCY_FACTOR * keys.size:
        uniq, inverse = np.unique(keys, return_inverse=True)
        return uniq, [p.astype(np.int32) for p in np.split(inverse, n_parts)]
    occupied = np.zeros(box, dtype=bool)
    occupied[keys] = True
    uniq = np.flatnonzero(occupied)
    rank = np.empty(box, dtype=np.int32)
    rank[uniq] = np.arange(uniq.size, dtype=np.int32)
    return uniq, [rank[p] for p in np.split(keys, n_parts)]


def _dedup_bytes(box: int, n_keys: int) -> int:
    """Bytes of the tables ``_dedup`` allocates besides the maps it returns:
    the bool occupancy and int32 rank tables over the box, or np.unique's
    int64 sort permutation and inverse."""
    if box > _OCCUPANCY_FACTOR * n_keys:
        return 16 * n_keys
    return 5 * box


def _guard(level: int, need: int):
    if need > _MAX_WALK_BYTES:
        raise RuntimeError(
            f"state space too large at level {level} ({need} bytes of states, "
            "maps and this level's child blocks, keys and dedup tables); "
            "reduce n_steps"
        )


def run_walk(spec: WalkSpec, stop_levels=()) -> WalkResult:
    """Forward state enumeration then backward maximization.

    ``stop_levels`` capture (states, values) where values[i] is the
    conditional upper expectation of the terminal value plus accumulated
    rewards from that level on, given state i.
    """
    lat = spec.lattice
    n = lat.n_steps
    grid = lat.sigma_grid
    n_children = 2 * len(grid)
    stop_levels = set(int(l) for l in stop_levels)

    states = np.asarray(spec.init_state, dtype=np.int64).reshape(1, -1)
    d = states.shape[1]
    level_states = [states]
    held = 8 * d
    # child index maps: maps[k][i_sigma] = (up, down) indices into states at k+1
    maps = []
    for k in range(n):
        n_keys = n_children * states.shape[0]
        # the child blocks and their keys, guarded before they are made
        transient = 8 * (d + 1) * n_keys
        _guard(k + 1, held + transient)
        children = []
        for i in range(len(grid)):
            for sign in (1, -1):
                children.append(spec.transition(k, states, i, sign))
        keys, lo, span = _pack(children)
        box = math.prod(span)
        _guard(k + 1, held + transient + _dedup_bytes(box, n_keys))
        uniq, parts = _dedup(keys, box, n_children)
        held += 8 * d * uniq.size + 4 * n_keys
        next_states = _unpack(uniq, lo, span)
        maps.append(list(zip(parts[::2], parts[1::2])))
        level_states.append(next_states)
        states = next_states

    values = np.asarray(spec.terminal(level_states[n]), dtype=float)
    stops = {}
    if n in stop_levels:
        stops[n] = (level_states[n], values.copy())
    for k in range(n - 1, -1, -1):
        st = level_states[k]
        averages = (0.5 * (values[up] + values[down]) for up, down in maps[k])
        reward = None
        if spec.reward is not None:
            reward = lambda i: spec.reward(k, st, grid[i])
        values, _ = backward_step(averages, reward)
        if k in stop_levels:
            stops[k] = (st, values.copy())
    return WalkResult(value=float(values[0]), stops=stops)


# --- state builders ----------------------------------------------------------


def basis_axes(lat: Lattice, basis: NodeBasis | None = None):
    """(steps, unit) of ``basis`` (default ``lat.basis``) as arrays: choice i
    moves a block of position axes by +-steps[i] (int64, one row per
    volatility), and axes c lie c @ unit * sqrt(dt) from where the block
    started."""
    basis = lat.basis if basis is None else basis
    return np.array(basis.steps, dtype=np.int64), np.asarray(basis.unit)


def _shift_walk(lat: Lattice, moves, totals=None, basis: NodeBasis | None = None):
    """(transition, init_state) of a walk whose steps move whole blocks of
    position axes of ``basis``.

    The state holds one block per row of the bool (blocks, n_steps) array
    ``moves``: at level k, choice i moves block b by +-steps[i] where
    moves[b, k].  Where the bool (n_steps,) mask ``totals`` is given, the
    state ends with one step total per volatility but the last, counted on
    the levels it marks.  A level that moves nothing returns the states
    object itself.  Columns past the blocks and totals are copied unchanged.
    """
    steps, _ = basis_axes(lat, basis)
    a = steps.shape[1]
    r = lat.n_sigma
    moves = np.asarray(moves, dtype=bool).reshape(-1, lat.n_steps)
    moved = [[slice(b * a, b * a + a) for b in np.flatnonzero(col)] for col in moves.T]
    first_total = moves.shape[0] * a
    counted = np.zeros(lat.n_steps, dtype=bool) if totals is None else totals
    width = first_total + (0 if totals is None else r - 1)

    def transition(level, states, i, sign):
        count = counted[level] and i < r - 1
        if not moved[level] and not count:
            return states
        out = states.copy()
        shift = sign * steps[i]
        for cols in moved[level]:
            out[:, cols] += shift
        if count:
            out[:, first_total + i] += 1
        return out

    return transition, np.zeros(width, dtype=np.int64)


def _qv(lat: Lattice, m, n_counted: int):
    """Quadratic variation dt * sum_j m_j * sigma_j^2 of ``n_counted`` steps,
    given the rows m of step totals for all but the last volatility; the
    last total is what remains of ``n_counted``."""
    s2 = np.asarray(lat.sigma_grid)
    if lat.n_sigma == 1:
        return np.full(m.shape[0], n_counted * s2[0] * lat.dt)
    m_last = n_counted - m.sum(axis=1)
    return lat.dt * (m @ s2[:-1] + m_last * s2[-1])


def coord_walk(lat: Lattice, active=None) -> WalkSpec:
    """``weighted_coord_walk`` of the 0/1 mask ``active`` on
    ``lat.count_basis``: state = net counts per volatility on active levels.

    It keeps counts only for the benchmark's dual walk, which reads its
    states as counts; other walks use ``weighted_coord_walk`` on lat.basis.
    """
    if active is None:
        active = np.ones(lat.n_steps, dtype=bool)
    return weighted_coord_walk(lat, active, lat.count_basis)


def qv_coord_walk(lat: Lattice, basis: NodeBasis | None = None) -> WalkSpec:
    """State = (position axes of ``basis``, step totals m_j for all but the
    last volatility).

    decode returns (position B, quadratic variation): the step totals give
    qv = dt * sum_j m_j * sigma_j^2 exactly, with the last total recovered
    from the level.  On the default band the state is (p, m_1).
    """
    _, unit = basis_axes(lat, basis)
    a = unit.size
    w = unit * math.sqrt(lat.dt)
    every = np.ones(lat.n_steps, dtype=bool)
    transition, init_state = _shift_walk(lat, [every], every, basis)

    def decode_with_level(states, level):
        return states[:, :a] @ w, _qv(lat, states[:, a:], level)

    return WalkSpec(
        lattice=lat,
        init_state=init_state,
        transition=transition,
        terminal=lambda s: decode_with_level(s, lat.n_steps)[0],
        decode=decode_with_level,
    )


def weighted_coord_walk(lat: Lattice, level_values,
                        basis: NodeBasis | None = None) -> WalkSpec:
    """State = one block of position axes of ``basis`` per distinct nonzero
    integrand value, moved on the levels that take that value.

    For a deterministic step integrand taking few distinct values, the
    running integral sum_k f_k * dB_k is an exact function of these blocks.
    A level where f = 0 adds nothing to it and moves nothing, so an
    all-zero integrand walks one zero-width state per level.  decode
    returns the running integral.
    """
    vals = np.asarray(level_values, dtype=float)
    if vals.shape != (lat.n_steps,):
        raise ValueError("need one integrand value per step")
    distinct = sorted(set(float(v) for v in vals) - {0.0})
    _, unit = basis_axes(lat, basis)
    weights = np.multiply.outer(distinct, unit * math.sqrt(lat.dt)).ravel()
    transition, init_state = _shift_walk(lat, [vals == v for v in distinct],
                                         basis=basis)

    def decode(states):
        return states @ weights

    return WalkSpec(
        lattice=lat,
        init_state=init_state,
        transition=transition,
        terminal=lambda s: decode(s),
        decode=decode,
    )


def adapted_abs_walk(lat: Lattice, basis: NodeBasis | None = None) -> WalkSpec:
    """State for the running integral of (|B| + 1) against the path.

    The integral splits as sum_k |B_k| dB_k + B.  With B_k / sqrt(dt) =
    c . unit and dB_k = +-(steps[i] . unit) sqrt(dt), a step adds
    +-sign(c . unit) * c_a * steps[i, b] * unit_a * unit_b * dt over the axis
    pairs (a, b), so the state is the position axes of ``basis`` plus one
    integer sum per unordered pair {a, b}, and decode is exact on every band.
    On the default band the state is (p, sum_k +-|p_k| * q_k), one unit of
    whose sum is dt / 4.  Where c . unit is 0 nothing is added; should
    roundoff give it a sign, the added terms cancel in the weighted sum.
    """
    steps, unit = basis_axes(lat, basis)
    a = unit.size
    ia, ib = np.triu_indices(a)
    w = unit * math.sqrt(lat.dt)
    pair_w = unit[ia] * unit[ib] * lat.dt
    # gain[i][x, p]: what axis x adds to pair p's sum per unit of sign(B)
    # at a step of choice i
    gain = np.zeros((len(steps), a, ia.size), dtype=np.int64)
    for p, (x, y) in enumerate(zip(ia, ib)):
        gain[:, x, p] += steps[:, y]
        if x != y:
            gain[:, y, p] += steps[:, x]
    move, _ = _shift_walk(lat, [np.ones(lat.n_steps, dtype=bool)], basis=basis)

    def transition(level, states, i, sign):
        c = states[:, :a]
        out = move(level, states, i, sign)
        out[:, a:] += (np.sign(c @ unit).astype(np.int64)[:, None] * c) @ (sign * gain[i])
        return out

    def decode(states):
        pos = states[:, :a] @ w
        return pos, states[:, a:] @ pair_w + pos

    return WalkSpec(
        lattice=lat,
        init_state=np.zeros(a + ia.size, dtype=np.int64),
        transition=transition,
        terminal=lambda s: decode(s)[1],
        decode=decode,
    )
