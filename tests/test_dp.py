import math
from dataclasses import replace

import numpy as np
import pytest

from gexpect import dp
from gexpect.dp import (
    WalkSpec,
    adapted_abs_walk,
    coord_walk,
    qv_coord_walk,
    run_walk,
    weighted_coord_walk,
)
from gexpect.gcore import GParams
from gexpect.glattice import CylinderFunctional, build_lattice, lattice_expect
from gexpect.payoff import parse

PARAMS = GParams(sigma_lower_sq=0.25, sigma_upper_sq=1.0)


def brute_path_value(lat, path_terminal):
    """Exhaustive oracle: recurse over (volatility, sign) choices per step;
    terminal sees the whole path and the variance-rate sequence."""
    sqdt = math.sqrt(lat.dt)

    def rec(k, path, s2s):
        if k == lat.n_steps:
            return float(path_terminal(np.array(path), np.array(s2s)))
        best = -math.inf
        for s2 in lat.sigma_grid:
            step = math.sqrt(s2) * sqdt
            up = rec(k + 1, path + [path[-1] + step], s2s + [s2])
            dn = rec(k + 1, path + [path[-1] - step], s2s + [s2])
            best = max(best, 0.5 * (up + dn))
        return best

    return rec(0, [0.0], [])


def test_coord_walk_matches_dense_dp():
    lat = build_lattice(1.0, 10, PARAMS)
    spec = coord_walk(lat)
    decode = spec.decode
    spec.terminal = lambda s: np.abs(decode(s))
    dense = lattice_expect(lat, CylinderFunctional((10,), parse("abs(x1)")))
    assert run_walk(spec).value == pytest.approx(dense, abs=1e-13)


def test_coord_walk_with_inactive_levels():
    # integral of an indicator is the increment over the active window
    lat = build_lattice(1.0, 4, PARAMS)
    active = np.array([False, True, True, False])
    spec = coord_walk(lat, active=active)
    decode = spec.decode
    spec.terminal = lambda s: decode(s) ** 2
    oracle = brute_path_value(lat, lambda B, s2: (B[3] - B[1]) ** 2)
    assert run_walk(spec).value == pytest.approx(oracle, abs=1e-13)


def test_qv_coord_walk_extremes():
    lat = build_lattice(1.0, 12, PARAMS)
    spec = qv_coord_walk(lat)
    decode = spec.decode
    spec.terminal = lambda s: decode(s, 12)[1]
    assert run_walk(spec).value == pytest.approx(1.0, abs=1e-13)
    spec2 = qv_coord_walk(lat)
    spec2.terminal = lambda s, d=spec2.decode: -d(s, 12)[1]
    assert run_walk(spec2).value == pytest.approx(-0.25, abs=1e-13)


def test_qv_coord_walk_matches_brute_force():
    lat = build_lattice(1.0, 4, PARAMS)
    spec = qv_coord_walk(lat)
    decode = spec.decode
    # a genuinely joint functional of position and quadratic variation
    spec.terminal = lambda s: decode(s, 4)[0] ** 2 - 2.0 * decode(s, 4)[1]
    oracle = brute_path_value(
        lat, lambda B, s2: B[-1] ** 2 - 2.0 * np.sum(s2 * lat.dt)
    )
    assert run_walk(spec).value == pytest.approx(oracle, abs=1e-13)


def test_weighted_coord_walk_matches_brute_force():
    lat = build_lattice(1.0, 4, PARAMS)
    vals = np.array([1.0, 1.0, -2.0, -2.0])
    spec = weighted_coord_walk(lat, vals)
    decode = spec.decode
    spec.terminal = lambda s: np.abs(decode(s))
    oracle = brute_path_value(
        lat, lambda B, s2: abs(float(np.dot(vals, np.diff(B))))
    )
    assert run_walk(spec).value == pytest.approx(oracle, abs=1e-13)
    with pytest.raises(ValueError):
        weighted_coord_walk(lat, np.ones(3))


def test_adapted_abs_walk_matches_brute_force():
    lat = build_lattice(1.0, 4, PARAMS)
    spec = adapted_abs_walk(lat)
    decode = spec.decode
    spec.terminal = lambda s: decode(s)[1] ** 2

    def integral(B, s2):
        f = np.abs(B[:-1]) + 1.0
        return float(np.dot(f, np.diff(B))) ** 2

    oracle = brute_path_value(lat, integral)
    assert run_walk(spec).value == pytest.approx(oracle, abs=1e-12)


def _reward_walk(lat, reward):
    """The additive functional sum_k reward(k, state, sigma^2) on a walk with
    one state per level: the walk of an all-zero integrand."""
    inert = weighted_coord_walk(lat, np.zeros(lat.n_steps))
    return replace(inert, terminal=lambda s: np.zeros(s.shape[0]), reward=reward)


def test_reward_expect_scalar_recursion():
    # additive reward sigma^2 * dt maximized at the top of the band
    lat = build_lattice(1.0, 16, PARAMS)
    res = run_walk(_reward_walk(
        lat, lambda k, states, s2: np.full(states.shape[0], s2 * lat.dt)
    ))
    assert res.value == pytest.approx(1.0, abs=1e-13)


def test_reward_expect_without_state_walks_one_state_per_level():
    lat = build_lattice(1.0, 8, PARAMS)
    res = run_walk(_reward_walk(
        lat, lambda k, states, s2: np.full(states.shape[0], s2 * lat.dt)
    ), stop_levels=range(9))
    assert sorted(res.stops) == list(range(9))
    assert all(states.shape == (1, 0) for states, _ in res.stops.values())
    assert res.value == pytest.approx(1.0, abs=1e-13)


def _brute_from(lat, k, x, active, terminal):
    """Exhaustive oracle from level k: the upper expectation of terminal(I_n)
    for the running integral I of the 0/1 step integrand ``active``, with
    I_k = x (one entry per node)."""
    if k == lat.n_steps:
        return terminal(x)
    if not active[k]:
        return _brute_from(lat, k + 1, x, active, terminal)
    best = None
    for s2 in lat.sigma_grid:
        step = math.sqrt(s2 * lat.dt)
        cand = 0.5 * (_brute_from(lat, k + 1, x + step, active, terminal)
                      + _brute_from(lat, k + 1, x - step, active, terminal))
        best = cand if best is None else np.maximum(best, cand)
    return best


@pytest.mark.parametrize("n", [4, 8])
def test_increment_walk_on_the_node_basis_matches_counts_and_brute_force(n):
    """``weighted_coord_walk`` of a 0/1 integrand on ``lat.basis`` gives the
    brute-force conditional value at every state of every level, and the
    count walk's value at every count vector of the same position, with
    fewer states once three steps can merge."""
    lat = build_lattice(1.0, n, PARAMS)

    def terminal(x):
        return np.abs(x - 0.2) + x**3

    for active in (np.ones(n, dtype=bool), np.arange(n) < n // 2, np.arange(n) % 3 != 1):
        runs = []
        for spec in (weighted_coord_walk(lat, active), coord_walk(lat, active)):
            spec = replace(spec, terminal=lambda s, d=spec.decode: terminal(d(s)))
            runs.append((spec.decode, run_walk(spec, stop_levels=range(n + 1))))
        (dec_p, pos), (dec_c, cnt) = runs
        for k in range(n + 1):
            (sp, vp), (sc, vc) = pos.stops[k], cnt.stops[k]
            xp, xc = dec_p(sp), dec_c(sc)
            np.testing.assert_allclose(vp, _brute_from(lat, k, xp, active, terminal),
                                       rtol=0, atol=1e-12)
            match = np.argmin(np.abs(xc[:, None] - xp[None, :]), axis=1)
            assert np.max(np.abs(xc - xp[match])) <= 1e-12
            assert np.unique(match).size == xp.size
            np.testing.assert_allclose(vc, vp[match], rtol=0, atol=1e-12)
        held = [sum(r.stops[k][0].shape[0] for k in range(n + 1)) for r in (pos, cnt)]
        assert held[0] < held[1] if active.sum() >= 3 else held[0] <= held[1]


@pytest.mark.parametrize("params, refinement", [(PARAMS, 0), (GParams(0.3, 1.2), 0),
                                                (PARAMS, 1)],
                         ids=["default", "0.3-1.2", "refined"])
def test_transfer_shaped_shift_walk_matches_brute_force(params, refinement):
    """A frozen block moved before level s, a running block moved at every
    level and step totals counted from s on give B_s, B_n and <B>_n - <B>_s:
    each of the three insertions of the squared increment matches the
    exhaustive oracle."""
    n, s = 4, 2
    lat = build_lattice(1.0, n, params, refinement)
    early = np.arange(n) < s
    transition, init_state = dp._shift_walk(lat, [early, np.ones(n, dtype=bool)], ~early)
    w = np.asarray(lat.basis.unit) * math.sqrt(lat.dt)
    a = w.size

    def quantities(st):
        return st[:, :a] @ w, st[:, a:2 * a] @ w, dp._qv(lat, st[:, 2 * a:], n - s)

    cases = (
        (lambda b_s, b_n, dqv: b_s**2 - dqv,
         lambda B, s2: B[s] ** 2 - np.sum(s2[s:]) * lat.dt),
        (lambda b_s, b_n, dqv: b_s**2 - (b_n - b_s) ** 2,
         lambda B, s2: B[s] ** 2 - (B[n] - B[s]) ** 2),
        (lambda b_s, b_n, dqv: b_s**2 - (b_n**2 - b_s**2),
         lambda B, s2: B[s] ** 2 - (B[n] ** 2 - B[s] ** 2)),
    )
    for walk_terminal, path_terminal in cases:
        spec = WalkSpec(lattice=lat, init_state=init_state, transition=transition,
                        terminal=lambda st, f=walk_terminal: f(*quantities(st)))
        assert run_walk(spec).value == pytest.approx(
            brute_path_value(lat, path_terminal), abs=1e-12)


def test_stop_levels_capture_conditionals():
    lat = build_lattice(1.0, 6, PARAMS)
    spec = coord_walk(lat)
    decode = spec.decode
    spec.terminal = lambda s: decode(s) ** 2
    res = run_walk(spec, stop_levels=(0, 3))
    states0, values0 = res.stops[0]
    assert values0.shape == (1,)
    assert float(values0[0]) == pytest.approx(res.value)
    states3, values3 = res.stops[3]
    # E[B_T^2 | H_s] = B_s^2 + sigma_up^2 (T - t_s) at every level-3 node
    pos = decode(states3)
    np.testing.assert_allclose(values3, pos**2 + 0.5, atol=1e-13)


# --- node bases ---------------------------------------------------------------


def _basis_cases(lat):
    """(builder, terminal, stop quantity) for each builder that takes a
    basis; the quantity, (position, qv) or an integral, is what a stop value
    depends on."""
    n = lat.n_steps
    f = np.where(np.arange(n) < n // 2, 1.0, -2.0)
    yield (
        qv_coord_walk,
        lambda d: lambda s: np.abs(d(s, n)[0] - 0.3) * (1 + d(s, n)[1]) - d(s, n)[1] ** 2,
        lambda d, s, l: np.column_stack(d(s, l)),
    )
    yield (
        lambda lat, basis: weighted_coord_walk(lat, f, basis=basis),
        lambda d: lambda s: np.abs(d(s) - 0.2) + d(s) ** 3,
        lambda d, s, l: d(s)[:, None],
    )
    yield (
        adapted_abs_walk,
        lambda d: lambda s: d(s)[1] ** 2 - np.abs(d(s)[0]),
        lambda d, s, l: np.column_stack(d(s)),
    )


@pytest.mark.parametrize("params", [PARAMS, GParams(0.3, 1.2)], ids=["default", "0.3-1.2"])
@pytest.mark.parametrize("n", [3, 8])
def test_position_and_count_bases_agree(params, n):
    """Oracle: each builder gives the same value, and the same stop value for
    every decoded stop quantity, on the position basis and on the count
    basis; on the default band at n = 8 the position basis holds fewer
    states."""
    lat = build_lattice(1.0, n, params)
    assert lat.basis.n_axes == 1
    for builder, terminal, quantity in _basis_cases(lat):
        runs = []
        for basis in (lat.basis, lat.count_basis):
            spec = builder(lat, basis=basis)
            spec = replace(spec, terminal=terminal(spec.decode))
            runs.append((spec.decode, run_walk(spec, stop_levels=range(n + 1))))
        (dec_p, pos), (dec_c, cnt) = runs
        assert abs(pos.value - cnt.value) <= 1e-12
        for k in range(n + 1):
            (sp, vp), (sc, vc) = pos.stops[k], cnt.stops[k]
            qp, qc = quantity(dec_p, sp, k), quantity(dec_c, sc, k)
            # pairs of states whose decoded quantities agree to roundoff
            close = np.max(np.abs(qc[:, None, :] - qp[None, :, :]), axis=2) <= 1e-9
            assert close.any(axis=0).all() and close.any(axis=1).all()
            gaps = np.abs(vc[:, None] - vp[None, :])[close]
            assert gaps.max() <= 1e-12
        if params == PARAMS and n == 8:
            assert pos.stops[n][0].shape[0] < cnt.stops[n][0].shape[0]


def test_adapted_abs_rounding_is_exact_on_default_band(monkeypatch):
    # u = 0.5 and scale 4: every rounded increment is already an integer
    rint = np.rint
    exact = []

    def checked(x, *args, **kwargs):
        out = rint(x, *args, **kwargs)
        exact.append(np.array_equal(out, x))
        return out

    monkeypatch.setattr(np, "rint", checked)
    lat = build_lattice(1.0, 12, PARAMS)
    spec = adapted_abs_walk(lat)
    run_walk(replace(spec, terminal=lambda s, d=spec.decode: d(s)[1] ** 2))
    assert len(exact) == 2 * lat.n_sigma * 12 and all(exact)


def test_adapted_abs_scale_falls_back_when_rounding_is_inexact():
    # sqrt(0.3) * sqrt(1.2) * 4 is no integer: the integral's unit is dt / 2**20
    lat = build_lattice(1.0, 4, GParams(0.3, 1.2))
    spec = adapted_abs_walk(lat)
    one_unit = np.zeros((1, spec.init_state.size), dtype=np.int64)
    one_unit[0, -1] = 1
    assert spec.decode(one_unit)[1][0] == lat.dt / 2**20


def _walk_bytes(stops, n, n_children):
    """(held, needs): the bytes of states (8 per coordinate) and maps (4 per
    entry of the 2r maps of each level) a walk holds at the end, and the
    guarded total of each level 1..n: the bytes held before it plus its
    child blocks (8 per coordinate), keys (8 each) and dedup tables (5 per
    cell of the children's box on the occupancy path)."""
    sizes = [stops[k][0].shape[0] for k in range(n + 1)]
    d = stops[0][0].shape[1]
    held, needs = 8 * d * sizes[0], []
    for k in range(n):
        n_keys = n_children * sizes[k]
        nxt = stops[k + 1][0]
        box = math.prod(int(x) for x in nxt.max(axis=0) - nxt.min(axis=0) + 1)
        assert box <= dp._OCCUPANCY_FACTOR * n_keys
        needs.append(held + 8 * (d + 1) * n_keys + 5 * box)
        held += 8 * d * sizes[k + 1] + 4 * n_keys
    return held, needs


def test_state_budget_guard(monkeypatch):
    n = 10
    lat = build_lattice(1.0, n, PARAMS)
    spec = qv_coord_walk(lat)
    spec.terminal = lambda s, d=spec.decode: d(s, n)[0]
    stops = run_walk(spec, stop_levels=range(n + 1)).stops
    _, needs = _walk_bytes(stops, n, 2 * lat.n_sigma)
    need = max(needs)
    level = needs.index(need) + 1
    monkeypatch.setattr(dp, "_MAX_WALK_BYTES", need)
    assert run_walk(spec).value == pytest.approx(0.0, abs=1e-13)
    monkeypatch.setattr(dp, "_MAX_WALK_BYTES", need - 1)
    with pytest.raises(RuntimeError, match=f"state space too large at level {level}"):
        run_walk(spec)


def test_state_budget_guard_counts_level_transients(monkeypatch):
    # a limit that covers every state and map the walk holds is refused
    # while a level's child blocks, keys and dedup tables are alive
    n = 10
    lat = build_lattice(1.0, n, PARAMS)
    spec = qv_coord_walk(lat)
    spec.terminal = lambda s, d=spec.decode: d(s, n)[0]
    stops = run_walk(spec, stop_levels=range(n + 1)).stops
    held, needs = _walk_bytes(stops, n, 2 * lat.n_sigma)
    level = next(k + 1 for k, need in enumerate(needs) if need > held)
    monkeypatch.setattr(dp, "_MAX_WALK_BYTES", held)
    with pytest.raises(RuntimeError, match=f"state space too large at level {level}"):
        run_walk(spec)


def _oracle_walks():
    """Every builder at small n on the default and a refined grid."""
    for refinement in (0, 1):
        n = 8
        lat = build_lattice(1.0, n, PARAMS, refinement)
        spec = coord_walk(lat)
        yield replace(spec, terminal=lambda s, d=spec.decode: np.abs(d(s)))
        spec = coord_walk(lat, active=np.arange(n) % 3 != 1)
        yield replace(spec, terminal=lambda s, d=spec.decode: d(s) ** 2)
        spec = qv_coord_walk(lat)
        yield replace(spec, terminal=lambda s, d=spec.decode, n=n:
                      d(s, n)[0] ** 2 - 2.0 * d(s, n)[1])
        spec = weighted_coord_walk(lat, np.where(np.arange(n) < n // 2, 1.0, -2.0))
        yield replace(spec, terminal=lambda s, d=spec.decode: np.abs(d(s)))
        spec = adapted_abs_walk(lat)
        yield replace(spec, terminal=lambda s, d=spec.decode: d(s)[1] ** 2)
        spec = coord_walk(lat)
        yield replace(spec, terminal=lambda s, d=spec.decode: d(s) ** 2,
                      reward=lambda k, s, s2, dt=lat.dt: np.full(s.shape[0], -s2 * dt))


def test_occupancy_dedup_matches_np_unique(monkeypatch):
    unique = np.unique
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    factor = dp._OCCUPANCY_FACTOR
    levels = 0
    for spec in _oracle_walks():
        n = spec.lattice.n_steps
        levels += n
        monkeypatch.setattr(dp, "_OCCUPANCY_FACTOR", factor)
        fast = run_walk(spec, stop_levels=range(n + 1))
        monkeypatch.setattr(dp, "_OCCUPANCY_FACTOR", 0)  # np.unique everywhere
        slow = run_walk(spec, stop_levels=range(n + 1))
        assert fast.value == slow.value
        for k in range(n + 1):
            (fs, fv), (ss, sv) = fast.stops[k], slow.stops[k]
            assert fs.dtype == ss.dtype == np.int64
            np.testing.assert_array_equal(fs, ss)
            np.testing.assert_array_equal(fv, sv)
    # both branches ran: the forced runs call np.unique once per level, the
    # default runs on some levels only
    assert levels < len(calls) < 2 * levels
