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
    reward_expect,
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


def test_reward_expect_scalar_recursion():
    # additive reward sigma^2 * dt maximized at the top of the band
    lat = build_lattice(1.0, 16, PARAMS)
    res = reward_expect(
        lat, lambda k, states, s2: np.full(states.shape[0], s2 * lat.dt)
    )
    assert res.value == pytest.approx(1.0, abs=1e-13)


def test_reward_expect_without_state_walks_one_state_per_level():
    lat = build_lattice(1.0, 8, PARAMS)
    res = reward_expect(
        lat, lambda k, states, s2: np.full(states.shape[0], s2 * lat.dt),
        stop_levels=range(9),
    )
    assert sorted(res.stops) == list(range(9))
    assert all(states.shape[0] == 1 for states, _ in res.stops.values())
    assert res.value == pytest.approx(1.0, abs=1e-13)


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


def test_state_budget_guard(monkeypatch):
    n = 10
    lat = build_lattice(1.0, n, PARAMS)
    spec = qv_coord_walk(lat)
    spec.terminal = lambda s, d=spec.decode: d(s, n)[0]
    stops = run_walk(spec, stop_levels=range(n + 1)).stops
    sizes = [stops[k][0].shape[0] for k in range(n + 1)]
    # 8 bytes per state coordinate, 4 per entry of the 2r maps of each level
    held = 8 * 3 * sum(sizes) + 4 * 4 * sum(sizes[:-1])
    monkeypatch.setattr(dp, "_MAX_WALK_BYTES", held)
    assert run_walk(spec).value == pytest.approx(0.0, abs=1e-13)
    monkeypatch.setattr(dp, "_MAX_WALK_BYTES", held - 1)
    with pytest.raises(RuntimeError, match=f"state space too large at level {n}"):
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
