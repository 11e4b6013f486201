import csv
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gexpect import glattice
from gexpect.gcore import (
    ConstantPolicy,
    GParams,
    VolatilityPolicy,
    default_scenario_family,
)
from gexpect.glattice import (
    CylinderFunctional,
    Lattice,
    backward_step,
    build_lattice,
    conditional_expect,
    conditional_tables,
    ensemble_to_csv,
    eval_tables_on_paths,
    extract_worst_policy,
    lattice_expect,
    policy_to_csv,
    sample_paths,
)
from gexpect.payoff import PayoffEvalError, eval_expr, parse
from test_payoff import _exprs

PARAMS = GParams(sigma_lower_sq=0.25, sigma_upper_sq=1.0)


def brute_expect(lat, X):
    """Independent oracle: exhaustive recursion over (volatility, sign) choices."""
    sqdt = math.sqrt(lat.dt)
    anchors = (0,) + X.levels

    def terminal(incs):
        path = np.concatenate([[0.0], np.cumsum(incs)])
        if X.mode == "increments":
            args = [path[b] - path[a] for a, b in zip(anchors, anchors[1:])]
        else:
            args = [path[l] for l in X.levels]
        return float(eval_expr(X.phi, args))

    def rec(k, incs):
        if k == X.levels[-1]:
            return terminal(incs)
        best = -math.inf
        for sv in lat.sigma_values:
            up = rec(k + 1, incs + [sv * sqdt])
            dn = rec(k + 1, incs + [-sv * sqdt])
            best = max(best, 0.5 * (up + dn))
        return best

    return rec(0, [])


# --- construction ---------------------------------------------------------------


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(T=1.0, n_steps=4, params=PARAMS, sigma_grid=(1.0, 0.25))
    with pytest.raises(ValueError):
        Lattice(T=1.0, n_steps=4, params=PARAMS, sigma_grid=(0.25,))
    with pytest.raises(ValueError):
        Lattice(T=-1.0, n_steps=4, params=PARAMS, sigma_grid=(0.25, 1.0))
    with pytest.raises(ValueError):
        build_lattice(1.0, 4, PARAMS, sigma_refinement=-1)


def test_build_lattice_grids():
    lat = build_lattice(1.0, 4, PARAMS)
    assert lat.sigma_grid == (0.25, 1.0)
    assert lat.dt == 0.25
    lat3 = build_lattice(1.0, 4, PARAMS, sigma_refinement=2)
    assert lat3.n_sigma == 4
    degenerate = build_lattice(1.0, 4, GParams(1.0, 1.0))
    assert degenerate.sigma_grid == (1.0,)
    assert lat.level_of_time(0.5) == 2
    with pytest.raises(ValueError):
        lat.level_of_time(0.3)


def test_functional_validation():
    with pytest.raises(ValueError):
        CylinderFunctional((4, 2), parse("x1"))
    with pytest.raises(ValueError):
        CylinderFunctional((0,), parse("x1"))
    with pytest.raises(ValueError):
        CylinderFunctional((4,), parse("x2"))
    with pytest.raises(ValueError):
        CylinderFunctional((4,), parse("x1"), mode="paths")
    assert CylinderFunctional((2, 5), parse("x1 + x2")).segment_lengths == (2, 3)


# --- node bases -----------------------------------------------------------------


def test_default_band_gets_position_basis_with_steps_1_2():
    basis = build_lattice(1.0, 4, PARAMS).basis
    assert basis.steps == ((1,), (2,))
    assert basis.unit == (0.5,)


def test_refined_grid_falls_back_to_counts():
    lat = build_lattice(1.0, 4, PARAMS, sigma_refinement=1)
    assert lat.basis == lat.count_basis
    assert lat.basis.steps == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_single_volatility_gets_one_axis():
    basis = build_lattice(1.0, 4, GParams(0.5, 0.5)).basis
    assert basis.steps == ((1,),)
    assert basis.unit == pytest.approx((math.sqrt(0.5),), abs=1e-15)


def test_inexact_commensurate_band_is_detected():
    # sqrt(0.3) / sqrt(1.2) is 1/2 only up to roundoff
    basis = build_lattice(1.0, 4, GParams(0.3, 1.2)).basis
    assert basis.steps == ((1,), (2,))
    assert basis.unit[0] == pytest.approx(math.sqrt(0.3), abs=1e-15)


def test_position_basis_marks_unreachable_positions():
    # one step of +-1 or +-2 never returns to 0
    reach = build_lattice(1.0, 4, PARAMS).basis.reachable(1)
    np.testing.assert_array_equal(reach, [True, True, False, True, True])


def _tables(lat, X, basis):
    top = X.levels[-1]
    _, _, caps = glattice._sweep(lat, X, basis, 0, capture=range(top + 1))
    return caps


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(0, 7),
    st.sampled_from(["increments", "levels"]),
    st.data(),
)
def test_position_and_count_bases_agree(n, split, mode, data):
    """Oracle: on a commensurate grid the two bases give the same values at
    every reachable node of every level's conditional table."""
    levels = (n,) if split == 0 or split >= n else (split, n)
    phi = data.draw(_exprs(max_vars=len(levels)))
    lat = build_lattice(1.0, n, PARAMS)
    assert lat.basis.n_axes == 1
    X = CylinderFunctional(levels, phi, mode=mode)
    try:
        with np.errstate(all="ignore"):
            counts = _tables(lat, X, lat.count_basis)
            positions = _tables(lat, X, lat.basis)
    except PayoffEvalError:
        assume(False)
    terminal = counts[n].values[counts[n].valid_mask()]
    assume(np.all(np.isfinite(terminal)))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(terminal))))
    assert abs(positions[0].value_at_origin() - counts[0].value_at_origin()) <= tol
    for k in range(1, n + 1):
        # look every reachable count vector up in the position table
        mask = counts[k].valid_mask()
        nodes = np.nonzero(mask)
        seg_counts = [
            np.stack(nodes[i * lat.n_sigma:(i + 1) * lat.n_sigma], axis=1) - r
            for i, r in enumerate(counts[k]._radii())
        ]
        got = positions[k].at(seg_counts)
        np.testing.assert_allclose(got, counts[k].values[mask], rtol=0, atol=tol)
        assert positions[k].valid_mask().sum() <= mask.sum()


# --- memory guard -----------------------------------------------------------------


def test_guard_bounds_the_working_set_of_the_active_basis(monkeypatch):
    monkeypatch.setattr(glattice, "_MAX_WORKSET_BYTES", 1 << 20)
    X = CylinderFunctional((400,), parse("abs(x1)"))
    # 1,601 positions fit; the 801^2 count box would not
    lat = build_lattice(1.0, 400, PARAMS)
    assert lattice_expect(lat, X) == pytest.approx(0.797386039275, abs=1e-11)


def test_guard_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(glattice, "_MAX_WORKSET_BYTES", 1 << 20)

    def never(*args):
        raise AssertionError("the terminal table was built")

    monkeypatch.setattr(glattice, "eval_expr", never)
    lat = build_lattice(1.0, 50, PARAMS, sigma_refinement=1)
    with pytest.raises(ValueError, match="too large"):
        lattice_expect(lat, CylinderFunctional((50,), parse("abs(x1)")))


# --- exact values ------------------------------------------------------------------


def test_quadratic_moments_are_exact():
    lat = build_lattice(1.0, 8, PARAMS)
    up = lattice_expect(lat, CylinderFunctional((8,), parse("x1^2")))
    lo = -lattice_expect(lat, CylinderFunctional((8,), parse("-(x1^2)")))
    assert up == pytest.approx(1.0, abs=1e-14)
    assert lo == pytest.approx(0.25, abs=1e-14)


def test_abs_payoff_matches_closed_form():
    # worst case for |x| is the top volatility: a scaled simple random walk
    # with E|S_4| = 3/2, so the value is 1.5 * sqrt(dt)
    lat = build_lattice(1.0, 4, PARAMS)
    v = lattice_expect(lat, CylinderFunctional((4,), parse("abs(x1)")))
    assert v == pytest.approx(1.5 * 0.5, abs=1e-14)


@pytest.mark.parametrize(
    "levels, text, mode",
    [
        ((4,), "abs(x1)", "increments"),
        ((4,), "max(x1 - 0.3, 0)", "increments"),
        ((2, 4), "x1 * x2", "increments"),
        ((2, 4), "x2^2 - x1", "levels"),
        ((1, 3, 4), "max(x1, x2, x3)", "levels"),
    ],
)
def test_expectation_matches_brute_force(levels, text, mode):
    lat = build_lattice(1.0, 4, PARAMS)
    X = CylinderFunctional(levels, parse(text), mode=mode)
    assert lattice_expect(lat, X) == pytest.approx(brute_expect(lat, X), abs=1e-13)


def test_increment_and_level_modes_agree_for_single_anchor():
    lat = build_lattice(1.0, 6, PARAMS)
    phi = parse("max(x1 - 0.5, 0)")
    a = lattice_expect(lat, CylinderFunctional((6,), phi, mode="increments"))
    b = lattice_expect(lat, CylinderFunctional((6,), phi, mode="levels"))
    assert a == b


# --- conditional tables --------------------------------------------------------------


def test_conditioning_to_zero_matches_expectation():
    lat = build_lattice(1.0, 6, PARAMS)
    X = CylinderFunctional((3, 6), parse("x1^2 + abs(x2)"))
    table = conditional_expect(lat, X, 0)
    assert table.value_at_origin() == pytest.approx(lattice_expect(lat, X))


def test_tower_through_intermediate_level():
    lat = build_lattice(1.0, 6, PARAMS)
    X = CylinderFunctional((6,), parse("abs(x1)"), mode="levels")
    caps = conditional_tables(lat, X, (1, 4))
    direct = caps[1]
    via4 = caps[4].condition_to(1)
    mask = direct.valid_mask()
    np.testing.assert_allclose(via4.values[mask], direct.values[mask], atol=1e-14)


def test_valid_mask_counts_and_positions():
    lat = build_lattice(1.0, 4, PARAMS)
    X = CylinderFunctional((4,), parse("x1"))
    table = conditional_expect(lat, X, 2)
    mask = table.valid_mask()
    # two steps, two volatilities: (c1, c2) with |c1| + |c2| = 2 or 0 -> 9 nodes
    assert int(mask.sum()) == 9
    pos = table.positions()
    sqdt = 0.5
    expected = {
        round(c1 * 0.5 * sqdt + c2 * 1.0 * sqdt, 12)
        for c1 in range(-2, 3)
        for c2 in range(-2, 3)
        if abs(c1) + abs(c2) in (0, 2)
    }
    assert {round(float(p), 12) for p in pos[mask]} == expected


def test_conditional_level_beyond_horizon_raises():
    lat = build_lattice(1.0, 4, PARAMS)
    X = CylinderFunctional((4,), parse("x1"))
    with pytest.raises(ValueError):
        conditional_expect(lat, X, 5)


# --- the backward-step rule ------------------------------------------------------------


def test_backward_step_keeps_lowest_choice_on_exact_ties():
    a = np.array([0.3, -1.0, 2.5])
    best, pol = backward_step([a.copy(), a.copy()], record=True)
    np.testing.assert_array_equal(best, a)
    np.testing.assert_array_equal(pol, [0, 0, 0])
    assert pol.dtype == np.int8


def test_backward_step_strictly_larger_later_choice_wins():
    def averages():
        return [np.array([1.0, 1.0]), np.array([1.0, 3.0])]

    best, pol = backward_step(averages(), record=True)
    np.testing.assert_array_equal(best, [1.0, 3.0])
    np.testing.assert_array_equal(pol, [0, 1])
    best, pol = backward_step(averages(), reward=lambda j: -2.0 * j, record=True)
    np.testing.assert_array_equal(best, [1.0, 1.0])
    np.testing.assert_array_equal(pol, [0, 0])


def test_backward_step_without_record_returns_no_policy():
    best, pol = backward_step([np.array([1.0, 2.0]), np.array([0.0, 4.0])])
    np.testing.assert_array_equal(best, [1.0, 4.0])
    assert pol is None


@pytest.mark.parametrize("refinement", [0, 1])
def test_worst_policy_for_constant_payoff_is_lowest_choice(refinement):
    lat = build_lattice(1.0, 6, PARAMS, refinement)
    pol = extract_worst_policy(lat, CylinderFunctional((3, 6), parse("2")))
    assert sorted(pol.frames) == list(range(6))
    for _, choice in pol.frames.values():
        assert np.all(np.asarray(choice) == 0)


# --- policies and sampling --------------------------------------------------------------


def test_worst_policy_for_convex_payoff_is_max_volatility():
    lat = build_lattice(1.0, 10, PARAMS)
    pol = extract_worst_policy(lat, CylinderFunctional((10,), parse("x1^2")))
    ens = sample_paths(lat, pol, 500, seed=7)
    assert np.all(ens.sigma_sq == 1.0)
    assert ens.policy_name == "worst:x1^2"


def test_worst_policy_for_concave_payoff_is_min_volatility():
    lat = build_lattice(1.0, 10, PARAMS)
    pol = extract_worst_policy(lat, CylinderFunctional((10,), parse("-(x1^2)")))
    ens = sample_paths(lat, pol, 500, seed=7)
    assert np.all(ens.sigma_sq == 0.25)


def test_sampling_is_reproducible_and_on_grid():
    lat = build_lattice(1.0, 20, PARAMS)
    pol = ConstantPolicy(1.0, name="const-max")
    a = sample_paths(lat, pol, 100, seed=3)
    b = sample_paths(lat, pol, 100, seed=3)
    np.testing.assert_array_equal(a.B, b.B)
    c = sample_paths(lat, pol, 100, seed=4)
    assert not np.array_equal(a.B, c.B)
    # increments are exactly +-sigma*sqrt(dt)
    np.testing.assert_allclose(np.abs(np.diff(a.B, axis=1)),
                               math.sqrt(lat.dt), atol=1e-15)
    np.testing.assert_allclose(a.qv[:, -1], 1.0, atol=1e-12)


def test_out_of_band_policy_rejected():
    lat = build_lattice(1.0, 5, PARAMS)
    with pytest.raises(ValueError, match="band"):
        sample_paths(lat, ConstantPolicy(2.0), 10, seed=0)


def test_track_coords_requires_grid_alignment():
    lat = build_lattice(1.0, 5, PARAMS)
    with pytest.raises(ValueError, match="grid-aligned"):
        sample_paths(lat, ConstantPolicy(0.625), 10, seed=0, track_coords=True)


def test_lattice_policy_ensemble_keeps_coords_only_on_request():
    n = 12
    lat = build_lattice(1.0, n, PARAMS)
    pol = extract_worst_policy(lat, CylinderFunctional((4, n), parse("abs(x1) * x2")))
    plain = sample_paths(lat, pol, 300, seed=5)
    tracked = sample_paths(lat, pol, 300, seed=5, track_coords=True)
    assert plain.coords is None
    np.testing.assert_array_equal(plain.B, tracked.B)
    np.testing.assert_array_equal(plain.sigma_sq, tracked.sigma_sq)
    assert len(np.unique(plain.sigma_sq)) == 2  # the policy switches
    sv = np.asarray(lat.sigma_values) * math.sqrt(lat.dt)
    np.testing.assert_allclose(tracked.coords @ sv, tracked.B, atol=1e-12)


class _Stepwise(VolatilityPolicy):
    """Forwards ``sigma_sq`` and gives no schedule, so the sampler loops."""

    def __init__(self, policy):
        self.policy, self.name = policy, policy.name

    def sigma_sq(self, level, positions):
        return self.policy.sigma_sq(level, positions)


@pytest.mark.parametrize("params, refinement", [
    (PARAMS, 0), (PARAMS, 1), (GParams(sigma_lower_sq=0.0, sigma_upper_sq=1.0), 0),
], ids=["default", "refined", "zero-lower"])
def test_scheduled_sampler_matches_the_loop(params, refinement):
    lat = build_lattice(1.0, 37, params, sigma_refinement=refinement)
    for i, pol in enumerate(default_scenario_family(params)):
        assert pol.schedule(lat.n_steps) is not None
        fast = sample_paths(lat, pol, 1000, seed=40 + i)
        loop = sample_paths(lat, _Stepwise(pol), 1000, seed=40 + i)
        for a, b in ((fast.B, loop.B), (fast.sigma_sq, loop.sigma_sq)):
            assert np.array_equal(a, b)
            assert a.tobytes() == b.tobytes()  # signed zeros too
            assert a.flags.c_contiguous and a.flags.writeable
        assert fast.coords is None and fast.policy_name == pol.name


class _LeavesBandAtThree(VolatilityPolicy):
    name = "leaves-band"

    @staticmethod
    def rate(level):
        return 1.5 if level == 3 or level >= 5 else 0.5

    def sigma_sq(self, level, positions):
        return np.full(np.shape(positions), self.rate(level))

    def schedule(self, n_steps):
        return np.array([self.rate(k) for k in range(n_steps)])


def test_schedule_leaving_the_band_names_its_first_step():
    lat = build_lattice(1.0, 8, PARAMS)
    for pol in (_LeavesBandAtThree(), _Stepwise(_LeavesBandAtThree())):
        with pytest.raises(ValueError, match="band at step 3$"):
            sample_paths(lat, pol, 10, seed=0)


def test_nan_policy_value_rejected():
    lat = build_lattice(1.0, 5, PARAMS)
    for pol in (ConstantPolicy(math.nan), _Stepwise(ConstantPolicy(math.nan))):
        with pytest.raises(ValueError, match="band at step 0$"):
            sample_paths(lat, pol, 10, seed=0)


def test_schedule_of_the_wrong_length_rejected():
    class Short(ConstantPolicy):
        def schedule(self, n_steps):
            return np.full(n_steps - 1, self.value)

    lat = build_lattice(1.0, 8, PARAMS)
    with pytest.raises(ValueError, match="shape"):
        sample_paths(lat, Short(1.0), 10, seed=0)


def test_eval_tables_on_paths_reconstructs_terminal_payoff():
    n = 8
    lat = build_lattice(1.0, n, PARAMS)
    X = CylinderFunctional((n,), parse("x1^2"), mode="levels")
    tables = conditional_tables(lat, X, range(n + 1))
    ens = sample_paths(lat, ConstantPolicy(0.25, name="const-min"), 200,
                       seed=11, track_coords=True)
    v = eval_tables_on_paths(tables, ens)
    np.testing.assert_allclose(v[:, n], ens.B[:, n] ** 2, atol=1e-12)
    assert np.all(v[:, 0] == tables[0].value_at_origin())


def test_csv_exports(tmp_path):
    lat = build_lattice(1.0, 4, PARAMS)
    ens = sample_paths(lat, ConstantPolicy(1.0, name="const-max"), 3, seed=0)
    p1 = tmp_path / "paths.csv"
    ensemble_to_csv(ens, str(p1))
    with open(p1, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path_id", "step", "t", "B", "sigma_sq", "qv"]
    assert len(rows) == 1 + 3 * 5

    pol = extract_worst_policy(lat, CylinderFunctional((4,), parse("x1^2")))
    p2 = tmp_path / "policy.csv"
    policy_to_csv(pol, str(p2))
    with open(p2, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["level", "node_position", "sigma_sq"]
    assert all(float(r[2]) == 1.0 for r in rows[1:])
