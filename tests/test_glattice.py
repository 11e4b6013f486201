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
    sample_blocks,
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


def test_refined_grid_gets_one_axis_per_class():
    # sigma = 0.5, sqrt(0.625), 1: 0.5 and 1 are multiples of the unit 0.5,
    # sqrt(0.625) starts a class of its own
    lat = build_lattice(1.0, 50, PARAMS, sigma_refinement=1)
    assert lat.basis.steps == ((1, 0), (0, 1), (2, 0))
    assert lat.basis.unit == (0.5, math.sqrt(0.625))
    assert glattice._table_cells(lat.basis, (50,), 50) == 201 * 101 == 20_301


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


def _assert_bases_agree(lat, X):
    """Every reachable node of every level's table in ``lat.basis`` holds the
    count basis's value, within 1e-12 of the terminal scale."""
    n = X.levels[-1]
    try:
        with np.errstate(all="ignore"):
            counts = _tables(lat, X, lat.count_basis)
            nodes = _tables(lat, X, lat.basis)
    except PayoffEvalError:
        assume(False)
    terminal = counts[n].values[counts[n].valid_mask()]
    assume(np.all(np.isfinite(terminal)))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(terminal))))
    assert abs(nodes[0].value_at_origin() - counts[0].value_at_origin()) <= tol
    steps = np.array(lat.basis.steps)
    for k in range(1, n + 1):
        # look every reachable count vector up in the node table, at the
        # node coordinates counts @ steps
        mask = counts[k].valid_mask()
        reached = np.nonzero(mask)
        seg_coords = [
            (np.stack(reached[i * lat.n_sigma:(i + 1) * lat.n_sigma], axis=1) - r) @ steps
            for i, r in enumerate(counts[k]._radii())
        ]
        got = nodes[k].at(seg_coords)
        np.testing.assert_allclose(got, counts[k].values[mask], rtol=0, atol=tol)
        assert nodes[k].valid_mask().sum() <= mask.sum()


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
    _assert_bases_agree(lat, CylinderFunctional(levels, phi, mode=mode))


ZERO_LOWER = GParams(sigma_lower_sq=0.0, sigma_upper_sq=1.0)
CLASS_GRIDS = {  # name: (params, sigma_refinement or a sigma_grid, class axes)
    "refined-1": (PARAMS, 1, 2),
    "refined-2": (PARAMS, 2, 3),
    "two-class": (PARAMS, (0.25, 0.5, 1.0), 2),
    "zero-lower-1": (ZERO_LOWER, 1, 2),
    "zero-lower-2": (ZERO_LOWER, 2, 3),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(CLASS_GRIDS)),
    st.integers(1, 6),
    st.integers(0, 5),
    st.sampled_from(["increments", "levels"]),
    st.data(),
)
def test_class_and_count_bases_agree(grid, n, split, mode, data):
    """Oracle: on grids of several classes of commensurate volatilities, the
    class basis gives the count basis's values at every reachable node of
    every level's conditional table; sigma = 0 takes step 0."""
    params, refinement, n_axes = CLASS_GRIDS[grid]
    if isinstance(refinement, tuple):
        lat = Lattice(T=1.0, n_steps=n, params=params, sigma_grid=refinement)
    else:
        lat = build_lattice(1.0, n, params, sigma_refinement=refinement)
    assert lat.basis.n_axes == n_axes
    if lat.sigma_grid[0] == 0.0:
        assert lat.basis.steps[0] == (0,) * n_axes
    levels = (n,) if split == 0 or split >= n else (split, n)
    X = CylinderFunctional(levels, data.draw(_exprs(max_vars=len(levels))), mode=mode)
    # two four-volatility count segments at n = 6 would hold 49^4 cells
    assume(glattice._table_cells(lat.count_basis, X.segment_lengths, n) <= 200_000)
    _assert_bases_agree(lat, X)


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
    # three class axes: 201 * 101 * 101 cells, about 82 MB of working set
    lat = build_lattice(1.0, 50, PARAMS, sigma_refinement=2)
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


def test_sampler_refuses_an_ensemble_beyond_the_workset_guard(monkeypatch):
    n, n_paths = 10, 100
    lat = build_lattice(1.0, n, PARAMS)
    worst = extract_worst_policy(lat, CylinderFunctional((n,), parse("abs(x1)")))

    def no_signs(*args):
        raise AssertionError("signs drawn")

    monkeypatch.setattr(glattice, "_signs", no_signs)
    monkeypatch.setattr(glattice, "_MAX_WORKSET_BYTES", 25 * n_paths * n - 1)
    for pol in (ConstantPolicy(1.0), worst):
        with pytest.raises(ValueError, match="ensemble too large"):
            sample_paths(lat, pol, n_paths, seed=0)
    monkeypatch.setattr(glattice, "_MAX_WORKSET_BYTES", 25 * n_paths * n)
    with pytest.raises(AssertionError, match="signs drawn"):
        sample_paths(lat, ConstantPolicy(1.0), n_paths, seed=0)


def test_row_blocks_of_one_generator_are_one_draw():
    # sample_blocks rests on this: a numpy whose bounded draws restart per
    # call would change every blocked ensemble's bits
    for shape, rows in (((5000, 7), 2048), ((5, 5), 3), ((9, 100), 4)):
        whole = np.random.default_rng(11).integers(0, 2, size=shape)
        rng = np.random.default_rng(11)
        parts = [rng.integers(0, 2, size=(min(rows, shape[0] - i), shape[1]))
                 for i in range(0, shape[0], rows)]
        assert np.array_equal(np.concatenate(parts), whole), (
            f"blocked rng.integers draws differ from one draw at {shape}")


@pytest.mark.parametrize("n", [7, 100])
def test_sample_blocks_have_the_bits_of_sample_paths(n):
    lat = build_lattice(1.0, n, PARAMS)
    worst = extract_worst_policy(lat, CylinderFunctional((n,), parse("abs(x1)")))
    alternating = default_scenario_family(PARAMS).by_name("alternating")
    n_paths = 5000  # not a multiple of the block
    for pol in (alternating, worst):
        whole = sample_paths(lat, pol, n_paths, seed=13)
        blocks = list(sample_blocks(lat, pol, n_paths, seed=13))
        assert [b.n_paths for b in blocks] == [2048, 2048, 904]
        assert {(b.policy_name, b.seed) for b in blocks} == {(pol.name, 13)}
        assert np.array_equal(np.concatenate([b.B for b in blocks]), whole.B)
        assert np.array_equal(np.concatenate([b.sigma_sq for b in blocks]),
                              whole.sigma_sq)


def test_sample_blocks_checks_its_arguments_and_guards_each_block(monkeypatch):
    n = 10
    lat = build_lattice(1.0, n, PARAMS)
    with pytest.raises(ValueError, match="band"):
        sample_blocks(lat, ConstantPolicy(2.0), 10, seed=0)  # before any next()
    monkeypatch.setattr(glattice, "_MAX_WORKSET_BYTES", 25 * 2048 * n)
    assert sum(b.n_paths for b in sample_blocks(lat, ConstantPolicy(1.0), 5000, 0)) == 5000
    with pytest.raises(ValueError, match="ensemble too large"):
        sample_paths(lat, ConstantPolicy(1.0), 5000, seed=0)


def test_policy_without_a_schedule_rejected():
    class NoSchedule(VolatilityPolicy):
        name = "no-schedule"

    lat = build_lattice(1.0, 5, PARAMS)
    with pytest.raises(NotImplementedError):
        sample_paths(lat, NoSchedule(), 10, seed=0)


def test_lattice_policy_paths_take_the_recorded_choice_at_their_node():
    n = 12
    lat = build_lattice(1.0, n, PARAMS)
    pol = extract_worst_policy(lat, CylinderFunctional((4, n), parse("abs(x1) * x2")))
    ens = sample_paths(lat, pol, 300, seed=5)
    assert len(np.unique(ens.sigma_sq)) == 2  # the policy switches
    # rebuild each path's per-segment net counts from its own steps
    grid = np.asarray(lat.sigma_grid)
    sv = np.asarray(lat.sigma_values) * math.sqrt(lat.dt)
    seg_counts = [np.zeros((300, lat.n_sigma), dtype=np.int64)]
    for k in range(n):
        choice = np.asarray(pol.sigma_index(k, seg_counts))
        assert np.array_equal(grid[choice], ens.sigma_sq[:, k])
        step = np.sign(ens.B[:, k + 1] - ens.B[:, k]).astype(np.int64)
        seg_counts[-1][np.arange(300), choice] += step
        if k + 1 == 4:
            seg_counts.append(np.zeros((300, lat.n_sigma), dtype=np.int64))
    np.testing.assert_allclose(sum(seg_counts) @ sv, ens.B[:, n], atol=1e-12)


def test_policy_from_another_lattice_rejected():
    lat = build_lattice(1.0, 50, PARAMS)
    pol = extract_worst_policy(lat, CylinderFunctional((50,), parse("x1^2")))
    for other in (build_lattice(1.0, 100, PARAMS), build_lattice(2.0, 50, PARAMS)):
        with pytest.raises(ValueError, match="another lattice"):
            sample_paths(other, pol, 10, seed=0)


def test_tables_from_another_lattice_rejected():
    n = 8
    lat = build_lattice(1.0, n, PARAMS)
    tables = conditional_tables(lat, CylinderFunctional((n,), parse("x1^2"), mode="levels"),
                                range(n + 1))
    ens = sample_paths(build_lattice(2.0, n, PARAMS), ConstantPolicy(1.0), 10, seed=0)
    with pytest.raises(ValueError, match="level 0 was built on another lattice"):
        eval_tables_on_paths(tables, ens)


def _reference_paths(lat, pol, n_paths, seed):
    """B and sigma_sq from a per-step loop over the policy's schedule."""
    n = lat.n_steps
    signs = 2 * np.random.default_rng(seed).integers(0, 2, size=(n_paths, n)) - 1
    rates = pol.schedule(n)
    B = np.zeros((n_paths, n + 1))
    sig = np.empty((n_paths, n))
    for k in range(n):
        sig[:, k] = rates[k]
        B[:, k + 1] = B[:, k] + signs[:, k] * np.sqrt(rates[k] * lat.dt)
    return B, sig


GRIDS = pytest.mark.parametrize("params, refinement", [
    (PARAMS, 0), (PARAMS, 1), (GParams(sigma_lower_sq=0.0, sigma_upper_sq=1.0), 1),
], ids=["default", "refined", "zero-lower"])


@GRIDS
def test_scheduled_sampler_matches_the_loop(params, refinement):
    lat = build_lattice(1.0, 37, params, sigma_refinement=refinement)
    for i, pol in enumerate(default_scenario_family(params)):
        fast = sample_paths(lat, pol, 1000, seed=40 + i)
        loop = _reference_paths(lat, pol, 1000, seed=40 + i)
        for a, b in zip((fast.B, fast.sigma_sq), loop):
            assert np.array_equal(a, b)
            assert a.tobytes() == b.tobytes()  # signed zeros too
            assert a.flags.c_contiguous and a.flags.writeable
        assert fast.policy_name == pol.name


@GRIDS
def test_tables_of_a_martingale_read_back_the_path(params, refinement):
    # x1 in levels mode has conditional table B_k at level k, whatever the
    # volatility, so reading it at each path's node must give the path
    n = 12
    lat = build_lattice(1.0, n, params, sigma_refinement=refinement)
    tables = conditional_tables(lat, CylinderFunctional((n,), parse("x1"), mode="levels"),
                                range(n + 1))
    grid = set(lat.sigma_grid)
    policies = [p for p in default_scenario_family(params)
                if set(p.schedule(n)) <= grid]
    policies.append(extract_worst_policy(lat, CylinderFunctional((n,), parse("abs(x1)"))))
    for i, pol in enumerate(policies):
        ens = sample_paths(lat, pol, 500, seed=60 + i)
        np.testing.assert_allclose(eval_tables_on_paths(tables, ens), ens.B,
                                   rtol=0, atol=1e-12)


def test_off_grid_rate_rejected_by_path_evaluation():
    n = 5
    lat = build_lattice(1.0, n, PARAMS)
    tables = conditional_tables(lat, CylinderFunctional((n,), parse("x1"), mode="levels"),
                                range(n + 1))
    ens = sample_paths(lat, ConstantPolicy(0.625), 10, seed=0)
    with pytest.raises(ValueError, match="grid-aligned"):
        eval_tables_on_paths(tables, ens)


class _LeavesBandAtThree(VolatilityPolicy):
    name = "leaves-band"

    def schedule(self, n_steps):
        return np.array([1.5 if k == 3 or k >= 5 else 0.5 for k in range(n_steps)])


def test_schedule_leaving_the_band_names_its_first_step():
    lat = build_lattice(1.0, 8, PARAMS)
    with pytest.raises(ValueError, match="band at step 3$"):
        sample_paths(lat, _LeavesBandAtThree(), 10, seed=0)


def test_nan_policy_value_rejected():
    lat = build_lattice(1.0, 5, PARAMS)
    with pytest.raises(ValueError, match="band at step 0$"):
        sample_paths(lat, ConstantPolicy(math.nan), 10, seed=0)


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
    ens = sample_paths(lat, ConstantPolicy(0.25, name="const-min"), 200, seed=11)
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
