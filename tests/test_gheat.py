import math

import numpy as np
import pytest

from gexpect.gcore import GParams, g_eval
from gexpect.gheat import (
    Grid1D,
    _solve_rows,
    gnormal_expect,
    gnormal_expect_many,
    make_grid,
    solve_gheat,
)
from gexpect.payoff import eval_expr, parse
from gexpect.verifier import _CROSS_PAYOFFS

PARAMS = GParams(sigma_lower_sq=0.25, sigma_upper_sq=1.0)
CLASSICAL = GParams(sigma_lower_sq=1.0, sigma_upper_sq=1.0)  # degenerate band

TOL = 2e-3


def test_degenerate_band_recovers_gaussian_moments():
    # with a collapsed band the solver marches the classical heat equation
    assert gnormal_expect(parse("x1"), 1.0, CLASSICAL) == pytest.approx(0.0, abs=TOL)
    assert gnormal_expect(parse("x1^2"), 1.0, CLASSICAL) == pytest.approx(1.0, abs=TOL)
    # E|Z| = sqrt(2/pi) for a standard normal
    assert gnormal_expect(parse("abs(x1)"), 1.0, CLASSICAL) == pytest.approx(
        math.sqrt(2.0 / math.pi), abs=TOL
    )
    # E max(Z, 0) = 1/sqrt(2 pi)
    assert gnormal_expect(parse("max(x1, 0)"), 1.0, CLASSICAL) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), abs=TOL
    )


def test_band_selects_extreme_volatility_by_convexity():
    # convex payoffs propagate at the top of the band, concave at the bottom
    assert gnormal_expect(parse("abs(x1)"), 1.0, PARAMS) == pytest.approx(
        math.sqrt(2.0 / math.pi), abs=TOL
    )
    assert gnormal_expect(parse("-abs(x1)"), 1.0, PARAMS) == pytest.approx(
        -0.5 * math.sqrt(2.0 / math.pi), abs=TOL
    )
    assert gnormal_expect(parse("x1^2"), 1.0, PARAMS) == pytest.approx(1.0, abs=TOL)
    assert gnormal_expect(parse("-(x1^2)"), 1.0, PARAMS) == pytest.approx(
        -0.25, abs=TOL
    )


def test_time_scaling():
    # variance scales linearly in the horizon
    assert gnormal_expect(parse("x1^2"), 0.25, PARAMS) == pytest.approx(
        0.25, abs=TOL
    )


def test_affine_payoff_is_exact():
    # boundary extension is exact for affine data: no truncation error at all
    v = gnormal_expect(parse("3*x1 + 2"), 1.0, PARAMS)
    assert v == pytest.approx(2.0, abs=1e-12)


def test_zero_horizon_returns_initial_data():
    grid = make_grid(1.0, PARAMS)
    sol = solve_gheat(parse("x1^2"), 0.0, grid, PARAMS)
    np.testing.assert_allclose(sol.values, grid.x**2)
    assert sol.time == 0.0


def test_cfl_violation_raises():
    grid = make_grid(1.0, PARAMS)
    bad = Grid1D(grid.x_min, grid.x_max, grid.nx, dt=grid.dx**2 * 10, nt=5)
    with pytest.raises(ValueError, match="CFL"):
        solve_gheat(parse("x1^2"), 1.0, bad, PARAMS)


def test_make_grid_is_cfl_stable_and_even():
    grid = make_grid(1.0, PARAMS, nx=201)
    assert grid.cfl_valid(PARAMS)
    assert grid.nt * grid.dt == pytest.approx(1.0)
    assert grid.x_min == -grid.x_max


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(1.0, -1.0, 11, 0.1, 1)
    with pytest.raises(ValueError):
        Grid1D(-1.0, 1.0, 2, 0.1, 1)
    with pytest.raises(ValueError):
        Grid1D(-1.0, 1.0, 11, -0.1, 1)


def scalar_march(phi, t, grid, params):
    """The one-row march, one temporary per operation: the bits to keep."""
    u = np.asarray(eval_expr(phi, [grid.x]), dtype=float) + np.zeros(grid.nx)
    d2 = np.zeros(grid.nx)
    for _ in range(int(round(t / grid.dt))):
        d2[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * (1.0 / grid.dx**2)
        u = u + grid.dt * g_eval(d2, params)
    return u


# max(x1 - 10, 0) is +0.0 at both boundary nodes and its negation -0.0, which
# the boundary update u + 0.0 turns into +0.0
BATCH = _CROSS_PAYOFFS + ("max(x1 - 10, 0)", "-max(x1 - 10, 0)")


@pytest.mark.parametrize("params, nx", [(PARAMS, 401), (GParams(0.0, 2.0), 101)],
                         ids=["band", "zero-lower"])
def test_stacked_march_is_bitwise_the_one_row_march(params, nx):
    grid = make_grid(1.0, params, nx=nx)
    phis = [parse(text) for text in BATCH]
    rows = _solve_rows(phis, 1.0, grid, params)
    for text, phi, row in zip(BATCH, phis, rows):
        one = solve_gheat(phi, 1.0, grid, params).values
        ref = scalar_march(phi, 1.0, grid, params)
        assert np.array_equal(row.view(np.int64), one.view(np.int64)), text
        assert np.array_equal(row.view(np.int64), ref.view(np.int64)), text
    assert gnormal_expect_many(phis, 1.0, params, nx=nx) == [
        gnormal_expect(phi, 1.0, params, nx=nx) for phi in phis]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_blow_up_names_the_first_non_finite_step():
    # x1^400 overflows on the grid's edge, so step 0 already meets inf - inf
    with pytest.raises(FloatingPointError, match="time step 0"):
        gnormal_expect(parse("x1^400"), 1.0, PARAMS)


def test_even_nx_is_refused():
    # an even grid has no node at x = 0; the value would be read at +-dx/2
    with pytest.raises(ValueError, match="nx must be odd"):
        make_grid(1.0, PARAMS, nx=400)
    with pytest.raises(ValueError, match="nx must be odd"):
        gnormal_expect(parse("x1"), 1.0, PARAMS, nx=400)
    grid = make_grid(1.0, PARAMS, nx=401)
    even = Grid1D(grid.x_min, grid.x_max, 400, grid.dt, grid.nt)
    with pytest.raises(ValueError, match="nx must be odd"):
        gnormal_expect(parse("x1"), 1.0, PARAMS, grid=even)


def test_horizon_must_be_a_whole_number_of_steps():
    grid = make_grid(1.0, PARAMS)
    # 0.3 / dt is 666.9: the march would stop at t = 667 dt = 0.300045
    with pytest.raises(ValueError, match="whole number of grid steps"):
        solve_gheat(parse("x1^2"), 0.3, grid, PARAMS)
    sol = solve_gheat(parse("x1^2"), 1000 * grid.dt, grid, PARAMS)
    assert sol.time == 1000 * grid.dt
