import math
import tracemalloc

import numpy as np
import pytest

from gexpect.gcore import ConstantPolicy, GParams, default_scenario_family
from gexpect.glattice import (
    CylinderFunctional,
    build_lattice,
    extract_worst_policy,
    sample_paths,
)
from gexpect.payoff import parse
from gexpect.stochastic import (
    StepProcess,
    g_compensated,
    ito_integral,
    mg_norm,
    qv_identity_gap,
    quadratic_variation,
)

PARAMS = GParams(sigma_lower_sq=0.25, sigma_upper_sq=1.0)
LAT = build_lattice(1.0, 50, PARAMS)
ENS = sample_paths(LAT, ConstantPolicy(1.0, name="const-max"), 300, seed=5)
ENS_MIN = sample_paths(LAT, ConstantPolicy(0.25, name="const-min"), 300, seed=6)


def test_step_process_validation():
    with pytest.raises(ValueError):
        StepProcess((1,), (1.0,))
    with pytest.raises(ValueError):
        StepProcess((0, 3, 2), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        StepProcess((0, 3), (1.0,))


def test_step_process_values():
    ind = StepProcess.indicator(10, 30)
    vals = ind.level_values(50)
    assert vals[9] == 0.0 and vals[10] == 1.0 and vals[29] == 1.0 and vals[30] == 0.0
    const = StepProcess.constant(2.5)
    assert np.all(const.values_on(ENS) == 2.5)
    adapted = StepProcess.adapted(lambda x: np.abs(x), 50)
    np.testing.assert_allclose(adapted.values_on(ENS), np.abs(ENS.B[:, :50]))
    with pytest.raises(ValueError):
        adapted.level_values(50)


def test_ito_integral_of_constant_is_the_path():
    I = ito_integral(StepProcess.constant(1.0), ENS)
    np.testing.assert_allclose(I, ENS.B - ENS.B[:, :1], atol=1e-15)


def test_ito_integral_of_indicator_is_a_window_increment():
    I = ito_integral(StepProcess.indicator(10, 30), ENS)
    np.testing.assert_allclose(I[:, -1], ENS.B[:, 30] - ENS.B[:, 10], atol=1e-14)
    assert np.all(I[:, :11] == 0.0)


def test_indicator_integral_is_the_constant_integral_stopped():
    # doob reads both running maxima off one integral: the integral of 1 on
    # [0, n/2) is, bit for bit, that of the constant 1 stopped at level n/2
    n = LAT.n_steps
    full = np.abs(ito_integral(StepProcess.constant(1.0), ENS))
    part = np.abs(ito_integral(StepProcess.indicator(0, n // 2), ENS))
    assert np.array_equal(part[:, : n // 2 + 1], full[:, : n // 2 + 1])
    assert np.all(part[:, n // 2:] == part[:, n // 2: n // 2 + 1])
    assert np.array_equal(np.max(part, axis=1), np.max(full[:, : n // 2 + 1], axis=1))


def test_quadratic_variation_matches_policy():
    qv = quadratic_variation(ENS.B)
    np.testing.assert_allclose(qv, ENS.qv, atol=1e-13)
    np.testing.assert_allclose(quadratic_variation(ENS_MIN.B), ENS_MIN.qv,
                               atol=1e-13)


def test_qv_identity_is_machine_exact():
    assert qv_identity_gap(ENS.B, ENS) < 1e-13
    M = ito_integral(StepProcess.adapted(lambda x: x, 50, name="B"), ENS)
    assert qv_identity_gap(M, ENS) < 1e-13


def test_breakpoint_beyond_horizon_rejected():
    with pytest.raises(ValueError):
        ito_integral(StepProcess.indicator(0, 60), ENS)


def test_mg_norm_of_unit_integrand():
    # int 1 d<B> is sigma^2 T exactly per scenario; the max is at the top
    norm = mg_norm(StepProcess.constant(1.0), [ENS, ENS_MIN], p=2.0)
    assert norm == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        mg_norm(StepProcess.constant(1.0), [ENS], p=0.5)


def test_mg_norm_of_an_indicator_reads_the_window_of_d_qv():
    ens = sample_paths(LAT, default_scenario_family(PARAMS).by_name("alternating"),
                       300, seed=7)
    a, b = 10, 35
    expected = math.sqrt(np.mean(np.sum(ens.sigma_sq[:, a:b], axis=1)) * LAT.dt)
    norm = mg_norm(StepProcess.indicator(a, b), [ens], p=2.0)
    assert norm == pytest.approx(expected, rel=0, abs=1e-12)


def test_g_compensated_nonincreasing_everywhere():
    fam = default_scenario_family(PARAMS)
    for i, pol in enumerate(fam):
        ens = sample_paths(LAT, pol, 200, seed=20 + i)
        for f in (StepProcess.constant(1.0), StepProcess.constant(-1.0),
                  StepProcess.adapted(lambda x: x, 50, name="B")):
            Xc = g_compensated(f, ens, PARAMS)
            assert np.max(np.diff(Xc, axis=1)) <= 1e-15
            assert np.all(Xc[:, 0] == 0.0)


def test_g_compensated_extreme_scenarios_are_flat_or_linear():
    # under const-max with f = 1: d<B> = dt and 2G(1) = 1, so the process is 0
    Xc = g_compensated(StepProcess.constant(1.0), ENS, PARAMS)
    np.testing.assert_allclose(Xc, 0.0, atol=1e-14)
    # under const-min it decreases at rate sigma_lo^2 - sigma_up^2 = -0.75
    Xc2 = g_compensated(StepProcess.constant(1.0), ENS_MIN, PARAMS)
    np.testing.assert_allclose(Xc2[:, -1], -0.75, atol=1e-13)


def test_g_compensated_dominance_guard():
    A = np.broadcast_to(0.5 * ENS.times, ENS.B.shape)
    with pytest.raises(ValueError, match="dominance"):
        g_compensated(StepProcess.constant(1.0), ENS, PARAMS, A=A)


def _column_fill(eta, ens):
    """Reference values: one column per level, each from its interval's
    value at the interval's left endpoint."""
    n = ens.lattice.n_steps
    out = np.empty((ens.n_paths, n))
    for k in range(n):
        j = max(i for i, b in enumerate(eta.breakpoints) if b <= k)
        v, a = eta.interval_values[j], eta.breakpoints[j]
        out[:, k] = v(ens.B[:, a]) if callable(v) else float(v)
    return out


def test_values_on_matches_a_column_fill():
    ens = sample_paths(LAT, default_scenario_family(PARAMS).by_name("alternating"),
                       300, seed=9)
    cases = [
        (StepProcess.constant(-1.5), False),
        (StepProcess.indicator(10, 30), False),
        (StepProcess.adapted(np.cos, 50), True),
        (StepProcess((0, 7), (2.0, lambda x: x ** 3)), True),  # spans blocks
        (StepProcess((0, 20, 45), (np.abs, 3.0, lambda x: x)), True),
        (StepProcess((0, 10, 60), (1.0, np.sin, 2.0)), True),  # past the horizon
    ]
    for eta, adapted in cases:
        vals = eta.values_on(ens)
        assert eta.is_adapted == adapted
        assert vals.shape == (ens.n_paths, 50)
        assert np.array_equal(vals, _column_fill(eta, ens)), eta.name
        # deterministic values are a read-only broadcast of the level row
        assert vals.flags.writeable == adapted


def test_g_compensated_default_clock_matches_an_explicit_clock():
    clock = np.broadcast_to(ENS_MIN.times, ENS_MIN.B.shape)
    for f in (StepProcess.constant(-0.75), StepProcess.indicator(5, 20),
              StepProcess.adapted(lambda x: x, 50, name="B")):
        a = g_compensated(f, ENS_MIN, PARAMS)
        b = g_compensated(f, ENS_MIN, PARAMS, A=clock)
        assert a.tobytes() == b.tobytes(), f.name


def _peak(fn):
    """Largest traced allocation total while ``fn`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampler_and_values_on_stay_within_their_memory():
    n_paths, n = 20_000, 100
    lat = build_lattice(1.0, n, PARAMS)
    full = n_paths * (n + 1) * 8  # one (n_paths, n + 1) float64 array
    fam = default_scenario_family(PARAMS)
    worst = extract_worst_policy(lat, CylinderFunctional((n,), parse("abs(x1)")))
    for pol in (fam.by_name("const-max"), fam.by_name("alternating"), worst):
        peak = _peak(lambda: sample_paths(lat, pol, n_paths, seed=1))
        assert peak <= 3.1 * full, (pol.name, peak / full)
    ens = sample_paths(lat, fam.by_name("const-max"), n_paths, seed=2)
    eta = StepProcess.adapted(lambda x: x, n, name="B")
    assert _peak(lambda: eta.values_on(ens)) <= 1.35 * full
