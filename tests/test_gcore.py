import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpect.gcore import (
    ConstantPolicy,
    GParams,
    ScenarioFamily,
    capacity_estimate,
    default_scenario_family,
    g_eval,
)

PARAMS = GParams(sigma_lower_sq=0.25, sigma_upper_sq=1.0)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def test_g_eval_values():
    assert g_eval(2.0, PARAMS) == pytest.approx(1.0)
    assert g_eval(-2.0, PARAMS) == pytest.approx(-0.25)
    assert g_eval(0.0, PARAMS) == 0.0


def test_g_eval_arrays():
    out = g_eval(np.array([-2.0, 0.0, 2.0]), PARAMS)
    np.testing.assert_allclose(out, [-0.25, 0.0, 1.0])


def test_g_eval_is_band_maximum():
    # G(a) = max over sigma^2 in the band of sigma^2 * a / 2
    for a in (-3.0, -0.1, 0.0, 0.4, 5.0):
        grid = np.linspace(PARAMS.sigma_lower_sq, PARAMS.sigma_upper_sq, 101)
        assert g_eval(a, PARAMS) == pytest.approx(np.max(grid * a / 2.0))


@settings(max_examples=100, deadline=None)
@given(finite, st.floats(0.0, 100.0))
def test_g_eval_positive_homogeneity(a, lam):
    assert g_eval(lam * a, PARAMS) == pytest.approx(lam * g_eval(a, PARAMS))


@settings(max_examples=100, deadline=None)
@given(finite, finite)
def test_g_eval_subadditive_and_monotone(a, b):
    tol = 1e-9 * (1.0 + abs(a) + abs(b))
    assert g_eval(a + b, PARAMS) <= g_eval(a, PARAMS) + g_eval(b, PARAMS) + tol
    if a <= b:
        assert g_eval(a, PARAMS) <= g_eval(b, PARAMS) + tol


def test_params_validation():
    with pytest.raises(ValueError):
        GParams(sigma_lower_sq=-0.1, sigma_upper_sq=1.0)
    with pytest.raises(ValueError):
        GParams(sigma_lower_sq=2.0, sigma_upper_sq=1.0)
    with pytest.raises(ValueError):
        GParams(sigma_lower_sq=0.0, sigma_upper_sq=0.0)


def test_capacity_estimate():
    assert capacity_estimate([0.0, 0.25, 0.1]) == 0.25
    with pytest.raises(ValueError):
        capacity_estimate([1.5])
    with pytest.raises(ValueError):
        capacity_estimate([])


def test_default_family_contents():
    fam = default_scenario_family(PARAMS)
    assert len(fam) == 4
    assert fam.by_name("const-max").value == 1.0
    assert fam.by_name("const-min").value == 0.25
    assert fam.by_name("const-mid").value == pytest.approx(0.625)
    alt = fam.by_name("alternating")
    assert alt.schedule(3).tolist() == [1.0, 0.25, 1.0]
    with pytest.raises(KeyError):
        fam.by_name("nope")


def test_family_requires_extremes():
    with pytest.raises(ValueError):
        ScenarioFamily(params=PARAMS, scenarios=(ConstantPolicy(1.0),))
    with pytest.raises(ValueError):
        ScenarioFamily(params=PARAMS, scenarios=())
