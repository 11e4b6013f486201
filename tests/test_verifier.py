import json
import math
from pathlib import Path

import numpy as np
import pytest

from gexpect import verifier
from gexpect.config import RunConfig
from gexpect.glattice import Lattice
from gexpect.verifier import (
    CHECKS,
    VerificationReport,
    _downcrossings_many,
    _report,
    reports_to_json,
    reports_to_table,
    run_suite,
)

from compare_report import compare  # tests/compare_report.py

CFG = RunConfig(timing=False)
REFERENCE = Path(__file__).parent / "data" / "verify_report.json"


# --- downcrossing counter ------------------------------------------------------


def downcrossings(path, a: float, b: float) -> int:
    """Scalar oracle: completed moves from above b to below a (armed at >= b,
    fires at <= a)."""
    count = 0
    armed = False
    for v in path:
        if not armed and v >= b:
            armed = True
        elif armed and v <= a:
            count += 1
            armed = False
    return count


def _count(path, a, b):
    return int(_downcrossings_many(np.array([path], dtype=float), a, b)[0])


def test_downcrossings_basic_trace():
    assert _count([3.0, 0.5, 3.0, 0.5], a=1.0, b=2.0) == 2


def test_downcrossings_requires_completion():
    # reaching b but never a afterwards does not count
    assert _count([3.0, 1.5, 3.0], a=1.0, b=2.0) == 0
    # starting below a without having been above b does not count
    assert _count([0.5, 3.0, 0.5], a=1.0, b=2.0) == 1


def test_downcrossings_validates_levels():
    with pytest.raises(ValueError):
        _count([1.0], a=2.0, b=1.0)
    with pytest.raises(ValueError):
        _count([1.0], a=0.0, b=1.0)


def test_vectorized_downcrossings_matches_scalar():
    rng = np.random.default_rng(0)
    paths = np.cumsum(rng.normal(size=(50, 80)), axis=1) * 0.3 + 1.5
    fast = _downcrossings_many(paths, a=1.0, b=2.0)
    slow = np.array([downcrossings(p, 1.0, 2.0) for p in paths])
    np.testing.assert_array_equal(fast, slow)


# --- report plumbing --------------------------------------------------------------


def test_report_equality_and_inequality():
    assert _report("t", "equality", 1.0, 1.0 + 5e-9, 1e-8, "x").passed
    assert not _report("t", "equality", 1.0, 1.1, 1e-8, "x").passed
    assert _report("t", "inequality", 1.0, 2.0, 0.0, "x").passed
    assert not _report("t", "inequality", 2.0, 1.0, 0.0, "x").passed
    assert not _report("t", "equality", math.nan, 0.0, 1e30, "x").passed
    assert not _report("t", "inequality", -math.inf, 0.0, 1e30, "x").passed


def test_report_serialization_keys():
    r = _report("t", "equality", 1.0, 1.0, 0.0, "x", seed=1, n_paths=2, foo=3)
    d = r.to_dict()
    assert d["id"] == "t" and d["pass"] is True
    assert d["details"] == {"foo": 3.0}
    assert set(d) == {"id", "kind", "lhs", "rhs", "tol", "pass", "backend",
                      "seed", "n_paths", "wall_ms", "expected_fail", "details"}


def test_table_statuses():
    rows = [
        VerificationReport("a", "equality", 0, 0, 0, True, "x"),
        VerificationReport("b", "equality", 0, 1, 0, False, "x"),
        VerificationReport("c", "equality", 0, 1, 0, False, "x",
                           expected_fail=True),
        VerificationReport("d", "equality", 0, 0, 0, True, "x",
                           expected_fail=True),
    ]
    table = reports_to_table(rows)
    assert "ok" in table and "FAIL" in table
    assert "XFAIL" in table and "XPASS!" in table


def test_reports_json_is_sorted_and_stable():
    rows = [VerificationReport("a", "equality", 0.5, 0.5, 0.0, True, "x")]
    text = reports_to_json(rows)
    data = json.loads(text)
    assert data[0]["id"] == "a"
    assert text == reports_to_json(rows)


def test_report_comparer_passes_on_the_reference_and_catches_1e_11():
    reference = json.loads(REFERENCE.read_text())
    assert compare(reference, reference) == []
    moved = json.loads(REFERENCE.read_text())
    moved[20]["rhs"] += 1e-11
    moved[30]["details"]["extra"] = 1.0  # keys the reference lacks are allowed
    assert compare(reference, moved) == [
        f"{moved[20]['id']}: rhs {reference[20]['rhs']!r} -> {moved[20]['rhs']!r}"]
    assert compare(reference, moved[::-1])[0].startswith("check ids differ")


# --- suite driver ------------------------------------------------------------------


def test_run_suite_subset_and_failure_count():
    reports, failures = run_suite(CFG, only=["qv-band"])
    assert len(reports) == 1
    assert failures == 0
    assert reports[0].wall_ms == 0.0


def test_run_suite_counts_unexpected_outcomes():
    # symmetric-martingale contains a designed negative control: if it
    # unexpectedly passed, the failure count would be nonzero
    reports, failures = run_suite(CFG, only=["symmetric-martingale"])
    assert failures == 0
    assert any(r.expected_fail and not r.passed for r in reports)


@pytest.mark.parametrize("sigma_lower_sq", [0.1, 0.5])
def test_representation_passes_off_the_default_band(sigma_lower_sq):
    # the adapted walk's integral is exact on bands of one or two classes
    reports, failures = run_suite(
        RunConfig(timing=False, sigma_lower_sq=sigma_lower_sq), only=["representation"]
    )
    assert failures == 0, [r.check_id for r in reports if r.passed == r.expected_fail]


def test_run_suite_rejects_unknown_ids():
    with pytest.raises(KeyError):
        run_suite(CFG, only=["not-a-check"])


def test_checks_registry_complete():
    assert set(CHECKS) == {
        "moments", "cross-backend", "conditional-algebra", "qv-identity",
        "qv-band", "isometry", "doob", "downcrossing", "bdg",
        "representation", "gbm-characterization", "symmetric-martingale",
        "additivity", "transfer", "compensator",
    }


def test_timing_flag_populates_wall_ms():
    reports, _ = run_suite(RunConfig(timing=True), only=["qv-band"])
    assert reports[0].wall_ms > 0.0


def test_representation_requires_positive_lower_band():
    with pytest.raises(ValueError, match="hypothesis"):
        CHECKS["representation"](RunConfig(sigma_lower_sq=0.0))


@pytest.mark.parametrize("check, n_ensembles", [("doob", 12), ("bdg", 4),
                                                 ("compensator", 4)])
def test_each_ensemble_is_sampled_once_per_check(monkeypatch, check, n_ensembles):
    calls = []
    real = verifier.sample_paths

    def recording(lat, policy, n_paths, seed, **kw):
        calls.append((policy.name, seed, n_paths, lat.n_steps))
        return real(lat, policy, min(n_paths, 1000), seed, **kw)

    monkeypatch.setattr(verifier, "sample_paths", recording)
    CHECKS[check](CFG)
    assert len(calls) == len(set(calls)) == n_ensembles


def test_walk_checks_read_no_count_states(monkeypatch):
    # the verifier's augmented walks hold node coordinates of lat.basis only
    def refuse(self):
        raise AssertionError("count basis read")

    monkeypatch.setattr(Lattice, "count_basis", property(refuse))
    reports, failures = run_suite(
        CFG, only=["isometry", "representation", "transfer", "compensator"])
    assert failures == 0 and len(reports) == 20
