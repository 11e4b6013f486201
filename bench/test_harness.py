"""Self-tests of the benchmark harness: python3 -m pytest bench/test_harness.py"""

import json
import sys
from pathlib import Path

import pytest

import metrics
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    xs = list(range(30, 0, -1))  # 1..30, unsorted
    value, pct, n = metrics.tail(xs)
    assert (value, n) == (20, 30)
    assert sum(x > value for x in xs) == metrics.TAIL_BEYOND
    assert pct == pytest.approx(100 * 20 / 30)
    value, pct, n = metrics.tail(range(11))
    assert value == 0 and sum(x > value for x in range(11)) == 10


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        metrics.tail(range(10))


def test_self_time_subtracts_child_coverage():
    assert metrics.self_time((0.0, 10.0), []) == 10.0
    # overlapping children count once; the part outside the span is ignored
    kids = [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0), (-2.0, -1.0)]
    assert metrics.self_time((0.0, 10.0), kids) == pytest.approx(5.0)
    assert metrics.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_tracer_records_parents_self_time_and_restores():
    tr = Tracer()

    def leaf(x):
        return x + 1

    def check(x):
        return api_leaf(x) * 2

    api_leaf = tr.wrap(leaf, "glattice.expect")
    traced_check = tr.wrap(check, "verifier.moments")
    tr.begin_op(0, 0)
    assert traced_check(1) == 4
    tr.end_op()
    names = [s[0] for s in tr.spans]
    assert names == ["op", "verifier.moments", "glattice.expect"]
    op, ver, lat = tr.spans
    assert ver[3] == 0 and lat[3] == 1 and {s[4] for s in tr.spans} == {0}
    m = tr.per_pass_metrics()[0]
    assert m["verifier.moments_self_s"] == pytest.approx(
        (ver[2] - ver[1]) - (lat[2] - lat[1]))
    assert m["glattice.expect_self_s"] == pytest.approx(m["glattice.expect_s"])
    assert set(m) == set(metrics.per_layer_catalogue())


def test_names_units_and_counts_within_limits():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    layer = {m["name"]: m for m in SPEC["per_layer"]}
    assert 1 <= len(e2e) <= metrics.MAX_END_TO_END
    assert 1 <= len(layer) <= metrics.MAX_PER_LAYER
    names = list(e2e) + list(layer) + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(metrics.valid_name(n) for n in names)
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(metrics.UNIT_RE.fullmatch(u) for u in units)
    assert not metrics.valid_name("bad name") and not metrics.valid_name("_x")


def test_spec_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == metrics.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert layer == metrics.per_layer_catalogue()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in SPEC["workloads"]] == ["lattice", "walk", "paths", "verify"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_check_ids_match_the_verifier():
    sys.path.insert(0, str(ROOT / "src"))
    from gexpect.verifier import CHECKS

    assert tuple(CHECKS) == metrics.CHECK_IDS
