"""Acceptance suite: twelve end-to-end criteria, one printed verdict line each.

Every criterion pins its tolerance and asserts its runtime budget.  Verdict
lines are printed outside pytest's capture so the summary is visible in a
plain ``pytest -v`` run.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import gexpect
from gexpect.config import RunConfig
from gexpect.verifier import CHECKS

CFG = RunConfig(timing=False)


def _run(check_id):
    t0 = time.perf_counter()
    reports = CHECKS[check_id](CFG)
    return reports, time.perf_counter() - t0


def _outcome_ok(reports):
    """True when every report landed as designed (negative controls must fail)."""
    return all(r.passed != r.expected_fail for r in reports)


def _verdict(capsys, num, name, ok, detail):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_moments(capsys):
    reports, elapsed = _run("moments")
    by_id = {r.check_id: r for r in reports}
    assert by_id["moments-upper-lattice"].tol == 1e-10
    assert by_id["moments-lower-lattice"].tol == 1e-10
    assert by_id["moments-upper-pde"].tol == 2e-3
    assert by_id["moments-lower-pde"].tol == 2e-3
    ok = _outcome_ok(reports) and elapsed < 10.0
    _verdict(capsys, 1, "second moments, both backends", ok,
             f"lattice tol 1e-10, pde tol 2e-3, {elapsed:.2f}s < 10s")


def test_criterion_02_cross_backend(capsys):
    reports, elapsed = _run("cross-backend")
    assert len(reports) == 6
    assert all(r.tol == 1e-2 for r in reports)
    ok = _outcome_ok(reports) and elapsed < 30.0
    worst = max(abs(r.lhs - r.rhs) for r in reports)
    _verdict(capsys, 2, "cross-backend agreement, 6 payoffs", ok,
             f"worst diff {worst:.2e} <= 1e-2, {elapsed:.2f}s < 30s")


def test_criterion_03_conditional_algebra(capsys):
    reports, elapsed = _run("conditional-algebra")
    assert len(reports) == 6
    assert all(r.tol == 1e-10 for r in reports)
    ok = _outcome_ok(reports) and elapsed < 30.0
    _verdict(capsys, 3, "conditional-expectation algebra, 6 properties", ok,
             f"nodewise tol 1e-10 on 50-step lattice, {elapsed:.2f}s < 30s")


def test_criterion_04_qv_identity(capsys):
    reports, elapsed = _run("qv-identity")
    (r,) = reports
    assert r.tol == 1e-12
    assert r.n_paths == 10_000
    ok = _outcome_ok(reports) and elapsed < 10.0
    _verdict(capsys, 4, "per-path quadratic-variation identity", ok,
             f"max defect {r.lhs:.2e} <= 1e-12 on 1e4 paths, {elapsed:.2f}s < 10s")


def test_criterion_05_qv_band(capsys):
    reports, elapsed = _run("qv-band")
    (r,) = reports
    assert r.tol == 0.0
    ok = _outcome_ok(reports) and elapsed < 5.0
    _verdict(capsys, 5, "quadratic-variation band, all scenarios", ok,
             f"violation capacity {r.lhs:g} == 0 exactly, {elapsed:.2f}s < 5s")


def test_criterion_06_isometry(capsys):
    reports, elapsed = _run("isometry")
    names = {r.check_id for r in reports}
    assert {"isometry:const1", "isometry:B"} <= names
    assert any("ind" in n for n in names)
    assert all(r.tol == 1e-8 for r in reports)
    ok = _outcome_ok(reports) and elapsed < 60.0
    worst = max(abs(r.lhs - r.rhs) for r in reports)
    _verdict(capsys, 6, "integral isometry, eta in {1, B, indicators}", ok,
             f"worst gap {worst:.2e} <= 1e-8 at n=100, {elapsed:.2f}s < 60s")


def test_criterion_07_doob(capsys):
    reports, elapsed = _run("doob")
    assert all(r.details["constant"] == 4.0 for r in reports)
    assert all(r.n_paths == 100_000 for r in reports)
    ok = _outcome_ok(reports) and elapsed < 60.0
    _verdict(capsys, 7, "maximal inequality, p=2 constant 4", ok,
             f"lhs <= rhs*1.05 over seeds 1,2,3 x 1e5 paths, {elapsed:.2f}s < 60s")


def test_criterion_08_downcrossing(capsys):
    reports, elapsed = _run("downcrossing")
    assert len(reports) == 3
    ok = _outcome_ok(reports) and elapsed < 60.0
    _verdict(capsys, 8, "downcrossing bound, supermartingale catalogue", ok,
             f"mean count <= bound + 3*SE on 3 processes, {elapsed:.2f}s < 60s")


def test_criterion_09_bdg(capsys):
    reports, elapsed = _run("bdg")
    uppers = [r for r in reports if r.check_id.startswith("bdg-upper")]
    lowers = [r for r in reports if r.check_id.startswith("bdg-lower")]
    assert len(uppers) == 3 and len(lowers) == 3
    ok = _outcome_ok(reports) and elapsed < 60.0
    _verdict(capsys, 9, "moment bounds, constants C1=4 and c1=1/4", ok,
             f"both sides hold for the 3-integrand corpus, {elapsed:.2f}s < 60s")


def test_criterion_10_representation(capsys):
    reports, elapsed = _run("representation")
    positives = [r for r in reports if not r.expected_fail]
    negatives = [r for r in reports if r.expected_fail]
    assert len(negatives) == 1
    assert negatives[0].details["slope_gap"] >= 2.0
    cond = [r for r in positives if r.check_id.startswith("representation:")]
    rec = [r for r in positives if r.check_id.startswith("representation-recovery")]
    assert len(cond) == 4 and all(r.tol == 1e-8 for r in cond)
    assert len(rec) == 4 and all(r.tol == 1e-12 for r in rec)
    ok = _outcome_ok(reports) and elapsed < 60.0
    _verdict(capsys, 10, "integral representation round trip", ok,
             f"conditions 1e-8, recovery 1e-12, negative slope gap "
             f"{negatives[0].details['slope_gap']:g} >= 2, {elapsed:.2f}s < 60s")


def test_criterion_11_compensator(capsys):
    reports, elapsed = _run("compensator")
    mono = [r for r in reports if r.check_id.startswith("compensator-monotone")]
    mart = [r for r in reports if r.check_id.startswith("compensator-martingale")]
    assert len(mono) == 3 and all(r.tol == 1e-12 for r in mono)
    assert len(mart) == 3 and all(r.tol == 1e-8 for r in mart)
    ok = _outcome_ok(reports) and elapsed < 30.0
    _verdict(capsys, 11, "compensated process monotone + flat conditionals", ok,
             f"f in {{1, -1, B}}, per-path 1e-12 / DP 1e-8, {elapsed:.2f}s < 30s")


def test_criterion_12_determinism(capsys, tmp_path):
    # two fresh interpreters, started together, under different hash seeds
    src = str(Path(gexpect.__file__).resolve().parent.parent)
    children = []
    for seed in (1, 2):
        out = tmp_path / f"hashseed{seed}"
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "gexpect.cli", "verify", "--no-timing", "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        children.append((out / "report.json", proc))
    reports = []
    for path, proc in children:
        _, err = proc.communicate()
        # exit 1 reports unexpected outcomes, which the verdict counts
        assert proc.returncode in (0, 1), f"verify exited {proc.returncode}:\n{err}"
        reports.append(path.read_bytes())
    json1, json2 = reports
    fails = [sum(r["pass"] == r["expected_fail"] for r in json.loads(j)) for j in reports]
    ok = json1 == json2 and fails == [0, 0]
    _verdict(capsys, 12, "byte-identical reports across fresh processes", ok,
             f"{len(json1)} bytes x 2 runs, PYTHONHASHSEED 1 and 2, "
             f"{fails[0]}+{fails[1]} unexpected outcomes")
