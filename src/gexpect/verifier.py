"""Executable verification of the martingale theorems and inequalities.

Every check measures a left-hand side and a right-hand side at desk scale
(exact dynamic programming where the quantity is lattice-expressible,
scenario-max Monte Carlo where a running supremum over paths is involved)
and emits a structured report.  Negative controls — processes that must fail
a check — are first-class and marked expected_fail, so the suite encodes the
sharpness of the statements, not just their truth.

Checks are short declarations on shared helpers: ``_lattice`` (the one place
a check's lattice follows the config), ``_node_gap`` (largest |table - targets|
over a conditional table's reachable nodes), ``_walk_gap`` (largest nodewise
|E[F_n + rewards | H_l] - F_l| over the stop levels l of an augmented walk),
``_asymmetry`` (largest |E[F_n | H_s] + E[-F_n | H_s]|, zero for a symmetric
martingale), and ``_ensembles`` with ``_scenario_max`` for scenario-max Monte
Carlo.  A check samples each (policy, seed) ensemble once and evaluates all
its integrands on it; every sample seeds its own generator, so no value
depends on the order of the integrands.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig
from .dp import (
    WalkSpec,
    _qv,
    _shift_walk,
    adapted_abs_walk,
    qv_coord_walk,
    run_walk,
    weighted_coord_walk,
)
from .gcore import UsageError, capacity_estimate, default_scenario_family, g_eval
from .gheat import gnormal_expect, gnormal_expect_many
from .glattice import (
    CylinderFunctional,
    build_lattice,
    conditional_expect,
    conditional_tables,
    eval_tables_on_paths,
    lattice_expect,
    sample_paths,
)
from .payoff import eval_expr, parse
from .stochastic import StepProcess, g_compensated, ito_integral, qv_identity_gap

__all__ = [
    "VerificationReport",
    "CHECKS",
    "run_suite",
    "reports_to_json",
    "reports_to_table",
]


@dataclass
class VerificationReport:
    check_id: str
    kind: str  # "equality" | "inequality"
    lhs: float
    rhs: float
    tol: float
    passed: bool
    backend: str
    seed: int | None = None
    n_paths: int | None = None
    wall_ms: float = 0.0
    expected_fail: bool = False
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "kind": self.kind,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tol": self.tol,
            "pass": self.passed,
            "backend": self.backend,
            "seed": self.seed,
            "n_paths": self.n_paths,
            "wall_ms": self.wall_ms,
            "expected_fail": self.expected_fail,
            "details": self.details,
        }


def _report(check_id, kind, lhs, rhs, tol, backend, seed=None, n_paths=None,
            expected_fail=False, **details) -> VerificationReport:
    lhs = float(lhs)
    rhs = float(rhs)
    finite = math.isfinite(lhs) and math.isfinite(rhs)
    if not finite:
        passed = False  # non-finite measurements never pass
    elif kind == "equality":
        passed = abs(lhs - rhs) <= tol
    else:
        passed = lhs <= rhs + tol
    return VerificationReport(
        check_id=check_id, kind=kind, lhs=lhs, rhs=rhs, tol=float(tol),
        passed=passed, backend=backend, seed=seed, n_paths=n_paths,
        expected_fail=expected_fail,
        details={k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                 for k, v in details.items()},
    )


def _lattice(cfg: RunConfig, n: int):
    """The n-step lattice on ``cfg``'s horizon, band and volatility grid."""
    return build_lattice(cfg.horizon, n, cfg.params, cfg.sigma_refinement)


def _grid_aligned_scenarios(family):
    return [family.by_name(n) for n in ("const-max", "const-min", "alternating")]


def _ensembles(lat, policies, n_paths, *seeds):
    """One ensemble per (seed, policy), drawn lazily: the i-th policy is
    sampled with seed + i."""
    for seed in seeds:
        for i, pol in enumerate(policies):
            yield sample_paths(lat, pol, n_paths, seed + i)


def _scenario_max(ensembles, measure):
    """Scenario max of each entry of ``measure(ens)``: every ensemble is drawn
    once and all its quantities are read from it."""
    return [max(col) for col in zip(*map(measure, ensembles))]


def _node_gap(table, *targets):
    """Largest |table.values - targets[0] - targets[1] - ...| over the table's
    reachable nodes; each target is an array of the table's shape."""
    mask = table.valid_mask()
    diff = table.values[mask]
    for t in targets:
        diff = diff - t[mask]
    return float(np.max(np.abs(diff)))


def _zero(states, level=None):
    return np.zeros(states.shape[0])


def _walk_gap(spec, F, stops, reward=None):
    """Largest nodewise |E[F_n + rewards from l on | H_l] - F_l| over the stop
    levels l, on ``spec``'s states; F(states, level) is the process."""
    n = spec.lattice.n_steps
    walk = replace(spec, terminal=lambda st: F(st, n), reward=reward)
    res = run_walk(walk, stop_levels=stops)
    return max(
        float(np.max(np.abs(values - F(states, lvl))))
        for lvl, (states, values) in res.stops.items()
    )


def _asymmetry(spec, F, s):
    """Largest |E[F_n | H_s] + E[-F_n | H_s]| over the level-s states, taken as
    the up-drift E[F_n | H_s] - F_s plus the down-drift E[-F_n | H_s] + F_s.
    A symmetric martingale has zero; the sublinear expectation alone does not
    force it."""
    n = spec.lattice.n_steps
    up = run_walk(replace(spec, terminal=lambda st: F(st, n)), stop_levels=(s,))
    dn = run_walk(replace(spec, terminal=lambda st: -F(st, n)), stop_levels=(s,))
    states, values = up.stops[s]
    f_s = F(states, s)
    return float(np.max(np.abs((values - f_s) + (dn.stops[s][1] + f_s))))


# --- moments and cross-backend agreement ------------------------------------


def check_moments(cfg: RunConfig):
    params = cfg.params
    T = cfg.horizon
    lat = _lattice(cfg, 200)
    up = lattice_expect(lat, CylinderFunctional((200,), parse("x1^2")))
    lo = -lattice_expect(lat, CylinderFunctional((200,), parse("-(x1^2)")))
    pde_up = gnormal_expect(parse("x1^2"), T, params, nx=401)
    pde_lo = -gnormal_expect(parse("-(x1^2)"), T, params, nx=401)
    tgt_up = params.sigma_upper_sq * T
    tgt_lo = params.sigma_lower_sq * T
    t_lat = cfg.tol.get("moments-lattice", 1e-10)
    t_pde = cfg.tol.get("moments-pde", 2e-3)
    return [
        _report("moments-upper-lattice", "equality", up, tgt_up, t_lat, "lattice-DP"),
        _report("moments-lower-lattice", "equality", lo, tgt_lo, t_lat, "lattice-DP"),
        _report("moments-upper-pde", "equality", pde_up, tgt_up, t_pde, "pde-fd"),
        _report("moments-lower-pde", "equality", pde_lo, tgt_lo, t_pde, "pde-fd"),
    ]


_CROSS_PAYOFFS = ("x1", "x1^2", "-(x1^2)", "abs(x1)", "max(x1 - 0.5, 0)", "x1^3")


def check_cross_backend(cfg: RunConfig):
    n = 400
    lat = _lattice(cfg, n)
    tol = cfg.tol.get("cross-backend", 1e-2)
    phis = [parse(text) for text in _CROSS_PAYOFFS]
    v_pdes = gnormal_expect_many(phis, cfg.horizon, cfg.params, nx=401)
    return [
        _report(f"cross-backend:{text}", "equality",
                lattice_expect(lat, CylinderFunctional((n,), phi)), v_pde, tol,
                "lattice-DP|pde-fd")
        for text, phi, v_pde in zip(_CROSS_PAYOFFS, phis, v_pdes)
    ]


# --- conditional-expectation algebra -----------------------------------------


_CORPUS = (
    "x2^2",
    "x1*x2",
    "abs(x2)",
    "max(x2 - 0.5, 0)",
    "x2^3 - x1",
    "abs(x2 - x1) + x1^2",
    "min(x2, 2)",
    "x1^2 - 2*x2^2",
    "max(x1, x2)",
    "x2^2 - x2 + 1",
)


def check_conditional_algebra(cfg: RunConfig):
    """Six conditional-expectation properties, nodewise on a 50-step lattice.

    Functionals live on anchors (5, 50) in level mode: x1 is the path value
    at level 5 (the conditioning level), x2 the terminal value.
    """
    lat = _lattice(cfg, 50)
    s = 5
    tol = cfg.tol.get("conditional-algebra", 1e-10)

    def functional(text):
        return CylinderFunctional((s, 50), parse(text), mode="levels")

    def table(text):
        return conditional_expect(lat, functional(text), s)

    base = {text: table(text) for text in _CORPUS}
    mask = base[_CORPUS[0]].valid_mask()
    pos = base[_CORPUS[0]].positions()

    # (i) monotonicity: X <= X + |x2| pointwise implies the same for conditionals
    monotone = max(
        float(np.max(base[t].values[mask] - table(f"({t}) + abs(x2)").values[mask]))
        for t in _CORPUS[:4]
    )

    # (ii) conditioning-level measurable functionals are reproduced exactly
    measurable = max(
        _node_gap(table(t), eval_expr(parse(t), [pos]))
        for t in ("x1", "abs(x1)", "x1^2 - 1", "max(x1, 0)")
    )

    # (iii) self-domination: E[X|H] - E[Y|H] <= E[X - Y|H]
    pairs = [(_CORPUS[0], _CORPUS[2]), (_CORPUS[1], _CORPUS[3]),
             (_CORPUS[4], _CORPUS[6]), (_CORPUS[7], _CORPUS[9]),
             (_CORPUS[5], _CORPUS[8])]
    dominated = max(
        float(np.max(base[a].values[mask] - base[b].values[mask]
                     - table(f"({a}) - ({b})").values[mask]))
        for a, b in pairs
    )

    # (iv) measurable-factor pull-out with positive/negative parts
    def pullout_gap(eta_s, x_s):
        t_prod = table(f"({eta_s}) * ({x_s})")
        eta = eval_expr(parse(eta_s), [pos])
        return _node_gap(t_prod, np.maximum(eta, 0) * table(x_s).values
                         + np.maximum(-eta, 0) * table(f"-({x_s})").values)

    pullout = max(pullout_gap(e, x) for e, x in (
        ("x1", "x2^2"), ("x1 - 0.5", "abs(x2)"), ("x1", "x2^3 - x1")))

    # (v) additivity against a symmetric increment
    y_s = "x2 - x1"
    t_y = table(y_s)
    additive = max(
        _node_gap(table(f"({x_s}) + ({y_s})"), base[x_s].values, t_y.values)
        for x_s in (_CORPUS[0], _CORPUS[3], _CORPUS[7])
    )

    # (vi) tower
    tower = -np.inf
    for x_s in (_CORPUS[0], _CORPUS[5], _CORPUS[8]):
        caps = conditional_tables(lat, functional(x_s), (2, s, 30))
        tower = max(tower,
                    _node_gap(caps[30].condition_to(s), caps[s].values),
                    _node_gap(caps[s].condition_to(2), caps[2].values))

    return [_report(name, kind, g, 0.0, tol, "lattice-DP") for name, kind, g in (
        ("cond-monotone", "inequality", monotone),
        ("cond-measurable", "equality", measurable),
        ("cond-self-dominated", "inequality", dominated),
        ("cond-pullout", "equality", pullout),
        ("cond-additive", "equality", additive),
        ("cond-tower", "equality", tower),
    )]


# --- path-level identities ----------------------------------------------------


def check_qv_identity(cfg: RunConfig):
    lat = _lattice(cfg, 100)
    family = default_scenario_family(cfg.params)
    tol = cfg.tol.get("qv-identity", 1e-12)
    n_paths = min(cfg.n_paths, 10000)
    eta = StepProcess.adapted(lambda x: x, 100, name="B")
    worst = max(
        max(qv_identity_gap(ens.B, ens), qv_identity_gap(ito_integral(eta, ens), ens))
        for ens in _ensembles(lat, family, n_paths, cfg.seed)
    )
    return [_report("qv-identity", "equality", worst, 0.0, tol, "mc-paths",
                    seed=cfg.seed, n_paths=n_paths)]


def check_qv_band(cfg: RunConfig):
    params = cfg.params
    lat = _lattice(cfg, 100)
    family = default_scenario_family(params)
    lo, hi = params.sigma_lower_sq * lat.dt, params.sigma_upper_sq * lat.dt
    n_paths = min(cfg.n_paths, 10000)

    def p_outside(ens):
        dqv = ens.d_qv
        return float(np.mean(np.any((dqv < lo) | (dqv > hi), axis=1)))

    cap = capacity_estimate(
        [p_outside(ens) for ens in _ensembles(lat, family, n_paths, cfg.seed + 100)]
    )
    return [_report("qv-band", "equality", cap, 0.0, 0.0, "mc-paths",
                    seed=cfg.seed, n_paths=n_paths)]


# --- isometry -----------------------------------------------------------------


def check_isometry(cfg: RunConfig):
    n = 100
    lat = _lattice(cfg, n)
    dt = lat.dt
    tol = cfg.tol.get("isometry", 1e-8)
    reports = []

    # eta == 1 and indicator steps: the integral is a path increment
    for name, active in (
        ("const1", np.ones(n, dtype=bool)),
        ("ind[0,T/2)", np.arange(n) < n // 2),
        ("ind[T/2,T)", np.arange(n) >= n // 2),
    ):
        spec = weighted_coord_walk(lat, active)
        lhs = run_walk(replace(spec, terminal=lambda s: spec.decode(s) ** 2)).value

        def reward(k, states, s2, act=active):
            v = s2 * dt if act[k] else 0.0
            return np.full(states.shape[0], v)

        rhs = run_walk(replace(spec, terminal=_zero, reward=reward)).value
        reports.append(_report(f"isometry:{name}", "equality", lhs, rhs, tol,
                               "augmented-DP"))

    # eta == B: integral via the pathwise identity int B dB = (B^2 - <B>)/2
    spec = qv_coord_walk(lat)

    def terminal(states):
        pos, qv = spec.decode(states, n)
        return 0.25 * (pos**2 - qv) ** 2

    lhs = run_walk(replace(spec, terminal=terminal)).value

    base = weighted_coord_walk(lat, np.ones(n))

    def reward_b(k, states, s2):
        posv = base.decode(states)
        return posv**2 * s2 * dt

    rhs = run_walk(replace(base, terminal=_zero, reward=reward_b)).value
    reports.append(_report("isometry:B", "equality", lhs, rhs, tol, "augmented-DP"))
    return reports


# --- maximal inequalities -------------------------------------------------------


def check_doob(cfg: RunConfig):
    n = 100
    lat = _lattice(cfg, n)
    family = default_scenario_family(cfg.params)
    p = 2.0
    const = (p / (p - 1.0)) ** p
    tol_rel = cfg.tol.get("doob", 0.05)
    n_paths = 100_000
    specs = [  # (name of X, level l with E_up[X_T^2] = E_up[B_l^2])
        ("B", n),
        ("int-ind[0,T/2)", n // 2),
    ]

    def running_maxima(ens):
        """E[max_k |X_k|^p] for X = int 1 dB = B and X = int 1[0,T/2) dB.  The
        indicator's integral equals B's up to level n/2 and is flat after it,
        so one integral gives both maxima."""
        run = np.abs(ito_integral(StepProcess.constant(1.0), ens))
        half = np.max(run[:, : n // 2 + 1], axis=1)
        full = np.maximum(half, np.max(run[:, n // 2 + 1:], axis=1))
        return [float(np.mean(full**p)), float(np.mean(half**p))]

    lhs = _scenario_max(_ensembles(lat, family, n_paths, 1000, 2000, 3000),
                        running_maxima)
    reports = []
    for (name, level), lhs_j in zip(specs, lhs):
        rhs_exp = lattice_expect(lat, CylinderFunctional((level,), parse("x1^2")))
        reports.append(
            _report(f"doob:{name}", "inequality", lhs_j,
                    const * rhs_exp * (1 + tol_rel), 0.0,
                    "mc-scenarios|lattice-DP", seed=1, n_paths=n_paths,
                    constant=const, rhs_expectation=rhs_exp)
        )
    return reports


def _downcrossings_many(paths: np.ndarray, a: float, b: float) -> np.ndarray:
    if not (0 < a < b):
        raise ValueError("need 0 < a < b")
    n_paths, m = paths.shape
    count = np.zeros(n_paths, dtype=np.int64)
    armed = np.zeros(n_paths, dtype=bool)
    for k in range(m):
        col = paths[:, k]
        fire = armed & (col <= a)
        count += fire
        armed = (armed & ~fire) | (~armed & (col >= b))
    return count


def _most_downcrossings(paths_per_scenario, a, b):
    """Mean downcrossing count of [a, b] in the scenario with the largest mean,
    and its standard error; each item is one scenario's (n_paths, n+1) paths."""
    means, ses = [], []
    for paths in paths_per_scenario:
        counts = _downcrossings_many(paths, a, b)
        means.append(float(np.mean(counts)))
        ses.append(float(np.std(counts) / math.sqrt(len(counts))))
    j = int(np.argmax(means))
    return means[j], ses[j]


def check_downcrossing(cfg: RunConfig):
    n = 100
    lat = _lattice(cfg, n)
    family = default_scenario_family(cfg.params)
    n_paths = 2000
    reports = []

    # catalogue entry: conditional envelope of a positive terminal payoff
    X = CylinderFunctional((n,), parse("max(x1 + 2, 0)"), mode="levels")
    tables = conditional_tables(lat, X, range(n + 1))
    a, b = 1.0, 2.0
    x0 = tables[0].value_at_origin()
    bound = min(x0, b) / (b - a)
    mean, se = _most_downcrossings(
        (eval_tables_on_paths(tables, ens) for ens in _ensembles(
            lat, _grid_aligned_scenarios(family), n_paths, cfg.seed + 300)),
        a, b,
    )
    reports.append(
        _report("downcrossing:envelope", "inequality", mean, bound + 3 * se, 0.0,
                "mc-scenarios", seed=cfg.seed, n_paths=n_paths, bound=bound,
                start_value=x0)
    )

    # catalogue entry: positive constant (trivially zero crossings)
    const_paths = np.full((4, n + 1), 2.5)
    c_count = float(np.mean(_downcrossings_many(const_paths, a, b)))
    reports.append(
        _report("downcrossing:constant", "inequality", c_count,
                min(2.5, b) / (b - a), 0.0, "direct", bound=min(2.5, b) / (b - a))
    )

    # catalogue entry: 2 + (<B> - t), a decreasing positive supermartingale
    a2, b2 = 1.0, 1.5
    mean2, se2 = _most_downcrossings(
        (2.0 + ens.qv - ens.times[None, :]
         for ens in _ensembles(lat, family, n_paths, cfg.seed + 400)),
        a2, b2,
    )
    bound2 = min(2.0, b2) / (b2 - a2)
    reports.append(
        _report("downcrossing:compensated-qv", "inequality", mean2,
                bound2 + 3 * se2, 0.0, "mc-scenarios", seed=cfg.seed,
                n_paths=n_paths, bound=bound2)
    )
    return reports


def check_bdg(cfg: RunConfig):
    n = 100
    lat = _lattice(cfg, n)
    family = default_scenario_family(cfg.params)
    dt = lat.dt
    c_upper, c_lower = 4.0, 0.25
    n_paths = 20_000
    specs = [
        ("const1", StepProcess.constant(1.0)),
        ("ind[0,T/2)", StepProcess.indicator(0, n // 2)),
        ("B", StepProcess.adapted(lambda x: x, n, name="B")),
    ]

    def measure(ens):
        """Per integrand: E[max |int eta dB|^2], E[int eta^2 dA] with A = t,
        and E[int eta^2 d<B>]."""
        dqv = ens.d_qv
        if np.any(dqv > dt + 1e-12):
            raise ValueError("dominance contract d<B> <= dt violated")
        out = []
        for _, eta in specs:
            vals = eta.values_on(ens)
            out += [float(np.mean(np.max(np.abs(ito_integral(eta, ens)), axis=1) ** 2)),
                    float(np.mean(np.sum(vals**2 * dt, axis=1))),
                    float(np.mean(np.sum(vals**2 * dqv, axis=1)))]
        return out

    best = _scenario_max(_ensembles(lat, family, n_paths, cfg.seed + 500), measure)
    reports = []
    for j, (name, _) in enumerate(specs):
        lhs, rhs_a, rhs_qv = best[3 * j : 3 * j + 3]
        reports.append(
            _report(f"bdg-upper:{name}", "inequality", lhs, c_upper * rhs_a,
                    0.0, "mc-scenarios", seed=cfg.seed, n_paths=n_paths,
                    ratio=lhs / rhs_a if rhs_a > 0 else 0.0)
        )
        reports.append(
            _report(f"bdg-lower:{name}", "inequality", c_lower * rhs_qv, lhs,
                    0.0, "mc-scenarios", seed=cfg.seed, n_paths=n_paths,
                    ratio=rhs_qv / lhs if lhs > 0 else 0.0)
        )
    return reports


# --- martingale characterizations ----------------------------------------------


def _condition_gaps(spec, M, f_sq_of, stop_levels, params):
    """Max nodewise gaps of the three martingale conditions for M = int f dB.

    M(states, level) -> M values per state of ``spec``;
    f_sq_of(level, states) -> f^2 at that level (per state).
    """
    dt = spec.lattice.dt
    s0 = params.sigma_lower_sq
    return {
        # (i) symmetric martingale: terminal +-M, conditional must be +-M_s
        "sym+": _walk_gap(spec, M, stop_levels),
        "sym-": _walk_gap(spec, lambda st, l: -M(st, l), stop_levels),
        # (ii) conditional of M_T^2 - int_s^T f^2 du must be M_s^2
        "quad": _walk_gap(spec, lambda st, l: M(st, l) ** 2, stop_levels,
                          lambda k, states, s2: -f_sq_of(k, states) * dt),
        # (iii) conditional of -M_T^2 + sigma_lo^2 int_s^T f^2 du must be -M_s^2
        "lower-quad": _walk_gap(spec, lambda st, l: -(M(st, l) ** 2), stop_levels,
                                lambda k, states, s2: s0 * f_sq_of(k, states) * dt),
    }


def _recovery_gap(eta, ens):
    """Largest per-path |int dM / eta - B| for M = int eta dB."""
    M = ito_integral(eta, ens)
    fvals = eta.values_on(ens)
    if np.any(np.abs(fvals) < 1e-9):
        raise ValueError("hypothesis 0 < C <= |f| violated")
    X = np.zeros_like(M)
    np.cumsum(np.diff(M, axis=1) / fvals, axis=1, out=X[:, 1:])
    return float(np.max(np.abs(X - ens.B)))


def check_representation(cfg: RunConfig):
    """Round trip of the integral-representation equivalence.

    Forward: M = int f dB satisfies the three martingale conditions nodewise.
    Reverse: X = int dM / f recovers the driving path exactly per path.
    Negative control: M = 2B with claimed integrand f == 1 must fail the
    quadratic condition with slope gap >= 2.
    """
    params = cfg.params
    if params.sigma_lower_sq <= 0:
        raise ValueError("sigma_lower_sq = 0 outside theorem hypothesis")
    T = cfg.horizon
    tol = cfg.tol.get("representation", 1e-8)
    tol_path = cfg.tol.get("representation-path", 1e-12)
    scen = _grid_aligned_scenarios(default_scenario_family(params))
    reports = []

    cases = []  # (name, walk, M, f_sq_of, eta StepProcess)
    for name, vals, eta in (
        ("const1", np.full(64, 1.0), StepProcess.constant(1.0)),
        ("const2", np.full(64, 2.0), StepProcess.constant(2.0)),
        ("step", np.where(np.arange(32) < 16, 1.0, 1.5),
         StepProcess((0, 16), (1.0, 1.5), name="step")),
    ):
        spec = weighted_coord_walk(_lattice(cfg, len(vals)), vals)
        cases.append((
            name, spec, lambda st, l, d=spec.decode: d(st),
            lambda k, states, vals=vals: np.full(states.shape[0], vals[k] ** 2),
            eta,
        ))
    spec = adapted_abs_walk(_lattice(cfg, 12))
    cases.append((
        "abs(B)+1", spec, lambda st, l, d=spec.decode: d(st)[1],
        lambda k, states, d=spec.decode: (np.abs(d(states)[0]) + 1.0) ** 2,
        StepProcess.adapted(lambda x: np.abs(x) + 1.0, 12, name="abs(B)+1"),
    ))

    for name, spec, M, f_sq_of, eta in cases:
        n = spec.lattice.n_steps
        stops = sorted({0, n // 4, n // 2, 3 * n // 4})
        gaps = _condition_gaps(spec, M, f_sq_of, stops, params)
        reports.append(
            _report(f"representation:{name}", "equality", max(gaps.values()), 0.0,
                    tol, "augmented-DP", **{f"gap_{k}": v for k, v in gaps.items()})
        )
        # reverse direction: per-path recovery of the driver
        rec = max(_recovery_gap(eta, ens)
                  for ens in _ensembles(spec.lattice, scen, 2000, cfg.seed + 700))
        reports.append(
            _report(f"representation-recovery:{name}", "equality", rec, 0.0,
                    tol_path, "mc-paths", seed=cfg.seed, n_paths=2000)
        )

    # negative control: M = 2B claimed to have integrand f == 1
    lat = _lattice(cfg, 32)
    spec = weighted_coord_walk(lat, np.ones(32))
    res = run_walk(
        replace(spec, terminal=lambda s: (2.0 * spec.decode(s)) ** 2,
                reward=lambda k, states, s2: -np.full(states.shape[0], lat.dt)),
        stop_levels=(0,),
    )
    v0 = float(res.stops[0][1][0])  # E[M_T^2 - int_0^T 1 du | H_0], M_0 = 0
    slope = (v0 + T) / T  # measured growth rate of E[M_t^2 | H_0]
    reports.append(
        _report("representation-negative:2B", "equality", slope, 1.0, tol,
                "augmented-DP", expected_fail=True, slope_gap=abs(slope - 1.0))
    )
    return reports


def check_gbm_characterization(cfg: RunConfig):
    params = cfg.params
    T = cfg.horizon
    n = 50
    lat = _lattice(cfg, n)
    tol = cfg.tol.get("gbm-characterization", 1e-8)
    family = default_scenario_family(params)
    reports = []
    s = n // 2
    t_s = s * lat.dt

    def table(text):
        X = CylinderFunctional((n,), parse(text), mode="levels")
        return conditional_expect(lat, X, s)

    # the path process itself: all four conditions
    tab = table("x1")
    pos = tab.positions()
    g_sym = max(_node_gap(tab, pos), _node_gap(table("-x1"), -pos))
    g_quad = _node_gap(table("x1^2"), pos**2 + params.sigma_upper_sq * (T - t_s))

    lower = -lattice_expect(lat, CylinderFunctional((n,), parse("-(x1^2)")))
    g_low = abs(lower - params.sigma_lower_sq * T)

    inc = max(float(np.max(np.abs(np.diff(ens.B, axis=1))))
              for ens in _ensembles(lat, family, 2000, cfg.seed + 800))
    bound = math.sqrt(params.sigma_upper_sq * lat.dt)
    worst = max(g_sym, g_quad, g_low, max(inc - bound, 0.0))
    reports.append(
        _report("gbm-characterization:B", "equality", worst, 0.0, tol,
                "lattice-DP|mc-paths", gap_symmetric=g_sym, gap_quadratic=g_quad,
                gap_lower=g_low, max_step=inc, step_bound=bound)
    )

    # negative control: 2B fails the quadratic condition with slope 4, not 1;
    # the target is what a unit-slope martingale needs
    g4 = _node_gap(table("4*x1^2"), 4.0 * pos**2 + (T - t_s))
    slope = 4.0 * params.sigma_upper_sq
    reports.append(
        _report("gbm-characterization:2B", "equality", g4, 0.0, tol,
                "lattice-DP", expected_fail=True,
                slope=slope, slope_gap=abs(slope - 1.0))
    )

    # negative control: <B> - t is not a symmetric martingale
    spec = qv_coord_walk(lat)
    asym = _asymmetry(spec, lambda st, l: spec.decode(st, l)[1] - l * lat.dt, s)
    expected_gap = (T - t_s) * (params.sigma_upper_sq - params.sigma_lower_sq)
    reports.append(
        _report("gbm-characterization:qv-minus-t", "equality", asym, 0.0, tol,
                "augmented-DP", expected_fail=True,
                asymmetry_gap=asym, predicted_gap=expected_gap)
    )
    return reports


def check_symmetric_martingale(cfg: RunConfig):
    params = cfg.params
    T = cfg.horizon
    n = 40
    lat = _lattice(cfg, n)
    tol = cfg.tol.get("symmetric-martingale", 1e-8)
    s = n // 2
    reports = []

    spec = qv_coord_walk(lat)

    # int B dB = (B^2 - <B>)/2 is a symmetric martingale
    def ito(st, l):
        pos, qv = spec.decode(st, l)
        return 0.5 * (pos**2 - qv)

    gap = max(_walk_gap(spec, ito, (s,)),
              _walk_gap(spec, lambda st, l: -ito(st, l), (s,)))
    reports.append(
        _report("symmetric-martingale:int-B-dB", "equality", gap, 0.0,
                tol, "augmented-DP")
    )

    # <B> passes the upper test with drift but fails symmetry (expected fail):
    # its up-drift is (T - t_s) * sigma_up^2 and its down-drift -(T - t_s) * sigma_lo^2
    asym = _asymmetry(spec, lambda st, l: spec.decode(st, l)[1], s)
    predicted = (T - s * lat.dt) * (params.sigma_upper_sq - params.sigma_lower_sq)
    reports.append(
        _report("symmetric-martingale:qv", "equality", asym, 0.0, tol,
                "augmented-DP", expected_fail=True, asymmetry_gap=asym,
                predicted_gap=predicted)
    )
    return reports


# --- additivity and transfer -----------------------------------------------------


def check_additivity(cfg: RunConfig):
    params = cfg.params
    n, s = 16, 8
    lat = _lattice(cfg, n)
    tol = cfg.tol.get("additivity", 1e-10)
    reports = []

    t_x, t_y, t_sum = (
        conditional_expect(lat, CylinderFunctional((s, n), parse(t), mode="levels"), s)
        for t in ("x2^2", "x2 - x1", "x2^2 + x2 - x1")
    )
    g = _node_gap(t_sum, t_x.values, t_y.values)
    reports.append(_report("additivity:symmetric-increment", "equality", g,
                           0.0, tol, "lattice-DP"))

    # hypothesis failure: Y = -(qv increment) is not symmetric; strict gap
    t_s = s * lat.dt
    T = cfg.horizon
    spec = qv_coord_walk(lat)

    # E[B_T^2 - (qv_T - qv_s) | H_s] via reward DP
    res = run_walk(
        replace(spec, terminal=lambda st: spec.decode(st, n)[0] ** 2,
                reward=lambda k, states, s2: (
                    -np.full(states.shape[0], s2 * lat.dt) if k >= s
                    else np.zeros(states.shape[0])
                )),
        stop_levels=(s,),
    )
    states, joint = res.stops[s]
    pos_s, _ = spec.decode(states, s)
    # separate pieces
    e_x = pos_s**2 + params.sigma_upper_sq * (T - t_s)
    e_y = -params.sigma_lower_sq * (T - t_s)
    gap = float(np.min(e_x + e_y - joint))
    sym_gap = (params.sigma_upper_sq - params.sigma_lower_sq) * (T - t_s)
    reports.append(
        _report("additivity:nonsymmetric-increment", "equality",
                float(np.max(np.abs(e_x + e_y - joint))), 0.0, tol,
                "augmented-DP", expected_fail=True, subadditivity_gap=gap,
                hypothesis_gap=sym_gap)
    )
    return reports


def check_transfer(cfg: RunConfig):
    """The three equivalent insertions of a squared martingale increment."""
    n, s = 16, 8
    lat = _lattice(cfg, n)
    tol = cfg.tol.get("transfer", 1e-10)
    w = np.asarray(lat.basis.unit) * math.sqrt(lat.dt)
    a = w.size

    # state: frozen position, running position, step totals from level s on
    early = np.arange(n) < s
    transition, init_state = _shift_walk(lat, [early, np.ones(n, dtype=bool)], ~early)

    def decode(states):
        return states[:, :a] @ w, states[:, a:2 * a] @ w, _qv(lat, states[:, 2 * a:], n - s)

    spec = WalkSpec(lattice=lat, init_state=init_state, transition=transition,
                    terminal=None)
    worst = 0.0
    for xi in (1.0, -1.0):
        vals = []
        for which in ("qv", "sq", "diff"):

            def terminal(states, which=which, xi=xi):
                b_s, b_t, dqv = decode(states)
                base = b_s**2
                if which == "qv":
                    return base + xi * dqv
                if which == "sq":
                    return base + xi * (b_t - b_s) ** 2
                return base + xi * (b_t**2 - b_s**2)

            vals.append(run_walk(replace(spec, terminal=terminal)).value)
        worst = max(worst, max(vals) - min(vals))
    return [_report("transfer", "equality", worst, 0.0, tol, "augmented-DP")]


# --- compensated process -----------------------------------------------------------


def check_compensator(cfg: RunConfig):
    params = cfg.params
    n = 100
    lat = _lattice(cfg, n)
    family = default_scenario_family(params)
    tol_dp = cfg.tol.get("compensator", 1e-8)
    dt = lat.dt
    n_paths = 5000

    still = weighted_coord_walk(lat, np.zeros(n))  # one zero-width state per level
    walk_b = weighted_coord_walk(lat, np.ones(n))
    cases = [  # (name, f, walk, f(states))
        ("const1", StepProcess.constant(1.0), still, lambda st: np.full(st.shape[0], 1.0)),
        ("const-1", StepProcess.constant(-1.0), still, lambda st: np.full(st.shape[0], -1.0)),
        ("B", StepProcess.adapted(lambda x: x, n, name="B"), walk_b, walk_b.decode),
    ]
    # per-path monotonicity across every scenario
    worst_inc = _scenario_max(
        _ensembles(lat, family, n_paths, cfg.seed + 900),
        lambda ens: [float(np.max(np.diff(g_compensated(f, ens, params), axis=1)))
                     for _, f, _, _ in cases],
    )
    reports = []
    for (name, _, spec, f_of), inc in zip(cases, worst_inc):
        reports.append(
            _report(f"compensator-monotone:{name}", "inequality", inc,
                    0.0, 1e-12, "mc-paths", seed=cfg.seed, n_paths=n_paths)
        )

        # conditional values of the compensated increment vanish identically
        def reward(k, states, s2, f_of=f_of):
            fv = f_of(states)
            return fv * s2 * dt - 2.0 * g_eval(fv, params) * dt

        g = _walk_gap(spec, _zero, (0, n // 4, n // 2, 3 * n // 4), reward)
        reports.append(
            _report(f"compensator-martingale:{name}", "equality", g, 0.0,
                    tol_dp, "augmented-DP")
        )
    return reports


# --- suite --------------------------------------------------------------------


CHECKS = {
    "moments": check_moments,
    "cross-backend": check_cross_backend,
    "conditional-algebra": check_conditional_algebra,
    "qv-identity": check_qv_identity,
    "qv-band": check_qv_band,
    "isometry": check_isometry,
    "doob": check_doob,
    "downcrossing": check_downcrossing,
    "bdg": check_bdg,
    "representation": check_representation,
    "gbm-characterization": check_gbm_characterization,
    "symmetric-martingale": check_symmetric_martingale,
    "additivity": check_additivity,
    "transfer": check_transfer,
    "compensator": check_compensator,
}


def run_suite(cfg: RunConfig, only=None):
    """Run checks; returns (reports, number of unexpected outcomes).

    An unexpected outcome is a failing check not marked expected-fail, or an
    expected-fail check that passed.
    """
    if only is None:
        ids = list(CHECKS)
    else:
        unknown = [c for c in only if c not in CHECKS]
        if unknown:
            raise UsageError(f"unknown check id(s): {', '.join(unknown)}")
        ids = [c for c in CHECKS if c in set(only)]
    reports = []
    for cid in ids:
        t0 = time.perf_counter()
        rs = CHECKS[cid](cfg)
        ms = (time.perf_counter() - t0) * 1000.0
        for r in rs:
            r.wall_ms = round(ms, 3) if cfg.timing else 0.0
        reports.extend(rs)
    failures = sum(1 for r in reports if r.passed == r.expected_fail)
    return reports, failures


def reports_to_json(reports) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=2)


def reports_to_table(reports) -> str:
    lines = [f"{'check':44s} {'status':10s} {'lhs':>16s} {'rhs':>16s} {'tol':>9s}"]
    for r in reports:
        if r.expected_fail:
            status = "XFAIL" if not r.passed else "XPASS!"
        else:
            status = "ok" if r.passed else "FAIL"
        lines.append(
            f"{r.check_id:44s} {status:10s} {r.lhs:16.9g} {r.rhs:16.9g} {r.tol:9.2g}"
        )
    return "\n".join(lines)
