"""The four benchmark workloads.

Each workload turns its seed into a fixed list of operations (the inputs the
program receives), builds its lattices and corpora in ``setup`` and runs one
warm-up operation there.  An operation calls gexpect's public API through the
``api`` namespace (which the tracer may wrap) and returns its raw output; the
operation's ``check`` validates that output outside the timed region and
returns the values recorded in ``reference.json`` for the pinned seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import gexpect
from gexpect import dp, gheat, glattice, stochastic, verifier
from gexpect.payoff import parse
from metrics import VERIFY_CHECKS

T = 1.0
PARAMS = gexpect.GParams(sigma_lower_sq=0.25, sigma_upper_sq=1.0)
LO, HI = PARAMS.sigma_lower_sq, PARAMS.sigma_upper_sq
PDE_NX = 401

# Payoff corpora of the verifier's cross-backend and conditional-algebra
# checks, copied so that the benchmark's inputs do not move with the verifier.
CROSS_PAYOFFS = ("x1", "x1^2", "-(x1^2)", "abs(x1)", "max(x1 - 0.5, 0)", "x1^3")
CORPUS = (
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

EXACT = 1e-10  # closed forms on the lattice: pure roundoff
CROSS_TOL = 1e-2  # lattice vs PDE, the verifier's pinned cross-backend tolerance
DUAL_TOL = 1e-8  # isometry dual pairs and martingale conditions
PATH_TOL = 1e-12  # per-path identities (qv_identity_gap and friends)
REFERENCE_TOL = 1e-12  # pinned outputs: the ROADMAP's exactness contract


class CheckError(AssertionError):
    """An operation's output is wrong."""


def expect_close(what: str, got, want, tol: float) -> None:
    gap = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    if not math.isfinite(gap) or gap > tol:
        raise CheckError(f"{what}: off by {gap:.3g} > {tol:g}")


def compare_reference(label: str, got: list, want: list) -> None:
    if len(got) != len(want):
        raise CheckError(f"{label}: {len(got)} values, reference has {len(want)}")
    expect_close(f"{label} vs pinned reference", got, want, REFERENCE_TOL)


def make_api() -> SimpleNamespace:
    """The public functions the workloads call (the tracer wraps these)."""
    names = {
        glattice: ("lattice_expect", "conditional_tables", "extract_worst_policy",
                   "sample_paths"),
        dp: ("run_walk",),
        gheat: ("gnormal_expect",),
        stochastic: ("ito_integral", "quadratic_variation", "mg_norm", "g_compensated"),
        verifier: ("run_suite",),
    }
    return SimpleNamespace(
        **{n: getattr(mod, n) for mod, ns in names.items() for n in ns}
    )


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


class Workload:
    name = ""
    nominal_pass_s = 10.0  # one pass on a 2-core Xeon, numpy 2.4, one thread

    def __init__(self, seed: int, api: SimpleNamespace):
        self.seed = seed
        self.api = api
        self.rng = random.Random(seed)

    def passes(self, seconds: float) -> int:
        """Passes per run: fixed by --seconds, never by timing, so that every
        run of a workload has the same operation count."""
        return max(1, round(seconds / self.nominal_pass_s))

    def setup(self) -> list:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def shares(self) -> dict:
        return {}


# --- lattice ---------------------------------------------------------------------


def _level5_closed_forms(dt: float):
    tau = T - 5 * dt
    return {
        "x2^2": lambda x: x**2 + HI * tau,
        "x1*x2": lambda x: x**2,
        "x2^2 - x2 + 1": lambda x: x**2 - x + 1 + HI * tau,
        "x1^2 - 2*x2^2": lambda x: -(x**2) - 2 * LO * tau,
    }


class LatticeWorkload(Workload):
    """expect/conditional requests: single-anchor values with their PDE twin,
    two-anchor (5, 50) conditional tables, and a refined-grid share."""

    name = "lattice"
    nominal_pass_s = 14.0
    # Sizes are the repo's own callers'; the counts are not taken from any
    # caller (none records a request mix), see bench/README.md.
    SINGLE = {
        400: 1,  # verifier cross-backend; ~3.5 s each, so one per pass
        200: 18,  # RunConfig.n_steps, so the CLI `expect` default; moments
    }
    REFINED = {50: 2}  # sigma_refinement=1 at conditional-algebra's n=50
    TWO_ANCHOR = 3  # conditional-algebra's (5, 50) tables at levels (0, 5)
    WARMUP_N = 100

    def __init__(self, seed, api):
        super().__init__(seed, api)
        specs = []
        for kind, sizes in (("single", self.SINGLE), ("refined", self.REFINED)):
            for n, count in sizes.items():
                specs += [(kind, n, text) for text in self._payoffs(count)]
        specs += [("two-anchor", 50, self.rng.choice(CORPUS)) for _ in range(self.TWO_ANCHOR)]
        self.rng.shuffle(specs)
        self.specs = specs

    def _payoffs(self, count):
        """``count`` payoffs: each of CROSS_PAYOFFS equally often, the rest
        distinct and drawn, so that the seed moves a size's cost little."""
        k, rest = divmod(count, len(CROSS_PAYOFFS))
        return list(CROSS_PAYOFFS) * k + self.rng.sample(CROSS_PAYOFFS, rest)

    def shares(self):
        kinds = [k for k, _, _ in self.specs]
        return {
            "commensurate_grid": kinds.count("single") + kinds.count("two-anchor"),
            "refined_grid": kinds.count("refined"),
            "single_anchor": kinds.count("single") + kinds.count("refined"),
            "two_anchor": kinds.count("two-anchor"),
        }

    def setup(self):
        self.lattices = {
            ("single", n): gexpect.build_lattice(T, n, PARAMS)
            for n in (*self.SINGLE, self.WARMUP_N)
        }
        self.lattices["two-anchor", 50] = gexpect.build_lattice(T, 50, PARAMS)
        for n in self.REFINED:
            self.lattices["refined", n] = gexpect.build_lattice(T, n, PARAMS, 1)
        self.payoffs = {t: parse(t) for t in CROSS_PAYOFFS + CORPUS}
        warm = self._single(("single", self.WARMUP_N), "x1^2")
        return self._check_single("x1^2", warm.run())

    def _single(self, key, text):
        lat, phi = self.lattices[key], self.payoffs[text]
        n = key[1]

        def run():
            X = gexpect.CylinderFunctional((n,), phi)
            return (self.api.lattice_expect(lat, X),
                    self.api.gnormal_expect(phi, T, PARAMS, nx=PDE_NX))

        return Op(f"{key[0]}:{n}:{text}", run, lambda out: self._check_single(text, out))

    @staticmethod
    def _check_single(text, out):
        v_lat, v_pde = out
        closed = {"x1": 0.0, "x1^2": HI * T, "-(x1^2)": -LO * T}
        if text in closed:
            expect_close(f"E[{text}] closed form", v_lat, closed[text], EXACT)
        expect_close(f"lattice vs PDE for {text}", v_lat, v_pde, CROSS_TOL)
        return [v_lat, v_pde]

    def _two_anchor(self, text):
        lat, phi = self.lattices["two-anchor", 50], self.payoffs[text]
        closed = _level5_closed_forms(lat.dt).get(text)

        def run():
            X = gexpect.CylinderFunctional((5, 50), phi, mode="levels")
            return self.api.conditional_tables(lat, X, (0, 5))

        def check(caps):
            t5, t0 = caps[5], caps[0]
            mask = t5.valid_mask()
            vals = t5.values[mask]
            if not np.all(np.isfinite(vals)):
                raise CheckError("non-finite conditional values")
            expect_close("tower E[E[X|H5]] = E[X]",
                         t5.condition_to(0).value_at_origin(),
                         t0.value_at_origin(), EXACT)
            if closed is not None:
                expect_close(f"E[{text} | H5] closed form", vals,
                             closed(t5.positions()[mask]), EXACT)
            return [t0.value_at_origin(), float(vals.max()), float(vals.min())]

        return Op(f"two-anchor:{text}", run, check)

    def ops(self):
        out = []
        for kind, n, text in self.specs:
            if kind == "two-anchor":
                out.append(self._two_anchor(text))
            else:
                out.append(self._single((kind, n), text))
        return out


# --- walk ------------------------------------------------------------------------


def _stops(n):
    return sorted({0, n // 4, n // 2, 3 * n // 4})


class WalkWorkload(Workload):
    """Augmented-state queries through dp.run_walk."""

    name = "walk"
    nominal_pass_s = 13.0
    # One unit holds, by shape, size and count, the walks one run_suite makes
    # of the shapes below; the inputs, terminals and checks are the
    # benchmark's own.  A pass is UNITS units.
    UNITS = 2
    PLAN = (
        ("ito-square", 100, 1),  # isometry, eta = B
        ("indicator", 100, 3),  # isometry, eta = 1 on [0,T), [0,T/2), [T/2,T)
        ("reward", 100, 3),  # compensator, stops at the quarters
        ("qv-mean", 50, 2),  # gbm-characterization
        ("qv-mean", 40, 4),  # symmetric-martingale
        ("weighted", 32, 4),  # representation, two-valued step integrand
        ("adapted-abs", 12, 4),  # representation, |B| + 1
    )
    SCALES = (0.5, 1.0, 1.5, 2.0, -1.0, -2.0)

    def __init__(self, seed, api):
        super().__init__(seed, api)
        specs = []
        for kind, n, count in self.PLAN:
            for i in range(count * self.UNITS):
                if kind == "weighted":
                    param = tuple(self.rng.sample(self.SCALES, 2))  # two distinct values
                elif kind == "adapted-abs":
                    param = self.rng.choice((1.0, -1.0))
                elif kind == "indicator":
                    window = ((0, n), (0, n // 2), (n // 2, n))[i % count]
                    param = (window, self.rng.choice(self.SCALES))
                else:
                    param = self.rng.choice(self.SCALES)
                specs.append((kind, n, param))
        self.rng.shuffle(specs)
        self.specs = specs

    def setup(self):
        sizes = {n for _, n, _ in self.PLAN}
        self.lattices = {n: gexpect.build_lattice(T, n, PARAMS) for n in sizes}
        warm = self._op("qv-mean", 40, 1.0)
        return warm.check(warm.run())

    def _op(self, kind, n, param):
        lat = self.lattices[n]
        return getattr(self, "_" + kind.replace("-", "_"))(lat, n, param)

    def _qv_mean(self, lat, n, c):
        """E[c <B>_T] = c sigma^2 T, sigma^2 the band end c's sign picks."""

        def run():
            spec = dp.qv_coord_walk(lat)
            decode = spec.decode
            spec.terminal = lambda s: c * decode(s, n)[1]
            return self.api.run_walk(spec).value

        def check(v):
            expect_close("E[c<B>_T] closed form", v, c * (HI if c > 0 else LO) * T, EXACT)
            return [v]

        return Op(f"qv-mean:{n}:{c:g}", run, check)

    def _ito_square(self, lat, n, c):
        """Isometry dual pair E[(c int B dB)^2] = E[int c^2 B^2 d<B>]."""
        dt = lat.dt
        w = np.asarray(lat.sigma_values) * math.sqrt(dt)

        def run():
            spec = dp.qv_coord_walk(lat)
            decode = spec.decode

            def terminal(s):
                pos, qv = decode(s, n)
                return (0.5 * c * (pos**2 - qv)) ** 2

            spec.terminal = terminal
            lhs = self.api.run_walk(spec).value
            base = dp.coord_walk(lat)
            dual = dp.WalkSpec(
                lattice=lat, init_state=base.init_state, transition=base.transition,
                terminal=lambda s: np.zeros(s.shape[0]),
                reward=lambda k, s, s2: c**2 * (s @ w) ** 2 * s2 * dt,
            )
            return lhs, self.api.run_walk(dual).value

        def check(out):
            expect_close("isometry dual pair", out[0], out[1], DUAL_TOL)
            return list(out)

        return Op(f"ito-square:{n}:{c:g}", run, check)

    def _indicator(self, lat, n, param):
        """Isometry dual pair for eta = c on [a, b):
        E[c^2 (B_b - B_a)^2] = E[int_a^b c^2 d<B>] = c^2 sigma_up^2 (b - a) dt."""
        (a, b), c = param
        dt = lat.dt
        active = (np.arange(n) >= a) & (np.arange(n) < b)

        def run():
            spec = dp.coord_walk(lat, active=active)
            decode = spec.decode
            spec.terminal = lambda s: (c * decode(s)) ** 2
            lhs = self.api.run_walk(spec).value
            base = dp.coord_walk(lat, active=active)
            dual = dp.WalkSpec(
                lattice=lat, init_state=base.init_state, transition=base.transition,
                terminal=lambda s: np.zeros(s.shape[0]),
                reward=lambda k, s, s2: np.full(s.shape[0], c**2 * s2 * dt * active[k]),
            )
            return lhs, self.api.run_walk(dual).value

        def check(out):
            expect_close("isometry dual pair", out[0], out[1], DUAL_TOL)
            expect_close("E[(c int_a^b dB)^2] closed form", out[0], c**2 * HI * (b - a) * dt,
                         DUAL_TOL)
            return list(out)

        return Op(f"indicator:{n}:[{a},{b}):{c:g}", run, check)

    def _weighted(self, lat, n, ab):
        """Two-valued step integrand: E[(int f dB)^2] = sigma_up^2 dt sum f^2."""
        f = np.where(np.arange(n) < n // 2, ab[0], ab[1])

        def run():
            spec = dp.weighted_coord_walk(lat, f)
            decode = spec.decode
            spec.terminal = lambda s: decode(s) ** 2
            return self.api.run_walk(spec).value

        def check(v):
            expect_close("E[(int f dB)^2] closed form", v, HI * lat.dt * float(np.sum(f**2)), DUAL_TOL)
            return [v]

        return Op(f"weighted:{n}:{ab[0]:g},{ab[1]:g}", run, check)

    def _adapted_abs(self, lat, n, sign):
        """M = int (|B| + 1) dB is a symmetric martingale: E[+-M_T | H_s] = +-M_s."""
        stops = _stops(n)

        def run():
            spec = dp.adapted_abs_walk(lat)
            decode = spec.decode
            spec.terminal = lambda s: sign * decode(s)[1]
            return self.api.run_walk(spec, stop_levels=stops), decode

        def check(out):
            res, decode = out
            for lvl in stops:
                states, values = res.stops[lvl]
                expect_close(f"E[M_T | H_{lvl}]", values, sign * decode(states)[1], DUAL_TOL)
            return [res.value]

        return Op(f"adapted-abs:{n}:{sign:g}", run, check)

    def _reward(self, lat, n, c):
        """Reward functional with stops: E[c B_T^2 - c(<B>_T - <B>_s) | H_s] = c B_s^2."""
        stops = _stops(n)
        dt = lat.dt

        def run():
            spec = dp.coord_walk(lat)
            decode = spec.decode
            spec.terminal = lambda s: c * decode(s) ** 2
            spec.reward = lambda k, s, s2: np.full(s.shape[0], -c * s2 * dt)
            return self.api.run_walk(spec, stop_levels=stops), decode

        def check(out):
            res, decode = out
            for lvl in stops:
                states, values = res.stops[lvl]
                expect_close(f"reward walk at level {lvl}", values, c * decode(states) ** 2, EXACT)
            return [res.value]

        return Op(f"reward:{n}:{c:g}", run, check)

    def ops(self):
        return [self._op(kind, n, param) for kind, n, param in self.specs]


# --- paths -----------------------------------------------------------------------


WORST_PAYOFFS = ("x1^2", "-(x1^2)", "abs(x1)", "max(x1 - 0.5, 0)")


class PathsWorkload(Workload):
    """1e5 x 100 ensembles under every default-family policy and one
    worst-case LatticePolicy, each followed by the calculus calls.  An
    operation is one public call: policy extraction, sampling, or one
    calculus call on the ensemble."""

    name = "paths"
    nominal_pass_s = 10.0
    N_STEPS = 100
    N_PATHS = 100_000
    WARM_PATHS = 10_000

    def __init__(self, seed, api):
        super().__init__(seed, api)
        names = ["const-max", "const-min", "const-mid", "alternating"]
        self.requests = [
            {"policy": name, "seed": self.rng.randrange(2**31)} for name in names
        ]
        self.requests.append({"policy": "worst", "payoff": self.rng.choice(WORST_PAYOFFS),
                              "seed": self.rng.randrange(2**31)})
        for req in self.requests:
            req["c"] = self.rng.choice((0.5, 1.0, 1.5, -1.0, -2.0))
            a = self.rng.randrange(0, self.N_STEPS - 10)
            req["window"] = (a, self.rng.randrange(a + 10, self.N_STEPS + 1))
        self.rng.shuffle(self.requests)

    def shares(self):
        worst = sum(r["policy"] == "worst" for r in self.requests)
        return {"path_independent_ensembles": len(self.requests) - worst,
                "lattice_policy_ensembles": worst}

    def setup(self):
        self.lat = gexpect.build_lattice(T, self.N_STEPS, PARAMS)
        self.family = gexpect.default_scenario_family(PARAMS)
        self.payoffs = {t: parse(t) for t in WORST_PAYOFFS}
        self.eta_b = gexpect.StepProcess.adapted(lambda x: x, self.N_STEPS, name="B")
        ens = self.api.sample_paths(self.lat, self.family.by_name("const-max"),
                                    self.WARM_PATHS, 0)
        expect_close("warm-up QV", ens.qv[:, -1], HI * T, PATH_TOL)
        return [float(np.mean(ens.B[:, -1])), float(np.mean(np.abs(ens.B)))]

    def ops(self):
        out = []
        for req in self.requests:
            out += self._request(req)
        return out

    def _request(self, req):
        api, lat, n = self.api, self.lat, self.N_STEPS
        st = {}  # outputs shared by the request's later calls
        tag = req["policy"] if req["policy"] != "worst" else f"worst:{req['payoff']}"
        ops = []
        if req["policy"] == "worst":
            X = gexpect.CylinderFunctional((n,), self.payoffs[req["payoff"]])

            def policy():
                st["policy"] = api.extract_worst_policy(lat, X)
                return st["policy"]

            def check_policy(pol):
                if sorted(pol.frames) != list(range(n)):
                    raise CheckError("policy must have one frame per level")
                st["value"] = gexpect.lattice_expect(lat, X)
                return [st["value"]]

            ops.append(Op(f"policy:{tag}", policy, check_policy))
        else:
            st["policy"] = self.family.by_name(req["policy"])

        def sample():
            st["ens"] = api.sample_paths(lat, st["policy"], self.N_PATHS, req["seed"])
            return st["ens"]

        def check_sample(ens):
            if ens.B.shape != (self.N_PATHS, n + 1) or np.any(ens.B[:, 0] != 0):
                raise CheckError("bad ensemble shape or start")
            s2 = ens.sigma_sq
            if np.any(s2 < LO - PATH_TOL) or np.any(s2 > HI + PATH_TOL):
                raise CheckError("chosen variance outside the band")
            if req["policy"] == "worst":
                # strictly convex / concave payoffs: the worst case is a band end
                pinned = {"x1^2": HI, "-(x1^2)": LO}.get(req["payoff"])
                if pinned is not None:
                    expect_close("worst-case variance", s2, pinned, 0.0)
                x = np.asarray(gexpect.eval_expr(self.payoffs[req["payoff"]], [ens.B[:, -1]]))
                se = float(np.std(x)) / math.sqrt(x.size)
                expect_close("MC mean under the worst policy vs lattice value",
                             float(np.mean(x)), st["value"], 5 * se + 1e-12)
            return [float(np.mean(ens.B[:, -1])), float(np.mean(ens.qv[:, -1]))]

        def ito():
            return api.ito_integral(self.eta_b, st["ens"])

        def check_ito(I):
            st["ito"] = I
            return [float(np.mean(I[:, -1])), float(np.mean(I[:, -1] ** 2))]

        def qv():
            return api.quadratic_variation(st["ens"].B)

        def check_qv(Q):
            ens = st["ens"]
            # <B> = B^2 - 2 int B dB, summation by parts, so the gap is roundoff
            expect_close("qv identity gap", Q, ens.B**2 - 2.0 * st.pop("ito"), PATH_TOL)
            expect_close("QV of lattice steps", Q, ens.qv, PATH_TOL)
            return [float(np.mean(Q[:, -1]))]

        f = gexpect.StepProcess.constant(req["c"])

        def comp():
            return api.g_compensated(f, st["ens"], PARAMS)

        def check_comp(Xc):
            if np.max(np.diff(Xc, axis=1)) > PATH_TOL:
                raise CheckError("compensated process increased")
            return [float(np.mean(Xc[:, -1]))]

        a, b = req["window"]
        eta = gexpect.StepProcess.indicator(a, b)

        def norm():
            return api.mg_norm(eta, [st["ens"]])

        def check_norm(v):
            ens = st.pop("ens")
            want = math.sqrt(float(np.mean(np.sum(ens.sigma_sq[:, a:b], axis=1))) * lat.dt)
            expect_close("mg_norm over an indicator window", v, want, PATH_TOL)
            return [v]

        ops += [
            Op(f"sample:{tag}", sample, check_sample),
            Op(f"ito_integral:{tag}", ito, check_ito),
            Op(f"quadratic_variation:{tag}", qv, check_qv),
            Op(f"g_compensated:{tag}", comp, check_comp),
            Op(f"mg_norm:{tag}", norm, check_norm),
        ]
        return ops


# --- verify ------------------------------------------------------------------------


class VerifyWorkload(Workload):
    """run_suite(RunConfig(timing=False, seed=<seed>)), one operation per check,
    for every check but those in metrics.VERIFY_SKIPPED."""

    name = "verify"
    nominal_pass_s = 30.0
    WARMUP_CHECK = "additivity"

    def passes(self, seconds):
        # Two passes give 26 latencies, so that the tail rule's rank (n - 10)
        # lies above the median; one pass of 13 would put it at p23.
        return 2 * super().passes(seconds)

    def setup(self):
        self.cfg = gexpect.RunConfig(timing=False, seed=self.seed)
        reports, unexpected = self.api.run_suite(
            gexpect.RunConfig(timing=False, seed=0), only=[self.WARMUP_CHECK])
        return self._values(reports, unexpected, self.WARMUP_CHECK)

    @staticmethod
    def _values(reports, unexpected, cid):
        if unexpected:
            bad = [r.check_id for r in reports if r.passed == r.expected_fail]
            raise CheckError(f"{cid}: unexpected outcome for {', '.join(bad)}")
        out = []
        for r in reports:
            out += [r.lhs, r.rhs, float(r.passed)]
        return out

    def ops(self):
        out = []
        for cid in VERIFY_CHECKS:
            out.append(Op(
                f"check:{cid}",
                lambda cid=cid: self.api.run_suite(self.cfg, only=[cid]),
                lambda res, cid=cid: self._values(res[0], res[1], cid),
            ))
        return out


WORKLOADS = {w.name: w for w in (LatticeWorkload, WalkWorkload, PathsWorkload, VerifyWorkload)}
