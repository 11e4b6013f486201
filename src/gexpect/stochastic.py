"""Discrete stochastic calculus on sampled path ensembles.

All integrals are left-endpoint (non-anticipating) sums: the integrand value
on [t_j, t_{j+1}) is frozen at t_j, which is what makes the martingale
identities exact in discrete time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .glattice import PathEnsemble

__all__ = [
    "StepProcess",
    "ito_integral",
    "quadratic_variation",
    "qv_identity_gap",
    "mg_norm",
    "g_compensated",
]


_BLOCK = 16  # levels per block in StepProcess.values_on: 128 bytes per path


@dataclass(frozen=True)
class StepProcess:
    """Piecewise-constant integrand: value on [l_j, l_{j+1}) fixed at level l_j.

    Each interval value is either a constant or a callable of the path value
    at the interval's left endpoint (an adapted node function).
    """

    breakpoints: tuple  # levels, starting at 0
    interval_values: tuple  # per interval: float | Callable[[np.ndarray], np.ndarray]
    name: str = "step"

    def __post_init__(self):
        bp = tuple(int(b) for b in self.breakpoints)
        if not bp or bp[0] != 0:
            raise ValueError("breakpoints must start at level 0")
        if list(bp) != sorted(set(bp)):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.interval_values) != len(bp):
            raise ValueError("need one value per interval")
        object.__setattr__(self, "breakpoints", bp)

    @classmethod
    def constant(cls, c: float, name: str | None = None) -> "StepProcess":
        return cls((0,), (float(c),), name=name or f"const({c})")

    @classmethod
    def indicator(cls, start: int, stop: int, name: str | None = None) -> "StepProcess":
        """1 on levels [start, stop), 0 elsewhere."""
        bps, vals = [0], [0.0 if start > 0 else 1.0]
        if start > 0:
            bps.append(start)
            vals.append(1.0)
        bps.append(stop)
        vals.append(0.0)
        return cls(tuple(bps), tuple(vals), name=name or f"ind[{start},{stop})")

    @classmethod
    def adapted(cls, fn: Callable, n_steps: int, name: str = "adapted") -> "StepProcess":
        """Refreshed every level: value on step k is fn(path value at level k)."""
        return cls(tuple(range(n_steps)), (fn,) * n_steps, name=name)

    def values_on(self, ens: PathEnsemble) -> np.ndarray:
        """Per-step integrand values, shape (n_paths, n_steps).

        For a deterministic process this is ``level_values`` broadcast over
        the paths: a read-only view, so copy it before writing to it.
        """
        n = ens.lattice.n_steps
        if not self.is_adapted:
            return np.broadcast_to(self.level_values(n), (ens.n_paths, n))
        out = np.empty((ens.n_paths, n))
        bp = self.breakpoints + (n,)
        # fill a few levels at a time as contiguous rows and transpose the
        # block into ``out``, rather than write one strided column per level
        block = np.empty((_BLOCK, ens.n_paths))
        j, row = -1, None
        for k0 in range(0, n, _BLOCK):
            m = min(_BLOCK, n - k0)
            for i in range(m):
                if k0 + i == bp[j + 1]:
                    j += 1
                    v = self.interval_values[j]
                    row = v(ens.B[:, k0 + i]) if callable(v) else float(v)
                block[i] = row
            out[:, k0:k0 + m] = block[:m].T
        return out

    @property
    def is_adapted(self) -> bool:
        """True when some interval value is a callable of the path."""
        return any(callable(v) for v in self.interval_values)

    def level_values(self, n_steps: int) -> np.ndarray:
        """Per-step values for deterministic processes; error if adapted."""
        if self.is_adapted:
            raise ValueError("adapted step process has no deterministic values")
        out = np.empty(n_steps)
        bp = self.breakpoints + (n_steps,)
        for j, v in enumerate(self.interval_values):
            a, b = bp[j], min(bp[j + 1], n_steps)
            if a < b:
                out[a:b] = float(v)
        return out


def _step_values(eta: StepProcess, ens: PathEnsemble) -> np.ndarray:
    """``eta.values_on(ens)``, or only its (n,) level row when ``eta`` is
    deterministic, so that per-step arithmetic runs on one row; either
    broadcasts against (n_paths, n)."""
    if eta.is_adapted:
        return eta.values_on(ens)
    return eta.level_values(ens.lattice.n_steps)


def _check_alignment(eta: StepProcess, n_steps: int) -> None:
    if eta.breakpoints[-1] > n_steps:
        raise ValueError(
            f"step process breakpoint {eta.breakpoints[-1]} beyond horizon {n_steps}"
        )


def ito_integral(
    eta: StepProcess, ens: PathEnsemble, M: np.ndarray | None = None
) -> np.ndarray:
    """Partial sums sum_{j<k} eta_j * (M_{j+1} - M_j), shape (n_paths, n+1)."""
    if M is None:
        M = ens.B
    n = ens.lattice.n_steps
    if M.shape[1] != n + 1:
        raise ValueError("process grid does not match the lattice")
    _check_alignment(eta, n)
    inc = np.diff(M, axis=1)
    inc *= _step_values(eta, ens)
    out = np.zeros_like(M)
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out


def quadratic_variation(M: np.ndarray) -> np.ndarray:
    """Partial sums of squared increments, shape (n_paths, n+1)."""
    out = np.zeros_like(M)
    np.cumsum(np.diff(M, axis=1) ** 2, axis=1, out=out[:, 1:])
    return out


def qv_identity_gap(M: np.ndarray, ens: PathEnsemble) -> float:
    """Max per-path defect of <M> = M^2 - M_0^2 - 2 int M dM (a summation-by-parts
    identity, so the defect is pure roundoff)."""
    n = ens.lattice.n_steps
    vals = M[:, :n]
    stoch = np.zeros_like(M)
    np.cumsum(vals * np.diff(M, axis=1), axis=1, out=stoch[:, 1:])
    qv = quadratic_variation(M)
    recon = M**2 - M[:, :1] ** 2 - 2.0 * stoch
    return float(np.max(np.abs(qv - recon)))


def mg_norm(
    eta: StepProcess, ensembles: Sequence[PathEnsemble], p: float = 2.0
) -> float:
    """Scenario-max Monte Carlo estimate of (E_up[int |eta|^p d<B>])^(1/p).

    Each path's integral sums |eta|^p against the ensemble's increments
    ``d_qv`` = sigma_sq * dt of the quadratic variation.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    best = -np.inf
    for ens in ensembles:
        inc = ens.d_qv
        inc *= np.abs(_step_values(eta, ens)) ** p
        total = np.sum(inc, axis=1)
        best = max(best, float(np.mean(total)))
    if best < -1e-12:
        raise ValueError("norm estimate came out negative")
    return max(best, 0.0) ** (1.0 / p)


def g_compensated(
    f: StepProcess,
    ens: PathEnsemble,
    params=None,
    A: np.ndarray | None = None,
) -> np.ndarray:
    """Per-path compensated process int f d<B> - 2 int G(f) dA (default A = t).

    Requires the dominance contract d<B> <= dA at every step.
    """
    from .gcore import g_eval

    if params is None:
        params = ens.lattice.params
    elif params != ens.lattice.params:
        raise ValueError("params differ from the band of the ensemble's lattice")
    n = ens.lattice.n_steps
    # the default clock's increments are one (n,) row shared by every path
    dA = np.diff(ens.times) if A is None else np.diff(A, axis=1)
    dqv = ens.d_qv
    bad = dqv > dA + 1e-12
    if np.any(bad):
        step = int(np.argwhere(bad)[0][1])
        raise ValueError(f"dominance contract d<M> <= dA violated at step {step}")
    vals = _step_values(f, ens)
    inc = vals * dqv
    inc -= 2.0 * g_eval(vals, params) * dA
    out = np.zeros_like(ens.B)
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out
