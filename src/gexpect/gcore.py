"""Core types for the uncertain-volatility framework.

The volatility band [sigma_lower_sq, sigma_upper_sq] defines the sublinear
generator G(a) = (sigma_upper_sq * a+ - sigma_lower_sq * a-) / 2.  A finite
family of volatility policies stands in for the abstract measure family: the
sublinear expectation of a payoff is the max of its linear expectations across
scenarios, and capacity is the max of per-scenario event probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GParams",
    "g_eval",
    "capacity_estimate",
    "UsageError",
    "VolatilityPolicy",
    "ConstantPolicy",
    "ScenarioFamily",
    "default_scenario_family",
]


@dataclass(frozen=True)
class GParams:
    """Volatility band [sigma_lower_sq, sigma_upper_sq] (variance rates)."""

    sigma_lower_sq: float
    sigma_upper_sq: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.sigma_lower_sq <= self.sigma_upper_sq):
            raise ValueError(
                f"need 0 <= sigma_lower_sq <= sigma_upper_sq, got "
                f"[{self.sigma_lower_sq}, {self.sigma_upper_sq}]"
            )
        if self.sigma_upper_sq <= 0.0:
            raise ValueError("sigma_upper_sq must be positive")


def g_eval(alpha, params: GParams):
    """G(alpha) = (sigma_up^2 * alpha+ - sigma_lo^2 * alpha-) / 2.

    Equals max over sigma^2 in the band of sigma^2 * alpha / 2.  Accepts
    scalars or numpy arrays.
    """
    a = np.asarray(alpha, dtype=float)
    out = 0.5 * (
        params.sigma_upper_sq * np.maximum(a, 0.0)
        + params.sigma_lower_sq * np.minimum(a, 0.0)
    )
    if np.ndim(alpha) == 0:
        return float(out)
    return out


def capacity_estimate(prob_per_scenario: Sequence[float]) -> float:
    """Sup over scenarios of the per-scenario probability of an event."""
    probs = np.asarray(prob_per_scenario, dtype=float)
    if probs.size == 0:
        raise ValueError("empty scenario family")
    if np.any((probs < 0.0) | (probs > 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    return float(np.max(probs))


class UsageError(KeyError):
    """The caller gave an unknown name (a policy, a check id) or a value the
    command line cannot take (a non-integer level, a level past the horizon).

    The command line reports it as a usage error (exit code 2); any other
    ``KeyError`` is a bug and is not reported as the caller's mistake.
    """

    def __str__(self):
        return str(self.args[0]) if self.args else ""


class VolatilityPolicy:
    """Per-level choice of variance rate.

    A policy gives ``schedule(n_steps)``, the (n_steps,) row of its variance
    rates, one per level, the same at every node of a level.  The one policy
    that reads the path, ``glattice.LatticePolicy``, is node-indexed instead:
    the sampler looks its choice up with ``sigma_index`` from the paths'
    nodes.
    """

    name = "policy"

    def schedule(self, n_steps: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantPolicy(VolatilityPolicy):
    value: float
    name: str = "const"

    def schedule(self, n_steps):
        return np.full(n_steps, self.value)


@dataclass(frozen=True)
class _LevelPolicy(VolatilityPolicy):
    """Variance rate ``rate(level)`` at every node of a level."""

    rate: Callable[[int], float]
    name: str = "level"

    def schedule(self, n_steps):
        return np.array([self.rate(k) for k in range(n_steps)], dtype=float)


@dataclass(frozen=True)
class ScenarioFamily:
    """Finite stand-in for the measure family: a list of volatility policies.

    Must contain the two constant extreme policies; every policy must stay
    inside the volatility band.
    """

    params: GParams
    scenarios: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.scenarios:
            raise ValueError("empty scenario family")
        values = [
            p.value for p in self.scenarios if isinstance(p, ConstantPolicy)
        ]
        lo, hi = self.params.sigma_lower_sq, self.params.sigma_upper_sq
        if lo not in values or hi not in values:
            raise ValueError(
                "scenario family must contain both constant extreme policies"
            )

    def __iter__(self):
        return iter(self.scenarios)

    def __len__(self):
        return len(self.scenarios)

    def by_name(self, name: str) -> VolatilityPolicy:
        for p in self.scenarios:
            if p.name == name:
                return p
        raise UsageError(f"unknown policy name: {name!r}")


def default_scenario_family(params: GParams) -> ScenarioFamily:
    """Extreme constants, the midpoint constant, and a step-alternating policy."""
    lo, hi = params.sigma_lower_sq, params.sigma_upper_sq

    def alternate(level, lo=lo, hi=hi):
        return hi if int(level) % 2 == 0 else lo

    scenarios = [
        ConstantPolicy(hi, name="const-max"),
        ConstantPolicy(lo, name="const-min"),
        ConstantPolicy(0.5 * (lo + hi), name="const-mid"),
        _LevelPolicy(alternate, "alternating"),
    ]
    return ScenarioFamily(params=params, scenarios=tuple(scenarios))
