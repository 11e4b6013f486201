"""Explicit monotone finite-difference solver for the nonlinear heat equation
dt u = G(dxx u) with payoff initial data.

The scheme is forward Euler in time with central second differences in space;
the generator is applied nodewise via :func:`gexpect.gcore.g_eval`.  Boundary
nodes use a linear extension (second difference forced to zero), which is
exact for affine data and a good truncation for polynomial-growth payoffs on
a wide enough box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gcore import GParams, g_eval
from .payoff import PayoffExpr, eval_expr

__all__ = [
    "Grid1D",
    "GridFunction",
    "make_grid",
    "solve_gheat",
    "gnormal_expect",
]


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    nx: int
    dt: float
    nt: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("need x_min < x_max")
        if self.nx < 3:
            raise ValueError("need nx >= 3")
        if self.dt <= 0 or self.nt < 0:
            raise ValueError("need dt > 0 and nt >= 0")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def cfl_valid(self, params: GParams, safety: float = 2.0) -> bool:
        return self.dt <= self.dx**2 / (params.sigma_upper_sq * safety) + 1e-15


@dataclass(frozen=True)
class GridFunction:
    grid: Grid1D
    values: np.ndarray
    time: float


def make_grid(
    t: float,
    params: GParams,
    nx: int = 401,
    cfl_safety: float = 2.0,
) -> Grid1D:
    """Grid wide enough for horizon ``t``: half-width 6*sqrt(sigma_up^2 * t).

    The time step is the largest CFL-stable one that divides ``t`` evenly.
    """
    if t < 0:
        raise ValueError("horizon must be nonnegative")
    x_span = 6.0 * math.sqrt(params.sigma_upper_sq * max(t, 1e-12))
    dx = 2.0 * x_span / (nx - 1)
    dt_max = dx**2 / (params.sigma_upper_sq * cfl_safety)
    nt = max(int(math.ceil(t / dt_max)), 1) if t > 0 else 0
    dt = t / nt if nt > 0 else dt_max
    return Grid1D(x_min=-x_span, x_max=x_span, nx=nx, dt=dt, nt=nt)


def _initial_values(phi: PayoffExpr, x: np.ndarray) -> np.ndarray:
    vals = np.asarray(eval_expr(phi, [x]), dtype=float)
    return np.broadcast_to(vals, x.shape).copy()


def solve_gheat(
    phi: PayoffExpr,
    t: float,
    grid: Grid1D,
    params: GParams,
    cfl_safety: float = 2.0,
) -> GridFunction:
    """March u^{k+1} = u^k + dt * G(D2 u^k) from u(0,.) = phi up to time t."""
    if t < 0:
        raise ValueError("horizon must be nonnegative")
    if t > 0 and not grid.cfl_valid(params, cfl_safety):
        raise ValueError(
            f"CFL violation: dt={grid.dt} exceeds "
            f"dx^2/(sigma_up^2*safety)={grid.dx**2 / (params.sigma_upper_sq * cfl_safety)}"
        )
    x = grid.x
    u = _initial_values(phi, x)
    if t == 0:
        return GridFunction(grid=grid, values=u, time=0.0)
    nt = int(round(t / grid.dt))
    d2 = np.zeros_like(u)
    inv_dx2 = 1.0 / grid.dx**2
    for k in range(nt):
        d2[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) * inv_dx2
        d2[0] = 0.0
        d2[-1] = 0.0
        u = u + grid.dt * g_eval(d2, params)
        if not np.all(np.isfinite(u)):
            raise FloatingPointError(f"non-finite values at time step {k}")
    return GridFunction(grid=grid, values=u, time=t)


def gnormal_expect(
    phi: PayoffExpr,
    t: float,
    params: GParams,
    grid: Grid1D | None = None,
    nx: int = 401,
    cfl_safety: float = 2.0,
) -> float:
    """Upper expectation of phi(B_t) via the PDE backend: u(t, 0)."""
    if grid is None:
        grid = make_grid(t, params, nx=nx, cfl_safety=cfl_safety)
    sol = solve_gheat(phi, t, grid, params, cfl_safety=cfl_safety)
    x = grid.x
    i = int(np.argmin(np.abs(x)))
    return float(sol.values[i])
