"""Explicit monotone finite-difference solver for the nonlinear heat equation
dt u = G(dxx u) with payoff initial data.

The scheme is forward Euler in time with central second differences in space;
the generator G of :func:`gexpect.gcore.g_eval` is applied nodewise.  One
march advances a stack of rows, one per payoff, in place.  Boundary
nodes use a linear extension (second difference forced to zero), which is
exact for affine data and a good truncation for polynomial-growth payoffs on
a wide enough box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gcore import GParams
from .payoff import PayoffExpr, eval_expr

__all__ = [
    "Grid1D",
    "GridFunction",
    "make_grid",
    "solve_gheat",
    "gnormal_expect",
    "gnormal_expect_many",
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

    ``nx`` must be odd, so that the middle node sits at x = 0.  The time step
    is the largest CFL-stable one that divides ``t`` evenly.
    """
    if t < 0:
        raise ValueError("horizon must be nonnegative")
    _require_origin_node(nx)
    x_span = 6.0 * math.sqrt(params.sigma_upper_sq * max(t, 1e-12))
    dx = 2.0 * x_span / (nx - 1)
    dt_max = dx**2 / (params.sigma_upper_sq * cfl_safety)
    nt = max(int(math.ceil(t / dt_max)), 1) if t > 0 else 0
    dt = t / nt if nt > 0 else dt_max
    return Grid1D(x_min=-x_span, x_max=x_span, nx=nx, dt=dt, nt=nt)


def _require_origin_node(nx: int) -> None:
    if nx % 2 == 0:
        raise ValueError(f"nx must be odd so that a grid node sits at x = 0, "
                         f"got nx={nx}")


def _initial_values(phi: PayoffExpr, x: np.ndarray) -> np.ndarray:
    vals = np.asarray(eval_expr(phi, [x]), dtype=float)
    return np.broadcast_to(vals, x.shape).copy()


def _march(u: np.ndarray, nt: int, dt: float, dx: float, params: GParams,
           check_each_step: bool = False) -> None:
    """March every row of the (rows, nx) stack ``u`` through ``nt`` steps of
    u <- u + dt * G(D2 u), in place.

    Each step performs the one-row update ``u + dt * g_eval(d2, params)``,
    with d2 = ((u[2:] - 2 u[1:-1]) + u[:-2]) / dx^2 inside and 0 at both
    ends, operation for operation into preallocated buffers, so every row
    keeps the bits of a march of its own.  Scalars are 0-d arrays, which numpy
    takes faster than Python floats.  With ``check_each_step`` a step that
    leaves a non-finite value raises FloatingPointError naming it.
    """
    two, half, zero = np.array(2.0), np.array(0.5), np.array(0.0)
    hi, lo = np.array(params.sigma_upper_sq), np.array(params.sigma_lower_sq)
    dt, inv_dx2 = np.array(dt), np.array(1.0 / dx**2)
    d2, up, down = np.zeros((3,) + u.shape)
    inner = d2[:, 1:-1]
    left, mid, right = u[:, :-2], u[:, 1:-1], u[:, 2:]
    mul, sub, add, vmax, vmin = (np.multiply, np.subtract, np.add, np.maximum,
                                 np.minimum)
    for k in range(nt):
        mul(mid, two, out=inner)
        sub(right, inner, out=inner)
        add(inner, left, out=inner)
        mul(inner, inv_dx2, out=inner)
        vmax(d2, zero, out=up)
        mul(up, hi, out=up)
        vmin(d2, zero, out=down)
        mul(down, lo, out=down)
        add(up, down, out=up)
        mul(up, half, out=up)
        mul(up, dt, out=up)
        add(u, up, out=u)
        if check_each_step and not np.isfinite(u).all():
            raise FloatingPointError(f"non-finite values at time step {k}")


def _solve_rows(
    phis: Sequence[PayoffExpr],
    t: float,
    grid: Grid1D,
    params: GParams,
    cfl_safety: float = 2.0,
) -> np.ndarray:
    """u(t, .) on ``grid`` for each payoff in ``phis``, one row each, from a
    single march over the stacked rows."""
    if t < 0:
        raise ValueError("horizon must be nonnegative")
    if t > 0 and not grid.cfl_valid(params, cfl_safety):
        raise ValueError(
            f"CFL violation: dt={grid.dt} exceeds "
            f"dx^2/(sigma_up^2*safety)={grid.dx**2 / (params.sigma_upper_sq * cfl_safety)}"
        )
    nt = int(round(t / grid.dt))
    if abs(nt * grid.dt - t) > 1e-9 * t:
        raise ValueError(
            f"horizon t={t} is not a whole number of grid steps dt={grid.dt}: "
            f"{nt} steps reach t={nt * grid.dt}"
        )
    x = grid.x
    u = np.stack([_initial_values(phi, x) for phi in phis])
    u0 = u.copy()
    _march(u, nt, grid.dt, grid.dx, params)
    if not np.isfinite(u).all():
        # non-finite values absorb under IEEE addition, so the last step shows
        # every blow-up; replay the march checking each step to name the first
        _march(u0, nt, grid.dt, grid.dx, params, check_each_step=True)
    return u


def solve_gheat(
    phi: PayoffExpr,
    t: float,
    grid: Grid1D,
    params: GParams,
    cfl_safety: float = 2.0,
) -> GridFunction:
    """March u^{k+1} = u^k + dt * G(D2 u^k) from u(0,.) = phi up to time t,
    a whole number of the grid's time steps."""
    u = _solve_rows([phi], t, grid, params, cfl_safety)[0]
    return GridFunction(grid=grid, values=u, time=t)


def gnormal_expect_many(
    phis: Sequence[PayoffExpr],
    t: float,
    params: GParams,
    grid: Grid1D | None = None,
    nx: int = 401,
    cfl_safety: float = 2.0,
) -> list[float]:
    """:func:`gnormal_expect` of each payoff in ``phis``, from one march."""
    if grid is None:
        grid = make_grid(t, params, nx=nx, cfl_safety=cfl_safety)
    _require_origin_node(grid.nx)
    u = _solve_rows(phis, t, grid, params, cfl_safety)
    i = int(np.argmin(np.abs(grid.x)))
    return [float(v) for v in u[:, i]]


def gnormal_expect(
    phi: PayoffExpr,
    t: float,
    params: GParams,
    grid: Grid1D | None = None,
    nx: int = 401,
    cfl_safety: float = 2.0,
) -> float:
    """Upper expectation of phi(B_t) via the PDE backend: u(t, 0).  The grid
    needs an odd ``nx``, so that a node sits at x = 0."""
    return gnormal_expect_many([phi], t, params, grid, nx, cfl_safety)[0]
