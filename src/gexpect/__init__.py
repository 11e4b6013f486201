"""Numerical engine for sublinear expectations of functionals of paths with
uncertain volatility: a nonlinear-PDE backend, an exact adversarial lattice
backend, a discrete stochastic-calculus layer, and a theorem verifier.
"""

from .config import RunConfig, load_config
from .gcore import (
    ConstantPolicy,
    GParams,
    ScenarioFamily,
    VolatilityPolicy,
    capacity_estimate,
    default_scenario_family,
    g_eval,
)
from .gheat import Grid1D, GridFunction, gnormal_expect, make_grid, solve_gheat
from .glattice import (
    ConditionalTable,
    CylinderFunctional,
    Lattice,
    LatticePolicy,
    PathEnsemble,
    build_lattice,
    conditional_expect,
    conditional_tables,
    extract_worst_policy,
    lattice_expect,
    sample_paths,
)
from .payoff import eval_expr, parse, to_str
from .stochastic import (
    StepProcess,
    g_compensated,
    ito_integral,
    mg_norm,
    quadratic_variation,
)
from .verifier import CHECKS, VerificationReport, run_suite

__version__ = "0.1.0"
