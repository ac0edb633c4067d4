"""Numerics for the parabolic infinite Laplacian on step <= 3 Carnot groups.

The package splits into group arithmetic (``groups``), horizontal calculus
and jet twisting (``calculus``), the pointwise h-homogeneous infinite
Laplacian that the scheme's discrete operator is checked against
(``operators``), a monotone semi-Lagrangian solver (``solver``, ``grid``),
verification experiments (``experiments``) and a JSON-config CLI
(``cli``).
"""

from .expressions import ExpressionError, parse_expression
from .fields import ScalarField
from .groups import (
    CarnotGroupSpec,
    GroupSpecError,
    dilate,
    engel_group,
    euclidean_group,
    gauge_distance,
    gauge_norm,
    group_preset,
    heisenberg_group,
    inverse,
    make_group,
    multiply,
)
from .calculus import (
    HorizontalFrame,
    Jet,
    PenaltySpec,
    doubling_penalty,
    field_jet,
    frame_at,
    horizontal_gradient,
    semi_horizontal_gradient,
    symmetrized_hessian,
    twist_jet,
)
from .operators import DegenerateGradientError, infinity_laplacian
from .grid import GridFunction, GridSpec
from .solver import (
    Binding,
    CauchyDirichletProblem,
    Scheme,
    SolveResult,
    SolverConfig,
    SolverError,
    Stack,
    march,
    solve_elliptic_steady,
    solve_parabolic,
    solve_to_steady,
)
from .experiments import EXPERIMENTS, ExperimentReport, run_experiment

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
