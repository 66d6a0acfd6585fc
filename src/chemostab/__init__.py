"""Simulator and stability-criterion engine for a chemotaxis-growth system.

The package integrates the coupled population/chemical system with
no-flux boundaries, heterogeneous logistic growth, and a nonlocal
(total-mass) competition term, and evaluates the averaged decay threshold
whose negativity certifies a unique, globally attracting entire solution.
"""

__version__ = "0.1.0"

from .coefficients import (
    CallableCoefficient,
    CoefficientSet,
    ConstantCoefficient,
    SeparableCoefficient,
    TabulatedCoefficient,
    TimeFactor,
    spatial_profile,
    validate_roles,
)
from .errors import (
    ChemostabError,
    ConfigError,
    CoefficientRangeError,
    GridMismatchError,
    HypothesisFailure,
    ObserverError,
    PositivityBudgetError,
    SolverError,
    StepRejected,
    StepSizeUnderflowError,
    TBackInsufficientError,
)
from .experiments import (
    BoundsEstimate,
    EntireSolution,
    FitResult,
    GapSeries,
    GronwallResult,
    PersistenceEstimate,
    approximate_entire_solution,
    estimate_bounds,
    estimate_persistence,
    fit_decay_rate,
    gronwall_check,
    gronwall_check_series,
    measure_constants,
    trajectory_gap,
)
from .grid import (
    Field,
    Grid,
    chemotaxis_values,
    gradient_neumann,
    integrate_values,
    laplacian_values,
    norms,
    w2inf_norm,
)
from .model import ModelParams, ModelState, mass_rate, reaction_values, rhs_u, rhs_v
from .stability import (
    ConvexBound,
    HypothesisVerdict,
    KnownConstants,
    StabilityReport,
    band_perturbation_gain,
    check_H1,
    check_H2,
    check_H3,
    compute_L1,
    compute_L2,
    compute_M2_convex,
    decay_integrand,
    estimate_theta,
    report_to_csv,
)
from .stepper import RunStats, StepperConfig, Trajectory, fixed_step_run, run, step

__all__ = [name for name in dir() if not name.startswith("_")]
