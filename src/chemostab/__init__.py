"""Simulator and stability-criterion engine for a chemotaxis-growth system.

The package integrates the coupled population/chemical system with
no-flux boundaries, heterogeneous logistic growth, and a nonlocal
(total-mass) competition term, and evaluates the averaged decay threshold
whose negativity certifies a unique, globally attracting entire solution.
"""

__version__ = "0.1.0"

from .coefficients import (
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
    PositivityBudgetError,
    StepRejected,
    StepSizeUnderflowError,
    TBackInsufficientError,
)
from .experiments import (
    EntireSolution,
    FitResult,
    GapSeries,
    GronwallResult,
    PersistenceEstimate,
    approximate_entire_solution,
    band_entry_time,
    estimate_persistence,
    fit_decay_rate,
    gronwall_check,
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
from .model import ModelParams, ModelState, reaction_values, split_terms
from .stability import (
    ConvexBound,
    HypothesisVerdict,
    KnownConstants,
    StabilityReport,
    check_H3,
    decay_terms,
    estimate_theta,
    hypotheses,
)
from .stepper import RunStats, StepperConfig, Trajectory, fixed_step_run, run, step

__all__ = [name for name in dir() if not name.startswith("_")]
