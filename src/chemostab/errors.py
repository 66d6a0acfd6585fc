"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ChemostabError(Exception):
    """Base class for every package-specific error."""


class GridMismatchError(ChemostabError, ValueError):
    """Operands live on different grids, or sample times are misaligned."""


class CoefficientRangeError(ChemostabError, ValueError):
    """Evaluation time outside a tabulated range with clamping disabled."""


class HypothesisFailure(ChemostabError, ValueError):
    """A closed-form constant was requested outside its validity region.

    ``inequality`` names the inequality that failed.
    """

    def __init__(self, message: str, inequality: str):
        super().__init__(message)
        self.inequality = inequality


class StepRejected(ChemostabError):
    """Internal signal: a trial step left the admissible region."""


class StepSizeUnderflowError(ChemostabError, RuntimeError):
    """The adaptive controller was pushed below dt_min.

    Carries the last accepted state for post-mortem inspection.
    """

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


class SolverError(ChemostabError, RuntimeError):
    """Fatal numerical failure that retrying with a smaller step cannot fix."""


class PositivityBudgetError(SolverError):
    """Cumulative clamped mass exceeded the per-run budget."""


class TBackInsufficientError(ChemostabError, RuntimeError):
    """Pullback horizon too short: seed-independence gap above tolerance."""

    def __init__(self, message: str, gap: float, tolerance: float):
        super().__init__(message)
        self.gap = gap
        self.tolerance = tolerance


class ConfigError(ChemostabError, ValueError):
    """Invalid configuration; the message names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key
        self.message = message
