"""Exception hierarchy shared across the package: the CLI exits 1 on a
:class:`ConfigError` and 2 on any other :class:`ChemostabError`."""

from __future__ import annotations


class ChemostabError(Exception):
    """Base class for every package-specific error."""


class GridMismatchError(ChemostabError, ValueError):
    """Operands live on different grids, or sample times are misaligned."""


class CoefficientRangeError(ChemostabError, ValueError):
    """Evaluation time outside a tabulated range with clamping disabled."""


class StepRejected(ChemostabError):
    """Internal signal: a trial step left the admissible region."""


class StepSizeUnderflowError(ChemostabError, RuntimeError):
    """The adaptive controller was pushed below dt_min.

    Carries the last accepted state for post-mortem inspection.
    """

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


class PositivityBudgetError(ChemostabError, RuntimeError):
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
