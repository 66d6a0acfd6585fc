"""Heterogeneous growth/competition coefficients and their envelopes.

A coefficient is a scalar function of time and space evaluated on a grid.
The configuration-facing family is deliberately small and declarative:

* ``constant`` -- one number;
* ``separable`` -- a closed-form time factor (constant, sinusoid, or
  exponential decay to a limit) times a spatial profile sampled on the grid;
* ``tabulated`` -- grid samples at increasing time knots, linearly
  interpolated in time.

Library callers may additionally inject arbitrary evaluators through
:class:`CallableCoefficient`, which satisfies the same contract but only
supports sampled (nested, monotone-in-refinement) global envelopes.

Spatial infima/suprema are taken over grid nodes, an inner approximation of
the continuum envelope that is consistent with the discretized dynamics.
``envelope(t)`` reads them at a whole array of times in one call and returns
``(inf, sup)`` arrays shaped like ``t``; a scalar ``t`` gives 0-d arrays.
All-time envelopes are taken over a caller-declared window; for periodic
time factors one period is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoefficientRangeError
from .grid import Field, Grid

__all__ = [
    "TimeFactor",
    "CoefficientSpec",
    "ConstantCoefficient",
    "SeparableCoefficient",
    "TabulatedCoefficient",
    "CallableCoefficient",
    "CoefficientSet",
    "spatial_profile",
    "validate_roles",
]


@dataclass(frozen=True)
class TimeFactor:
    """Closed family of time factors for separable coefficients.

    ``constant``: g(t) = value
    ``sinusoid``: g(t) = offset + amplitude * sin(frequency * t + phase)
    ``expdecay``: g(t) = limit + amplitude * exp(-rate * t)
    """

    form: str
    value: float = 1.0
    offset: float = 0.0
    amplitude: float = 0.0
    frequency: float = 1.0
    phase: float = 0.0
    limit: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if self.form not in ("constant", "sinusoid", "expdecay"):
            raise ValueError(f"unknown time factor form {self.form!r}")
        if self.form == "sinusoid" and self.frequency < 0.0:
            raise ValueError("sinusoid frequency must be nonnegative")

    def __call__(self, t):
        if self.form == "constant":
            return self.value * np.ones_like(np.asarray(t, dtype=float))
        if self.form == "sinusoid":
            return self.offset + self.amplitude * np.sin(
                self.frequency * np.asarray(t, dtype=float) + self.phase
            )
        return self.limit + self.amplitude * np.exp(
            -self.rate * np.asarray(t, dtype=float)
        )

    @property
    def period(self) -> float | None:
        """Fundamental period, or None when aperiodic or constant in t."""
        if self.form == "sinusoid" and self.amplitude != 0.0 and self.frequency > 0.0:
            return 2.0 * math.pi / self.frequency
        return None

    def extrema_on(self, t0: float, t1: float) -> tuple[float, float]:
        """Exact (min, max) of g over [t0, t1]."""
        if self.form == "constant":
            return self.value, self.value
        ts = [t0, t1]
        if self.form == "sinusoid":
            if self.frequency == 0.0 or self.amplitude == 0.0:
                val = float(self(t0))
                return val, val
            # interior critical points: frequency*t + phase = pi/2 + k*pi
            k_lo = math.ceil((self.frequency * t0 + self.phase - math.pi / 2) / math.pi)
            k_hi = math.floor((self.frequency * t1 + self.phase - math.pi / 2) / math.pi)
            for k in range(k_lo, k_hi + 1):
                ts.append((math.pi / 2 + k * math.pi - self.phase) / self.frequency)
        vals = [float(self(t)) for t in ts]
        return min(vals), max(vals)


class CoefficientSpec:
    """Common contract for coefficient kinds.

    ``role`` is the coefficient index: 0 for intrinsic growth, 1 for local
    competition, 2 for the nonlocal (total-mass) term.
    """

    kind = "abstract"

    def __init__(self, grid: Grid, role: int):
        if role not in (0, 1, 2):
            raise ValueError(f"role must be 0, 1, or 2, got {role}")
        self.grid = grid
        self.role = role

    def eval(self, t: float) -> Field:
        raise NotImplementedError

    def envelope(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Spatial (inf, sup) at grid nodes for each time in ``t`` (a scalar or
        an array); both results are float arrays shaped like ``t``."""
        ts = np.asarray(t, dtype=float)
        bounds = [(f.min(), f.max()) for f in map(self.eval, ts.flat)]
        lo, hi = np.array(bounds).T.reshape((2,) + ts.shape)
        return lo, hi

    def global_envelope(
        self, t_window: tuple[float, float], n_samples: int = 65
    ) -> tuple[float, float]:
        """(inf, sup) over the window and the whole domain.

        Exact for the constant, separable, and tabulated kinds; sampled with
        a nested dyadic rule otherwise, so refining ``n_samples`` can only
        widen the result.
        """
        t0, t1 = _check_window(t_window, n_samples)
        return self._global_envelope(t0, t1, n_samples)

    def _global_envelope(self, t0, t1, n_samples):
        raise NotImplementedError

    @property
    def period(self) -> float | None:
        return None

    @property
    def regularity_note(self) -> str | None:
        """Set when the coefficient is less regular than the closed family."""
        return None


def _check_window(t_window, n_samples) -> tuple[float, float]:
    t0, t1 = float(t_window[0]), float(t_window[1])
    if not t1 > t0:
        raise ValueError(f"empty time window [{t0}, {t1}]")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    return t0, t1


class ConstantCoefficient(CoefficientSpec):
    kind = "constant"

    def __init__(self, grid: Grid, role: int, value: float):
        super().__init__(grid, role)
        self.value = float(value)
        self._field = Field.constant(grid, self.value)  # immutable, safe to share

    def eval(self, t: float) -> Field:
        return self._field

    def envelope(self, t) -> tuple[np.ndarray, np.ndarray]:
        values = np.full(np.shape(t), self.value)
        return values, values

    def _global_envelope(self, t0, t1, n_samples):
        return self.value, self.value


class SeparableCoefficient(CoefficientSpec):
    """g(t) * h(x) with g from the closed family and h sampled on the grid."""

    kind = "separable"

    def __init__(self, grid: Grid, role: int, time: TimeFactor, space: Field):
        super().__init__(grid, role)
        if space.grid != grid:
            raise ValueError("spatial profile lives on a different grid")
        self.time = time
        self.space = space

    def eval(self, t: float) -> Field:
        return Field(self.grid, float(self.time(t)) * self.space.values)

    def envelope(self, t) -> tuple[np.ndarray, np.ndarray]:
        # Rounding g*h is monotone in h, so the nodal extremes of g(t)*h are
        # exactly the products with min h and max h.
        g = self.time(t)
        at_lo, at_hi = g * self.space.min(), g * self.space.max()
        if not (np.isfinite(at_lo).all() and np.isfinite(at_hi).all()):
            raise ValueError("field contains non-finite values")
        return np.minimum(at_lo, at_hi), np.maximum(at_lo, at_hi)

    def _global_envelope(self, t0, t1, n_samples):
        period = self.time.period
        if period is not None and (t1 - t0) >= period:
            g_lo, g_hi = self.time.extrema_on(t0, t0 + period)
        else:
            g_lo, g_hi = self.time.extrema_on(t0, t1)
        h_lo, h_hi = self.space.min(), self.space.max()
        products = [g_lo * h_lo, g_lo * h_hi, g_hi * h_lo, g_hi * h_hi]
        return min(products), max(products)

    @property
    def period(self) -> float | None:
        return self.time.period


class TabulatedCoefficient(CoefficientSpec):
    """Grid samples at strictly increasing time knots, linear in t.

    Outside the knot range, evaluation clamps to the nearest knot when
    ``clamp`` is set and raises :class:`CoefficientRangeError` otherwise.
    Clamped evaluations are flagged on the instance.
    """

    kind = "tabulated"

    def __init__(self, grid: Grid, role: int, knots, tables, clamp: bool = True):
        super().__init__(grid, role)
        knots = np.asarray(knots, dtype=float)
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("need at least two time knots")
        if not np.all(np.diff(knots) > 0.0):
            raise ValueError("time knots must be strictly increasing")
        arrays = []
        for k, tab in enumerate(tables):
            arr = np.asarray(tab, dtype=float)
            if arr.size != grid.node_count:
                raise ValueError(f"table {k} has {arr.size} samples, grid has {grid.node_count}")
            arrays.append(arr.reshape(grid.counts))
        if len(arrays) != knots.size:
            raise ValueError("one table per knot required")
        self.knots = knots
        self.tables = arrays
        self.clamp = bool(clamp)
        self.clamped_evals = 0

    def eval(self, t: float) -> Field:
        t = float(t)
        if t < self.knots[0] or t > self.knots[-1]:
            if not self.clamp:
                raise CoefficientRangeError(
                    f"t={t} outside tabulated range [{self.knots[0]}, {self.knots[-1]}]"
                )
            self.clamped_evals += 1
            t = min(max(t, self.knots[0]), self.knots[-1])
        i = int(np.searchsorted(self.knots, t, side="right") - 1)
        i = min(max(i, 0), self.knots.size - 2)
        t_lo, t_hi = self.knots[i], self.knots[i + 1]
        s = (t - t_lo) / (t_hi - t_lo)
        return Field(self.grid, (1.0 - s) * self.tables[i] + s * self.tables[i + 1])

    def _global_envelope(self, t0, t1, n_samples):
        # Linear interpolation attains its extremes at knots (or clamped
        # window endpoints), so evaluating there is exact.
        inner = self.knots[(self.knots > t0) & (self.knots < t1)]
        lo, hi = self.envelope(np.concatenate(([t0, t1], inner)))
        return float(lo.min()), float(hi.max())

    @property
    def regularity_note(self) -> str | None:
        return "tabulated coefficient: only Lipschitz in t (finite-window estimate)"


class CallableCoefficient(CoefficientSpec):
    """Caller-supplied evaluator ``fn(t) -> array of grid samples``."""

    kind = "callable"

    def __init__(self, grid: Grid, role: int, fn, period: float | None = None):
        super().__init__(grid, role)
        self.fn = fn
        self._period = period

    def eval(self, t: float) -> Field:
        return Field(self.grid, np.asarray(self.fn(float(t)), dtype=float).reshape(self.grid.counts))

    def _global_envelope(self, t0, t1, n_samples):
        # Nested dyadic samples: doubling the request reuses every previous
        # sample point, so refinement can only widen the envelope.
        m = 1
        while m + 1 < n_samples:
            m *= 2
        lo, hi = self.envelope(np.linspace(t0, t1, m + 1))
        return float(lo.min()), float(hi.max())

    @property
    def period(self) -> float | None:
        return self._period

    @property
    def regularity_note(self) -> str | None:
        return "caller-supplied coefficient: envelopes are sampled estimates"


@dataclass(frozen=True)
class CoefficientSet:
    """The coefficient triple (growth, local competition, nonlocal term)."""

    a0: CoefficientSpec
    a1: CoefficientSpec
    a2: CoefficientSpec

    def __post_init__(self):
        if not (self.a0.grid == self.a1.grid == self.a2.grid):
            raise ValueError("coefficients must share one grid")

    @property
    def grid(self) -> Grid:
        return self.a0.grid

    @property
    def volume(self) -> float:
        return self.grid.volume

    def regularity_notes(self) -> tuple[str, ...]:
        notes = []
        for name, spec in (("a0", self.a0), ("a1", self.a1), ("a2", self.a2)):
            note = spec.regularity_note
            if note:
                notes.append(f"{name}: {note}")
        return tuple(notes)


def spatial_profile(grid: Grid, profile: str, **params) -> Field:
    """Build a named spatial profile on the grid.

    Profiles: ``constant`` (value), ``linear-ramp`` (start, stop, axis),
    ``sine`` (offset, amplitude, mode, axis, phase), ``gaussian-bump``
    (baseline, amplitude, center, width).
    """
    coords = grid.coords()
    if profile == "constant":
        return Field.constant(grid, params.get("value", 1.0))
    if profile == "linear-ramp":
        axis = int(params.get("axis", 0))
        start = float(params.get("start", 0.0))
        stop = float(params.get("stop", 1.0))
        x = coords[axis]
        return Field(grid, start + (stop - start) * x / grid.extents[axis])
    if profile == "sine":
        axis = int(params.get("axis", 0))
        offset = float(params.get("offset", 0.0))
        amplitude = float(params.get("amplitude", 1.0))
        mode = float(params.get("mode", 1.0))
        phase = float(params.get("phase", 0.0))
        x = coords[axis]
        return Field(
            grid, offset + amplitude * np.sin(mode * math.pi * x / grid.extents[axis] + phase)
        )
    if profile == "gaussian-bump":
        baseline = float(params.get("baseline", 0.0))
        amplitude = float(params.get("amplitude", 1.0))
        width = float(params.get("width", 0.1))
        center = params.get("center", tuple(e / 2 for e in grid.extents))
        if np.isscalar(center):
            center = (float(center),) * grid.dim
        r2 = np.zeros(grid.counts)
        for x, c in zip(coords, center):
            r2 = r2 + (x - float(c)) ** 2
        return Field(grid, baseline + amplitude * np.exp(-r2 / (2.0 * width * width)))
    raise ValueError(f"unknown spatial profile {profile!r}")


def validate_roles(
    coeffs: CoefficientSet,
    t_window: tuple[float, float],
    n_samples: int = 65,
    require_positive_growth: bool = False,
) -> None:
    """Enforce the sign conventions the theory needs from each role.

    Local competition must have a positive all-time infimum; intrinsic growth
    must too when persistence experiments are requested.
    """
    a1_inf, _ = coeffs.a1.global_envelope(t_window, n_samples)
    if not a1_inf > 0.0:
        raise ValueError(
            f"local competition coefficient must have positive infimum, got {a1_inf}"
        )
    if require_positive_growth:
        a0_inf, _ = coeffs.a0.global_envelope(t_window, n_samples)
        if not a0_inf > 0.0:
            raise ValueError(
                f"growth coefficient must have positive infimum for persistence runs, got {a0_inf}"
            )
