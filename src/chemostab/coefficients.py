"""Heterogeneous growth/competition coefficients and their envelopes.

A coefficient is a scalar function of time and space evaluated on a grid;
``eval(t)`` returns its nodal values as an array shaped like ``grid.counts``.
The configuration-facing family is deliberately small and declarative:

* ``constant`` -- one number;
* ``separable`` -- a closed-form time factor (constant, sinusoid, or
  exponential decay to a limit) times a spatial profile sampled on the grid;
* ``tabulated`` -- grid samples at increasing time knots, linearly
  interpolated in time.

Library callers may additionally inject arbitrary evaluators through
:class:`CallableCoefficient`, which satisfies the same contract but only
supports sampled global envelopes.

Spatial infima/suprema are taken over grid nodes, an inner approximation of
the continuum envelope that is consistent with the discretized dynamics.
``envelope(t)`` reads them at a whole array of times in one call and returns
``(inf, sup)`` arrays shaped like ``t``; a scalar ``t`` gives 0-d arrays.
All-time envelopes are taken over a caller-declared window; for periodic
time factors one period is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .errors import ChemostabError, CoefficientRangeError, ConfigError
from .grid import Field, Grid, require_finite

__all__ = [
    "TimeFactor",
    "CoefficientSpec",
    "ConstantCoefficient",
    "SeparableCoefficient",
    "TabulatedCoefficient",
    "CallableCoefficient",
    "CoefficientSet",
    "INITIAL_PROFILES",
    "SPATIAL_PROFILES",
    "build_profile_field",
    "spatial_profile",
    "validate_roles",
]


@dataclass(frozen=True)
class TimeFactor:
    """Closed family of time factors for separable coefficients.

    ``constant``: g(t) = value
    ``sinusoid``: g(t) = offset + amplitude * sin(frequency * t + phase)
    ``expdecay``: g(t) = limit + amplitude * exp(-rate * t)

    ``PARAMS`` names each form's parameters (its config keys): finite, and a
    sinusoid's frequency nonnegative.  A bad value raises ConfigError keyed by its field.
    """

    PARAMS: ClassVar[dict[str, tuple[str, ...]]] = {
        "constant": ("value",),
        "sinusoid": ("offset", "amplitude", "frequency", "phase"),
        "expdecay": ("limit", "amplitude", "rate"),
    }

    form: str
    value: float = 1.0
    offset: float = 0.0
    amplitude: float = 0.0
    frequency: float = 1.0
    phase: float = 0.0
    limit: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if not isinstance(self.form, str) or self.form not in self.PARAMS:
            raise ConfigError("form", f"unknown time form {self.form!r}")
        for name in self.PARAMS[self.form]:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(name, "must be finite")
        if self.form == "sinusoid" and self.frequency < 0.0:
            raise ConfigError("frequency", f"must be nonnegative, got {self.frequency}")

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

    def extreme_times(self, t0: float, t1: float) -> list[float]:
        """Times at which g attains its min and max over [t0, t1]; a window
        longer than one period is cut to its first period."""
        if self.form == "expdecay":  # monotone
            return [t0, t1]
        period = self.period
        if period is None:  # constant in t
            return [t0]
        if t1 - t0 >= period:
            t1 = t0 + period
        # interior critical points: frequency*t + phase = pi/2 + k*pi
        k_lo = math.ceil((self.frequency * t0 + self.phase - math.pi / 2) / math.pi)
        k_hi = math.floor((self.frequency * t1 + self.phase - math.pi / 2) / math.pi)
        return [t0, t1, *((math.pi / 2 + k * math.pi - self.phase) / self.frequency
                          for k in range(k_lo, k_hi + 1))]


class CoefficientSpec:
    """Common contract for coefficient kinds; the ``CoefficientSet`` slot a
    coefficient fills (a0, a1 or a2) is its role."""

    def __init__(self, grid: Grid):
        self.grid = grid

    def eval(self, t: float) -> np.ndarray:
        """Nodal values at ``t``, shaped like ``grid.counts``; calls may share
        the array, so do not write to it.  A non-finite value raises ValueError."""
        raise NotImplementedError

    def envelope(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Spatial (inf, sup) at grid nodes for each time in ``t`` (a scalar or
        an array); both results are float arrays shaped like ``t``."""
        ts = np.asarray(t, dtype=float)
        bounds = [(f.min(), f.max()) for f in map(self.eval, ts.flat)]
        lo, hi = np.array(bounds).T.reshape((2,) + ts.shape)
        return lo, hi

    def global_envelope(self, t_window: tuple[float, float]) -> tuple[float, float]:
        """(inf, sup) over the window and the domain: ``envelope`` at ``_extreme_times``.

        Exact for the constant, separable, and tabulated kinds; sampled at
        evenly spaced times otherwise.  A non-finite value raises ValueError.
        """
        t0, t1 = float(t_window[0]), float(t_window[1])
        if not t1 > t0:
            raise ValueError(f"empty time window [{t0}, {t1}]")
        lo, hi = self.envelope(np.array(self._extreme_times(t0, t1)))
        return float(lo.min()), float(hi.max())

    def _extreme_times(self, t0: float, t1: float):
        """Times in [t0, t1] at which the envelope attains its extremes there."""
        raise NotImplementedError

    @property
    def regularity_note(self) -> str | None:
        """Set when the coefficient is less regular than the closed family."""
        return None


class ConstantCoefficient(CoefficientSpec):
    def __init__(self, grid: Grid, value: float):
        super().__init__(grid)
        self.value = float(value)
        self._values = np.full(grid.counts, self.value)
        self._values.flags.writeable = False  # one array, shared by every eval

    def eval(self, t: float) -> np.ndarray:
        return self._values

    def envelope(self, t) -> tuple[np.ndarray, np.ndarray]:
        values = np.full(np.shape(t), self.value)
        return values, values

    def _extreme_times(self, t0, t1):
        return [t0]


class SeparableCoefficient(CoefficientSpec):
    """g(t) * h(x) with g from the closed family and h sampled on the grid."""

    def __init__(self, grid: Grid, time: TimeFactor, space: Field):
        super().__init__(grid)
        if space.grid != grid:
            raise ValueError("spatial profile lives on a different grid")
        self.time = time
        self.space = space

    def eval(self, t: float) -> np.ndarray:
        return require_finite(float(self.time(t)) * self.space.values)

    def envelope(self, t) -> tuple[np.ndarray, np.ndarray]:
        # Rounding g*h is monotone in h, so the nodal extremes of g(t)*h are
        # exactly the products with min h and max h.
        g = self.time(t)
        at_lo = require_finite(g * self.space.min())
        at_hi = require_finite(g * self.space.max())
        return np.minimum(at_lo, at_hi), np.maximum(at_lo, at_hi)

    def _extreme_times(self, t0, t1):
        # g*h is monotone in g at each node, so its extremes lie at g's
        return self.time.extreme_times(t0, t1)


class TabulatedCoefficient(CoefficientSpec):
    """Grid samples at strictly increasing time knots, linear in t.

    Outside the knot range, evaluation clamps to the nearest knot when
    ``clamp`` is set and raises :class:`CoefficientRangeError` otherwise.
    Clamped evaluations are flagged on the instance.
    """

    def __init__(self, grid: Grid, knots, tables, clamp: bool = True):
        super().__init__(grid)
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
            arrays.append(require_finite(arr.reshape(grid.counts)))
        if len(arrays) != knots.size:
            raise ValueError("one table per knot required")
        self.knots = knots
        self.tables = arrays
        self.clamp = bool(clamp)
        self.clamped_evals = 0

    def eval(self, t: float) -> np.ndarray:
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
        return require_finite((1.0 - s) * self.tables[i] + s * self.tables[i + 1])

    def _extreme_times(self, t0, t1):
        # Linear interpolation attains its extremes at knots (or clamped
        # window endpoints), so evaluating there is exact.
        return np.concatenate(([t0, t1], self.knots[(self.knots > t0) & (self.knots < t1)]))

    @property
    def regularity_note(self) -> str | None:
        return "tabulated coefficient: only Lipschitz in t (finite-window estimate)"


class CallableCoefficient(CoefficientSpec):
    """Caller-supplied evaluator ``fn(t) -> array of grid samples``."""

    def __init__(self, grid: Grid, fn):
        super().__init__(grid)
        self.fn = fn

    def eval(self, t: float) -> np.ndarray:
        return require_finite(np.asarray(self.fn(float(t)), dtype=float).reshape(self.grid.counts))

    def _extreme_times(self, t0, t1):
        return np.linspace(t0, t1, 65)

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


# --- named profiles: each declared once, as an array builder and its
# parameters' defaults (whose keys are the accepted keys).  Initial data and
# spatial factors have separate name tables; ``constant`` defaults differ.


class Profile(NamedTuple):
    build: Callable[..., np.ndarray]
    defaults: dict


def _constant(grid: Grid, value) -> np.ndarray:
    return np.full(grid.counts, float(value))


def _linear_ramp(grid: Grid, start, stop, axis) -> np.ndarray:
    x = grid.coords()[axis]
    return start + (stop - start) * x / grid.extents[axis]


def _sine(grid: Grid, offset, amplitude, mode, axis, phase) -> np.ndarray:
    x = grid.coords()[axis]
    return offset + amplitude * np.sin(mode * math.pi * x / grid.extents[axis] + phase)


def _cosine(grid: Grid, baseline, amplitude, mode, axis) -> np.ndarray:
    x = grid.coords()[axis]
    return baseline + amplitude * np.cos(mode * math.pi * x / grid.extents[axis])


def _bump(grid: Grid, baseline, amplitude, center, width) -> np.ndarray:
    center = np.broadcast_to([e / 2 for e in grid.extents] if center is None else center, grid.dim)
    r2 = sum((x - c) ** 2 for x, c in zip(grid.coords(), center))
    return baseline + amplitude * np.exp(-r2 / (2.0 * width * width))


def _random_positive(grid: Grid, low, high, seed) -> np.ndarray:
    if not 0.0 <= low < high:
        raise ValueError(f"need 0 <= low < high, got {low}, {high}")
    return np.random.default_rng(seed).uniform(low, high, size=grid.counts)


def _read_file(grid: Grid, path) -> np.ndarray:
    if path is None:
        raise ConfigError("path", "required")
    try:
        return require_finite(np.loadtxt(path, delimiter=",").reshape(grid.counts))
    except (OSError, ValueError) as exc:
        raise ConfigError("path", f"cannot read {path}: {exc}") from exc


_BUMP = Profile(_bump, {"baseline": 0.0, "amplitude": 1.0, "center": None, "width": 0.1})

INITIAL_PROFILES = {
    "constant": Profile(_constant, {"value": 0.0}),
    "bump": _BUMP,
    "cosine": Profile(_cosine, {"baseline": 1.0, "amplitude": 0.5, "mode": 1, "axis": 0}),
    "random-positive": Profile(_random_positive, {"low": 0.1, "high": 1.0, "seed": 0}),
    "file": Profile(_read_file, {"path": None}),
}

SPATIAL_PROFILES = {
    "constant": Profile(_constant, {"value": 1.0}),
    "linear-ramp": Profile(_linear_ramp, {"start": 0.0, "stop": 1.0, "axis": 0}),
    "sine": Profile(_sine, {"offset": 0.0, "amplitude": 1.0, "mode": 1, "axis": 0, "phase": 0.0}),
    "gaussian-bump": _BUMP,
}


def build_profile_field(grid: Grid, block: dict, key: str, seed_override: int | None = None,
                        table: dict = INITIAL_PROFILES) -> Field:
    """The block ``{profile: name, ...}`` of ``table`` on the grid, unset parameters at
    their defaults.  Errors name ``key`` (``initial.u``) or the parameter at fault.  A
    ``seed_override`` is mixed with the declared ``seed``, so distinct seeds stay distinct.
    """
    name = block["profile"]
    if name not in table:
        raise ConfigError(f"{key}.profile", f"unknown profile {name!r}")
    build, defaults = table[name]
    p = {**defaults, **{k: v for k, v in block.items() if k != "profile"}}
    if "axis" in p:
        if p["axis"] not in range(grid.dim):
            raise ConfigError(f"{key}.axis", f"must be 0 to {grid.dim - 1}, got {p['axis']!r}")
        p["axis"] = int(p["axis"])
    center = p.get("center")
    if center is not None and not np.isscalar(center) and len(center) != grid.dim:
        raise ConfigError(f"{key}.center", f"expected {grid.dim} numbers, got {len(center)}")
    if seed_override is not None and "seed" in p:
        p["seed"] = [seed_override, p["seed"]]
    try:
        # a degenerate parameter (a NaN value, a zero width) gives non-finite values
        with np.errstate(all="ignore"):
            return Field(grid, build(grid, **p))
    except ConfigError as exc:  # a builder's, keyed by its parameter
        raise ConfigError(f"{key}.{exc.key}", exc.message) from exc
    except ValueError as exc:
        raise ConfigError(key, f"{name} profile: {exc}") from exc


def spatial_profile(grid: Grid, profile: str, **params) -> Field:
    """A named spatial profile (a key of ``SPATIAL_PROFILES``); errors name it ``space``."""
    return build_profile_field(grid, {"profile": profile, **params}, "space", table=SPATIAL_PROFILES)


def validate_roles(
    coeffs: CoefficientSet,
    t_window: tuple[float, float],
    require_positive_growth: bool = False,
) -> None:
    """Enforce the sign conventions the theory needs from each role.

    Local competition must have a positive all-time infimum; intrinsic growth
    must too when persistence experiments are requested.  A failure or a
    non-finite envelope raises ConfigError keyed by the slot (``a1``, ``a0``).
    """
    rules = [("a1", "local competition coefficient must have positive infimum")]
    if require_positive_growth:
        rules.append(("a0", "growth coefficient must have positive infimum for persistence runs"))
    for slot, rule in rules:
        try:
            inf, _ = getattr(coeffs, slot).global_envelope(t_window)
        except ChemostabError:  # a tabulated range error is a runtime error
            raise
        except ValueError as exc:
            raise ConfigError(slot, str(exc)) from exc
        if not inf > 0.0:
            raise ConfigError(slot, f"{rule}, got {inf}")
