"""Semi-discrete right-hand sides of the chemotaxis-growth system.

The population density u obeys

    u_t = lap(u) - chi * div(u grad v) + u * (a0 - a1*u - a2 * total_mass(u))

and the chemical density v obeys, in method-of-lines form,

    v_t = (lap(v) - lam*v + mu*u) / tau

with no-flux boundaries on both. The nonlocal factor ``total_mass`` uses the
same trapezoid quadrature as all diagnostics, and diffusion and drift sum to
zero under its weights, so the u-mass changes only by the reaction's integral.

Each term is defined once, as an array kernel, in the split the IMEX stepper
marches: the implicit-linear part ``lap(u)`` and ``(lap(v) - lam*v)/tau``,
and the explicit part ``-chi*div(u grad v) + reaction`` and ``mu*u/tau``.
Each part is one array stacked like the state, row 0 for u and row 1 for v;
their sum is the full right-hand side f.

A state is a time and one read-only stack ``uv`` of shape ``(2, *shape)``,
whose rows are u and v, on the coefficients' grid (``coeffs.grid``).  The
shape is ``grid.counts``, or ``(K, *grid.counts)`` with a leading batch axis:
K members at one time, each its own solution (see ``stepper.run``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSet
from .errors import ConfigError, GridMismatchError
from .grid import Grid, chemotaxis_values, integrate_values, laplacian_values

__all__ = [
    "ModelParams", "ModelState", "reaction_values", "implicit_part", "explicit_part",
    "split_terms",
]


@dataclass(frozen=True)
class ModelParams:
    """Scalar model parameters.

    chi: chemotactic sensitivity (signed). tau: chemical time constant.
    lam: chemical degradation rate. mu: chemical production rate.
    All are finite and tau, lam, mu positive, and so is the stability
    criterion's constant term mu**2 / (2*lam*tau); a bad value raises
    ConfigError keyed by its config name (``lambda`` for lam), a bad term by
    ``mu`` when mu**2 overflows and by ``tau`` otherwise.  The stability
    hypotheses also want tau <= 1, which the hypothesis checkers report, not
    enforce.
    """

    chi: float
    tau: float
    lam: float
    mu: float

    def __post_init__(self):
        if not np.isfinite(self.chi):
            raise ConfigError("chi", f"must be finite, got {self.chi}")
        for key, val in (("tau", self.tau), ("lambda", self.lam), ("mu", self.mu)):
            if not 0.0 < val < np.inf:
                raise ConfigError(key, f"must be finite and positive, got {val}")
        num, den = self.mu * self.mu, 2.0 * self.lam * self.tau  # as stability.decay_terms
        if not (den > 0.0 and num / den < np.inf):
            raise ConfigError("mu" if num == np.inf else "tau",
                              f"mu**2 / (2*lambda*tau) is not finite for mu={self.mu}, "
                              f"lambda={self.lam}, tau={self.tau}")


# arrays have no single truth value, so states compare by identity (eq=False)
@dataclass(frozen=True, eq=False, init=False)
class ModelState:
    """Time plus the read-only stack ``uv = (u, v)``, shape ``(2, *shape)``; u and v view its rows.

    ``ModelState(t, u, v)`` stacks a copy of two arrays of one shape, and
    :meth:`from_stack` wraps a stack.
    """

    t: float
    uv: np.ndarray
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    def __init__(self, t: float, u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        if u.shape != v.shape:
            raise GridMismatchError(f"u has shape {u.shape} but v has {v.shape}")
        self._set(t, np.stack([u, v]))

    @classmethod
    def from_stack(cls, t: float, uv: np.ndarray) -> "ModelState":
        """The state over ``uv``; a writable stack is copied, out of the caller's reach."""
        state = cls.__new__(cls)
        state._set(t, uv.copy() if uv.flags.writeable else uv)
        return state

    def _set(self, t: float, uv: np.ndarray) -> None:
        uv.flags.writeable = False
        for name, value in (("t", t), ("uv", uv), ("u", uv[0]), ("v", uv[1])):
            object.__setattr__(self, name, value)


def reaction_values(grid: Grid, u: np.ndarray, t: float, coeffs: CoefficientSet) -> np.ndarray:
    """Array kernel u*(a0 - a1*u - a2*total_mass(u)) at time t; zero where u is zero.

    For a batch ``(K, *grid.counts)`` the total mass is each member's own.
    """
    a0, a1, a2 = coeffs.read("eval", t)
    mass = np.expand_dims(integrate_values(grid, u), grid.axes)
    return u * (a0 - a1 * u - a2 * mass)


def implicit_part(grid: Grid, uv: np.ndarray, params: ModelParams) -> np.ndarray:
    """Implicit-linear terms, stacked: ``(lap(u), (lap(v) - lam*v) / tau)``."""
    out = laplacian_values(grid, uv)
    out[1] -= params.lam * uv[1]
    out[1] /= params.tau
    return out


def explicit_part(
    grid: Grid, uv: np.ndarray, t: float, coeffs: CoefficientSet, params: ModelParams
) -> np.ndarray:
    """Explicit terms, stacked: ``(drift + reaction, mu*u / tau)``."""
    u, v = uv
    out = np.empty_like(uv)
    np.add(chemotaxis_values(grid, u, v, params.chi), reaction_values(grid, u, t, coeffs),
           out=out[0])
    np.multiply(params.mu, u, out=out[1])
    out[1] /= params.tau
    return out


def split_terms(
    state: ModelState, coeffs: CoefficientSet, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """The right-hand side at ``state`` in its IMEX split: ``(implicit_part, explicit_part)``."""
    grid = coeffs.grid
    return (implicit_part(grid, state.uv, params),
            explicit_part(grid, state.uv, state.t, coeffs, params))

