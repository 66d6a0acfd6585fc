"""Semi-discrete right-hand sides of the chemotaxis-growth system.

The population density u obeys

    u_t = lap(u) - chi * div(u grad v) + u * (a0 - a1*u - a2 * total_mass(u))

and the chemical density v obeys, in method-of-lines form,

    v_t = (lap(v) - lam*v + mu*u) / tau

with no-flux boundaries on both. The nonlocal factor ``total_mass`` uses the
same trapezoid quadrature as all diagnostics, so the mass identity below is
exact by construction rather than approximate.

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
from .errors import GridMismatchError
from .grid import Grid, chemotaxis_values, integrate_values, laplacian_values

__all__ = [
    "ModelParams", "ModelState", "reaction_values", "implicit_part", "explicit_part",
    "split_terms", "mass_rate",
]


@dataclass(frozen=True)
class ModelParams:
    """Scalar model parameters.

    chi: chemotactic sensitivity (signed). tau: chemical time constant.
    lam: chemical degradation rate. mu: chemical production rate.
    tau, lam, mu must be positive; the stability hypotheses additionally
    want tau <= 1, which is reported by the hypothesis checkers rather than
    enforced here.
    """

    chi: float
    tau: float
    lam: float
    mu: float

    def __post_init__(self):
        for name in ("chi", "tau", "lam", "mu"):
            val = getattr(self, name)
            if not np.isfinite(val):
                raise ValueError(f"{name} must be finite")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.lam <= 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.mu <= 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")


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
    a0, a1, a2 = (c.eval(t) for c in (coeffs.a0, coeffs.a1, coeffs.a2))
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


def mass_rate(
    state: ModelState, coeffs: CoefficientSet, params: ModelParams
) -> tuple[float, float]:
    """Reaction-only mass rates.

    Diffusion and drift integrate to zero under the no-flux boundary, so
    the first entry equals the integral of f's u row (f the two parts of
    ``split_terms`` summed) up to round-off; the second is the tau-scaled
    chemical rate -lam*mass(v) + mu*mass(u), tau times that of f's v row.
    """
    grid = coeffs.grid
    u = state.u
    du_mass = integrate_values(grid, reaction_values(grid, u, state.t, coeffs))
    dv_mass = (-params.lam * integrate_values(grid, state.v)
               + params.mu * integrate_values(grid, u))
    return du_mass, dv_mass
