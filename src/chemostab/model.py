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
``rhs_u`` and ``rhs_v`` are sums of those same terms.

A state is a time and two read-only nodal arrays; the grid they live on is
the coefficients' grid (``coeffs.grid``), passed where no coefficients are.
The arrays may carry a leading batch axis, ``(K, *grid.counts)``: K members
at one time, each its own solution (see ``stepper.run``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .errors import GridMismatchError
from .grid import Grid, chemotaxis_values, integrate_values, laplacian_values

__all__ = [
    "ModelParams", "ModelState", "reaction_values", "linear_v", "explicit_u", "explicit_v",
    "split_terms", "rhs_u", "rhs_v", "mass_rate",
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


@dataclass(frozen=True, eq=False)  # arrays have no single truth value, so states compare by identity
class ModelState:
    """Time plus the nodal arrays u and v: read-only float arrays of one shape.

    The shape is ``grid.counts``, or ``(K, *grid.counts)`` for a batch of K members.
    """

    t: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("u", "v"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.flags.writeable:  # copied, so later writes by the caller cannot reach it
                arr = arr.copy()
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.u.shape != self.v.shape:
            raise GridMismatchError(f"u has shape {self.u.shape} but v has {self.v.shape}")


def reaction_values(grid: Grid, u: np.ndarray, t: float, coeffs: CoefficientSet) -> np.ndarray:
    """Array kernel u*(a0 - a1*u - a2*total_mass(u)) at time t; zero where u is zero.

    For a batch ``(K, *grid.counts)`` the total mass is each member's own.
    """
    a0, a1, a2 = (c.eval(t) for c in (coeffs.a0, coeffs.a1, coeffs.a2))
    mass = np.expand_dims(integrate_values(grid, u), grid.axes)
    return u * (a0 - a1 * u - a2 * mass)


def linear_v(grid: Grid, v: np.ndarray, params: ModelParams) -> np.ndarray:
    """Implicit-linear chemical term (lap(v) - lam*v) / tau."""
    return (laplacian_values(grid, v) - params.lam * v) / params.tau


def explicit_u(
    grid: Grid, u: np.ndarray, v: np.ndarray, t: float,
    coeffs: CoefficientSet, params: ModelParams,
) -> np.ndarray:
    """Explicit population term: drift plus reaction."""
    return chemotaxis_values(grid, u, v, params.chi) + reaction_values(grid, u, t, coeffs)


def explicit_v(u: np.ndarray, params: ModelParams) -> np.ndarray:
    """Explicit chemical term mu*u / tau."""
    return params.mu * u / params.tau


def split_terms(
    state: ModelState, coeffs: CoefficientSet, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The right-hand side at ``state`` in its IMEX split.

    Returns ``(lap(u), linear_v, explicit_u, explicit_v)``; the implicit
    population term is the Laplacian itself.
    """
    grid = coeffs.grid
    u, v = state.u, state.v
    return (
        laplacian_values(grid, u),
        linear_v(grid, v, params),
        explicit_u(grid, u, v, state.t, coeffs, params),
        explicit_v(u, params),
    )


def rhs_u(state: ModelState, coeffs: CoefficientSet, params: ModelParams) -> np.ndarray:
    """Full population right-hand side: diffusion + drift + reaction."""
    lap_u, _, exp_u, _ = split_terms(state, coeffs, params)
    return lap_u + exp_u


def rhs_v(grid: Grid, state: ModelState, params: ModelParams) -> np.ndarray:
    """Chemical right-hand side (lap(v) - lam*v + mu*u) / tau."""
    return linear_v(grid, state.v, params) + explicit_v(state.u, params)


def mass_rate(
    state: ModelState, coeffs: CoefficientSet, params: ModelParams
) -> tuple[float, float]:
    """Reaction-only mass rates.

    Diffusion and drift integrate to zero under the no-flux boundary, so
    the first entry equals the integral of rhs_u up to round-off; the second
    is the tau-scaled chemical rate -lam*mass(v) + mu*mass(u), which equals
    tau times the integral of rhs_v.
    """
    grid = coeffs.grid
    u = state.u
    du_mass = integrate_values(grid, reaction_values(grid, u, state.t, coeffs))
    dv_mass = (-params.lam * integrate_values(grid, state.v)
               + params.mu * integrate_values(grid, u))
    return du_mass, dv_mass
