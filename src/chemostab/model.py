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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .errors import GridMismatchError
from .grid import Field, Grid, chemotaxis_values, integrate_values, laplacian_values

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


@dataclass(frozen=True)
class ModelState:
    """Time plus the (u, v) field pair."""

    t: float
    u: Field
    v: Field

    def __post_init__(self):
        if self.u.grid != self.v.grid:
            raise GridMismatchError("u and v live on different grids")

    @property
    def grid(self):
        return self.u.grid


def reaction_values(grid: Grid, u: np.ndarray, t: float, coeffs: CoefficientSet) -> np.ndarray:
    """Array kernel u*(a0 - a1*u - a2*total_mass(u)) at time t; zero where u is zero."""
    a0, a1, a2 = (c.eval(t).values for c in (coeffs.a0, coeffs.a1, coeffs.a2))
    return u * (a0 - a1 * u - a2 * integrate_values(grid, u))


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
    grid = state.grid
    u = state.u.values
    v = state.v.values
    return (
        laplacian_values(grid, u),
        linear_v(grid, v, params),
        explicit_u(grid, u, v, state.t, coeffs, params),
        explicit_v(u, params),
    )


def rhs_u(state: ModelState, coeffs: CoefficientSet, params: ModelParams) -> Field:
    """Full population right-hand side: diffusion + drift + reaction."""
    lap_u, _, exp_u, _ = split_terms(state, coeffs, params)
    return Field(state.grid, lap_u + exp_u)


def rhs_v(state: ModelState, params: ModelParams) -> Field:
    """Chemical right-hand side (lap(v) - lam*v + mu*u) / tau."""
    grid = state.grid
    return Field(grid, linear_v(grid, state.v.values, params) + explicit_v(state.u.values, params))


def mass_rate(
    state: ModelState, coeffs: CoefficientSet, params: ModelParams
) -> tuple[float, float]:
    """Reaction-only mass rates.

    Diffusion and drift integrate to zero under the no-flux boundary, so
    the first entry equals the integral of rhs_u up to round-off; the second
    is the tau-scaled chemical rate -lam*mass(v) + mu*mass(u), which equals
    tau times the integral of rhs_v.
    """
    grid = state.grid
    u = state.u.values
    du_mass = integrate_values(grid, reaction_values(grid, u, state.t, coeffs))
    dv_mass = (-params.lam * integrate_values(grid, state.v.values)
               + params.mu * integrate_values(grid, u))
    return du_mass, dv_mass
