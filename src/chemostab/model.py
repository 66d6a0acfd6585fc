"""Semi-discrete right-hand sides of the chemotaxis-growth system.

The population density u obeys

    u_t = lap(u) - chi * div(u grad v) + u * (a0 - a1*u - a2 * total_mass(u))

and the chemical density v obeys, in method-of-lines form,

    v_t = (lap(v) - lam*v + mu*u) / tau

with no-flux boundaries on both. The nonlocal factor ``total_mass`` uses the
same trapezoid quadrature as all diagnostics, so the mass identity below is
exact by construction rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .errors import GridMismatchError
from .grid import (
    Field,
    Grid,
    chemotaxis_divergence,
    integrate,
    integrate_values,
    laplacian_neumann,
)

__all__ = [
    "ModelParams", "ModelState", "rhs_u", "rhs_v", "reaction_u", "reaction_values", "mass_rate",
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


def reaction_u(state: ModelState, coeffs: CoefficientSet) -> Field:
    """Growth/competition term of the population equation, as a Field."""
    if coeffs.grid != state.grid:
        raise GridMismatchError("coefficients and state live on different grids")
    return Field(state.grid, reaction_values(state.grid, state.u.values, state.t, coeffs))


def rhs_u(state: ModelState, coeffs: CoefficientSet, params: ModelParams) -> Field:
    """Full population right-hand side: diffusion + drift + reaction."""
    lap = laplacian_neumann(state.u)
    drift = chemotaxis_divergence(state.u, state.v, params.chi)
    react = reaction_u(state, coeffs)
    return Field(state.grid, lap.values + drift.values + react.values)


def rhs_v(state: ModelState, params: ModelParams) -> Field:
    """Chemical right-hand side (lap(v) - lam*v + mu*u) / tau."""
    lap = laplacian_neumann(state.v)
    out = (lap.values - params.lam * state.v.values + params.mu * state.u.values) / params.tau
    return Field(state.grid, out)


def mass_rate(
    state: ModelState, coeffs: CoefficientSet, params: ModelParams
) -> tuple[float, float]:
    """Reaction-only mass rates.

    Diffusion and drift integrate to zero under the no-flux boundary, so
    the first entry equals integrate(rhs_u) up to round-off; the second is
    the tau-scaled chemical rate -lam*mass(v) + mu*mass(u), which equals
    tau * integrate(rhs_v).
    """
    du_mass = integrate(reaction_u(state, coeffs))
    dv_mass = -params.lam * integrate(state.v) + params.mu * integrate(state.u)
    return du_mass, dv_mass
