"""Adaptive IMEX time integration.

One step treats diffusion implicitly with a theta-weighted scheme (theta = 1
is backward Euler, theta = 0.5 is trapezoidal) and the chemotaxis drift plus
growth terms explicitly.  The chemical decay term joins the implicit solve:
it is linear and keeps the implicit operator an M-matrix.  For theta < 1 a
single corrector pass re-solves with theta-weighted explicit terms, which
restores second order at theta = 0.5 on the flat reduction.

Step control is classic step-doubling (one full step against two halves)
with error-per-unit-step acceptance, so halving the tolerance roughly halves
the realized global error.  An advective guard dt <= safety * h / max|chi
grad v| caps the explicit drift; diffusion needs no guard because it is
implicit.  Positivity is protected by rejection: values below
-1e-12 * state scale reject the step, values inside that band are clamped to
the floor and the clamped mass is charged against a per-run budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coefficients import CoefficientSet
from .errors import (
    ObserverError,
    PositivityBudgetError,
    StepRejected,
    StepSizeUnderflowError,
)
from .grid import Field, Grid, gradient_neumann, integrate_values, w2inf_norm
from .implicit import solve_shifted
from .model import ModelParams, ModelState, explicit_u, explicit_v, split_terms

__all__ = [
    "StepperConfig",
    "RunStats",
    "Trajectory",
    "step",
    "run",
    "fixed_step_run",
    "advective_dt_limit",
]

_NEG_BAND = 1.0e-12        # relative width of the clamp band below zero
_CLAMP_BUDGET = 1.0e-8     # clamped mass allowed per run, relative to max mass


@dataclass(frozen=True)
class StepperConfig:
    """Tuning knobs for the adaptive march."""

    dt_init: float = 1.0e-3
    dt_min: float = 1.0e-12
    dt_max: float = 0.25
    safety: float = 0.8
    positivity_floor: float = 0.0
    theta_scheme: float = 0.5
    error_tol: float = 1.0e-6

    def __post_init__(self):
        if not (self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError(
                f"need dt_min <= dt_init <= dt_max, got {self.dt_min}, {self.dt_init}, {self.dt_max}"
            )
        if not (0.0 < self.safety < 1.0):
            raise ValueError(f"safety must be in (0, 1), got {self.safety}")
        if not (0.5 <= self.theta_scheme <= 1.0):
            raise ValueError(f"theta_scheme must be in [0.5, 1], got {self.theta_scheme}")
        if not 0.0 < self.error_tol < math.inf:
            raise ValueError("error_tol must be finite and positive")
        if not 0.0 <= self.positivity_floor < math.inf:
            raise ValueError("positivity_floor must be finite and nonnegative")

    @property
    def design_order(self) -> int:
        return 2 if self.theta_scheme < 1.0 else 1


@dataclass
class RunStats:
    """Counters accumulated over one run."""

    accepted: int = 0
    rejected_error: int = 0
    rejected_positivity: int = 0
    clamped_mass_u: float = 0.0
    clamped_mass_v: float = 0.0
    clamped_nodes: int = 0
    min_dt: float = math.inf
    max_dt: float = 0.0

    def merge_clamps(self, other: "RunStats") -> None:
        self.clamped_mass_u += other.clamped_mass_u
        self.clamped_mass_v += other.clamped_mass_v
        self.clamped_nodes += other.clamped_nodes


@dataclass
class Trajectory:
    """States sampled at requested times plus scalar diagnostics series."""

    grid: Grid
    times: np.ndarray
    states: list[ModelState]
    mass_u: np.ndarray
    mass_v: np.ndarray
    min_u: np.ndarray
    sup_u: np.ndarray
    w2inf_v: np.ndarray
    stats: RunStats

    def __len__(self) -> int:
        return len(self.states)

    def state_at(self, t: float) -> ModelState:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1.0e-9 * max(1.0, abs(t)):
            raise KeyError(f"no sample at t={t}")
        return self.states[idx]

    @property
    def final(self) -> ModelState:
        return self.states[-1]


def _clamp_negatives(
    vals: np.ndarray, scale: float, floor: float, grid: Grid, label: str
) -> tuple[np.ndarray, float, int]:
    worst = float(vals.min())
    if worst >= 0.0:
        return vals, 0.0, 0
    if worst < -_NEG_BAND * scale:
        raise StepRejected(f"{label} fell to {worst} (band {-_NEG_BAND * scale})", worst)
    mask = vals < 0.0
    clamped_mass = float(np.sum(grid.weights[mask] * (-vals[mask])))
    out = vals.copy()
    out[mask] = floor
    return out, clamped_mass, int(mask.sum())


def step(
    state: ModelState,
    dt: float,
    coeffs: CoefficientSet,
    params: ModelParams,
    cfg: StepperConfig,
    stats: RunStats | None = None,
    terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> ModelState:
    """Advance one IMEX step of size dt.

    ``terms`` are the t_n terms ``model.split_terms(state, coeffs, params)``;
    they depend on the state alone, not on dt, so every step from one state
    can share them.  They are computed here when not given.

    Raises :class:`StepRejected` when the result leaves the admissible
    region (negative beyond the clamp band, or non-finite); the caller is
    expected to retry with a smaller step.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    theta = cfg.theta_scheme
    t = state.t
    u = state.u.values
    v = state.v.values
    tau, lam = params.tau, params.lam

    if terms is None:
        terms = split_terms(state, coeffs, params)
    lap_u, lin_v, eu_n, ev_n = terms

    a_v = 1.0 + theta * dt * lam / tau
    b_v = theta * dt / tau

    def solve_pair(exp_u: np.ndarray, exp_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rhs_u_lin = u + dt * (1.0 - theta) * lap_u + dt * exp_u
        rhs_v_lin = v + dt * (1.0 - theta) * lin_v + dt * exp_v
        u_new = solve_shifted(grid, 1.0, theta * dt, rhs_u_lin)
        v_new = solve_shifted(grid, a_v, b_v, rhs_v_lin)
        return u_new, v_new

    u_new, v_new = solve_pair(eu_n, ev_n)

    if theta < 1.0:
        if not (np.isfinite(u_new).all() and np.isfinite(v_new).all()):
            raise StepRejected("predictor produced non-finite values")
        u_star = np.maximum(u_new, 0.0)
        v_star = np.maximum(v_new, 0.0)
        eu_s = explicit_u(grid, u_star, v_star, t + dt, coeffs, params)
        ev_s = explicit_v(u_star, params)
        u_new, v_new = solve_pair(
            (1.0 - theta) * eu_n + theta * eu_s,
            (1.0 - theta) * ev_n + theta * ev_s,
        )

    if not (np.isfinite(u_new).all() and np.isfinite(v_new).all()):
        raise StepRejected("step produced non-finite values")

    scale = max(1.0, float(np.abs(u).max()), float(np.abs(v).max()))
    u_new, cu, nu = _clamp_negatives(u_new, scale, cfg.positivity_floor, grid, "u")
    v_new, cv, nv = _clamp_negatives(v_new, scale, cfg.positivity_floor, grid, "v")
    if stats is not None:
        stats.clamped_mass_u += cu
        stats.clamped_mass_v += cv
        stats.clamped_nodes += nu + nv

    # finite (checked above) and clamped to a finite floor
    return ModelState(t + dt, Field(grid, u_new, check=False), Field(grid, v_new, check=False))


def advective_dt_limit(state: ModelState, params: ModelParams, cfg: StepperConfig) -> float:
    """Safety-scaled CFL bound h / max|chi grad v| for the explicit drift."""
    if params.chi == 0.0:
        return math.inf
    limit = math.inf
    grads = gradient_neumann(state.grid, state.v.values)
    for h, g in zip(state.grid.spacing, grads):
        speed = abs(params.chi) * float(np.abs(g).max())
        if speed > 0.0:
            limit = min(limit, h / speed)
    return cfg.safety * limit


def _err_norm(a: ModelState, b: ModelState) -> float:
    eu = float(np.abs(a.u.values - b.u.values).max()) / (1.0 + float(np.abs(b.u.values).max()))
    ev = float(np.abs(a.v.values - b.v.values).max()) / (1.0 + float(np.abs(b.v.values).max()))
    return max(eu, ev)


def run(
    state0: ModelState,
    t_end: float,
    coeffs: CoefficientSet,
    params: ModelParams,
    cfg: StepperConfig,
    observers: Sequence[Callable[[ModelState], None]] = (),
    sample_times: Sequence[float] | None = None,
    sample_dt: float | None = None,
) -> Trajectory:
    """March adaptively from state0.t to t_end, sampling along the way.

    Sample times default to 200 evenly spaced points (or ``sample_dt``
    spacing); an explicit ``sample_times`` sequence overrides both and is
    honored exactly, which is what aligned multi-run comparisons rely on.
    A zero-length run returns the single initial sample.
    """
    t0 = state0.t
    if t_end < t0:
        raise ValueError(f"t_end={t_end} precedes start time {t0}")
    if float(state0.u.min()) < 0.0 or float(state0.v.min()) < 0.0:
        raise ValueError("initial data must be nonnegative")

    if sample_times is not None:
        samples = np.asarray(sorted(float(s) for s in sample_times), dtype=float)
        if samples.size == 0:
            raise ValueError("sample_times must be nonempty")
        if samples[0] < t0 - 1e-12 or samples[-1] > t_end + 1e-12:
            raise ValueError("sample_times must lie within [t0, t_end]")
    elif t_end == t0:
        samples = np.array([t0])
    else:
        if sample_dt is None:
            sample_dt = (t_end - t0) / 200.0
        n = max(1, int(round((t_end - t0) / sample_dt)))
        samples = np.linspace(t0, t_end, n + 1)

    stats = RunStats()
    recorded: list[ModelState] = []
    diag = {"mass_u": [], "mass_v": [], "min_u": [], "sup_u": [], "w2inf_v": []}

    def record(st: ModelState) -> None:
        recorded.append(st)
        diag["mass_u"].append(integrate_values(st.grid, st.u.values))
        diag["mass_v"].append(integrate_values(st.grid, st.v.values))
        diag["min_u"].append(st.u.min())
        diag["sup_u"].append(float(np.abs(st.u.values).max()))
        diag["w2inf_v"].append(w2inf_norm(st.grid, st.v.values))
        for obs in observers:
            try:
                obs(st)
            except Exception as exc:  # noqa: BLE001 - context added, then re-raised
                raise ObserverError(f"observer {obs!r} failed at t={st.t}: {exc}", st.t) from exc

    next_idx = 0
    state = state0
    tiny = 1e-12 * max(1.0, abs(t0), abs(t_end))
    while next_idx < samples.size and samples[next_idx] <= t0 + tiny:
        record(state)
        next_idx += 1

    dt = cfg.dt_init
    order = cfg.design_order
    terms = None  # t_n terms of `state`, shared by its attempts
    while state.t < t_end - tiny:
        dt = min(dt, cfg.dt_max)
        guard = advective_dt_limit(state, params, cfg)
        dt_candidate = min(dt, guard)
        if dt_candidate < cfg.dt_min and (t_end - state.t) > cfg.dt_min:
            raise StepSizeUnderflowError(
                f"advective guard {guard} pushed dt below dt_min at t={state.t}", state
            )
        # land exactly on the next sample / final time
        target = samples[next_idx] if next_idx < samples.size else t_end
        remaining = target - state.t
        hit = dt_candidate >= remaining - tiny
        dt_try = remaining if hit else dt_candidate

        local = RunStats()
        if terms is None:
            terms = split_terms(state, coeffs, params)
        try:
            big = step(state, dt_try, coeffs, params, cfg, terms=terms)
            half = step(state, 0.5 * dt_try, coeffs, params, cfg, stats=local, terms=terms)
            fine = step(half, 0.5 * dt_try, coeffs, params, cfg, stats=local)
            err = _err_norm(big, fine) / (2.0**order - 1.0)
        except StepRejected:
            stats.rejected_positivity += 1
            dt = max(0.25 * dt_try, cfg.dt_min)
            if dt_try <= cfg.dt_min * (1.0 + 1e-9):
                raise StepSizeUnderflowError(
                    f"positivity rejection at dt_min, t={state.t}", state
                ) from None
            continue

        tol = cfg.error_tol * dt_try
        if err <= tol:
            stats.accepted += 1
            stats.merge_clamps(local)
            stats.min_dt = min(stats.min_dt, dt_try)
            stats.max_dt = max(stats.max_dt, dt_try)
            state = ModelState(target, fine.u, fine.v) if hit else fine
            terms = None
            while next_idx < samples.size and samples[next_idx] <= state.t + tiny:
                record(ModelState(float(samples[next_idx]), state.u, state.v))
                next_idx += 1
            ratio = tol / err if err > 0.0 else 1e6
            dt = dt_try * min(5.0, max(0.2, cfg.safety * ratio ** (1.0 / (order + 1))))
            if hit:
                # clipping to a sample time should not shrink the controller
                dt = max(dt, dt_candidate)
        else:
            stats.rejected_error += 1
            if dt_try <= cfg.dt_min * (1.0 + 1e-9):
                raise StepSizeUnderflowError(
                    f"error control stuck at dt_min (err={err}), t={state.t}", state
                )
            ratio = tol / err
            dt = dt_try * min(0.5, max(0.1, cfg.safety * ratio ** (1.0 / (order + 1))))
        dt = max(dt, cfg.dt_min)

    if next_idx < samples.size:
        # t_end reached within tolerance; flush any remaining samples
        while next_idx < samples.size:
            record(ModelState(float(samples[next_idx]), state.u, state.v))
            next_idx += 1

    traj = Trajectory(
        grid=state0.grid,
        times=np.array([s.t for s in recorded]),
        states=recorded,
        mass_u=np.array(diag["mass_u"]),
        mass_v=np.array(diag["mass_v"]),
        min_u=np.array(diag["min_u"]),
        sup_u=np.array(diag["sup_u"]),
        w2inf_v=np.array(diag["w2inf_v"]),
        stats=stats,
    )
    _check_clamp_budget(traj)
    return traj


def _check_clamp_budget(traj: Trajectory) -> None:
    peak_mass = float(traj.mass_u.max()) if traj.mass_u.size else 0.0
    budget = _CLAMP_BUDGET * max(peak_mass, 1e-300)
    total = traj.stats.clamped_mass_u + traj.stats.clamped_mass_v
    if peak_mass > 0.0 and total > budget:
        raise PositivityBudgetError(
            f"clamped mass {total} exceeds budget {budget} ({traj.stats.clamped_nodes} nodes)"
        )


def fixed_step_run(
    state0: ModelState,
    t_end: float,
    n_steps: int,
    coeffs: CoefficientSet,
    params: ModelParams,
    cfg: StepperConfig,
) -> ModelState:
    """March with n_steps equal steps and no error control (refinement studies)."""
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    dt = (t_end - state0.t) / n_steps
    state = state0
    for _ in range(n_steps):
        state = step(state, dt, coeffs, params, cfg)
    if not math.isclose(state.t, t_end, rel_tol=0.0, abs_tol=1e-9 * max(1.0, abs(t_end))):
        state = ModelState(t_end, state.u, state.v)
    return state
