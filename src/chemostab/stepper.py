"""Adaptive IMEX time integration.

One step treats diffusion implicitly with a theta-weighted scheme (theta = 1
is backward Euler, theta = 0.5 is trapezoidal) and the chemotaxis drift plus
growth terms explicitly.  The chemical decay term joins the implicit solve:
it is linear and keeps the implicit operator an M-matrix.  Every step solves
a predictor with the explicit terms at t_n.  For theta < 1 a corrector, with
the explicit terms weighted theta between t_n and the predictor, is the
result, which restores second order at theta = 0.5; at theta = 1 the
predictor is the result.

The pair (u, v) is marched as one stack, ``ModelState.uv``: each
right-hand side, stage solve, finiteness check, extrapolation, norm and
clamp runs once on it, so an attempt makes 2 solve calls at theta < 1 and 1
at theta = 1, and the stack rounds exactly as two fields (see ``implicit``).

Step control compares the result with an explicit extrapolation of the
full right-hand side f, so each attempt is one ``step()`` and the estimate
costs no solve.  Diffusion and decay are in f, so the estimate sees their
time error as well as that of the explicit terms.  After an accepted step
the extrapolation is the variable-step Adams-Bashforth 2 formula from f at
t_n and at the previous step's start; on the first step of a run it is
forward Euler.  At theta = 0.5 the trapezoidal result minus AB2 is
dt**3 y''' (1 + w) / (4 w), w = dt / dt_prev, while the trapezoidal local
error is -dt**3 y''' / 12, so the scaled difference times w / (3 (1 + w))
estimates the returned corrector's own error, O(dt**3).  At theta > 0.5 the
O(dt**2) error of the result leads the difference, which is the estimate as
it stands.

The step-size policy is one pure function, :func:`control`.  Its test is
per unit step, err <= tol * dt, so halving the tolerance roughly halves the
realized global error; only the forward Euler estimate, O(dt**2), of a
first step at theta = 0.5 is tested per step (err <= tol).  The test is
credited for contraction.  A local error le that lands in a component
decaying at rate rho adds about le / (rho * dt) to the global error instead
of piling up, and this system forgets its initial data: every positive
solution is drawn to the one entire solution.  So :func:`run` measures rho,
the decay rate of the error constant kappa = err / dt**order between
accepted steps, and the test becomes err <= tol * dt * max(1, 0.3 * rho),
never looser than per step (err <= tol).  The credit does not depend on
tol, so the global error stays proportional to it; the extra error is about
0.3 * tol per e-fold of kappa (Shampine, "Tolerance proportionality in ODE
codes", LNM 1386, 1989; Hairer, Norsett and Wanner I, section II.4).  A
fixed round-off floor keeps a tolerance too small to resolve from stalling
the controller; a floored test gets no credit, and an estimate at the floor
resets rho to 0.

An advective guard dt <= safety * h / max|chi grad v| caps the explicit
drift; diffusion needs no guard because it is implicit.  Positivity is
protected by rejection: values below -1e-12 * state scale reject the step,
values inside that band are clamped to zero and the clamped mass is
charged against a per-run budget.

A state may carry a leading batch axis, ``(K, *grid.counts)``: K members
(seeds of one experiment) that share coefficients, grid and time span are
stepped together, so each attempt costs one ``step()`` and one solve per
stage for all of them.  Every member gets the same dt.  The error of an
attempt is the max over members of each member's own scaled estimate, the
advective guard is the min over members, and a member below its own
positivity band rejects the whole attempt.  Clamped mass is counted and
budgeted per member.  An unbatched state is the case without a batch axis
and takes exactly the same path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .coefficients import CoefficientSet
from .errors import (
    ConfigError,
    GridMismatchError,
    PositivityBudgetError,
    StepRejected,
    StepSizeUnderflowError,
)
from .grid import Grid, integrate_values, w2inf_norm
from .implicit import solve_shifted
from .model import ModelParams, ModelState, explicit_part, split_terms

__all__ = [
    "StepperConfig",
    "RunStats",
    "Trajectory",
    "step",
    "control",
    "run",
    "fixed_step_run",
    "advective_dt_limit",
]

_NEG_BAND = 1.0e-12        # relative width of the clamp band below zero
_CLAMP_BUDGET = 1.0e-8     # clamped mass allowed per run, relative to max mass
# error estimates below this are round-off: the extrapolation and the result
# of one step differ by a few ulp of the state even as dt -> 0
_ROUNDOFF_FLOOR = 100.0 * np.finfo(float).eps
# weight of the contraction credit: a step whose error constant decays at rate
# rho is tested against error_tol * dt * max(1, _CREDIT * rho); 0.5 breaks the
# halving of the diffusion error at theta = 0.75
_CREDIT = 0.3


@dataclass(frozen=True)
class StepperConfig:
    """Tuning knobs for the adaptive march; a bad value raises ConfigError keyed by its field.

    ``error_tol`` bounds the error estimate of one step (see :func:`step`)
    relative to the state's size, per unit of model time: the trapezoidal
    local error at ``theta_scheme = 0.5`` (second order), the result's own
    first-order error at ``theta_scheme > 0.5``.  While the estimate's error
    constant decays at a rate rho > 1 / 0.3, the bound per unit time is
    raised by the factor 0.3 * rho, up to ``error_tol`` per step (see
    :func:`control`).  Either way the realized global error scales with it.
    """

    dt_init: float = 1.0e-3
    dt_min: float = 1.0e-12
    dt_max: float = 0.25
    safety: float = 0.8
    theta_scheme: float = 0.5
    error_tol: float = 1.0e-6

    def __post_init__(self):
        if not 0.0 < self.dt_min < math.inf:  # dt_min <= 0 disables run()'s underflow guards
            raise ConfigError("dt_min", f"must be finite and positive, got {self.dt_min}")
        if math.isnan(self.dt_max):
            raise ConfigError("dt_max", "must not be NaN")
        if not (self.dt_min <= self.dt_init <= self.dt_max):
            raise ConfigError(
                "dt_init",
                f"need dt_min <= dt_init <= dt_max, got {self.dt_min}, {self.dt_init}, {self.dt_max}",
            )
        if not (0.0 < self.safety < 1.0):
            raise ConfigError("safety", f"must be in (0, 1), got {self.safety}")
        if not (0.5 <= self.theta_scheme <= 1.0):
            raise ConfigError("theta_scheme", f"must be in [0.5, 1], got {self.theta_scheme}")
        if not 0.0 < self.error_tol < math.inf:
            raise ConfigError("error_tol", "must be finite and positive")

    @property
    def design_order(self) -> int:
        return 2 if self.theta_scheme == 0.5 else 1


@dataclass
class RunStats:
    """Counters accumulated over one run.

    Step counts and the dt range are shared by the members of a batch; the
    clamp counters hold one value per member (``run`` starts them as arrays
    shaped like the batch, 0-d for an unbatched state).
    """

    accepted: int = 0
    rejected_error: int = 0
    rejected_positivity: int = 0
    credited: int = 0  # accepted steps that passed only with the contraction credit
    clamped_mass_u: float | np.ndarray = 0.0
    clamped_mass_v: float | np.ndarray = 0.0
    clamped_nodes: int | np.ndarray = 0
    min_dt: float = math.inf
    max_dt: float = 0.0

    def merge_clamps(self, other: "RunStats") -> None:
        self.clamped_mass_u += other.clamped_mass_u
        self.clamped_mass_v += other.clamped_mass_v
        self.clamped_nodes += other.clamped_nodes


@dataclass
class Trajectory:
    """States sampled at requested times; the diagnostic series derive from them.

    ``u`` and ``v`` are read-only arrays with one sampled state per row,
    shape ``(samples, *state.shape)``.  Each series (``mass_u``, ``mass_v``,
    ``min_u``, ``sup_u``, ``w2inf_v``) holds one value per sample, computed
    on first use.  For a batched run the rows carry the batch axis and each
    series has one column per member, shape ``(samples, K)``;
    :meth:`members` splits it.
    """

    grid: Grid
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray
    stats: RunStats

    def __len__(self) -> int:
        return len(self.times)

    @cached_property  # stacks a copy of the last sample, once
    def final(self) -> ModelState:
        return ModelState(float(self.times[-1]), self.u[-1], self.v[-1])

    @cached_property
    def mass_u(self) -> np.ndarray:
        return integrate_values(self.grid, self.u)

    @cached_property
    def mass_v(self) -> np.ndarray:
        return integrate_values(self.grid, self.v)

    @cached_property
    def min_u(self) -> np.ndarray:
        return self.u.min(axis=self.grid.axes)

    @cached_property
    def sup_u(self) -> np.ndarray:
        return np.abs(self.u).max(axis=self.grid.axes)

    @cached_property
    def w2inf_v(self) -> np.ndarray:
        # blocks of whole samples, at most 2**15 values unless one sample is
        # larger: the stencils of a block need several temporaries of its size
        per = max(1, 2**15 // self.v[0].size)
        return np.concatenate([w2inf_norm(self.grid, self.v[i:i + per])
                               for i in range(0, len(self.v), per)])

    def members(self) -> list["Trajectory"]:
        """Split a batched run into one trajectory per member.

        Each member keeps the shared times and step counts and gets views of
        its own samples and its own clamp counters.
        """
        if self.u.ndim != self.grid.dim + 2:
            raise ValueError("not a batched trajectory")
        stats = self.stats
        return [
            Trajectory(
                grid=self.grid,
                times=self.times,
                u=self.u[:, k],
                v=self.v[:, k],
                stats=replace(
                    stats,
                    clamped_mass_u=float(stats.clamped_mass_u[k]),
                    clamped_mass_v=float(stats.clamped_mass_v[k]),
                    clamped_nodes=int(stats.clamped_nodes[k]),
                ),
            )
            for k in range(self.u.shape[1])
        ]


def _check_shape(state: ModelState, grid: Grid) -> None:
    """The state is a field on ``grid``, or a batch of them on one leading axis."""
    shape = state.u.shape
    if shape[len(shape) - grid.dim:] != grid.counts or len(shape) > grid.dim + 1:
        raise GridMismatchError(
            f"state has shape {shape} but the coefficient grid has {grid.counts}"
        )


def _clamp_negatives(
    uv: np.ndarray, start: np.ndarray, grid: Grid
) -> tuple[np.ndarray, Sequence, Sequence]:
    """Clamp negative values of the stack ``uv`` inside each member's band to zero.

    The band is scaled by the member's largest value in the step's ``start``
    stack.  Returns the values and, per field and member, the clamped mass
    and node count.  A member below its band in either field raises
    :class:`StepRejected`, which rejects the attempt for the whole batch.
    """
    rows = uv.reshape(-1, grid.node_count)  # one row per field and member
    worst = rows.min(axis=1).reshape(2, -1)
    if worst.min() >= 0.0:
        return uv, (0.0, 0.0), (0, 0)
    scale = np.maximum(1.0, np.abs(start).max(axis=grid.axes).max(axis=0))
    band = -_NEG_BAND * np.ravel(scale)
    for label, low in zip("uv", worst):
        k = int(np.argmin(low - band))
        if low[k] < band[k]:
            raise StepRejected(f"{label} fell to {low[k]} (band {band[k]})", float(low[k]))
    weights = grid.weights.ravel()
    mask = rows < 0.0
    fields = uv.shape[: uv.ndim - grid.dim]  # (2, *batch)
    clamped_mass = np.array([np.sum(weights[m] * (-r[m])) for r, m in zip(rows, mask)])
    out = uv.copy()
    out[uv < 0.0] = 0.0
    return out, clamped_mass.reshape(fields), mask.sum(axis=1).reshape(fields)


def _terms(
    state: ModelState, coeffs: CoefficientSet, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The t_n terms of ``state``: the implicit and explicit parts and their sum f."""
    imp, exp = split_terms(state, coeffs, params)
    return imp, exp, imp + exp


def step(
    state: ModelState,
    dt: float,
    coeffs: CoefficientSet,
    params: ModelParams,
    cfg: StepperConfig,
    stats: RunStats | None = None,
    terms: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    history: tuple[np.ndarray, float] | None = None,
) -> tuple[ModelState, float]:
    """Advance one IMEX step of size dt; return the new state and its error estimate.

    A predictor (explicit terms at t_n) and, at theta < 1, a corrector
    (explicit terms weighted theta between t_n and the predictor) each make
    one solve of the stack ``state.uv``; the last of them is the result b.

    The estimate is ``c * max|p - b| / (1 + max|b|)``, each member and field
    scaled by its own max and the max taken over all of them, where p
    extrapolates y_n by the full right-hand side f = implicit + explicit
    part, at no solve.  ``history = (f_prev, dt_prev)`` holds f at the start
    of the previous accepted step and that step's size; with it p is the
    variable-step Adams-Bashforth 2 extrapolation

        p = y_n + dt * ((1 + w/2) * f_n - (w/2) * f_prev),   w = dt / dt_prev,

    and without it (the first step of a run) p is forward Euler.  At
    theta = 0.5 with a history, ``c = w / (3 * (1 + w))`` turns the O(dt**3)
    difference into the trapezoidal local error; otherwise ``c = 1`` and the
    O(dt**2) difference is led by the error of the first-order result.

    ``terms`` are the t_n terms ``(implicit, explicit, f)``, the two parts of
    ``model.split_terms(state, coeffs, params)`` and their sum, shared by
    every step from one state; they are computed here when not given.

    Raises :class:`StepRejected` when the result leaves the admissible
    region (negative beyond the clamp band, or non-finite) or the estimate
    is non-finite; the caller is expected to retry with a smaller step.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = coeffs.grid
    _check_shape(state, grid)
    theta = cfg.theta_scheme
    t, y = state.t, state.uv

    imp, exp_n, f = _terms(state, coeffs, params) if terms is None else terms
    # per field: u solves (I - theta dt Lap), v (1 + theta dt lam/tau) I - (theta dt/tau) Lap
    a = np.array([1.0, 1.0 + theta * dt * params.lam / params.tau])
    b = np.array([theta * dt, theta * dt / params.tau])

    def solve(exp: np.ndarray) -> np.ndarray:
        """The theta-weighted implicit solve with the given explicit terms."""
        y_new = solve_shifted(grid, a, b, y + dt * (1.0 - theta) * imp + dt * exp)
        if not np.isfinite(y_new).all():
            raise StepRejected("step produced non-finite values")
        return y_new

    y_new = solve(exp_n)  # the predictor
    if theta < 1.0:
        exp_s = explicit_part(grid, np.maximum(y_new, 0.0), t + dt, coeffs, params)
        y_new = solve((1.0 - theta) * exp_n + theta * exp_s)

    if history is None:  # w = 0 makes p forward Euler
        f_prev, w, c = f, 0.0, 1.0
    else:
        f_prev, dt_prev = history
        w = dt / dt_prev
        c = w / (3.0 * (1.0 + w)) if theta == 0.5 else 1.0
    p = y + dt * ((1.0 + 0.5 * w) * f - 0.5 * w * f_prev)
    axes = grid.axes
    err = c * float(np.max(np.abs(p - y_new).max(axis=axes)
                           / (1.0 + np.abs(y_new).max(axis=axes))))
    if not math.isfinite(err):
        raise StepRejected("error estimate is non-finite")

    y_new, mass, nodes = _clamp_negatives(y_new, y, grid)
    if stats is not None:
        stats.clamped_mass_u += mass[0]
        stats.clamped_mass_v += mass[1]
        stats.clamped_nodes += nodes[0] + nodes[1]

    # finite (checked above), clamped to zero, and owned by this step
    y_new.flags.writeable = False
    return ModelState.from_stack(t + dt, y_new), err


def advective_dt_limit(
    grid: Grid, state: ModelState, params: ModelParams, cfg: StepperConfig
) -> float:
    """Safety-scaled CFL bound h / max|chi grad v| for the explicit drift (min over members)."""
    if params.chi == 0.0:
        return math.inf
    limit = math.inf
    for axis, h in zip(grid.axes, grid.spacing):
        # central differences (v[i+1] - v[i-1]) / 2h; dividing the largest jump
        # once gives the same max, since division by 2h > 0 is monotone
        v = np.swapaxes(state.v, 0, axis)
        speed = abs(params.chi) * (float(np.abs(v[2:] - v[:-2]).max()) / (2.0 * h))
        if speed > 0.0:
            limit = min(limit, h / speed)
    return cfg.safety * limit


def _estimate_order(first: bool, cfg: StepperConfig) -> int:
    """The power of dt that :func:`step`'s estimate scales with."""
    return 3 if cfg.design_order == 2 and not first else 2


def control(
    err: float | None, dt_try: float, first: bool, cfg: StepperConfig, rho: float = 0.0
) -> tuple[bool, float]:
    """The step-size policy: whether an attempt of ``dt_try`` passes, and the next dt to try.

    ``err`` is :func:`step`'s estimate, or None for an attempt that raised
    :class:`StepRejected`; ``first`` says that no accepted step precedes it.
    ``rho >= 0`` is the rate at which the estimate's error constant has been
    decaying (measured by :func:`run`).  The test is per unit step,
    ``err <= error_tol * dt * max(1, _CREDIT * rho)``, but never looser than
    per step (``err <= error_tol``); a first step at theta = 0.5 and a
    tolerance below the round-off floor are tested per step, without credit.
    The next dt is ``dt_try`` times ``safety * (tol / err) ** (1 / power)``
    clamped to [0.2, 5] on acceptance and [0.1, 0.5] on rejection, or times
    1/4 after ``StepRejected``, and at least ``dt_min``.
    """
    if err is None:
        return False, max(0.25 * dt_try, cfg.dt_min)
    order = _estimate_order(first, cfg)  # err ~ dt**order
    per_step = cfg.design_order == 2 and first
    tol = cfg.error_tol if per_step else cfg.error_tol * dt_try
    if tol < _ROUNDOFF_FLOOR:
        tol, per_step = _ROUNDOFF_FLOOR, True  # a fixed floor makes any test per step
    elif not per_step and _CREDIT * rho > 1.0 and tol < cfg.error_tol:
        # a contracting error adds up to about tol / rho, not tol per unit time
        tol *= _CREDIT * rho
        if tol >= cfg.error_tol:
            tol, per_step = cfg.error_tol, True
    power = order if per_step else order - 1
    # a Python bool: a numpy tol (the floor, or a sample time's dt_try) gives np.bool_
    accepted = bool(err <= tol)
    factor = cfg.safety * (tol / err if err > 0.0 else 1e6) ** (1.0 / power)
    low, high = (0.2, 5.0) if accepted else (0.1, 0.5)
    return accepted, max(dt_try * min(high, max(low, factor)), cfg.dt_min)


def run(
    state0: ModelState,
    t_end: float,
    coeffs: CoefficientSet,
    params: ModelParams,
    cfg: StepperConfig,
    sample_times: Sequence[float] | None = None,
    sample_dt: float | None = None,
) -> Trajectory:
    """March adaptively from state0.t to t_end, sampling along the way.

    Sample times default to 200 evenly spaced points (or ``sample_dt``
    spacing); an explicit ``sample_times`` sequence overrides both and is
    honored exactly, which is what aligned multi-run comparisons rely on.
    A zero-length run returns the single initial sample.

    After each accepted step that had a history and whose estimate is above
    the round-off floor, the decay rate of kappa = err / dt**order since the
    previous such step is measured over the gap between the two steps'
    midpoints and clipped at 0; :func:`control` gets the smaller of the last
    two rates as ``rho``.  An estimate at the floor resets it to 0.
    ``stats.credited`` counts the accepted steps that passed only with that
    credit.

    A ``state0`` of shape ``(K, *grid.counts)`` marches K members under one
    controller: each attempt is accepted when the max over members of their
    own error estimates passes, every member takes the same steps and is
    sampled at the same times, and each member's clamped mass is held to
    its own budget.  The result is one batched :class:`Trajectory`;
    :meth:`Trajectory.members` splits it.
    """
    grid = coeffs.grid
    _check_shape(state0, grid)
    t0 = state0.t
    if t_end < t0:
        raise ValueError(f"t_end={t_end} precedes start time {t0}")
    if not (np.isfinite(state0.uv).all() and state0.uv.min() >= 0.0):
        raise ValueError("initial data must be finite and nonnegative")

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

    batch = state0.u.shape[: state0.u.ndim - grid.dim]
    stats = RunStats(clamped_mass_u=np.zeros(batch), clamped_mass_v=np.zeros(batch),
                     clamped_nodes=np.zeros(batch, dtype=int))
    times = np.empty(samples.size)
    u_samples = np.empty((samples.size, *state0.u.shape))
    v_samples = np.empty_like(u_samples)

    next_idx = 0

    def record(t: float, st: ModelState) -> None:
        nonlocal next_idx
        times[next_idx] = t
        u_samples[next_idx] = st.u
        v_samples[next_idx] = st.v
        next_idx += 1

    state = state0
    tiny = 1e-12 * max(1.0, abs(t0), abs(t_end))
    while next_idx < samples.size and samples[next_idx] <= t0 + tiny:
        record(t0, state)

    dt = cfg.dt_init
    terms = None  # t_n terms of `state`, shared by its attempts
    history = None  # (f, dt) of the last accepted step, for the extrapolation
    rho = 0.0  # contraction rate of the error constant, control's credit
    rate = 0.0  # the last measured rate; rho is the smaller of the last two
    kappa = None  # (err / dt**order, dt) of the last accepted step measured
    while state.t < t_end - tiny:
        dt = min(dt, cfg.dt_max)
        guard = advective_dt_limit(grid, state, params, cfg)
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
            terms = _terms(state, coeffs, params)
        try:
            new, err = step(state, dt_try, coeffs, params, cfg, stats=local, terms=terms,
                            history=history)
        except StepRejected:
            err = None  # the attempt left the admissible region; control shrinks dt
        accepted, dt = control(err, dt_try, history is None, cfg, rho)
        if not accepted:
            if err is None:
                stats.rejected_positivity += 1
            else:
                stats.rejected_error += 1
            if dt_try <= cfg.dt_min * (1.0 + 1e-9):
                cause = ("positivity rejection at dt_min" if err is None
                         else f"error control stuck at dt_min (err={err})")
                raise StepSizeUnderflowError(f"{cause}, t={state.t}", state)
            continue

        stats.accepted += 1
        if rho > 0.0 and not control(err, dt_try, history is None, cfg)[0]:
            stats.credited += 1
        if history is not None:  # a first step's estimate has another constant
            if err > _ROUNDOFF_FLOOR:
                k = err / dt_try ** _estimate_order(False, cfg)
                if kappa is not None:
                    latest = max(0.0, math.log(kappa[0] / k) / (0.5 * (kappa[1] + dt_try)))
                    rho, rate = min(rate, latest), latest
                kappa = (k, dt_try)
            else:  # round-off: the estimate says nothing of its decay
                rho, rate, kappa = 0.0, 0.0, None
        stats.merge_clamps(local)
        stats.min_dt = min(stats.min_dt, dt_try)
        stats.max_dt = max(stats.max_dt, dt_try)
        state = ModelState.from_stack(target, new.uv) if hit else new
        history = (terms[2], dt_try)
        terms = None
        while next_idx < samples.size and samples[next_idx] <= state.t + tiny:
            record(samples[next_idx], state)
        if hit:
            # clipping to a sample time should not shrink the controller
            dt = max(dt, dt_candidate)

    while next_idx < samples.size:  # t_end reached within tolerance; flush the rest
        record(samples[next_idx], state)

    u_samples.flags.writeable = False
    v_samples.flags.writeable = False
    traj = Trajectory(grid=grid, times=times, u=u_samples, v=v_samples, stats=stats)
    _check_clamp_budget(traj)
    return traj


def _check_clamp_budget(traj: Trajectory) -> None:
    """Each member's clamped mass must stay within its own budget."""
    stats = traj.stats
    peak_mass = traj.mass_u.max(axis=0, initial=0.0)  # per member
    budget = _CLAMP_BUDGET * np.maximum(peak_mass, 1e-300)
    total = stats.clamped_mass_u + stats.clamped_mass_v
    over = (peak_mass > 0.0) & (total > budget)
    if np.any(over):
        k = int(np.argmax(np.ravel(over)))
        member = f"member {k}: " if np.ndim(over) else ""
        raise PositivityBudgetError(
            f"{member}clamped mass {np.ravel(total)[k]} exceeds budget "
            f"{np.ravel(budget)[k]} ({np.ravel(stats.clamped_nodes)[k]} nodes)"
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
        state, _ = step(state, dt, coeffs, params, cfg)
    if not math.isclose(state.t, t_end, rel_tol=0.0, abs_tol=1e-9 * max(1.0, abs(t_end))):
        state = ModelState.from_stack(t_end, state.uv)
    return state
