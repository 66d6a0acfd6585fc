"""Verification harness: trajectory comparisons, measured constants, and the
runtime differential-inequality check.

The experiments here test, at desk scale, what the theory asserts about the
dynamics: any two positive solutions merge exponentially (so a pullback run
from far in the past approximates the unique entire solution), the
population eventually lives in a fixed band [eta, M2], and the squared gap
E(t) between two runs decays no slower than the averaged threshold theta
predicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .errors import GridMismatchError, TBackInsufficientError
from .grid import Field, norms
from .model import ModelParams, ModelState
from .stability import KnownConstants, StabilityReport, band_perturbation_gain, decay_integrand
from .stepper import StepperConfig, Trajectory, run

__all__ = [
    "GapSeries",
    "PersistenceEstimate",
    "BoundsEstimate",
    "FitResult",
    "EntireSolution",
    "GronwallResult",
    "trajectory_gap",
    "fit_decay_rate",
    "estimate_persistence",
    "estimate_bounds",
    "measure_constants",
    "approximate_entire_solution",
    "gronwall_check",
    "gronwall_check_series",
]

_MACHINE_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class GapSeries:
    """Norm history of the difference between two aligned runs.

    E is the quadrature of w^2 + phi^2 where w and phi are the population
    and chemical differences; ``state_scale`` is the largest field magnitude
    seen, used to size the round-off floor of E.
    """

    t: np.ndarray
    E: np.ndarray
    w_L2: np.ndarray
    phi_L2: np.ndarray
    w_Linf: np.ndarray
    phi_Linf: np.ndarray
    volume: float
    state_scale: float

    def noise_floor(self) -> float:
        """Smallest trustworthy E given round-off in the underlying fields."""
        unit = 10.0 * _MACHINE_EPS * max(self.state_scale, 1.0)
        return 4.0 * self.volume * unit * unit


@dataclass(frozen=True)
class PersistenceEstimate:
    """Measured persistence floor.

    ``eta_hat`` is the smallest nodal population after the burn-in;
    ``xi_hat`` is the first sample time offset after which the floor is
    never violated again.  ``persisted`` is False when the population
    touched zero after burn-in, which is a scientific outcome, not an error.
    """

    eta_hat: float
    xi_hat: float | None
    burn_in: float
    persisted: bool


@dataclass(frozen=True)
class BoundsEstimate:
    """Measured eventual bounds: mass (M1), amplitude (M2), chemical W2inf (C3)."""

    M1_hat: float
    M2_hat: float
    C3_hat: float
    burn_ins: tuple[float, float, float]
    volume: float

    def __post_init__(self):
        if not (self.M1_hat > 0.0 and self.M2_hat > 0.0 and self.C3_hat > 0.0):
            raise ValueError("measured bounds must be positive")
        if self.M1_hat > self.M2_hat * self.volume * (1.0 + 1e-12):
            raise ValueError(
                f"mass bound {self.M1_hat} exceeds amplitude bound x volume "
                f"{self.M2_hat * self.volume}"
            )


@dataclass(frozen=True)
class FitResult:
    """Least-squares decay rate of log E; ``floored`` marks a dead window."""

    rate: float
    r2: float
    floored: bool = False


@dataclass(frozen=True)
class EntireSolution:
    """Kept segment of a pullback run, labeled with the seed-independence gap."""

    trajectory: Trajectory
    gap_series: GapSeries
    seed_gap: float
    tolerance: float
    t_back: float


@dataclass(frozen=True)
class GronwallResult:
    """Interval-by-interval check of the decay differential inequality."""

    fraction: float
    worst_margin: float
    n_intervals: int
    t_entry: float | None
    band: tuple[float, float]
    eps: float
    max_slack: float
    conclusive: bool
    notes: tuple[str, ...] = ()


def trajectory_gap(run_a: Trajectory, run_b: Trajectory) -> GapSeries:
    """Normwise difference series between two runs on identical grids/samples."""
    if run_a.grid != run_b.grid:
        raise GridMismatchError("runs live on different grids")
    if run_a.times.shape != run_b.times.shape or not np.allclose(
        run_a.times, run_b.times, rtol=0.0, atol=1e-9
    ):
        raise GridMismatchError("runs were sampled at different times")
    n = len(run_a.states)
    t = np.array(run_a.times, dtype=float)
    e = np.empty(n)
    w_l2 = np.empty(n)
    p_l2 = np.empty(n)
    w_li = np.empty(n)
    p_li = np.empty(n)
    scale = 0.0
    grid = run_a.grid
    for k, (sa, sb) in enumerate(zip(run_a.states, run_b.states)):
        w_l2[k], w_li[k] = norms(grid, sa.u.values - sb.u.values)
        p_l2[k], p_li[k] = norms(grid, sa.v.values - sb.v.values)
        e[k] = w_l2[k] ** 2 + p_l2[k] ** 2
        scale = max(
            scale,
            float(np.abs(sa.u.values).max()),
            float(np.abs(sa.v.values).max()),
            float(np.abs(sb.u.values).max()),
            float(np.abs(sb.v.values).max()),
        )
    return GapSeries(
        t=t, E=e, w_L2=w_l2, phi_L2=p_l2, w_Linf=w_li, phi_Linf=p_li,
        volume=grid.volume, state_scale=scale,
    )


def fit_decay_rate(series: GapSeries, window: tuple[float, float]) -> FitResult:
    """Slope of log E(t) over the window, with the fit quality r^2.

    If E is nonpositive anywhere in the window the gap is below the
    measurement floor: the sentinel (-inf, 0, floored=True) is returned.
    """
    lo, hi = float(window[0]), float(window[1])
    mask = (series.t >= lo - 1e-12) & (series.t <= hi + 1e-12)
    if int(mask.sum()) < 3:
        raise ValueError(f"need at least 3 samples in window [{lo}, {hi}], got {int(mask.sum())}")
    e = series.E[mask]
    t = series.t[mask]
    if np.any(e <= 0.0):
        return FitResult(rate=-math.inf, r2=0.0, floored=True)
    y = np.log(e)
    tbar = t.mean()
    ybar = y.mean()
    stt = float(np.sum((t - tbar) ** 2))
    slope = float(np.sum((t - tbar) * (y - ybar)) / stt)
    resid = y - (ybar + slope * (t - tbar))
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(rate=slope, r2=r2, floored=False)


def estimate_persistence(traj: Trajectory, burn_in: float) -> PersistenceEstimate:
    """Persistence floor after burn_in (offset from the trajectory start)."""
    t0 = float(traj.times[0])
    cutoff = t0 + burn_in
    if traj.times[-1] < cutoff:
        raise ValueError(f"trajectory ends at {traj.times[-1]}, before burn-in {cutoff}")
    after = traj.times >= cutoff - 1e-12
    eta_hat = float(traj.min_u[after].min())
    if eta_hat <= 0.0:
        return PersistenceEstimate(eta_hat=max(eta_hat, 0.0), xi_hat=None,
                                   burn_in=burn_in, persisted=False)
    # earliest time from which the floor holds for every later sample
    suffix_min = np.minimum.accumulate(traj.min_u[::-1])[::-1]
    ok = suffix_min >= eta_hat
    first = int(np.argmax(ok))
    xi_hat = float(traj.times[first] - t0)
    return PersistenceEstimate(eta_hat=eta_hat, xi_hat=xi_hat, burn_in=burn_in, persisted=True)


def estimate_bounds(
    traj: Trajectory, burn_ins: tuple[float, float, float]
) -> BoundsEstimate:
    """Eventual mass/amplitude/chemical-regularity bounds after burn-ins.

    burn_ins = (mass, amplitude, chemical) offsets from the start.
    """
    t0 = float(traj.times[0])
    t1, t2, t_star = (t0 + float(b) for b in burn_ins)
    for cutoff, label in ((t1, "mass"), (t2, "amplitude"), (t_star, "chemical")):
        if traj.times[-1] < cutoff:
            raise ValueError(f"trajectory too short for {label} burn-in at {cutoff}")
    m1 = float(traj.mass_u[traj.times >= t1 - 1e-12].max())
    m2 = float(traj.sup_u[traj.times >= t2 - 1e-12].max())
    c3 = float(traj.w2inf_v[traj.times >= t_star - 1e-12].max())
    return BoundsEstimate(
        M1_hat=m1, M2_hat=m2, C3_hat=c3,
        burn_ins=tuple(float(b) for b in burn_ins), volume=traj.grid.volume,
    )


def measure_constants(
    trajectories: list[Trajectory],
    burn_ins: tuple[float, float, float],
    base: KnownConstants | None = None,
) -> KnownConstants:
    """Pool measured bounds and the persistence floor across runs.

    Bounds take the max across runs (a bound must cover every run); the
    persistence floor takes the min.  Entries already present in ``base``
    are kept, so user-supplied constants win over measurements.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    bounds = [estimate_bounds(traj, burn_ins) for traj in trajectories]
    floors = [estimate_persistence(traj, burn_ins[1]) for traj in trajectories]
    measured: dict[str, float] = {
        "M1": max(b.M1_hat for b in bounds),
        "M2": max(b.M2_hat for b in bounds),
        "C3_tilde": max(b.C3_hat for b in bounds),
    }
    if all(f.persisted for f in floors):
        measured["eta"] = min(f.eta_hat for f in floors)
    base = base or KnownConstants()
    fill = {k: v for k, v in measured.items() if getattr(base, k) is None}
    return base.with_values("measured", **fill)


def _as_field_pair(grid, seed) -> tuple[Field, Field]:
    u0, v0 = seed
    if not isinstance(u0, Field):
        u0 = Field.constant(grid, float(u0))
    if not isinstance(v0, Field):
        v0 = Field.constant(grid, float(v0))
    return u0, v0


def approximate_entire_solution(
    coeffs: CoefficientSet,
    params: ModelParams,
    cfg: StepperConfig,
    t_back: float,
    t_span: tuple[float, float],
    seeds=((0.1, 0.0), (5.0, 0.0)),
    sample_dt: float = 0.1,
    tolerance: float = 1.0e-6,
) -> EntireSolution:
    """Pullback approximation of the entire solution over ``t_span``.

    Two distinct admissible seeds are integrated from ``t_span[0] - t_back``
    and only the span is kept.  The kept segments must agree within
    ``tolerance`` in the sup norm -- a measured gate, so the construction
    never silently assumes the forgetting property it is used to test.
    """
    if t_back <= 0.0:
        raise ValueError("t_back must be positive")
    lo, hi = float(t_span[0]), float(t_span[1])
    if not hi > lo:
        raise ValueError("t_span must have positive length")
    if len(seeds) < 2:
        raise ValueError("need two distinct seeds for the independence gate")
    grid = coeffs.grid
    n = max(1, int(round((hi - lo) / sample_dt)))
    samples = np.linspace(lo, hi, n + 1)
    t0 = lo - float(t_back)
    trajs = []
    for seed in seeds[:2]:
        u0, v0 = _as_field_pair(grid, seed)
        state0 = ModelState(t0, u0, v0)
        trajs.append(run(state0, hi, coeffs, params, cfg, sample_times=samples))
    gap = trajectory_gap(trajs[0], trajs[1])
    achieved = float(max(gap.w_Linf.max(), gap.phi_Linf.max()))
    if achieved > tolerance:
        raise TBackInsufficientError(
            f"seed-independence gap {achieved} exceeds tolerance {tolerance}; "
            f"increase t_back (currently {t_back})",
            achieved, tolerance,
        )
    return EntireSolution(
        trajectory=trajs[0], gap_series=gap, seed_gap=achieved,
        tolerance=tolerance, t_back=float(t_back),
    )


def _band_entry_time(pair: tuple[Trajectory, Trajectory], lo: float, hi: float) -> float | None:
    """First sample time after which both runs stay inside [lo, hi]."""
    a, b = pair
    inside = (
        (a.min_u >= lo) & (a.sup_u <= hi) & (b.min_u >= lo) & (b.sup_u <= hi)
    )
    stays = np.logical_and.accumulate(inside[::-1])[::-1]
    if not stays.any():
        return None
    return float(a.times[int(np.argmax(stays))])


def _gronwall_band(constants: KnownConstants, eps: float) -> tuple[float, float]:
    """The eps-widened band [eta - eps, M2 + eps]; every criterion constant is needed."""
    missing = constants.missing("M2", "eta", "C3_tilde")
    if missing:
        raise ValueError(f"report constants incomplete: {', '.join(missing)}")
    return (constants.eta - eps, constants.M2 + eps)


def gronwall_check_series(
    series: GapSeries,
    report: StabilityReport,
    eps: float,
    t_entry: float,
) -> GronwallResult:
    """Check d(E/2)/dt <= (h(t) + K(t, eps)) * E on sampled finite differences.

    The slack per interval is ``2*dt*Lip + floor/dt`` where Lip is a local
    Lipschitz estimate of E from neighboring increments and the floor
    absorbs round-off noise once E reaches the measurement floor.
    """
    band = _gronwall_band(report.constants, eps)
    mask = series.t >= t_entry - 1e-12
    t = series.t[mask]
    e = series.E[mask]
    if t.size < 2:
        return GronwallResult(
            fraction=math.nan, worst_margin=math.nan, n_intervals=0,
            t_entry=t_entry, band=band, eps=eps, max_slack=0.0,
            conclusive=False, notes=("fewer than 2 samples after band entry",),
        )
    dts = np.diff(t)
    des = np.diff(e)
    rates = np.abs(des) / dts
    lhs = 0.5 * des / dts
    t_mid = 0.5 * (t[:-1] + t[1:])
    e_mid = 0.5 * (e[:-1] + e[1:])
    gain = decay_integrand(t_mid, report.coeffs, report.params, report.constants)
    rhs = (gain + band_perturbation_gain(t_mid, report.coeffs, eps)) * e_mid
    # local Lipschitz estimate: the largest |dE/dt| over intervals k-1, k, k+1
    padded = np.concatenate(([0.0], rates, [0.0]))
    lip = np.maximum(np.maximum(padded[:-2], rates), padded[2:])
    slack = 2.0 * dts * lip + series.noise_floor() / dts
    margin = (lhs - rhs) - slack
    return GronwallResult(
        fraction=float(np.mean(margin <= 0.0)),
        worst_margin=float(margin.max()), n_intervals=margin.size, t_entry=t_entry, band=band,
        eps=eps, max_slack=float(slack.max()), conclusive=True,
    )


def gronwall_check(
    pair: tuple[Trajectory, Trajectory],
    report: StabilityReport,
    eps: float,
) -> GronwallResult:
    """Band-gated differential-inequality check along a trajectory pair."""
    band = _gronwall_band(report.constants, eps)
    t_entry = _band_entry_time(pair, band[0], band[1])
    if t_entry is None:
        return GronwallResult(
            fraction=math.nan, worst_margin=math.nan, n_intervals=0,
            t_entry=None, band=band, eps=eps, max_slack=0.0, conclusive=False,
            notes=(f"runs never settled into the band [{band[0]:.6g}, {band[1]:.6g}]",),
        )
    series = trajectory_gap(*pair)
    return gronwall_check_series(series, report, eps, t_entry)
