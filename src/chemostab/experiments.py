"""Verification harness: trajectory comparisons, measured constants, and the
runtime differential-inequality check.

The experiments here test, at desk scale, what the theory asserts about the
dynamics: any two positive solutions merge exponentially (so a pullback run
from far in the past approximates the unique entire solution), the
population eventually lives in a fixed band [eta, M2], and the squared gap
E(t) between two runs decays no slower than the averaged threshold theta
predicts.  Each is read once from what a run already holds:
``measure_constants`` reads the band and the chemical bound straight off the
runs' sampled series, and ``gronwall_check`` judges a gap series that
``trajectory_gap`` made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .errors import ConfigError, GridMismatchError, TBackInsufficientError
from .grid import norms
from .model import ModelParams, ModelState
from .stability import KnownConstants, StabilityReport, band_perturbation_gain, decay_integrand
from .stepper import StepperConfig, Trajectory, run

__all__ = [
    "GapSeries",
    "PersistenceEstimate",
    "FitResult",
    "EntireSolution",
    "GronwallResult",
    "trajectory_gap",
    "fit_decay_rate",
    "estimate_persistence",
    "measure_constants",
    "approximate_entire_solution",
    "band_entry_time",
    "gronwall_check",
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
class FitResult:
    """Least-squares decay rate of log E; ``floored`` marks a dead window."""

    rate: float
    r2: float
    floored: bool = False


@dataclass(frozen=True)
class EntireSolution:
    """Kept segment of a pullback run, labeled with the seed-independence gap."""

    trajectory: Trajectory
    seed_gap: float
    tolerance: float


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
    t = np.array(run_a.times, dtype=float)
    grid = run_a.grid
    # every sample at once: the norms reduce each sample separately
    ua, va, ub, vb = run_a.u, run_a.v, run_b.u, run_b.v
    w_l2, w_li = norms(grid, ua - ub)
    p_l2, p_li = norms(grid, va - vb)
    e = w_l2**2 + p_l2**2
    scale = max(float(np.abs(a).max()) for a in (ua, va, ub, vb))
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


def _after_burn_in(traj: Trajectory, series: np.ndarray, burn_in: float) -> np.ndarray:
    """The samples of one of ``traj``'s series from ``burn_in`` (offset from its start) on."""
    cutoff = float(traj.times[0]) + burn_in
    if traj.times[-1] < cutoff:
        raise ValueError(f"trajectory ends at {traj.times[-1]}, before burn-in {cutoff}")
    return series[traj.times >= cutoff - 1e-12]


def _settled_from(times: np.ndarray, inside: np.ndarray) -> float | None:
    """The first sample time from which ``inside`` holds at every later sample; None if none."""
    stays = np.logical_and.accumulate(inside[::-1])[::-1]
    return float(times[int(np.argmax(stays))]) if stays[-1] else None


def estimate_persistence(traj: Trajectory, burn_in: float) -> PersistenceEstimate:
    """Persistence floor after burn_in (offset from the trajectory start)."""
    eta_hat = float(_after_burn_in(traj, traj.min_u, burn_in).min())
    if eta_hat <= 0.0:
        return PersistenceEstimate(eta_hat=max(eta_hat, 0.0), xi_hat=None,
                                   burn_in=burn_in, persisted=False)
    # the last sample is after the burn-in, so the floor settles at a sample
    xi_hat = _settled_from(traj.times, traj.min_u >= eta_hat) - float(traj.times[0])
    return PersistenceEstimate(eta_hat=eta_hat, xi_hat=xi_hat, burn_in=burn_in, persisted=True)


def measure_constants(
    trajectories: list[Trajectory],
    burn_ins: tuple[float, float, float],
    base: KnownConstants | None = None,
) -> KnownConstants:
    """Pool the eventual bounds and the persistence floor across runs.

    ``burn_ins`` = (mass, amplitude, chemical) offsets from each run's start.
    M1, M2 and C3_tilde are the largest ``mass_u``, ``sup_u`` and ``w2inf_v``
    of any run after its burn-in, since a bound must cover every run.  eta is
    the smallest ``min_u`` after the amplitude burn-in, measured only when it
    is positive, that is when every run persisted.  Entries already present
    in ``base`` are kept, so user-supplied constants win over measurements.
    An M1 above M2 x volume is a ``ConfigError`` keyed ``burn_ins``.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    m1, m2, c3 = (max(float(_after_burn_in(t, getattr(t, name), b).max()) for t in trajectories)
                  for name, b in zip(("mass_u", "sup_u", "w2inf_v"), burn_ins))
    eta = min(float(_after_burn_in(t, t.min_u, burn_ins[1]).min()) for t in trajectories)
    if not (m1 > 0.0 and m2 > 0.0 and c3 > 0.0):
        raise ValueError("measured bounds must be positive")
    volume = max(t.grid.volume for t in trajectories)
    if m1 > m2 * volume * (1.0 + 1e-12):  # a mass burn-in before the amplitude's can do this
        raise ConfigError("burn_ins", f"mass bound {m1} exceeds amplitude bound x volume "
                          f"{m2 * volume}")
    measured = {"M1": m1, "M2": m2, "C3_tilde": c3}
    if eta > 0.0:  # every run persisted
        measured["eta"] = eta
    base = base or KnownConstants()
    fill = {k: v for k, v in measured.items() if getattr(base, k) is None}
    return base.with_values("measured", **fill)


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

    Two distinct admissible seeds are integrated, as one batched run, from
    ``t_span[0] - t_back`` and only the span is kept; each seed is a
    ``(u0, v0)`` pair of numbers or nodal arrays.  The kept segments must
    agree within ``tolerance`` in the sup norm -- a measured gate, so the
    construction never silently assumes the forgetting property it is used
    to test.
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
    u0, v0 = (np.stack([np.full(grid.counts, seed[k], dtype=float) for seed in seeds[:2]])
              for k in (0, 1))
    trajs = run(ModelState(t0, u0, v0), hi, coeffs, params, cfg,
                sample_times=samples).members()
    gap = trajectory_gap(trajs[0], trajs[1])
    achieved = float(max(gap.w_Linf.max(), gap.phi_Linf.max()))
    if achieved > tolerance:
        raise TBackInsufficientError(
            f"seed-independence gap {achieved} exceeds tolerance {tolerance}; "
            f"increase t_back (currently {t_back})",
            achieved, tolerance,
        )
    return EntireSolution(trajectory=trajs[0], seed_gap=achieved, tolerance=tolerance)


def _gronwall_band(constants: KnownConstants, eps: float) -> tuple[float, float]:
    """The eps-widened band [eta - eps, M2 + eps]; every criterion constant is needed."""
    missing = constants.missing("M2", "eta", "C3_tilde")
    if missing:
        raise ValueError(f"report constants incomplete: {', '.join(missing)}")
    return (constants.eta - eps, constants.M2 + eps)


def band_entry_time(
    pair: tuple[Trajectory, Trajectory], report: StabilityReport, eps: float
) -> float | None:
    """First sample time after which both runs stay inside the report's eps-widened band."""
    lo, hi = _gronwall_band(report.constants, eps)
    a, b = pair
    return _settled_from(a.times, (a.min_u >= lo) & (a.sup_u <= hi) & (b.min_u >= lo)
                         & (b.sup_u <= hi))


def gronwall_check(
    series: GapSeries,
    report: StabilityReport,
    eps: float,
    t_entry: float | None,
) -> GronwallResult:
    """Check d(E/2)/dt <= (h(t) + K(t, eps)) * E on ``series`` from ``t_entry`` on.

    ``t_entry`` is where the pair settled into the band (``band_entry_time``);
    None means it never did, and the result is inconclusive.  The slack per
    interval is ``2*dt*Lip + floor/dt`` where Lip is a local Lipschitz
    estimate of E from neighboring increments and the floor absorbs round-off
    noise once E reaches the measurement floor.
    """
    band = _gronwall_band(report.constants, eps)
    if t_entry is None:
        return GronwallResult(
            fraction=math.nan, worst_margin=math.nan, n_intervals=0,
            t_entry=None, band=band, eps=eps, max_slack=0.0, conclusive=False,
            notes=(f"runs never settled into the band [{band[0]:.6g}, {band[1]:.6g}]",),
        )
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
