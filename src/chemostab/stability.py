"""Hypothesis checks and the averaged decay threshold for entire-solution stability.

The criterion machinery evaluates, for a coefficient triple and model
parameters, the two envelope functions

    L1(t) = 2*eta * (a1_inf(t) + vol * pos(a2_inf(t)))
    L2(t) = a0_sup(t) + vol*M2*(pos(a2_sup(t)) + 2*neg(a2_inf(t)))
            + mu^2/(2*lam*tau) + |chi|/2 * C3 - vol*eta*neg(a2_sup(t))

their clamped difference h(t) = max(-lam/(2*tau), L2(t) - L1(t)), and the
windowed trapezoid average theta of h.  A negative theta (beyond quadrature
error) is the uniqueness-and-exponential-stability criterion; the constants
eta (persistence floor), M2 (eventual amplitude bound), and C3 (eventual
second-derivative bound on the chemical) enter with recorded provenance
because measured surrogates weaken the claim.

Envelope quantities over a time window are sampled at the window's
quadrature nodes; the hypothesis checks and the convex-formula M2 share one
sampling of ``HYPOTHESIS_SAMPLES`` nodes, so a verdict and the constant it
licenses see the same times.  Spatial envelopes are nodal and therefore
inner approximations of the continuum values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .coefficients import CoefficientSet
from .errors import ConfigError, HypothesisFailure
from .model import ModelParams

__all__ = [
    "KnownConstants",
    "HypothesisVerdict",
    "ConvexBound",
    "StabilityReport",
    "compute_M2_convex",
    "check_H1",
    "check_H2",
    "check_H3",
    "compute_L1",
    "compute_L2",
    "decay_integrand",
    "estimate_theta",
]

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

CRITERION_HOLDS = "criterion_holds"
CRITERION_FAILS = "criterion_fails"

# window samples of every hypothesis check and of the convex-formula M2
HYPOTHESIS_SAMPLES = 513


def pos(x):
    """Elementwise positive part max(0, x)."""
    return np.where(x > 0.0, x, 0.0)


def neg(x):
    """Elementwise negative part max(0, -x); x == pos(x) - neg(x)."""
    return np.where(x < 0.0, -x, 0.0)


@dataclass(frozen=True)
class KnownConstants:
    """Constants the criterion depends on, with per-entry provenance.

    Provenance values: ``config`` (user supplied), ``convex-formula``
    (closed form valid on convex domains), ``measured`` (estimated from
    simulations; conservative only in the failing direction for eta).
    ``cq1_pairs`` lists (q, C_{q+1}) pairs for the growth-vs-drift check;
    the constant is not computable here and is accepted as opaque input.
    A bad value raises ConfigError keyed by its field.
    """

    M1: float | None = None
    M2: float | None = None
    eta: float | None = None
    C3_tilde: float | None = None
    cq1_pairs: tuple[tuple[float, float], ...] = ()
    provenance: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("M1", "M2", "eta", "C3_tilde"):
            val = getattr(self, name)
            if val is not None and not val > 0.0:
                raise ConfigError(name, f"must be positive when present, got {val}")
        if self.M2 is not None and self.eta is not None and self.M2 < self.eta:
            source = self.provenance.get("M2", "config")
            if source != "config":  # then eta is the value to blame
                raise ConfigError("eta", f"must be at most M2={self.M2} ({source}), got {self.eta}")
            raise ConfigError("M2", f"must be at least eta={self.eta}, got {self.M2}")
        object.__setattr__(self, "cq1_pairs", tuple((float(q), float(c)) for q, c in self.cq1_pairs))
        object.__setattr__(self, "provenance", dict(self.provenance))

    def missing(self, *names: str) -> list[str]:
        return [n for n in names if getattr(self, n) is None]

    def with_values(self, source: str, **values: float) -> "KnownConstants":
        prov = dict(self.provenance)
        for name in values:
            prov[name] = source
        return replace(self, provenance=prov, **values)


@dataclass(frozen=True)
class HypothesisVerdict:
    """Outcome of one hypothesis check with its inequality margins."""

    name: str
    status: str
    margins: Mapping[str, float] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == HOLDS


@dataclass(frozen=True)
class ConvexBound:
    """Amplitude bound from the convex-domain closed form, with intermediates."""

    M2: float
    M0: float
    M0_ai: float


def _window_samples(window: tuple[float, float], n_samples: int) -> np.ndarray:
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ValueError(f"window must have positive length, got [{t0}, {t1}]")
    n = max(int(n_samples), 2)
    if n % 2 == 0:
        n += 1  # odd count so the half-resolution quadrature reuses nodes
    return np.linspace(t0, t1, n)


def _competition(coeffs: CoefficientSet, ts: np.ndarray) -> tuple[float, float, float]:
    """inf_t a1_inf(t), the nonlocal balance inf_t(a1_inf(t) - vol*neg(a2_inf(t)))
    and sup_t neg(a2_inf(t)) over the sample times ``ts``."""
    a1_inf = coeffs.a1.envelope(ts)[0]
    neg_a2_inf = neg(coeffs.a2.envelope(ts)[0])
    balance = a1_inf - coeffs.volume * neg_a2_inf
    return float(a1_inf.min()), float(balance.min()), float(neg_a2_inf.max())


def compute_M2_convex(
    coeffs: CoefficientSet, params: ModelParams, window: tuple[float, float]
) -> ConvexBound:
    """Eventual amplitude bound on convex domains (tau = 1, chi > 0 regime).

    Formula chain:
        M0    = 1.5 * vol * a0_sup / inf_t(a1_inf(t) - vol*neg(a2_inf(t)))
        M0_ai = a0_sup + 2*lam + sup_t(neg(a2_inf(t))) * M0
        M2    = M0_ai^2 / (4 * (a1_inf - n*mu*chi/4)),   n = coeffs.grid.dim

    Preconditions: a1_inf > n*mu*chi/4 and the M0 denominator positive;
    violations raise :class:`HypothesisFailure` naming the inequality.
    """
    ts = _window_samples(window, HYPOTHESIS_SAMPLES)
    a0_sup = float(coeffs.a0.envelope(ts)[1].max())
    a1_inf, m0_denom, neg_a2_inf_sup = _competition(coeffs, ts)
    if not m0_denom > 0.0:
        raise HypothesisFailure(
            f"inf_t(a1_inf(t) - vol*neg(a2_inf(t))) = {m0_denom} is not positive",
            "nonlocal-competition-balance",
        )
    amp_denom = a1_inf - coeffs.grid.dim * params.mu * params.chi / 4.0
    if not amp_denom > 0.0:
        raise HypothesisFailure(
            f"a1_inf - n*mu*chi/4 = {amp_denom} is not positive",
            "competition-vs-drift",
        )
    m0 = 1.5 * coeffs.volume * a0_sup / m0_denom
    m0_ai = a0_sup + 2.0 * params.lam + neg_a2_inf_sup * m0
    m2 = m0_ai * m0_ai / (4.0 * amp_denom)
    return ConvexBound(M2=m2, M0=m0, M0_ai=m0_ai)


def check_H1(
    coeffs: CoefficientSet,
    params: ModelParams,
    constants: KnownConstants,
    window: tuple[float, float],
) -> HypothesisVerdict:
    """Growth-vs-drift and nonlocal-balance inequalities.

    The first inequality compares a1_inf against
    min over supplied (q, C) pairs of ((q-1)/q) * C^(1/(q+1)) * mu^(1/(q+1)) * |chi|,
    a finite upper bound of the true infimum: clearing it is sound, failing
    it is only inconclusive (except chi = 0, where the threshold is exactly
    zero).  The second inequality is exact up to window sampling.
    """
    a1_inf, balance, _ = _competition(coeffs, _window_samples(window, HYPOTHESIS_SAMPLES))
    margins: dict[str, float] = {"nonlocal_balance": balance}
    notes: list[str] = []

    if params.chi == 0.0:
        threshold = 0.0
        margins["drift_threshold"] = threshold
        margins["drift_margin"] = a1_inf
        first_status = HOLDS if a1_inf > 0.0 else FAILS
    elif not constants.cq1_pairs:
        first_status = INCONCLUSIVE
        notes.append("no (q, C_{q+1}) pairs supplied")
    else:
        q_floor = max(1.0, 0.5 * coeffs.grid.dim)
        usable = [(q, c) for q, c in constants.cq1_pairs if q > q_floor]
        if not usable:
            raise ConfigError("experiment.cq1_pairs",
                              f"all supplied q values violate q > max(1, n/2) = {q_floor}")
        threshold = min(
            ((q - 1.0) / q) * c ** (1.0 / (q + 1.0)) * params.mu ** (1.0 / (q + 1.0))
            for q, c in usable
        ) * abs(params.chi)
        margins["drift_threshold"] = threshold
        margins["drift_margin"] = a1_inf - threshold
        if a1_inf > threshold:
            first_status = HOLDS
            notes.append("q-infimum taken over the supplied finite list (upper bound)")
        else:
            first_status = INCONCLUSIVE
            notes.append("finite q-list bound not cleared; true infimum may be smaller")

    second_status = HOLDS if balance > 0.0 else FAILS
    if second_status == FAILS or first_status == FAILS:
        status = FAILS
    elif first_status == HOLDS and second_status == HOLDS:
        status = HOLDS
    else:
        status = INCONCLUSIVE
    return HypothesisVerdict("H1", status, margins, tuple(notes))


def check_H2(
    coeffs: CoefficientSet, params: ModelParams, window: tuple[float, float]
) -> HypothesisVerdict:
    """Convex-domain hypothesis: tau = 1, chi > 0, competition strength, and
    the nonlocal balance inequality.  Every grid is an interval or a
    rectangle, so the domain is convex."""
    a1_inf, balance, _ = _competition(coeffs, _window_samples(window, HYPOTHESIS_SAMPLES))
    margins = {
        "tau_gap": abs(params.tau - 1.0),
        "chi": params.chi,
        "competition_margin": a1_inf - coeffs.grid.dim * params.mu * params.chi / 4.0,
        "nonlocal_balance": balance,
    }
    clauses = [
        params.tau == 1.0,
        params.chi > 0.0,
        margins["competition_margin"] > 0.0,
        balance > 0.0,
    ]
    return HypothesisVerdict("H2", HOLDS if all(clauses) else FAILS, margins)


def check_H3(params: ModelParams, constants: KnownConstants) -> HypothesisVerdict:
    """Drift-strength cap chi*M2 <= 1 together with tau in (0, 1]."""
    if constants.M2 is None:
        return HypothesisVerdict("H3", INCONCLUSIVE, {}, ("M2 unavailable",))
    margins = {
        "chi_M2_margin": 1.0 - params.chi * constants.M2,
        "tau": params.tau,
    }
    ok = margins["chi_M2_margin"] >= 0.0 and 0.0 < params.tau <= 1.0
    return HypothesisVerdict("H3", HOLDS if ok else FAILS, margins)


def compute_L1(t, coeffs: CoefficientSet, constants: KnownConstants) -> np.ndarray:
    """Contraction gain from persistence and competition at each time in t."""
    if constants.eta is None:
        raise ValueError("eta is required for L1")
    a1_inf_t = coeffs.a1.envelope(t)[0]
    a2_inf_t = coeffs.a2.envelope(t)[0]
    return 2.0 * constants.eta * (a1_inf_t + coeffs.volume * pos(a2_inf_t))


def compute_L2(
    t, coeffs: CoefficientSet, params: ModelParams, constants: KnownConstants
) -> np.ndarray:
    """Expansion bound from growth, drift, and the nonlocal term at each time in t."""
    missing = constants.missing("M2", "eta", "C3_tilde")
    if missing:
        raise ValueError(f"constants missing for L2: {', '.join(missing)}")
    vol = coeffs.volume
    a0_sup_t = coeffs.a0.envelope(t)[1]
    a2_inf_t, a2_sup_t = coeffs.a2.envelope(t)
    return (
        a0_sup_t
        + vol * constants.M2 * (pos(a2_sup_t) + 2.0 * neg(a2_inf_t))
        + params.mu**2 / (2.0 * params.lam * params.tau)
        + 0.5 * abs(params.chi) * constants.C3_tilde
        - vol * constants.eta * neg(a2_sup_t)
    )


def decay_integrand(
    t, coeffs: CoefficientSet, params: ModelParams, constants: KnownConstants
) -> np.ndarray:
    """h(t) = max(-lam/(2*tau), L2(t) - L1(t)) at each time in t; bounded below by the clamp."""
    l2 = compute_L2(t, coeffs, params, constants)
    return np.maximum(-params.lam / (2.0 * params.tau), l2 - compute_L1(t, coeffs, constants))


def band_perturbation_gain(t, coeffs: CoefficientSet, eps: float) -> np.ndarray:
    """K(t, eps) at each time in t: growth of the contraction estimate from an eps-wide band.

        K = eps*(2*a1_inf(t) + vol*pos(a2_inf(t)) + vol*neg(a2_inf(t)))
          + eps*vol*(pos(a2_sup(t)) + neg(a2_sup(t)) + pos(a2_inf(t)) + neg(a2_inf(t)))
    """
    vol = coeffs.volume
    a1_inf_t = coeffs.a1.envelope(t)[0]
    a2_inf_t, a2_sup_t = coeffs.a2.envelope(t)
    return eps * (
        2.0 * a1_inf_t + vol * pos(a2_inf_t) + vol * neg(a2_inf_t)
    ) + eps * vol * (
        pos(a2_sup_t) + neg(a2_sup_t) + pos(a2_inf_t) + neg(a2_inf_t)
    )


@dataclass(frozen=True)
class StabilityReport:
    """Everything the criterion evaluation produced, immutable.

    ``theta`` is the trapezoid average of ``h_series`` over the window;
    ``conclusion`` holds exactly when theta clears zero by more than the
    quadrature error estimate.
    """

    window: tuple[float, float]
    ts: np.ndarray
    L1_series: np.ndarray
    L2_series: np.ndarray
    h_series: np.ndarray
    theta: float
    quad_error: float
    constants: KnownConstants
    h1_ok: HypothesisVerdict
    h2_ok: HypothesisVerdict
    h3_ok: HypothesisVerdict
    conclusion: str
    eps_suggested: float | None
    coeffs: CoefficientSet
    params: ModelParams
    notes: tuple[str, ...] = ()


def estimate_theta(
    coeffs: CoefficientSet,
    params: ModelParams,
    constants: KnownConstants,
    window: tuple[float, float],
    n_samples: int = 2001,
) -> StabilityReport:
    """Sample L1, L2, h over the window and average h into theta.

    For constant coefficients the average is exact and window independent;
    for the periodic family a window of one period is exact.  Missing
    constants yield an inconclusive report with empty series.
    """
    h1 = check_H1(coeffs, params, constants, window)
    h2 = check_H2(coeffs, params, window)
    h3 = check_H3(params, constants)
    notes = list(coeffs.regularity_notes())
    if constants.provenance.get("eta") == "measured":
        notes.append(
            "eta is a measured lower bound: a larger valid floor only strengthens the "
            "contraction, so failing verdicts are conservative but passing ones are not"
        )

    # the window's ends are the first and last samples: linspace keeps its end points
    window = (float(window[0]), float(window[1]))
    ts = l1 = l2 = h = np.array([])
    theta = quad_error = math.nan
    conclusion, eps_suggested = INCONCLUSIVE, None
    missing = constants.missing("M2", "eta", "C3_tilde")
    if missing:
        notes.append(f"constants missing: {', '.join(missing)}; criterion not evaluable")
    else:
        ts = _window_samples(window, n_samples)
        l1 = compute_L1(ts, coeffs, constants)
        l2 = compute_L2(ts, coeffs, params, constants)
        clamp = -params.lam / (2.0 * params.tau)
        h = np.maximum(clamp, l2 - l1)
        span = float(ts[-1] - ts[0])
        theta = float(np.trapezoid(h, ts)) / span
        theta_coarse = float(np.trapezoid(h[::2], ts[::2])) / span
        quad_error = abs(theta - theta_coarse)
        if theta < -quad_error:
            conclusion = CRITERION_HOLDS
        elif theta > quad_error:
            conclusion = CRITERION_FAILS
        else:
            notes.append("theta within quadrature error of zero")
        if theta < 0.0:
            eps_suggested = min(-theta, constants.eta) / 10.0

    return StabilityReport(
        window=window, ts=ts, L1_series=l1, L2_series=l2, h_series=h,
        theta=theta, quad_error=quad_error, constants=constants,
        h1_ok=h1, h2_ok=h2, h3_ok=h3, conclusion=conclusion,
        eps_suggested=eps_suggested, coeffs=coeffs, params=params,
        notes=tuple(notes),
    )
