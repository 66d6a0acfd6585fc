"""Hypothesis checks and the averaged decay threshold for entire-solution stability.

With n the grid dimension, vol the domain volume, a1_inf = inf_t a1_inf(t)
and the nonlocal balance B = inf_t(a1_inf(t) - vol*neg(a2_inf(t))) over a
window, the hypotheses are

    H1: a1_inf > |chi| * min over (q, C) of ((q-1)/q) * C^(1/(q+1)) * mu^(1/(q+1)),
        and B > 0
    H2: tau = 1, chi > 0, a1_inf - n*mu*chi/4 > 0 and B > 0
    H3: chi*M2 <= 1 and 0 < tau <= 1

and under H2 (every grid is an interval or a rectangle, so the domain is
convex) the eventual amplitude bound is

    M0    = 1.5 * vol * a0_sup / B
    M0_ai = a0_sup + 2*lam + sup_t(neg(a2_inf(t))) * M0
    M2    = M0_ai^2 / (4 * (a1_inf - n*mu*chi/4))

The decay terms at each time t are

    L1(t) = 2*eta * (a1_inf(t) + vol * pos(a2_inf(t)))
    L2(t) = a0_sup(t) + vol*M2*(pos(a2_sup(t)) + 2*neg(a2_inf(t)))
            + mu^2/(2*lam*tau) + |chi|/2 * C3 - vol*eta*neg(a2_sup(t))
    h(t)  = max(-lam/(2*tau), L2(t) - L1(t))
    K(t, eps) = eps*(2*a1_inf(t) + vol*pos(a2_inf(t)) + vol*neg(a2_inf(t)))
                + eps*vol*(pos(a2_sup(t)) + neg(a2_sup(t)) + pos(a2_inf(t)) + neg(a2_inf(t)))

and theta is the windowed trapezoid average of h.  A negative theta (beyond
quadrature error) is the uniqueness-and-exponential-stability criterion; K
is the growth an eps-wide band adds to the contraction estimate.  The
constants eta (persistence floor), M2 (eventual amplitude bound), and C3
(eventual second-derivative bound on the chemical) enter with recorded
provenance because measured surrogates weaken the claim.

:func:`hypotheses` reads a1 and a2 once at ``HYPOTHESIS_SAMPLES`` window
nodes, so H1, H2 and the bound they license see the same times;
:func:`decay_terms` reads a0, a1 and a2 once at its times.  A non-finite
value read raises ConfigError keyed by its coefficient's slot.  Spatial
envelopes are nodal and therefore inner approximations of the continuum
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .coefficients import CoefficientSet
from .errors import ChemostabError, ConfigError
from .model import ModelParams

__all__ = [
    "KnownConstants",
    "HypothesisVerdict",
    "ConvexBound",
    "StabilityReport",
    "hypotheses",
    "check_H3",
    "decay_terms",
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
    try:
        return np.linspace(t0, t1, n)
    except ValueError as exc:  # more samples than numpy can index
        raise ConfigError("experiment.n_samples", f"{n:.6g} samples: {exc}") from exc


def _envelope(coeffs: CoefficientSet, slot: str, t) -> tuple[np.ndarray, np.ndarray]:
    """``envelope(t)`` of the coefficient in ``slot``; a non-finite value is a ConfigError keyed by it."""
    try:
        return getattr(coeffs, slot).envelope(t)
    except ChemostabError:  # a tabulated range error is a runtime error
        raise
    except ValueError as exc:
        raise ConfigError(slot, str(exc)) from exc


def hypotheses(
    coeffs: CoefficientSet,
    params: ModelParams,
    constants: KnownConstants,
    window: tuple[float, float],
) -> tuple[HypothesisVerdict, HypothesisVerdict, ConvexBound | None]:
    """H1, H2 and, exactly when H2 holds, the convex-domain amplitude bound.

    Reads a1 and a2 once at the window samples, and a0 only when H2 holds.
    H1's q-infimum runs over the supplied finite list, so its threshold is an
    upper bound of the true one: clearing it is sound, failing it is only
    inconclusive (except chi = 0, where the threshold is exactly zero).  Its
    nonlocal balance clause is exact up to window sampling.
    """
    ts = _window_samples(window, HYPOTHESIS_SAMPLES)
    a1_inf_t = _envelope(coeffs, "a1", ts)[0]
    neg_a2_inf_t = neg(_envelope(coeffs, "a2", ts)[0])
    a1_inf = float(a1_inf_t.min())
    balance = float((a1_inf_t - coeffs.volume * neg_a2_inf_t).min())

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
    h1 = HypothesisVerdict("H1", status, margins, tuple(notes))

    competition = a1_inf - coeffs.grid.dim * params.mu * params.chi / 4.0
    clauses = [params.tau == 1.0, params.chi > 0.0, competition > 0.0, balance > 0.0]
    h2 = HypothesisVerdict("H2", HOLDS if all(clauses) else FAILS, {
        "tau_gap": abs(params.tau - 1.0),
        "chi": params.chi,
        "competition_margin": competition,
        "nonlocal_balance": balance,
    })
    if not h2.ok:
        return h1, h2, None
    a0_sup = float(_envelope(coeffs, "a0", ts)[1].max())
    m0 = 1.5 * coeffs.volume * a0_sup / balance
    m0_ai = a0_sup + 2.0 * params.lam + float(neg_a2_inf_t.max()) * m0
    return h1, h2, ConvexBound(M2=m0_ai * m0_ai / (4.0 * competition), M0=m0, M0_ai=m0_ai)


def check_H3(params: ModelParams, constants: KnownConstants) -> HypothesisVerdict:
    """The drift-strength cap H3; inconclusive without M2."""
    if constants.M2 is None:
        return HypothesisVerdict("H3", INCONCLUSIVE, {}, ("M2 unavailable",))
    margins = {
        "chi_M2_margin": 1.0 - params.chi * constants.M2,
        "tau": params.tau,
    }
    ok = margins["chi_M2_margin"] >= 0.0 and 0.0 < params.tau <= 1.0
    return HypothesisVerdict("H3", HOLDS if ok else FAILS, margins)


def decay_terms(
    t, coeffs: CoefficientSet, params: ModelParams, constants: KnownConstants, eps: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """L1, L2, h and K(eps) at each time in t, from one read of a0, a1 and a2.

    L1 is the contraction gain from persistence and competition, L2 the
    expansion bound from growth, drift and the nonlocal term.
    """
    missing = constants.missing("M2", "eta", "C3_tilde")
    if missing:
        raise ValueError(f"constants missing for L1 and L2: {', '.join(missing)}")
    vol = coeffs.volume
    a0_sup_t = _envelope(coeffs, "a0", t)[1]
    a1_inf_t = _envelope(coeffs, "a1", t)[0]
    a2_inf_t, a2_sup_t = _envelope(coeffs, "a2", t)
    l1 = 2.0 * constants.eta * (a1_inf_t + vol * pos(a2_inf_t))
    l2 = (
        a0_sup_t
        + vol * constants.M2 * (pos(a2_sup_t) + 2.0 * neg(a2_inf_t))
        + params.mu**2 / (2.0 * params.lam * params.tau)
        + 0.5 * abs(params.chi) * constants.C3_tilde
        - vol * constants.eta * neg(a2_sup_t)
    )
    h = np.maximum(-params.lam / (2.0 * params.tau), l2 - l1)
    k = eps * (
        2.0 * a1_inf_t + vol * pos(a2_inf_t) + vol * neg(a2_inf_t)
    ) + eps * vol * (
        pos(a2_sup_t) + neg(a2_sup_t) + pos(a2_inf_t) + neg(a2_inf_t)
    )
    return l1, l2, h, k


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
    verdicts: tuple[HypothesisVerdict, HypothesisVerdict],
    n_samples: int = 2001,
) -> StabilityReport:
    """Sample L1, L2, h over the window and average h into theta.

    ``verdicts`` is (H1, H2) of :func:`hypotheses` over this window.  For
    constant coefficients the average is exact and window independent; for
    the periodic family a window of one period is exact.  Missing constants
    yield an inconclusive report with empty series.
    """
    h1, h2 = verdicts
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
        l1, l2, h, _ = decay_terms(ts, coeffs, params, constants)
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
