import math

import numpy as np
import pytest

from chemostab import (
    CoefficientSet,
    ConstantCoefficient,
    Grid,
    HypothesisVerdict,
    KnownConstants,
    ModelParams,
    SeparableCoefficient,
    TabulatedCoefficient,
    TimeFactor,
    check_H3,
    decay_terms,
    estimate_theta,
    hypotheses,
    spatial_profile,
)
from chemostab import __version__
from chemostab.cli import _write_report
from chemostab.config import parse_config
from chemostab.errors import ConfigError
from oracles import report_csv_reference

WINDOW = (0.0, 10.0)


def grid1():
    return Grid((1.0,), (11,))


def theta_report(coeffs, params, constants, window, n_samples):
    """``estimate_theta`` given the H1 and H2 of the same window, as the CLI gives them."""
    verdicts = hypotheses(coeffs, params, constants, window)[:2]
    return estimate_theta(coeffs, params, constants, window, verdicts, n_samples)


def const_set(grid, a0=1.0, a1=1.0, a2=0.0):
    return CoefficientSet(
        ConstantCoefficient(grid, a0),
        ConstantCoefficient(grid, a1),
        ConstantCoefficient(grid, a2),
    )


def params(chi=0.0, tau=1.0, lam=1.0, mu=1.0):
    return ModelParams(chi=chi, tau=tau, lam=lam, mu=mu)


def bound(coeffs, p):
    return hypotheses(coeffs, p, KnownConstants(), WINDOW)[2]


def h1(coeffs, p, constants=KnownConstants()):
    return hypotheses(coeffs, p, constants, WINDOW)[0]


def h2(coeffs, p):
    return hypotheses(coeffs, p, KnownConstants(), WINDOW)[1]


def pos(x):
    return max(x, 0.0)


def neg(x):
    return max(-x, 0.0)


class TestKnownConstants:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            KnownConstants(M2=-1.0)
        with pytest.raises(ValueError):
            KnownConstants(eta=0.0)

    def test_band_nonempty(self):
        with pytest.raises(ValueError):
            KnownConstants(M2=0.5, eta=1.0)
        KnownConstants(M2=1.0, eta=1.0)

    @pytest.mark.parametrize("source,key", [("config", "M2"), ("convex-formula", "eta"),
                                            ("measured", "eta")])
    def test_band_error_names_the_given_constant(self, source, key):
        # an M2 that was derived or measured is not the value to blame; eta is
        with pytest.raises(ConfigError) as info:
            KnownConstants(eta=1.0, provenance={"eta": "config"}).with_values(source, M2=0.5)
        assert info.value.key == key

    def test_provenance_recorded(self):
        c = KnownConstants().with_values("measured", eta=0.5)
        assert c.eta == 0.5
        assert c.provenance["eta"] == "measured"


class TestConvexAmplitudeBound:
    def test_reference_point(self):
        # vol=1, n=1, a0=a1=1, a2=0, lam=mu=chi=1
        out = bound(const_set(grid1()), params(chi=1.0))
        assert out.M0 == pytest.approx(1.5, abs=1e-12)
        assert out.M0_ai == pytest.approx(3.0, abs=1e-12)
        assert out.M2 == pytest.approx(3.0, abs=1e-12)

    def test_vanishing_drift_limit(self):
        out = bound(const_set(grid1()), params(chi=1e-300))
        assert out.M2 == pytest.approx(2.25, abs=1e-12)

    def test_denominator_boundary_fails(self):
        # a1_inf - n*mu*chi/4 = 0: H2 fails on its competition clause, and no bound
        _, verdict, out = hypotheses(const_set(grid1(), a1=0.25), params(chi=1.0, mu=1.0),
                                     KnownConstants(), WINDOW)
        assert verdict.status == "fails"
        assert verdict.margins["competition_margin"] <= 0.0
        assert out is None

    def test_nonlocal_balance_fails(self):
        # vol * neg(a2_inf) = 1.5 > a1 = 1
        _, verdict, out = hypotheses(const_set(grid1(), a2=-1.5), params(chi=0.1),
                                     KnownConstants(), WINDOW)
        assert verdict.status == "fails"
        assert verdict.margins["nonlocal_balance"] <= 0.0
        assert out is None


class TestH1:
    def test_chi_zero_reduction(self):
        verdict = h1(const_set(grid1()), params(chi=0.0))
        assert verdict.ok

    def test_nonneg_a2_second_clause(self):
        verdict = h1(const_set(grid1(), a2=0.7), params(chi=0.0))
        assert verdict.ok
        assert verdict.margins["nonlocal_balance"] == pytest.approx(1.0, abs=1e-12)

    def test_supplied_pair_margin(self):
        constants = KnownConstants(cq1_pairs=((1.5, 8.0),))
        verdict = h1(const_set(grid1()), params(chi=0.3, mu=1.0), constants)
        assert verdict.ok
        assert verdict.margins["drift_threshold"] == pytest.approx(0.229739670999407, abs=1e-12)
        assert verdict.margins["drift_margin"] == pytest.approx(0.7702603290005929, abs=1e-12)

    def test_missing_pairs_inconclusive(self):
        verdict = h1(const_set(grid1()), params(chi=0.3))
        assert verdict.status == "inconclusive"

    def test_uncleared_bound_inconclusive_not_fails(self):
        constants = KnownConstants(cq1_pairs=((1.5, 8.0),))
        verdict = h1(const_set(grid1(), a1=0.1), params(chi=3.0), constants)
        assert verdict.status == "inconclusive"

    def test_negative_balance_fails(self):
        verdict = h1(const_set(grid1(), a2=-2.0), params(chi=0.0))
        assert verdict.status == "fails"

    def test_invalid_q_rejected(self):
        constants = KnownConstants(cq1_pairs=((0.5, 8.0),))
        with pytest.raises(ConfigError, match="experiment.cq1_pairs"):
            h1(const_set(grid1()), params(chi=0.3), constants)


class TestH2:
    def test_holds(self):
        verdict = h2(const_set(grid1()), params(chi=1.0, tau=1.0))
        assert verdict.ok
        assert verdict.margins["competition_margin"] == pytest.approx(0.75, abs=1e-12)

    def test_tau_clause(self):
        verdict = h2(const_set(grid1()), params(chi=1.0, tau=0.5))
        assert verdict.status == "fails"

    def test_chi_clause(self):
        verdict = h2(const_set(grid1()), params(chi=-0.1, tau=1.0))
        assert verdict.status == "fails"

    def test_rectangle_reports_convex(self):
        # the dimension n of the competition clause is the grid's
        grid2 = Grid((1.0, 2.0), (5, 7))
        verdict = h2(const_set(grid2), params(chi=1.0))
        assert verdict.ok and verdict.notes == ()
        assert verdict.margins["competition_margin"] == pytest.approx(0.5, abs=1e-12)


class TestH3:
    def test_holds(self):
        verdict = check_H3(params(chi=0.2, tau=1.0), KnownConstants(M2=3.0))
        assert verdict.ok
        assert verdict.margins["chi_M2_margin"] == pytest.approx(0.4, abs=1e-12)

    def test_fails_on_strong_drift(self):
        verdict = check_H3(params(chi=0.5), KnownConstants(M2=3.0))
        assert verdict.status == "fails"

    def test_fails_on_large_tau(self):
        verdict = check_H3(params(chi=0.0, tau=1.5), KnownConstants(M2=3.0))
        assert verdict.status == "fails"

    def test_missing_m2_inconclusive(self):
        verdict = check_H3(params(chi=0.2), KnownConstants())
        assert verdict.status == "inconclusive"


class TestEnvelopeFunctions:
    def test_L1_reference(self):
        constants = KnownConstants(M2=1.0, eta=1.0, C3_tilde=1.0)
        val = decay_terms(0.0, const_set(grid1()), params(), constants)[0]
        assert val == pytest.approx(2.0, abs=1e-14)

    def test_L1_negative_a2_drops_positive_part(self):
        constants = KnownConstants(M2=1.0, eta=0.7, C3_tilde=1.0)
        val = decay_terms(0.0, const_set(grid1(), a1=1.3, a2=-1.0), params(), constants)[0]
        assert val == pytest.approx(2 * 0.7 * 1.3, abs=1e-14)

    def test_L1_mixed_terms(self):
        g = Grid((2.0,), (11,))
        constants = KnownConstants(M2=1.0, eta=0.5, C3_tilde=1.0)
        val = decay_terms(0.0, const_set(g, a1=2.0, a2=3.0), params(), constants)[0]
        assert val == pytest.approx(2 * 0.5 * (2.0 + 2.0 * 3.0), abs=1e-14)

    def test_L2_simple(self):
        constants = KnownConstants(M2=1.0, eta=0.5, C3_tilde=1.0)
        val = decay_terms(0.0, const_set(grid1()), params(chi=0.0), constants)[1]
        assert val == pytest.approx(1.5, abs=1e-14)

    def test_L2_requires_constants(self):
        with pytest.raises(ValueError):
            decay_terms(0.0, const_set(grid1()), params(), KnownConstants(eta=1.0))

    @pytest.mark.parametrize("seed", range(30))
    def test_constant_coefficient_difference_closed_form(self, seed):
        # independent closed form for constant coefficients
        rng = np.random.default_rng(seed)
        vol = rng.uniform(0.5, 3.0)
        g = Grid((vol,), (9,))
        a0 = rng.uniform(0.1, 4.0)
        a1 = rng.uniform(0.1, 4.0)
        a2 = rng.uniform(-2.0, 2.0)
        p = params(chi=rng.uniform(-2, 2), tau=rng.uniform(0.05, 1.0),
                   lam=rng.uniform(0.1, 3.0), mu=rng.uniform(0.1, 3.0))
        eta = rng.uniform(0.01, 1.5)
        constants = KnownConstants(M2=eta + rng.uniform(0.0, 2.0), eta=eta,
                                   C3_tilde=rng.uniform(0.1, 3.0))
        cs = const_set(g, a0, a1, a2)
        l1, l2, _, _ = decay_terms(0.7, cs, p, constants)
        got = l2 - l1
        expected = (
            a0 + p.mu**2 / (2 * p.lam * p.tau) + abs(p.chi) * constants.C3_tilde / 2
            + vol * constants.M2 * (pos(a2) + 2 * neg(a2))
            - eta * (2 * a1 + vol * (abs(a2) + pos(a2)))
        )
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_regrouped_L2_identity(self, seed):
        # the two published groupings of L2 agree term by term
        rng = np.random.default_rng(100 + seed)
        vol = rng.uniform(0.5, 2.0)
        g = Grid((vol,), (7,))
        a2 = rng.uniform(-2.0, 2.0)
        cs = const_set(g, rng.uniform(0.1, 2), rng.uniform(0.1, 2), a2)
        p = params(chi=rng.uniform(-1, 1), tau=rng.uniform(0.1, 1.0),
                   lam=rng.uniform(0.2, 2.0), mu=rng.uniform(0.2, 2.0))
        constants = KnownConstants(M2=rng.uniform(1, 3), eta=rng.uniform(0.1, 1),
                                   C3_tilde=rng.uniform(0.1, 2))
        got = decay_terms(0.0, cs, p, constants)[1]
        regrouped = (
            cs.a0.envelope(0.0)[1]
            + p.mu**2 / (2 * p.lam * p.tau)
            + abs(p.chi) * constants.C3_tilde / 2
            + vol * constants.M2 * (2 * neg(a2) + pos(a2))
            - vol * constants.eta * neg(a2)
        )
        assert got == pytest.approx(regrouped, rel=1e-13)


class TestTheta:
    def test_constant_negative(self):
        # L2 - L1 = 1 + 0.5 - 2*0.9 = -0.3; clamp at -0.5 inactive
        constants = KnownConstants(M2=1.0, eta=0.9, C3_tilde=1.0)
        report = theta_report(const_set(grid1()), params(chi=0.0), constants,
                              (0.0, 20.0), 101)
        assert report.theta == pytest.approx(-0.3, abs=1e-12)
        assert report.conclusion == "criterion_holds"

    def test_constant_positive(self):
        # L2 - L1 = 1.5 - 1.3 = +0.2
        constants = KnownConstants(M2=1.0, eta=0.65, C3_tilde=1.0)
        report = theta_report(const_set(grid1()), params(chi=0.0), constants,
                              (0.0, 20.0), 101)
        assert report.theta == pytest.approx(0.2, abs=1e-12)
        assert report.conclusion == "criterion_fails"

    def test_window_independence_for_constants(self):
        constants = KnownConstants(M2=1.0, eta=0.9, C3_tilde=1.0)
        r1 = theta_report(const_set(grid1()), params(), constants, (0.0, 5.0), 51)
        r2 = theta_report(const_set(grid1()), params(), constants, (3.0, 40.0), 201)
        assert r1.theta == pytest.approx(r2.theta, abs=1e-13)

    def periodic_setup(self):
        g = grid1()
        time = TimeFactor("sinusoid", offset=1.0, amplitude=1.0, frequency=1.0)
        a0 = SeparableCoefficient(g, time, spatial_profile(g, "constant", value=1.0))
        cs = CoefficientSet(a0, ConstantCoefficient(g, 1.0), ConstantCoefficient(g, 0.0))
        # L2 - L1 = (1 + sin t) + mu^2/(2*lam*tau) - 2*eta = sin t - 0.1
        p = params(chi=0.0, tau=1.0, lam=3.0, mu=1.0)
        eta = (1.0 + 1.0 / 6.0 + 0.1) / 2.0
        constants = KnownConstants(M2=1.0, eta=eta, C3_tilde=1.0)
        return cs, p, constants

    def test_periodic_average(self):
        cs, p, constants = self.periodic_setup()
        report = theta_report(cs, p, constants, (0.0, 2 * math.pi), 10001)
        assert report.theta == pytest.approx(-0.1, abs=1e-3)
        assert report.conclusion == "criterion_holds"

    def test_clamp_lower_bound_property(self):
        cs, p, constants = self.periodic_setup()
        report = theta_report(cs, p, constants, (0.0, 2 * math.pi), 501)
        clamp = -p.lam / (2 * p.tau)
        assert np.all(report.h_series >= clamp - 1e-15)

    def test_nyquist_refinement_invariance(self):
        cs, p, constants = self.periodic_setup()
        coarse = theta_report(cs, p, constants, (0.0, 2 * math.pi), 401)
        fine = theta_report(cs, p, constants, (0.0, 2 * math.pi), 801)
        assert coarse.theta == pytest.approx(fine.theta, abs=1e-4)

    def test_theta_is_trapezoid_average_of_series(self):
        cs, p, constants = self.periodic_setup()
        report = theta_report(cs, p, constants, (0.0, 2 * math.pi), 301)
        span = report.ts[-1] - report.ts[0]
        recomputed = np.trapezoid(report.h_series, report.ts) / span
        assert report.theta == pytest.approx(recomputed, abs=1e-15)

    @pytest.mark.parametrize("kind", ["separable", "tabulated-clamped"])
    def test_series_match_per_sample_eval(self, kind):
        g = Grid((1.5,), (21,))
        ramp = spatial_profile(g, "linear-ramp", start=-0.4, stop=1.0)
        wave = spatial_profile(g, "sine", offset=1.0, amplitude=0.5, mode=2.0)
        a2 = SeparableCoefficient(g, TimeFactor("sinusoid", offset=-0.1, amplitude=0.6,
                                                frequency=1.7), ramp)
        if kind == "separable":
            a0 = SeparableCoefficient(g, TimeFactor("expdecay", limit=1.0, amplitude=0.5,
                                                    rate=0.3), wave)
        else:
            a0 = TabulatedCoefficient(g, [1.0, 2.5, 4.0],
                                      [wave.values, 2.0 * wave.values, ramp.values + 1.0])
        a1 = SeparableCoefficient(g, TimeFactor("sinusoid", offset=2.0, amplitude=0.5,
                                                frequency=0.9), wave)
        cs = CoefficientSet(a0, a1, a2)
        p = params(chi=-0.4, tau=0.8, lam=1.3, mu=0.9)
        constants = KnownConstants(M2=1.4, eta=0.6, C3_tilde=1.1)
        report = theta_report(cs, p, constants, (0.0, 6.0), 301)
        vol = g.volume
        l1_ref, l2_ref, h_ref = [], [], []
        for t in report.ts:
            a0_sup = a0.eval(t).max()
            a1_inf = a1.eval(t).min()
            a2_inf, a2_sup = a2.eval(t).min(), a2.eval(t).max()
            l1 = 2.0 * constants.eta * (a1_inf + vol * pos(a2_inf))
            l2 = (a0_sup + vol * constants.M2 * (pos(a2_sup) + 2.0 * neg(a2_inf))
                  + p.mu**2 / (2.0 * p.lam * p.tau) + 0.5 * abs(p.chi) * constants.C3_tilde
                  - vol * constants.eta * neg(a2_sup))
            l1_ref.append(l1)
            l2_ref.append(l2)
            h_ref.append(max(-p.lam / (2.0 * p.tau), l2 - l1))
        assert np.array_equal(report.L1_series, l1_ref)
        assert np.array_equal(report.L2_series, l2_ref)
        assert np.array_equal(report.h_series, h_ref)

    def test_verdicts_carried_as_given(self, monkeypatch):
        # the caller's H1 and H2 are the report's: estimate_theta reads no hypothesis itself
        import chemostab.stability as stability

        monkeypatch.setattr(stability, "hypotheses", lambda *args: pytest.fail("read again"))
        h1, h2 = HypothesisVerdict("H1", "inconclusive"), HypothesisVerdict("H2", "fails")
        constants = KnownConstants(M2=1.0, eta=0.9, C3_tilde=1.0)
        report = estimate_theta(const_set(grid1()), params(), constants, (0.0, 5.0), (h1, h2), 41)
        assert report.h1_ok is h1 and report.h2_ok is h2
        assert report.conclusion == "criterion_holds"

    def test_missing_constants_inconclusive(self):
        report = theta_report(const_set(grid1()), params(), KnownConstants(),
                              (0.0, 1.0), 11)
        assert report.conclusion == "inconclusive"
        assert math.isnan(report.theta)
        assert report.ts.size == 0

    def test_eps_suggestion(self):
        constants = KnownConstants(M2=1.0, eta=0.9, C3_tilde=1.0)
        report = theta_report(const_set(grid1()), params(), constants, (0.0, 5.0), 41)
        assert report.eps_suggested == pytest.approx(0.03, abs=1e-12)

    def test_decay_integrand_clamped(self):
        constants = KnownConstants(M2=2.0, eta=2.0, C3_tilde=1.0)
        # L2 - L1 = 1 + 1.25 - 2*2*2 = -5.75 clamps at -lam/(2 tau) = -0.2
        val = decay_terms(0.0, const_set(grid1(), a1=2.0), params(lam=0.4), constants)[2]
        assert val == pytest.approx(-0.2, abs=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_L1_nondecreasing_in_eta(self, seed):
        # guard a1_inf > 0 holds for all role-1 coefficients by construction
        rng = np.random.default_rng(200 + seed)
        g = Grid((rng.uniform(0.5, 2.0),), (7,))
        cs = const_set(g, a1=rng.uniform(0.05, 3.0), a2=rng.uniform(-2.0, 2.0))
        etas = np.sort(rng.uniform(0.01, 2.0, size=4))
        vals = [
            decay_terms(0.0, cs, params(), KnownConstants(eta=float(e), M2=3.0, C3_tilde=1.0))[0]
            for e in etas
        ]
        assert all(vals[k + 1] >= vals[k] - 1e-14 for k in range(3))

    def test_band_gain_nonnegative_and_linear_in_eps(self):
        cs = const_set(grid1(), a2=-0.3)
        constants = KnownConstants(M2=1.0, eta=1.0, C3_tilde=1.0)
        k1 = decay_terms(0.0, cs, params(), constants, 0.1)[3]
        k2 = decay_terms(0.0, cs, params(), constants, 0.2)[3]
        assert k1 >= 0.0
        assert k2 == pytest.approx(2 * k1, rel=1e-13)


class TestReportSerialization:
    """The stability CSV as the CLI writes it, against the old serializer's text."""

    CFG = parse_config("grid: {extents: [1.0], counts: [11]}\n"
                       "params: {chi: 0.0, tau: 1.0, lambda: 1.0, mu: 1.0}\n"
                       "output: {name: report}\n")
    META = f"# chemostab {__version__}\n# config_hash: {CFG.content_hash}\n"

    def written(self, tmp_path, report):
        _write_report(self.CFG, str(tmp_path), report)
        return (tmp_path / f"report_{self.CFG.content_hash}_stability.csv").read_text()

    def test_csv_roundtrip_structure(self, tmp_path):
        constants = KnownConstants(M2=1.0, eta=0.9, C3_tilde=1.0,
                                   provenance={"M2": "config"})
        report = theta_report(const_set(grid1()), params(), constants, (0.0, 2.0), 21)
        text = self.written(tmp_path, report)
        lines = text.strip().split("\n")
        header_lines = [ln for ln in lines if ln.startswith("#")]
        data_lines = [ln for ln in lines if not ln.startswith("#")]
        assert data_lines[0] == "t,L1,L2,h"
        assert len(data_lines) - 1 == report.ts.size
        assert any("theta" in ln for ln in header_lines)
        assert any("conclusion: criterion_holds" in ln for ln in header_lines)

    def test_full_report_matches_reference(self, tmp_path):
        # every optional line of the '#' block: eps_suggested, M1, measured eta,
        # cq1_pairs, notes; a tabulated coefficient adds a regularity note
        grid = grid1()
        a0 = TabulatedCoefficient(grid, np.array([0.0, 1.0, 2.0]),
                                  np.array([[1.0] * 11, [1.2] * 11, [0.9] * 11]))
        cs = CoefficientSet(a0, ConstantCoefficient(grid, 1.2),
                            ConstantCoefficient(grid, -0.05))
        constants = KnownConstants(
            M1=1.5, M2=1.2, eta=0.95, C3_tilde=0.3, cq1_pairs=((2.0, 1.5), (3.0, 2.0)),
            provenance={"M1": "measured", "M2": "convex-formula", "eta": "measured",
                        "C3_tilde": "measured"})
        report = theta_report(cs, params(chi=0.1), constants, (0.0, 2.0), 41)
        assert report.eps_suggested is not None and report.notes
        assert report.constants.cq1_pairs
        assert self.written(tmp_path, report) == self.META + report_csv_reference(report)

    def test_inconclusive_report_matches_reference(self, tmp_path):
        report = theta_report(const_set(grid1()), params(), KnownConstants(M2=1.0),
                              (0.0, 1.0), 11)
        assert report.ts.size == 0 and report.eps_suggested is None
        text = self.written(tmp_path, report)
        assert text == self.META + report_csv_reference(report)
        assert text.endswith("t,L1,L2,h\n")
