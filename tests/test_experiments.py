import math

import numpy as np
import pytest

from chemostab import (
    CoefficientSet,
    ConstantCoefficient,
    GapSeries,
    Grid,
    GridMismatchError,
    KnownConstants,
    ModelParams,
    ModelState,
    SeparableCoefficient,
    StepperConfig,
    TBackInsufficientError,
    TimeFactor,
    approximate_entire_solution,
    band_entry_time,
    estimate_persistence,
    estimate_theta,
    fit_decay_rate,
    gronwall_check,
    hypotheses,
    integrate_values,
    measure_constants,
    run,
    spatial_profile,
    trajectory_gap,
)

from oracles import gronwall_loop, logistic_exact, periodic_logistic_oracle, trajectory_gap_loop


def const_set(grid, a0=1.0, a1=1.0, a2=0.0):
    return CoefficientSet(
        ConstantCoefficient(grid, a0),
        ConstantCoefficient(grid, a1),
        ConstantCoefficient(grid, a2),
    )


def flat_state(grid, u0, v0, t=0.0):
    return ModelState(t, np.full(grid.counts, u0), np.full(grid.counts, v0))


PARAMS = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)


def theta_report(coeffs, params, constants, window, n_samples):
    """``estimate_theta`` given the H1 and H2 of the same window, as the CLI gives them."""
    verdicts = hypotheses(coeffs, params, constants, window)[:2]
    return estimate_theta(coeffs, params, constants, window, verdicts, n_samples)


@pytest.fixture(scope="module")
def grid():
    return Grid((1.0,), (5,))


@pytest.fixture(scope="module")
def logistic_pair(grid):
    """Two flat logistic runs from u0=0.5 and u0=2 on shared samples."""
    cfg = StepperConfig(error_tol=1e-8, dt_max=0.1)
    cs = const_set(grid)
    times = np.linspace(0.0, 10.0, 101)
    runs = [
        run(flat_state(grid, u0, 0.0), 10.0, cs, PARAMS, cfg, sample_times=times)
        for u0 in (0.5, 2.0)
    ]
    return runs


def synthetic_series(rate, t_end=10.0, n=101, scale=1.0):
    t = np.linspace(0.0, t_end, n)
    e = scale * np.exp(rate * t)
    z = np.sqrt(e / 2.0)
    return GapSeries(t=t, E=e, w_L2=z, phi_L2=z, w_Linf=z, phi_Linf=z,
                     volume=1.0, state_scale=1.0)


class TestTrajectoryGap:
    def test_self_gap_is_zero(self, logistic_pair):
        gap = trajectory_gap(logistic_pair[0], logistic_pair[0])
        assert np.all(gap.E == 0.0)
        assert np.all(gap.w_Linf == 0.0)

    def test_symmetry(self, logistic_pair):
        a, b = logistic_pair
        g1 = trajectory_gap(a, b)
        g2 = trajectory_gap(b, a)
        assert np.array_equal(g1.E, g2.E)
        assert np.array_equal(g1.w_Linf, g2.w_Linf)
        assert np.array_equal(g1.phi_L2, g2.phi_L2)

    def test_matches_closed_form_difference(self, logistic_pair):
        gap = trajectory_gap(*logistic_pair)
        expected = np.abs(logistic_exact(gap.t, 0.5) - logistic_exact(gap.t, 2.0))
        assert np.max(np.abs(gap.w_Linf - expected)) < 1e-6

    def test_E_consistent_with_fields(self, logistic_pair):
        a, b = logistic_pair
        gap = trajectory_gap(a, b)
        grid = a.grid
        for k in (0, 17, 50, 100):
            w = a.u[k] - b.u[k]
            phi = a.v[k] - b.v[k]
            e_direct = integrate_values(grid, w * w) + integrate_values(grid, phi * phi)
            assert gap.E[k] == pytest.approx(e_direct, rel=1e-12, abs=1e-300)

    def test_matches_sample_loop(self):
        # the stacked computation against one norms() call per sample
        grid = Grid((1.0, 1.0), (7, 9))
        x, y = grid.coords()
        cs = const_set(grid)
        pair = [run(ModelState(0.0, u0 + 0.2 * np.cos(np.pi * x) * np.cos(np.pi * y),
                               0.1 + 0.1 * np.cos(np.pi * y)), 2.0, cs, PARAMS, StepperConfig(),
                    sample_dt=0.25)
                for u0 in (0.5, 2.0)]
        gap = trajectory_gap(*pair)
        *columns, scale = trajectory_gap_loop(*pair)
        for got, want in zip((gap.E, gap.w_L2, gap.phi_L2, gap.w_Linf, gap.phi_Linf), columns):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert gap.state_scale == scale

    def test_mismatched_samples_rejected(self, grid, logistic_pair):
        cfg = StepperConfig()
        other = run(flat_state(grid, 0.5, 0.0), 1.0, const_set(grid), PARAMS, cfg,
                    sample_dt=0.5)
        with pytest.raises(GridMismatchError):
            trajectory_gap(logistic_pair[0], other)


class TestFitDecayRate:
    def test_exact_exponential(self):
        fit = fit_decay_rate(synthetic_series(-0.4), (0.0, 10.0))
        assert fit.rate == pytest.approx(-0.4, abs=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert not fit.floored

    def test_perturbed_exponential(self):
        t = np.linspace(0.0, 20.0, 201)
        e = (1.0 + 0.01 * np.sin(t)) * np.exp(-0.4 * t)
        z = np.sqrt(e / 2.0)
        series = GapSeries(t=t, E=e, w_L2=z, phi_L2=z, w_Linf=z, phi_Linf=z,
                           volume=1.0, state_scale=1.0)
        fit = fit_decay_rate(series, (0.0, 20.0))
        assert -0.41 <= fit.rate <= -0.39

    def test_floor_sentinel(self):
        series = synthetic_series(-1.0)
        dead = GapSeries(t=series.t, E=np.zeros_like(series.E), w_L2=series.w_L2,
                         phi_L2=series.phi_L2, w_Linf=series.w_Linf,
                         phi_Linf=series.phi_Linf, volume=1.0, state_scale=1.0)
        fit = fit_decay_rate(dead, (0.0, 10.0))
        assert fit.floored and fit.rate == -math.inf

    def test_too_few_samples(self):
        series = synthetic_series(-1.0)
        with pytest.raises(ValueError):
            fit_decay_rate(series, (0.0, 0.15))


class TestPersistence:
    def test_flat_logistic_floor(self, grid):
        cfg = StepperConfig(error_tol=1e-8, dt_max=0.5)
        traj = run(flat_state(grid, 0.1, 0.0), 40.0, const_set(grid), PARAMS, cfg,
                   sample_dt=0.25)
        est = estimate_persistence(traj, burn_in=15.0)
        assert est.persisted
        assert est.eta_hat == pytest.approx(1.0, abs=1e-4)
        assert est.xi_hat is not None and est.xi_hat <= 15.0

    def test_extinction_reports_failure(self, grid):
        cfg = StepperConfig()
        traj = run(flat_state(grid, 0.0, 1.0), 5.0, const_set(grid), PARAMS, cfg,
                   sample_dt=0.5)
        est = estimate_persistence(traj, burn_in=1.0)
        assert not est.persisted
        assert est.eta_hat == 0.0
        assert est.xi_hat is None

    def test_periodic_floor_matches_ode_oracle(self, grid):
        time = TimeFactor("sinusoid", offset=1.0, amplitude=0.2, frequency=1.0)
        a0 = SeparableCoefficient(grid, time, spatial_profile(grid, "constant", value=1.0))
        cs = CoefficientSet(a0, ConstantCoefficient(grid, 1.0),
                            ConstantCoefficient(grid, 0.0))
        cfg = StepperConfig(error_tol=3e-6, dt_max=0.1)
        burn = 30.0
        t_end = burn + 4.0 * math.pi
        times = np.concatenate([[0.0], np.linspace(burn, t_end, 500)])
        traj = run(flat_state(grid, 0.7, 0.0), t_end, cs, PARAMS, cfg, sample_times=times)
        est = estimate_persistence(traj, burn_in=burn)
        oracle = periodic_logistic_oracle()
        ts = np.linspace(0.0, 2 * math.pi, 4001)
        assert est.eta_hat == pytest.approx(float(np.min(oracle(ts))), abs=1e-3)

    def test_burn_in_beyond_trajectory(self, grid):
        traj = run(flat_state(grid, 0.5, 0.0), 1.0, const_set(grid), PARAMS,
                   StepperConfig(), sample_dt=0.5)
        with pytest.raises(ValueError):
            estimate_persistence(traj, burn_in=5.0)


class TestBounds:
    def test_flat_equilibrium_values(self, grid):
        cfg = StepperConfig(error_tol=1e-8, dt_max=0.5)
        traj = run(flat_state(grid, 1.0, 1.0), 10.0, const_set(grid), PARAMS, cfg,
                   sample_dt=0.5)
        est = measure_constants([traj], (2.0, 2.0, 2.0))
        assert est.M1 == pytest.approx(grid.volume, rel=1e-10)
        assert est.M2 == pytest.approx(1.0, rel=1e-10)
        assert est.C3_tilde == pytest.approx(1.0, rel=1e-10)

    def test_mu_scaling_of_chemical_bound(self, grid):
        cfg = StepperConfig(error_tol=1e-8, dt_max=0.5)
        hats = []
        for mu in (1.0, 2.0):
            p = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=mu)
            traj = run(flat_state(grid, 1.0, 0.0), 40.0, const_set(grid), p, cfg,
                       sample_dt=1.0)
            hats.append(measure_constants([traj], (20.0, 20.0, 20.0)))
        assert hats[1].C3_tilde == pytest.approx(2.0 * hats[0].C3_tilde, rel=1e-3)
        assert hats[1].M2 == pytest.approx(hats[0].M2, rel=1e-6)
        assert hats[1].M1 == pytest.approx(hats[0].M1, rel=1e-6)

    def test_integral_vs_sup_invariant(self, grid):
        cfg = StepperConfig(error_tol=1e-6)
        traj = run(flat_state(grid, 2.0, 0.0), 5.0, const_set(grid), PARAMS, cfg,
                   sample_dt=0.25)
        est = measure_constants([traj], (1.0, 1.0, 1.0))
        assert est.M1 <= est.M2 * grid.volume * (1 + 1e-12)


class TestMeasureConstants:
    def test_pooling_and_provenance(self, logistic_pair):
        constants = measure_constants(list(logistic_pair), (5.0, 5.0, 5.0))
        assert constants.provenance["M2"] == "measured"
        assert constants.eta is not None and constants.eta <= constants.M2
        assert constants.M1 <= constants.M2 * logistic_pair[0].grid.volume + 1e-12

    def test_batch_pools_members(self, grid):
        # heterogeneous coefficients and seeds: each member reaches its own bounds
        ramp = spatial_profile(grid, "linear-ramp", start=0.5, stop=1.5)
        cs = CoefficientSet(
            SeparableCoefficient(grid, TimeFactor("sinusoid", offset=1.0, amplitude=0.3,
                                                  frequency=1.0), ramp),
            ConstantCoefficient(grid, 1.0),
            ConstantCoefficient(grid, 0.2),
        )
        params = ModelParams(chi=0.2, tau=1.0, lam=1.0, mu=1.0)
        x = grid.coords()[0]
        u0 = np.stack([np.full(grid.counts, 0.2), np.full(grid.counts, 3.0),
                       1.0 + 0.5 * np.cos(np.pi * x)])
        v0 = np.stack([np.zeros(grid.counts), np.full(grid.counts, 1.0), np.zeros(grid.counts)])
        members = run(ModelState(0.0, u0, v0), 10.0, cs, params,
                      StepperConfig(error_tol=1e-6, dt_max=0.25), sample_dt=0.25).members()
        burn_ins = (3.0, 2.0, 4.0)
        pooled = measure_constants(members, burn_ins)
        alone = [measure_constants([m], burn_ins) for m in members]
        assert len({c.M2 for c in alone}) == 3
        for name in ("M1", "M2", "C3_tilde"):
            assert getattr(pooled, name) == max(getattr(c, name) for c in alone)
        assert pooled.eta == min(c.eta for c in alone)

    def test_vanishing_member_leaves_eta_unmeasured(self, grid, logistic_pair):
        extinct = run(flat_state(grid, 0.0, 1.0), 10.0, const_set(grid), PARAMS,
                      StepperConfig(), sample_dt=0.5)
        constants = measure_constants([logistic_pair[0], extinct], (5.0, 5.0, 5.0))
        assert constants.eta is None and "eta" not in constants.provenance
        assert constants.provenance["M2"] == "measured"


class TestEntireSolution:
    def test_homogeneous_segment_near_equilibrium(self, grid):
        cfg = StepperConfig(error_tol=1e-7, dt_max=0.25)
        entire, _ = approximate_entire_solution(
            const_set(grid), PARAMS, cfg, t_back=30.0, span=(0.0, 5.0),
            sample_dt=0.25, tolerance=1e-6,
        )
        assert np.max(np.abs(entire.trajectory.u - 1.0)) < 1e-4
        assert np.max(np.abs(entire.trajectory.v - 1.0)) < 1e-4
        assert entire.seed_gap < 1e-6

    def test_insufficient_horizon_raises_with_gap(self, grid):
        cfg = StepperConfig(error_tol=1e-7, dt_max=0.25)
        with pytest.raises(TBackInsufficientError) as info:
            approximate_entire_solution(
                const_set(grid), PARAMS, cfg, t_back=1.0, span=(0.0, 2.0),
                sample_dt=0.25, tolerance=1e-10,
            )
        assert info.value.gap > 1e-10

    def test_invalid_span(self, grid):
        with pytest.raises(ValueError):
            approximate_entire_solution(const_set(grid), PARAMS, StepperConfig(),
                                        t_back=5.0, span=(1.0, 1.0))


class TestGronwall:
    def make_report(self, grid, eta=0.9, m2=1.1, c3=1.0):
        constants = KnownConstants(M2=m2, eta=eta, C3_tilde=c3)
        return theta_report(const_set(grid), PARAMS, constants, (0.0, 10.0), 101)

    def test_identical_runs_trivially_satisfied(self, grid, logistic_pair):
        report = self.make_report(grid)
        pair = (logistic_pair[0], logistic_pair[0])
        result = gronwall_check(trajectory_gap(*pair), report, 0.05,
                                band_entry_time(pair, report, 0.05))
        assert result.conclusive
        assert result.fraction == 1.0
        assert result.worst_margin <= 0.0

    def test_synthetic_violation_fully_detected(self, grid):
        report = self.make_report(grid)
        assert report.theta < 0.0
        series = synthetic_series(+1.0, t_end=10.0, n=101)
        result = gronwall_check(series, report, eps=0.05, t_entry=0.0)
        assert result.conclusive
        assert result.fraction == 0.0
        assert result.worst_margin > 0.0

    @pytest.mark.parametrize("t_entry", [0.0, 3.05, 9.9])
    def test_series_matches_interval_loop(self, grid, t_entry):
        # time-dependent, sign-changing coefficients and a wobbling gap, so
        # h, K and the neighbour Lipschitz windows all vary between intervals
        ramp = spatial_profile(grid, "linear-ramp", start=-0.5, stop=1.0)
        cs = CoefficientSet(
            SeparableCoefficient(grid, TimeFactor("sinusoid", offset=1.0, amplitude=0.8,
                                                  frequency=1.3), ramp),
            ConstantCoefficient(grid, 1.2),
            SeparableCoefficient(grid, TimeFactor("sinusoid", offset=0.0, amplitude=0.3,
                                                  frequency=0.7), ramp),
        )
        constants = KnownConstants(M2=1.1, eta=0.9, C3_tilde=1.0)
        report = theta_report(cs, PARAMS, constants, (0.0, 10.0), 101)
        t = np.linspace(0.0, 10.0, 101)
        e = np.exp(-0.8 * t) * (1.0 + 0.4 * np.sin(5.0 * t))
        series = GapSeries(t=t, E=e, w_L2=np.sqrt(e), phi_L2=0.0 * e, w_Linf=np.sqrt(e),
                           phi_Linf=0.0 * e, volume=1.0, state_scale=1.0)
        result = gronwall_check(series, report, eps=0.05, t_entry=t_entry)
        fraction, worst, max_slack = gronwall_loop(series, report, 0.05, t_entry)
        assert result.fraction == fraction
        assert result.worst_margin == worst
        assert result.max_slack == max_slack

    def test_one_sample_after_entry_is_inconclusive(self, grid):
        report = self.make_report(grid)
        result = gronwall_check(synthetic_series(-1.0), report, eps=0.05, t_entry=10.0)
        assert not result.conclusive and result.n_intervals == 0
        assert result.notes == ("fewer than 2 samples after band entry",)

    def test_band_never_entered_is_inconclusive(self, grid, logistic_pair):
        # a band far above the dynamics is never entered
        constants = KnownConstants(M2=50.0, eta=49.0, C3_tilde=1.0)
        report = theta_report(const_set(grid), PARAMS, constants, (0.0, 10.0), 101)
        t_entry = band_entry_time(logistic_pair, report, 0.1)
        result = gronwall_check(trajectory_gap(*logistic_pair), report, 0.1, t_entry)
        assert not result.conclusive
        assert result.t_entry is None

    def test_real_pair_satisfies_inequality(self, grid, logistic_pair):
        report = self.make_report(grid)
        t_entry = band_entry_time(logistic_pair, report, 0.09)
        result = gronwall_check(trajectory_gap(*logistic_pair), report, 0.09, t_entry)
        assert result.conclusive
        assert result.fraction == 1.0
        assert result.worst_margin <= 0.0
