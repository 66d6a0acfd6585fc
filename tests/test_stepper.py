import math

import numpy as np
import pytest

from chemostab import (
    CoefficientSet,
    ConstantCoefficient,
    Field,
    Grid,
    ModelParams,
    ModelState,
    ObserverError,
    StepRejected,
    StepSizeUnderflowError,
    StepperConfig,
    fixed_step_run,
    integrate_values,
    run,
    step,
)

from oracles import logistic_exact, scalar_imex_step


def const_set(grid, a0=1.0, a1=1.0, a2=0.0):
    return CoefficientSet(
        ConstantCoefficient(grid, 0, a0),
        ConstantCoefficient(grid, 1, a1),
        ConstantCoefficient(grid, 2, a2),
    )


def flat_state(grid, u0, v0, t=0.0):
    return ModelState(t, Field.constant(grid, u0), Field.constant(grid, v0))


@pytest.fixture
def grid():
    return Grid((1.0,), (5,))


class TestConfigValidation:
    def test_dt_ordering(self):
        with pytest.raises(ValueError):
            StepperConfig(dt_init=1.0, dt_min=0.1, dt_max=0.5)

    def test_theta_range(self):
        with pytest.raises(ValueError):
            StepperConfig(theta_scheme=0.3)

    @pytest.mark.parametrize("floor", [math.nan, math.inf, -1.0])
    def test_positivity_floor_finite_nonnegative(self, floor):
        # step() writes the floor into fields it no longer re-checks
        with pytest.raises(ValueError):
            StepperConfig(positivity_floor=floor)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_error_tol_finite(self, tol):
        # a NaN tolerance rejects every step until dt_min underflows
        with pytest.raises(ValueError):
            StepperConfig(error_tol=tol)

    def test_design_order(self):
        assert StepperConfig(theta_scheme=1.0).design_order == 1
        assert StepperConfig(theta_scheme=0.5).design_order == 2


class TestSingleStep:
    def test_backward_euler_chemical_decay(self, grid):
        # u == 0, v == 1, lam = tau = 1: one BE step gives v = 1/(1+dt)
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(theta_scheme=1.0)
        out = step(flat_state(grid, 0.0, 1.0), 0.4, const_set(grid), params, cfg)
        assert np.allclose(out.v.values, 1.0 / 1.4, rtol=1e-13)
        assert np.all(out.u.values == 0.0)

    @pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
    def test_flat_step_matches_scalar_scheme(self, grid, theta):
        params = ModelParams(chi=0.0, tau=0.8, lam=1.3, mu=0.7)
        cfg = StepperConfig(theta_scheme=theta)
        a0, a1, a2 = 1.2, 0.9, 0.3
        cs = const_set(grid, a0, a1, a2)
        state = flat_state(grid, 0.4, 0.2, t=1.0)
        out = step(state, 0.05, cs, params, cfg)
        u_ref, v_ref = scalar_imex_step(
            0.4, 0.2, 1.0, 0.05, a0, a1, a2 * grid.volume, params, theta
        )
        assert np.allclose(out.u.values, u_ref, rtol=1e-13)
        assert np.allclose(out.v.values, v_ref, rtol=1e-13)

    def test_pure_diffusion_conserves_mass(self):
        grid = Grid((1.0,), (41,))
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(theta_scheme=0.5)
        cs = const_set(grid, 0.0, 0.0, 0.0)
        rng = np.random.default_rng(3)
        state = ModelState(0.0, Field(grid, rng.uniform(0.5, 2.0, 41)),
                           Field.constant(grid, 0.0))
        m0 = integrate_values(grid, state.u.values)
        out = step(state, 0.01, cs, params, cfg)
        m1 = integrate_values(grid, out.u.values)
        assert abs(m1 - m0) <= 10 * np.finfo(float).eps * grid.node_count * max(m0, 1.0)

    def test_positivity_rejection(self, grid):
        # strong drift into a hard gradient at large dt pushes u negative
        params = ModelParams(chi=50.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(theta_scheme=1.0)
        u = Field(grid, np.array([1e-8, 1e-8, 1.0, 1e-8, 1e-8]))
        v = Field(grid, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
        with pytest.raises(StepRejected):
            step(ModelState(0.0, u, v), 0.5, const_set(grid, 0.0, 0.0, 0.0), params, cfg)

    @pytest.mark.parametrize("counts", [(11,), (7, 7)])
    def test_overflow_is_retryable(self, counts):
        # u*(a0 - a1*u) overflows; the solve must pass the non-finite values
        # through so the step is rejected (retryable) in every dimension
        grid = Grid((1.0,) * len(counts), counts)
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepRejected):
                step(flat_state(grid, 1e200, 0.0), 0.1, const_set(grid), params,
                     StepperConfig())


class TestRun:
    def test_zero_length_run(self, grid):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        traj = run(flat_state(grid, 1.0, 0.0), 0.0, const_set(grid), params, StepperConfig())
        assert len(traj) == 1
        assert traj.times[0] == 0.0

    def test_flat_logistic_long_run(self, grid):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(error_tol=1e-8, dt_max=0.5)
        traj = run(flat_state(grid, 0.1, 0.0), 50.0, const_set(grid), params, cfg,
                   sample_dt=5.0)
        assert abs(traj.final.u.values[0] - 1.0) < 1e-6
        # intermediate samples track the closed form too
        for t, st in zip(traj.times, traj.states):
            assert abs(st.u.values[0] - logistic_exact(t, 0.1)) < 1e-6

    def test_step_doubling_shares_t_n_terms(self, grid, monkeypatch):
        # one accepted attempt: lap(u) and lap(v) at t_n once, then the fine step's own
        import chemostab.model as model_mod

        calls = []
        real = model_mod.laplacian_values

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(model_mod, "laplacian_values", counting)
        params = ModelParams(chi=0.1, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(dt_init=0.5, dt_max=0.5)
        traj = run(flat_state(grid, 1.0, 1.0), 0.5, const_set(grid), params, cfg,
                   sample_times=[0.0, 0.5])
        assert traj.stats.accepted == 1 and traj.stats.rejected_error == 0
        assert len(calls) == 4

    def test_determinism_bit_identical(self, grid):
        params = ModelParams(chi=0.2, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(error_tol=1e-6)
        out = []
        for _ in range(2):
            traj = run(flat_state(grid, 0.3, 0.1), 5.0, const_set(grid), params, cfg,
                       sample_dt=0.5)
            out.append(np.concatenate([s.u.values for s in traj.states]))
        assert np.array_equal(out[0], out[1])

    def test_explicit_sample_times_honored(self, grid):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        times = [0.0, 0.37, 1.1, 2.0]
        traj = run(flat_state(grid, 0.5, 0.0), 2.0, const_set(grid), params,
                   StepperConfig(), sample_times=times)
        assert np.allclose(traj.times, times, atol=1e-12)

    def test_observers_receive_samples(self, grid):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        seen = []
        run(flat_state(grid, 0.5, 0.0), 1.0, const_set(grid), params, StepperConfig(),
            observers=[lambda st: seen.append(st.t)], sample_dt=0.25)
        assert seen == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_observer_failure_wrapped(self, grid):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)

        def bad(st):
            raise RuntimeError("boom")

        with pytest.raises(ObserverError):
            run(flat_state(grid, 0.5, 0.0), 1.0, const_set(grid), params,
                StepperConfig(), observers=[bad])

    def test_negative_initial_rejected(self, grid):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        bad = ModelState(0.0, Field(grid, np.array([-0.1, 1, 1, 1, 1.0])),
                         Field.constant(grid, 0.0))
        with pytest.raises(ValueError):
            run(bad, 1.0, const_set(grid), params, StepperConfig())

    def test_backwards_time_rejected(self, grid):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        with pytest.raises(ValueError):
            run(flat_state(grid, 1.0, 0.0, t=2.0), 1.0, const_set(grid), params,
                StepperConfig())

    def test_step_size_underflow(self, grid):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(dt_init=1e-3, dt_min=1e-3, dt_max=1.0, error_tol=1e-15)
        with pytest.raises(StepSizeUnderflowError) as info:
            run(flat_state(grid, 0.1, 0.0), 5.0, const_set(grid), params, cfg)
        assert info.value.state is not None

    def test_no_nans_along_run(self, grid):
        params = ModelParams(chi=0.5, tau=0.7, lam=1.2, mu=0.9)
        traj = run(flat_state(grid, 2.0, 0.3), 3.0, const_set(grid, 1.0, 1.0, 0.2),
                   params, StepperConfig(), sample_dt=0.3)
        for st in traj.states:
            assert np.isfinite(st.u.values).all()
            assert np.isfinite(st.v.values).all()


class TestTwoDimensions:
    def test_flat_reduction_matches_1d_scheme(self):
        # a flat 2D state follows the same scalar update as the 1D scheme
        g2 = Grid((1.0, 2.0), (5, 7))
        params = ModelParams(chi=0.0, tau=1.0, lam=1.2, mu=0.9)
        cfg = StepperConfig(theta_scheme=0.5)
        a0, a1, a2 = 1.1, 0.8, 0.1
        cs2 = const_set(g2, a0, a1, a2)
        out = step(flat_state(g2, 0.5, 0.3), 0.04, cs2, params, cfg)
        u_ref, v_ref = scalar_imex_step(0.5, 0.3, 0.0, 0.04, a0, a1,
                                        a2 * g2.volume, params, 0.5)
        assert np.allclose(out.u.values, u_ref, rtol=1e-12)
        assert np.allclose(out.v.values, v_ref, rtol=1e-12)

    def test_2d_diffusion_conserves_mass_along_run(self):
        g2 = Grid((1.0, 1.0), (9, 9))
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(error_tol=1e-6, dt_max=0.05)
        rng = np.random.default_rng(5)
        state0 = ModelState(0.0, Field(g2, rng.uniform(0.5, 2.0, (9, 9))),
                            Field.constant(g2, 0.0))
        traj = run(state0, 0.5, const_set(g2, 0.0, 0.0, 0.0), params, cfg,
                   sample_dt=0.1)
        m0 = traj.mass_u[0]
        assert np.allclose(traj.mass_u, m0, rtol=1e-11)
        # diffusion flattens toward the mean
        spread0 = traj.states[0].u.max() - traj.states[0].u.min()
        spread1 = traj.final.u.max() - traj.final.u.min()
        assert spread1 < spread0

    def test_2d_chemotaxis_run_smoke(self):
        g2 = Grid((1.0, 1.0), (9, 9))
        params = ModelParams(chi=0.3, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(error_tol=1e-5, dt_max=0.1)
        state0 = flat_state(g2, 0.5, 0.0)
        traj = run(state0, 2.0, const_set(g2), params, cfg, sample_dt=0.5)
        assert np.isfinite(traj.final.u.values).all()
        assert traj.final.u.min() >= 0.0


class TestPositivityControl:
    def test_run_recovers_from_positivity_rejection(self):
        # strong drift at a coarse initial dt must reject and then recover
        grid = Grid((1.0,), (21,))
        params = ModelParams(chi=8.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(dt_init=0.2, dt_max=0.2, error_tol=1e-4)
        x = grid.axis_coords[0]
        u0 = Field(grid, 0.01 + np.exp(-80 * (x - 0.3) ** 2))
        v0 = Field(grid, np.exp(-80 * (x - 0.7) ** 2))
        traj = run(ModelState(0.0, u0, v0), 1.0, const_set(grid), params, cfg,
                   sample_dt=0.25)
        assert traj.final.u.min() >= 0.0
        assert traj.final.v.min() >= 0.0

    def test_clamp_budget_enforced(self):
        from chemostab.stepper import RunStats, Trajectory, _check_clamp_budget
        from chemostab import PositivityBudgetError

        grid = Grid((1.0,), (5,))
        stats = RunStats(clamped_mass_u=1.0)  # far beyond 1e-8 of peak mass
        traj = Trajectory(
            grid=grid, times=np.array([0.0]),
            states=[flat_state(grid, 1.0, 0.0)],
            mass_u=np.array([1.0]), mass_v=np.array([0.0]),
            min_u=np.array([1.0]), sup_u=np.array([1.0]),
            w2inf_v=np.array([0.0]), stats=stats,
        )
        with pytest.raises(PositivityBudgetError):
            _check_clamp_budget(traj)


class TestTemporalAccuracy:
    def order_for_theta(self, theta):
        grid = Grid((1.0,), (3,))
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(theta_scheme=theta)
        cs = const_set(grid)
        state0 = flat_state(grid, 0.1, 0.0)
        finals = []
        for n_steps in (20, 40, 80):
            out = fixed_step_run(state0, 2.0, n_steps, cs, params, cfg)
            finals.append(out.u.values[0])
        return math.log2(abs(finals[0] - finals[1]) / abs(finals[1] - finals[2]))

    def test_backward_euler_first_order(self):
        assert self.order_for_theta(1.0) == pytest.approx(1.0, abs=0.15)

    def test_trapezoid_second_order(self):
        assert self.order_for_theta(0.5) == pytest.approx(2.0, abs=0.15)

    def test_halving_tolerance_roughly_halves_error(self):
        grid = Grid((1.0,), (3,))
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        cs = const_set(grid)
        errs = []
        for tol in (4e-7, 2e-7, 1e-7):
            cfg = StepperConfig(error_tol=tol, dt_max=0.05, dt_init=1e-4)
            traj = run(flat_state(grid, 0.1, 0.0), 4.0, cs, params, cfg, sample_dt=4.0)
            errs.append(abs(traj.final.u.values[0] - logistic_exact(4.0, 0.1)))
        for k in range(2):
            assert 1.3 <= errs[k] / errs[k + 1] <= 3.2
