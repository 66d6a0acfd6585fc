import math

import numpy as np
import pytest

from chemostab import (
    CoefficientSet,
    ConstantCoefficient,
    Grid,
    GridMismatchError,
    ModelParams,
    ModelState,
    RunStats,
    StepRejected,
    StepSizeUnderflowError,
    StepperConfig,
    Trajectory,
    fixed_step_run,
    integrate_values,
    run,
    step,
    w2inf_norm,
)

from chemostab import stepper
from chemostab.stepper import advective_dt_limit, control
from oracles import (
    advective_dt_limit_gradient,
    field_by_field_step,
    inline_control,
    logistic_exact,
    scalar_imex_step,
)


def const_set(grid, a0=1.0, a1=1.0, a2=0.0):
    return CoefficientSet(
        ConstantCoefficient(grid, 0, a0),
        ConstantCoefficient(grid, 1, a1),
        ConstantCoefficient(grid, 2, a2),
    )


def flat_state(grid, u0, v0, t=0.0):
    return ModelState(t, np.full(grid.counts, u0), np.full(grid.counts, v0))


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_error_tol_finite(self, tol):
        # a NaN tolerance rejects every step until dt_min underflows
        with pytest.raises(ValueError):
            StepperConfig(error_tol=tol)

    def test_design_order(self):
        assert StepperConfig(theta_scheme=1.0).design_order == 1
        assert StepperConfig(theta_scheme=0.75).design_order == 1
        assert StepperConfig(theta_scheme=0.5).design_order == 2


class TestSingleStep:
    def test_backward_euler_chemical_decay(self, grid):
        # u == 0, v == 1, lam = tau = 1: one BE step gives v = 1/(1+dt)
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(theta_scheme=1.0)
        out, _ = step(flat_state(grid, 0.0, 1.0), 0.4, const_set(grid), params, cfg)
        assert np.allclose(out.v, 1.0 / 1.4, rtol=1e-13)
        assert np.all(out.u == 0.0)

    @pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
    def test_flat_step_matches_scalar_scheme(self, grid, theta):
        params = ModelParams(chi=0.0, tau=0.8, lam=1.3, mu=0.7)
        cfg = StepperConfig(theta_scheme=theta)
        a0, a1, a2 = 1.2, 0.9, 0.3
        cs = const_set(grid, a0, a1, a2)
        state = flat_state(grid, 0.4, 0.2, t=1.0)
        out, _ = step(state, 0.05, cs, params, cfg)
        u_ref, v_ref = scalar_imex_step(
            0.4, 0.2, 1.0, 0.05, a0, a1, a2 * grid.volume, params, theta
        )
        assert np.allclose(out.u, u_ref, rtol=1e-13)
        assert np.allclose(out.v, v_ref, rtol=1e-13)

    def test_pure_diffusion_conserves_mass(self):
        grid = Grid((1.0,), (41,))
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(theta_scheme=0.5)
        cs = const_set(grid, 0.0, 0.0, 0.0)
        rng = np.random.default_rng(3)
        state = ModelState(0.0, rng.uniform(0.5, 2.0, 41),
                           np.full(grid.counts, 0.0))
        m0 = integrate_values(grid, state.u)
        out, _ = step(state, 0.01, cs, params, cfg)
        m1 = integrate_values(grid, out.u)
        assert abs(m1 - m0) <= 10 * np.finfo(float).eps * grid.node_count * max(m0, 1.0)

    def test_positivity_rejection(self, grid):
        # strong drift into a hard gradient at large dt pushes u negative
        params = ModelParams(chi=50.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(theta_scheme=1.0)
        u = np.array([1e-8, 1e-8, 1.0, 1e-8, 1e-8])
        v = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
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


class TestStateContract:
    def test_state_shape_must_match_coefficient_grid(self):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        state = flat_state(Grid((1.0,), (21,)), 0.5, 0.0)
        coeffs = const_set(Grid((1.0,), (11,)))
        with pytest.raises(GridMismatchError):
            step(state, 0.1, coeffs, params, StepperConfig())
        with pytest.raises(GridMismatchError):
            run(state, 1.0, coeffs, params, StepperConfig())

    def test_leading_batch_axis_accepted(self):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        coeffs = const_set(Grid((1.0,), (11,)))
        batch = ModelState(0.0, np.full((2, 11), 0.5), np.zeros((2, 11)))
        out, _ = step(batch, 0.1, coeffs, params, StepperConfig())
        assert out.u.shape == (2, 11)
        for shape in [(2, 21), (2, 2, 11), (11, 2)]:  # wrong trailing shape, two batch axes
            bad = ModelState(0.0, np.full(shape, 0.5), np.zeros(shape))
            with pytest.raises(GridMismatchError):
                step(bad, 0.1, coeffs, params, StepperConfig())
            with pytest.raises(GridMismatchError):
                run(bad, 1.0, coeffs, params, StepperConfig())

    @pytest.mark.parametrize("t_end", [0.0, 1.0])
    def test_stored_states_are_read_only(self, grid, t_end):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        traj = run(flat_state(grid, 0.5, 0.0), t_end, const_set(grid), params, StepperConfig())
        with pytest.raises(ValueError):
            traj.final.u[0] = 1.0
        with pytest.raises(ValueError):
            traj.final.v[0] = 1.0


class TestControl:
    FLOOR = 100.0 * np.finfo(float).eps

    @pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("error_tol", [1e-4, 1e-7, 1e-17])
    @pytest.mark.parametrize("first", [True, False])
    def test_matches_inline_reference(self, theta, error_tol, first):
        # error_tol=1e-17 lies below the round-off floor; errors are drawn on
        # and around every tolerance the test can use, and a numpy dt_try is
        # what landing on a sample time passes
        cfg = StepperConfig(dt_min=1e-9, theta_scheme=theta, error_tol=error_tol)
        rng = np.random.default_rng(7)
        dts = [1e-9, 2e-9, 1e-3, 0.25, *rng.uniform(1e-6, 0.3, 6)]
        for dt_try in dts + [np.float64(dt) for dt in dts]:
            tols = (error_tol, error_tol * dt_try, self.FLOOR)
            errs = [0.0, None, *rng.uniform(0.0, 1.0, 3) * 10.0 ** rng.integers(-18, 0, 3)]
            for tol in tols:
                errs += [tol, np.nextafter(tol, 0.0), np.nextafter(tol, 1.0),
                         tol * 1e-6, tol * 0.9, tol * 1.1, tol * 1e6]
            for err in errs:
                accepted, dt_next = control(err, dt_try, first, cfg)
                assert type(accepted) is bool
                assert (accepted, dt_next) == inline_control(err, dt_try, first, cfg), (err, dt_try)
                # no contraction, no credit: the same decision bit for bit
                assert control(err, dt_try, first, cfg, 0.0) == (accepted, dt_next)

    def test_first_step_at_half_theta_is_per_step(self):
        # the forward Euler estimate of a first step at theta=0.5 is tested
        # against error_tol itself, every later estimate against error_tol*dt
        cfg = StepperConfig(error_tol=1e-4, theta_scheme=0.5)
        assert control(5e-5, 0.01, True, cfg)[0] is True
        assert control(5e-5, 0.01, False, cfg)[0] is False
        cfg = StepperConfig(error_tol=1e-4, theta_scheme=1.0)
        assert control(5e-5, 0.01, True, cfg)[0] is False

    def test_floor_makes_the_test_per_step(self):
        # error_tol*dt below the floor: err is tested against the floor itself,
        # and the next dt takes the root of the estimate's full order
        cfg = StepperConfig(error_tol=1e-16, theta_scheme=1.0)
        dt_try = 1e-3
        assert control(self.FLOOR, dt_try, False, cfg) == (True, dt_try * cfg.safety)
        assert control(self.FLOOR / 4.0, dt_try, False, cfg) == (
            True, dt_try * cfg.safety * 2.0)
        assert control(2.0 * self.FLOOR, dt_try, False, cfg)[0] is False

    @pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("error_tol", [1e-2, 1e-4, 1e-7])
    def test_credit_never_looser_than_per_step(self, theta, error_tol):
        # the credit widens the per-unit-step test up to err <= error_tol and
        # no further; it only ever turns a rejection into an acceptance
        cfg = StepperConfig(dt_min=1e-9, theta_scheme=theta, error_tol=error_tol)
        rng = np.random.default_rng(11)
        for _ in range(400):
            dt_try = float(10.0 ** rng.uniform(-6, np.log10(cfg.dt_max)))
            rho = float(10.0 ** rng.uniform(-1, 5))
            err = float(error_tol * 10.0 ** rng.uniform(-7, 1))
            plain = control(err, dt_try, False, cfg)
            credited = control(err, dt_try, False, cfg, rho)
            assert credited[0] <= (err <= max(error_tol, error_tol * dt_try))
            assert plain[0] <= credited[0]
            if not plain[0] and credited[0]:
                assert err <= error_tol * dt_try * 0.3 * rho

    def test_credit_scales_the_unit_step_test(self):
        cfg = StepperConfig(error_tol=1e-4, theta_scheme=0.5)
        dt_try, tol = 0.01, 1e-6  # tol = error_tol * dt_try
        assert control(2.5 * tol, dt_try, False, cfg)[0] is False
        assert control(2.5 * tol, dt_try, False, cfg, 10.0)[0] is True  # 0.3 * 10 = 3
        assert control(3.5 * tol, dt_try, False, cfg, 10.0)[0] is False
        # no credit below a rate of 1 / 0.3, nor on the per-step first test at theta = 0.5
        assert control(tol * 1.01, dt_try, False, cfg, 3.0) == control(tol * 1.01, dt_try, False, cfg)
        assert control(2.0 * tol, dt_try, True, cfg, 1e6) == control(2.0 * tol, dt_try, True, cfg)
        # capped at the per-step test, whose next dt takes the estimate's full order
        assert control(cfg.error_tol, dt_try, False, cfg, 1e6) == (True, dt_try * cfg.safety)
        assert control(1.01 * cfg.error_tol, dt_try, False, cfg, 1e6)[0] is False

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_floor_turns_the_credit_off(self, theta):
        # error_tol * dt below round-off: the floor's per-step test, whatever rho
        cfg = StepperConfig(error_tol=1e-16, theta_scheme=theta)
        for dt_try in (1e-3, 0.05, 0.2):
            for err in (0.5 * self.FLOOR, self.FLOOR, 2.0 * self.FLOOR, 1e-12):
                for rho in (10.0, 1e3, 1e9):
                    assert control(err, dt_try, False, cfg, rho) == control(err, dt_try, False, cfg)

    @pytest.mark.parametrize("first", [True, False])
    def test_zero_error_grows_dt_five_fold(self, first):
        assert control(0.0, 0.01, first, StepperConfig()) == (True, 0.01 * 5.0)

    def test_rejection_shrinks_between_tenth_and_half(self):
        cfg = StepperConfig(error_tol=1e-6, theta_scheme=1.0, dt_min=1e-12)
        dt_try = 0.01
        tol = cfg.error_tol * dt_try
        assert control(tol * 1.01, dt_try, False, cfg) == (False, dt_try * 0.5)
        assert control(tol * 1e6, dt_try, False, cfg) == (False, dt_try * 0.1)
        for err in tol * np.geomspace(1.001, 1e3, 25):
            accepted, dt_next = control(err, dt_try, False, cfg)
            assert not accepted
            assert 0.1 * dt_try <= dt_next <= 0.5 * dt_try

    def test_step_rejected_shrinks_four_fold_to_dt_min(self):
        cfg = StepperConfig(dt_min=1e-6)
        assert control(None, 0.01, False, cfg) == (False, 0.25 * 0.01)
        assert control(None, 2e-6, True, cfg) == (False, 1e-6)
        assert control(1.0, 2e-6, False, cfg) == (False, 1e-6)


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
        assert abs(traj.final.u[0] - 1.0) < 1e-6
        # intermediate samples track the closed form too
        for t, u in zip(traj.times, traj.u):
            assert abs(u[0] - logistic_exact(t, 0.1)) < 1e-6

    @staticmethod
    def count_calls(monkeypatch):
        import chemostab.model as model_mod
        import chemostab.stepper as stepper_mod

        calls = {"lap": 0, "solve": 0, "step": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(model_mod, "laplacian_values",
                            counting("lap", model_mod.laplacian_values))
        monkeypatch.setattr(stepper_mod, "solve_shifted",
                            counting("solve", stepper_mod.solve_shifted))
        monkeypatch.setattr(stepper_mod, "step", counting("step", stepper_mod.step))
        return calls

    @pytest.mark.parametrize("theta, solves", [(0.5, 2), (1.0, 1)])
    def test_one_step_call_per_attempt(self, grid, monkeypatch, theta, solves):
        # one accepted attempt: one Laplacian of the (u, v) stack at t_n and one
        # solve of the stack per stage, all from the same step(); the estimate
        # solves nothing
        calls = self.count_calls(monkeypatch)
        params = ModelParams(chi=0.1, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(dt_init=0.5, dt_max=0.5, theta_scheme=theta)
        traj = run(flat_state(grid, 1.0, 1.0), 0.5, const_set(grid), params, cfg,
                   sample_times=[0.0, 0.5])
        assert traj.stats.accepted == 1 and traj.stats.rejected_error == 0
        assert calls == {"lap": 1, "solve": solves, "step": 1}

    @pytest.mark.parametrize("theta, solves", [(0.5, 2), (1.0, 1)])
    def test_fixed_step_run_makes_no_companion(self, grid, monkeypatch, theta, solves):
        # the refinement march discards the estimate, so it pays only for the result
        calls = self.count_calls(monkeypatch)
        params = ModelParams(chi=0.1, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(theta_scheme=theta)
        fixed_step_run(flat_state(grid, 1.0, 1.0), 0.5, 3, const_set(grid), params, cfg)
        assert calls == {"lap": 3, "solve": 3 * solves, "step": 3}

    def test_history_is_last_accepted_step(self, grid, monkeypatch):
        # attempts before the first acceptance extrapolate by forward Euler
        # (no history); each later one by AB2 from the last accepted step,
        # which a rejected attempt leaves in place
        import chemostab.stepper as stepper_mod

        attempts = []
        original = stepper_mod.step

        def recording(state, dt, *args, history=None, **kwargs):
            attempts.append((state.t, dt, history))
            return original(state, dt, *args, history=history, **kwargs)

        monkeypatch.setattr(stepper_mod, "step", recording)
        params = ModelParams(chi=0.2, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(error_tol=1e-7, dt_init=0.2, dt_max=0.5)
        traj = run(flat_state(grid, 0.3, 0.1), 2.0, const_set(grid), params, cfg,
                   sample_times=[0.0, 2.0])
        assert traj.stats.rejected_error > 0
        assert len(attempts) == traj.stats.accepted + traj.stats.rejected_error
        last_dt = None
        for (t, dt, history), following in zip(attempts, attempts[1:] + [(math.inf,)]):
            if last_dt is None:
                assert history is None
            else:
                assert history[1] == last_dt
            if following[0] > t:  # accepted: the next attempt starts later
                last_dt = dt

    def test_contraction_rate_bookkeeping(self, grid, monkeypatch):
        # run measures rho from kappa = err / dt**3 between accepted steps that
        # have a history, over the gap between their midpoints, hands control
        # the smaller of the last two rates, and forgets all of it when an
        # estimate sits at the round-off floor
        import chemostab.stepper as stepper_mod

        floor = TestControl.FLOOR
        n = [0]

        def scripted(state, dt, *args, **kwargs):
            # kappa decays at rate 20, but one attempt fails and two sit at the floor
            n[0] += 1
            kappa = 10.0 * math.exp(-20.0 * state.t)
            err = {6: 1.0, 12: 0.5 * floor, 25: 0.0}.get(n[0], kappa * dt**3)
            return ModelState.from_stack(state.t + dt, state.uv), err

        seen = []

        def spy(err, dt_try, first, cfg, *rho):
            out = control(err, dt_try, first, cfg, *rho)
            if rho:  # the decision; run asks again without rho to count credited steps
                seen.append((err, dt_try, first, rho[0], out[0]))
            return out

        monkeypatch.setattr(stepper_mod, "step", scripted)
        monkeypatch.setattr(stepper_mod, "control", spy)
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(error_tol=1e-4, dt_max=0.01)
        traj = run(flat_state(grid, 1.0, 1.0), 0.3, const_set(grid), params, cfg,
                   sample_times=[0.0, 0.3])
        assert len(seen) == n[0] > 30

        rho, rate, kappa = 0.0, 0.0, None
        resets = credited = 0
        for err, dt, first, rho_seen, accepted in seen:
            assert rho_seen == rho
            if not accepted or first:
                continue
            credited += rho > 0.0 and not control(err, dt, first, cfg)[0]
            if err <= floor:
                rho, rate, kappa = 0.0, 0.0, None
                resets += 1
                continue
            k = err / dt**3
            if kappa is not None:
                latest = max(0.0, math.log(kappa[0] / k) / (0.5 * (kappa[1] + dt)))
                rho, rate = min(rate, latest), latest
            kappa = (k, dt)
        assert resets >= 2 and any(r > 0.0 for _, _, _, r, _ in seen)
        assert traj.stats.credited == credited > 0

    def test_determinism_bit_identical(self, grid):
        params = ModelParams(chi=0.2, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(error_tol=1e-6)
        out = []
        for _ in range(2):
            traj = run(flat_state(grid, 0.3, 0.1), 5.0, const_set(grid), params, cfg,
                       sample_dt=0.5)
            out.append(traj.u)
        assert np.array_equal(out[0], out[1])

    def test_explicit_sample_times_honored(self, grid):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        times = [0.0, 0.37, 1.1, 2.0]
        traj = run(flat_state(grid, 0.5, 0.0), 2.0, const_set(grid), params,
                   StepperConfig(), sample_times=times)
        assert np.allclose(traj.times, times, atol=1e-12)

    def test_negative_initial_rejected(self, grid):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        bad = ModelState(0.0, np.array([-0.1, 1, 1, 1, 1.0]),
                         np.full(grid.counts, 0.0))
        with pytest.raises(ValueError):
            run(bad, 1.0, const_set(grid), params, StepperConfig())

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["u", "v"])
    def test_non_finite_initial_rejected(self, grid, field, bad, batched):
        # rejected up front, not by every attempt down to dt_min
        shape = (2, *grid.counts) if batched else grid.counts
        fields = {"u": np.full(shape, 0.5), "v": np.full(shape, 0.1)}
        fields[field].reshape(-1, grid.node_count)[-1, 2] = bad
        params = ModelParams(chi=0.1, tau=1.0, lam=1.0, mu=1.0)
        with pytest.raises(ValueError, match="initial data must be finite and nonnegative"):
            run(ModelState(0.0, fields["u"], fields["v"]), 1.0, const_set(grid), params,
                StepperConfig())

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

    def test_positivity_rejections_shrink_to_underflow(self, grid, monkeypatch):
        # every attempt leaves the admissible region: each is counted, dt
        # shrinks 4x per attempt down to dt_min, and the attempt at dt_min ends the run
        import chemostab.stepper as stepper_mod

        attempts, created = [], []

        def rejecting(state, dt, *args, **kwargs):
            attempts.append(dt)
            raise StepRejected("u fell below the band", -1.0)

        def recording_stats(*args, **kwargs):
            created.append(RunStats(*args, **kwargs))
            return created[-1]

        monkeypatch.setattr(stepper_mod, "step", rejecting)
        monkeypatch.setattr(stepper_mod, "RunStats", recording_stats)
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(dt_init=1e-3, dt_min=1e-9, dt_max=1.0)
        with pytest.raises(StepSizeUnderflowError, match="positivity rejection at dt_min"):
            run(flat_state(grid, 0.5, 0.0), 1.0, const_set(grid), params, cfg,
                sample_times=[0.0, 1.0])
        assert attempts[-1] == cfg.dt_min
        assert attempts[:-1] == [1e-3 * 0.25 ** k for k in range(len(attempts) - 1)]
        assert 0.25 * attempts[-2] < cfg.dt_min
        stats = created[0]  # the run's own counters; the others are per attempt
        assert stats.rejected_positivity == len(attempts) == 11
        assert stats.rejected_error == 0 and stats.accepted == 0

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_tiny_error_tol_is_floored_at_round_off(self, theta):
        # tol*dt far below round-off must not stall the controller at dt_min
        grid = Grid((1.0,), (21,))
        x = grid.axis_coords[0]
        u0 = 1.0 + 0.05 * np.cos(np.pi * x) - 0.03 * np.cos(2 * np.pi * x) \
            + 0.02 * np.cos(3 * np.pi * x)
        params = ModelParams(chi=0.05, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(error_tol=1e-10, theta_scheme=theta)
        traj = run(ModelState(0.0, u0, np.zeros(21)), 1e-4, const_set(grid, 1.0, 1.0, 0.1),
                   params, cfg, sample_times=[0.0, 1e-4])
        assert traj.final.t == 1e-4
        assert traj.stats.rejected_error <= 5

    def test_no_nans_along_run(self, grid):
        params = ModelParams(chi=0.5, tau=0.7, lam=1.2, mu=0.9)
        traj = run(flat_state(grid, 2.0, 0.3), 3.0, const_set(grid, 1.0, 1.0, 0.2),
                   params, StepperConfig(), sample_dt=0.3)
        assert np.isfinite(traj.u).all()
        assert np.isfinite(traj.v).all()


class TestTwoDimensions:
    def test_flat_reduction_matches_1d_scheme(self):
        # a flat 2D state follows the same scalar update as the 1D scheme
        g2 = Grid((1.0, 2.0), (5, 7))
        params = ModelParams(chi=0.0, tau=1.0, lam=1.2, mu=0.9)
        cfg = StepperConfig(theta_scheme=0.5)
        a0, a1, a2 = 1.1, 0.8, 0.1
        cs2 = const_set(g2, a0, a1, a2)
        out, _ = step(flat_state(g2, 0.5, 0.3), 0.04, cs2, params, cfg)
        u_ref, v_ref = scalar_imex_step(0.5, 0.3, 0.0, 0.04, a0, a1,
                                        a2 * g2.volume, params, 0.5)
        assert np.allclose(out.u, u_ref, rtol=1e-12)
        assert np.allclose(out.v, v_ref, rtol=1e-12)

    def test_2d_diffusion_conserves_mass_along_run(self):
        g2 = Grid((1.0, 1.0), (9, 9))
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(error_tol=1e-6, dt_max=0.05)
        rng = np.random.default_rng(5)
        state0 = ModelState(0.0, rng.uniform(0.5, 2.0, (9, 9)),
                            np.full(g2.counts, 0.0))
        traj = run(state0, 0.5, const_set(g2, 0.0, 0.0, 0.0), params, cfg,
                   sample_dt=0.1)
        m0 = traj.mass_u[0]
        assert np.allclose(traj.mass_u, m0, rtol=1e-11)
        # diffusion flattens toward the mean
        spread0 = traj.u[0].max() - traj.u[0].min()
        spread1 = traj.final.u.max() - traj.final.u.min()
        assert spread1 < spread0

    def test_2d_chemotaxis_run_smoke(self):
        g2 = Grid((1.0, 1.0), (9, 9))
        params = ModelParams(chi=0.3, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(error_tol=1e-5, dt_max=0.1)
        state0 = flat_state(g2, 0.5, 0.0)
        traj = run(state0, 2.0, const_set(g2), params, cfg, sample_dt=0.5)
        assert np.isfinite(traj.final.u).all()
        assert traj.final.u.min() >= 0.0


class TestDiagnostics:
    """Per-sample diagnostics computed over many samples at once."""

    @staticmethod
    def counted_w2inf(monkeypatch) -> list:
        calls = []

        def counting(grid, vals):
            calls.append(vals.shape)
            return w2inf_norm(grid, vals)

        monkeypatch.setattr(stepper, "w2inf_norm", counting)
        return calls

    @pytest.mark.parametrize("counts, shape, blocks", [
        ((101,), (200, 3, 101), [(108, 3, 101), (92, 3, 101)]),  # 303 values a sample
        ((191, 191), (3, 191, 191), [(1, 191, 191)] * 3),  # a sample above 2**15 values
    ], ids=["1d-batch", "2d-large"])
    def test_w2inf_v_blocks_match_per_sample_loop(self, monkeypatch, counts, shape, blocks):
        grid = Grid((1.0,) * len(counts), counts)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(shape)
        traj = Trajectory(grid, np.arange(shape[0], dtype=float), np.zeros(shape), v, RunStats())
        expected = np.array([w2inf_norm(grid, sample) for sample in v])
        calls = self.counted_w2inf(monkeypatch)
        assert np.array_equal(traj.w2inf_v, expected)
        assert traj.w2inf_v.shape == expected.shape
        assert calls == blocks

    def test_w2inf_v_of_2d_run_is_one_call(self, monkeypatch):
        grid = Grid((1.0, 2.0), (9, 13))
        x, y = grid.coords()
        state0 = ModelState(0.0, 1.0 + 0.2 * np.cos(np.pi * x), 0.3 + 0.1 * np.cos(np.pi * y / 2))
        traj = run(state0, 1.0, const_set(grid), ModelParams(chi=0.3, tau=1.0, lam=1.0, mu=1.0),
                   StepperConfig(error_tol=1e-5), sample_dt=0.1)
        expected = np.array([w2inf_norm(grid, sample) for sample in traj.v])
        calls = self.counted_w2inf(monkeypatch)
        assert np.array_equal(traj.w2inf_v, expected)
        assert calls == [(11, 9, 13)]

    @pytest.mark.parametrize("counts, batch", [((41,), ()), ((9, 13), ()), ((41,), (3,)),
                                               ((9, 13), (2,))],
                             ids=["1d", "2d", "1d-batch", "2d-batch"])
    def test_advective_guard_matches_gradient_formula(self, counts, batch):
        grid = Grid((1.0, 2.0)[:len(counts)], counts)
        shape = (*batch, *counts)
        rng = np.random.default_rng(len(shape))
        params = ModelParams(chi=-0.7, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig()
        for scale in (1.0, 1e-9, 3e5):
            v = scale * rng.random(shape)
            state = ModelState(0.0, np.ones(shape), v)
            expected = advective_dt_limit_gradient(grid, v, params.chi, cfg.safety)
            assert advective_dt_limit(grid, state, params, cfg) == expected
        flat = ModelState(0.0, np.ones(shape), np.full(shape, 0.4))
        assert advective_dt_limit(grid, flat, params, cfg) == math.inf


class TestBatchedRun:
    """K members under one controller: each matches its own unbatched run."""

    @staticmethod
    def states_1d(grid):
        x = grid.axis_coords[0]
        us = [0.2 + 0.1 * np.cos(np.pi * x), 1.0 - 0.3 * np.cos(2 * np.pi * x),
              2.5 + 0.5 * np.cos(3 * np.pi * x)]
        vs = [np.zeros_like(x), 0.5 + 0.2 * np.cos(np.pi * x), np.full_like(x, 1.0)]
        return us, vs

    @staticmethod
    def states_2d(grid):
        x, y = grid.coords()
        us = [0.5 + 0.2 * np.cos(np.pi * x) * np.cos(np.pi * y / 2), 2.0 + 0.3 * np.cos(np.pi * x)]
        vs = [np.zeros_like(x), 0.4 + 0.1 * np.cos(np.pi * y / 2)]
        return us, vs

    @pytest.mark.parametrize("dim", [1, 2])
    def test_members_match_unbatched_runs(self, dim):
        if dim == 1:
            grid = Grid((1.0,), (31,))
            us, vs = self.states_1d(grid)
        else:
            grid = Grid((1.0, 2.0), (9, 13))
            us, vs = self.states_2d(grid)
        params = ModelParams(chi=0.3, tau=0.8, lam=1.0, mu=1.0)
        coeffs = const_set(grid, 1.0, 1.0, 0.2)
        cfg = StepperConfig(error_tol=1e-5, dt_max=0.25)
        batched = run(ModelState(0.0, np.stack(us), np.stack(vs)), 3.0, coeffs, params, cfg,
                      sample_dt=0.5)
        members = batched.members()
        alones = [run(ModelState(0.0, u0, v0), 3.0, coeffs, params, cfg, sample_dt=0.5)
                  for u0, v0 in zip(us, vs)]
        assert len(members) == len(us)
        kernels = {
            "mass_u": lambda u, v: integrate_values(grid, u),
            "mass_v": lambda u, v: integrate_values(grid, v),
            "min_u": lambda u, v: u.min(),
            "sup_u": lambda u, v: np.abs(u).max(),
            "w2inf_v": lambda u, v: w2inf_norm(grid, v),
        }
        for k, (member, alone) in enumerate(zip(members, alones)):
            assert np.array_equal(member.times, alone.times)
            for a, b in ((member.u, alone.u), (member.v, alone.v)):
                assert a.shape == b.shape
                bound = 10 * cfg.error_tol * (1.0 + np.abs(b).max(axis=grid.axes))
                assert np.all(np.abs(a - b).max(axis=grid.axes) <= bound)
            # the member's series are its own, bit for bit the per-sample kernels,
            # and equal to its column of the batch's series
            for name, kernel in kernels.items():
                expected = [kernel(u, v) for u, v in zip(member.u, member.v)]
                assert np.array_equal(getattr(member, name), expected), name
                assert np.array_equal(getattr(batched, name)[:, k], expected), name
            assert member.stats.accepted == batched.stats.accepted
        # one controller: no member alone takes more steps than the batch
        assert batched.stats.accepted >= max(alone.stats.accepted for alone in alones)

    def test_member_below_band_rejects_whole_attempt(self, grid):
        # member 1 alone is rejected (test_positivity_rejection); member 0 alone is not
        params = ModelParams(chi=50.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(theta_scheme=1.0)
        cs = const_set(grid, 0.0, 0.0, 0.0)
        good = (np.full(5, 1.0), np.full(5, 0.5))
        bad = (np.array([1e-8, 1e-8, 1.0, 1e-8, 1e-8]), np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
        step(ModelState(0.0, *good), 0.5, cs, params, cfg)
        batch = ModelState(0.0, *(np.stack(pair) for pair in zip(good, bad)))
        with pytest.raises(StepRejected):
            step(batch, 0.5, cs, params, cfg)


class TestPositivityControl:
    def test_run_recovers_from_positivity_rejection(self):
        # strong drift at a coarse initial dt must reject and then recover
        grid = Grid((1.0,), (21,))
        params = ModelParams(chi=8.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(dt_init=0.2, dt_max=0.2, error_tol=1e-4)
        x = grid.axis_coords[0]
        u0 = 0.01 + np.exp(-80 * (x - 0.3) ** 2)
        v0 = np.exp(-80 * (x - 0.7) ** 2)
        traj = run(ModelState(0.0, u0, v0), 1.0, const_set(grid), params, cfg,
                   sample_dt=0.25)
        assert traj.final.u.min() >= 0.0
        assert traj.final.v.min() >= 0.0

    def test_clamp_budget_enforced(self):
        from chemostab.stepper import RunStats, Trajectory, _check_clamp_budget
        from chemostab import PositivityBudgetError

        grid = Grid((1.0,), (5,))
        stats = RunStats(clamped_mass_u=1.0)  # far beyond 1e-8 of peak mass
        traj = Trajectory(grid=grid, times=np.array([0.0]), u=np.full((1, 5), 1.0),
                          v=np.zeros((1, 5)), stats=stats)
        assert traj.mass_u[0] == 1.0  # the weights of this grid sum to 1
        with pytest.raises(PositivityBudgetError):
            _check_clamp_budget(traj)

    def test_clamp_budget_is_per_member(self):
        from chemostab.stepper import RunStats, Trajectory, _check_clamp_budget
        from chemostab import PositivityBudgetError

        grid = Grid((1.0,), (5,))
        # 1e-9 is within member 0's budget (peak mass 1) but not member 1's (peak 0.01)
        stats = RunStats(clamped_mass_u=np.array([1e-9, 1e-9]), clamped_mass_v=np.zeros(2),
                         clamped_nodes=np.array([1, 1]))

        def traj(peaks):
            # one sample of two flat members; a flat field's mass is its value here
            u = np.array([[np.full(5, p) for p in peaks]])
            return Trajectory(grid=grid, times=np.array([0.0]), u=u, v=0 * u, stats=stats)

        _check_clamp_budget(traj([1.0, 1.0]))
        with pytest.raises(PositivityBudgetError, match="member 1"):
            _check_clamp_budget(traj([1.0, 0.01]))


class TestErrorEstimate:
    """The solve-free estimate: the result against an explicit extrapolation of f."""

    @staticmethod
    def setup(chi, growth):
        grid = Grid((1.0,), (41,))
        x = grid.axis_coords[0]
        coeffs = const_set(grid, *growth)
        params = ModelParams(chi=chi, tau=1.0, lam=1.0, mu=1.0 if chi else 1e-3)
        state = ModelState(0.0, 1.0 + 0.2 * np.cos(np.pi * x), 0.5 + 0.1 * np.cos(np.pi * x))
        return coeffs, params, state

    @staticmethod
    def second_step(state, dt, coeffs, params, cfg, dt_prev=None):
        """A step of dt_prev (default dt) from state, then one of dt with the first as history.

        Returns the state after the first step, the result of the second and its estimate.
        """
        from chemostab.model import split_terms

        dt_prev = dt if dt_prev is None else dt_prev
        mid, _ = step(state, dt_prev, coeffs, params, cfg)
        history = (sum(split_terms(state, coeffs, params)), dt_prev)
        return (mid, *step(mid, dt, coeffs, params, cfg, history=history))

    def estimate_after_one_step(self, state, dt, coeffs, params, cfg):
        """The estimate of a second step of dt, with the first as its history (w = 1)."""
        return self.second_step(state, dt, coeffs, params, cfg)[2]

    @pytest.mark.parametrize("theta, factor", [(0.5, 8.0), (1.0, 4.0)])
    def test_estimate_order(self, theta, factor):
        # O(dt**3) at theta = 0.5 (the corrector's own error), O(dt**2) at theta = 1
        coeffs, params, state = self.setup(0.3, (1.0, 1.0, 0.2))
        cfg = StepperConfig(theta_scheme=theta)
        ests = [self.estimate_after_one_step(state, dt, coeffs, params, cfg)
                for dt in (2e-3, 1e-3)]
        assert ests[0] / ests[1] == pytest.approx(factor, rel=0.1)

    @pytest.mark.parametrize("chi", [0.3, 0.0])
    @pytest.mark.parametrize("w", [0.5, 1.0, 2.0])
    def test_trapezoidal_estimate_is_corrector_error(self, chi, w):
        # at theta = 0.5 the scaled AB2 difference is the returned corrector's
        # own local error, here against 256 substeps from the same state
        coeffs, params, state = self.setup(chi, (1.0, 1.0, 0.2) if chi else (0.0, 0.0, 0.0))
        cfg = StepperConfig()
        dt = 0.005
        mid, out, err = self.second_step(state, dt, coeffs, params, cfg, dt_prev=dt / w)
        ref = fixed_step_run(mid, mid.t + dt, 256, coeffs, params, cfg)
        actual = max(np.abs(out.u - ref.u).max() / (1.0 + np.abs(out.u).max()),
                     np.abs(out.v - ref.v).max() / (1.0 + np.abs(out.v).max()))
        assert 0.9 <= err / actual <= 1.35

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_estimate_sees_implicit_error(self, theta):
        # no drift and no growth: all time error is that of diffusion and decay
        coeffs, params, state = self.setup(0.0, (0.0, 0.0, 0.0))
        cfg = StepperConfig(theta_scheme=theta)
        err = self.estimate_after_one_step(state, 0.01, coeffs, params, cfg)
        assert err > 1e-7
        assert step(state, 0.01, coeffs, params, cfg)[1] > 1e-7

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_without_history_forward_euler(self, theta):
        from chemostab.model import split_terms

        coeffs, params, state = self.setup(0.3, (1.0, 1.0, 0.2))
        dt = 0.01
        out, err = step(state, dt, coeffs, params, StepperConfig(theta_scheme=theta))
        f_u, f_v = sum(split_terms(state, coeffs, params))
        d = max(np.abs(state.u + dt * f_u - out.u).max() / (1.0 + np.abs(out.u).max()),
                np.abs(state.v + dt * f_v - out.v).max() / (1.0 + np.abs(out.v).max()))
        assert err == pytest.approx(d, rel=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_extrapolation_rejected(self, bad):
        coeffs, params, state = self.setup(0.3, (1.0, 1.0, 0.2))
        history = (np.stack([np.full(41, bad), np.zeros(41)]), 0.01)
        with pytest.raises(StepRejected):
            step(state, 0.01, coeffs, params, StepperConfig(), history=history)

    def test_batched_history(self):
        # a batch carries its leading axis through the history; each member's
        # estimate is its own, and the batch reports the max
        from chemostab.model import split_terms

        coeffs, params, state = self.setup(0.3, (1.0, 1.0, 0.2))
        other = ModelState(0.0, 2.0 * state.u, 0.5 * state.v)
        batch = ModelState(0.0, np.stack([state.u, other.u]), np.stack([state.v, other.v]))
        cfg = StepperConfig()
        dt = 0.01
        alone = [self.estimate_after_one_step(s, dt, coeffs, params, cfg) for s in (state, other)]
        mid, _ = step(batch, dt, coeffs, params, cfg)
        history = (sum(split_terms(batch, coeffs, params)), dt)
        _, err = step(mid, dt, coeffs, params, cfg, history=history)
        assert err == pytest.approx(max(alone), rel=1e-10)


class TestStackedStep:
    """The stacked step rounds exactly as the field-by-field reference step."""

    @staticmethod
    def setup(case):
        if case == "2d":
            grid = Grid((1.0, 2.0), (9, 13))
            x, y = grid.coords()
            u = 1.0 + 0.3 * np.cos(np.pi * x) + 0.2 * np.cos(np.pi * y)
        else:
            grid = Grid((1.0,), (41,))
            x = y = grid.axis_coords[0]
            u = 1.0 + 0.3 * np.cos(np.pi * x)
        v = 0.5 + 0.2 * np.cos(2 * np.pi * x) * np.cos(np.pi * y / 2)
        if case == "1d-batched":
            u, v = np.stack([u, 2.0 * u, 0.5 * u]), np.stack([v, 0.3 * v, v + 1.0])
        params = ModelParams(chi=0.3, tau=0.8, lam=1.2, mu=0.9)
        return const_set(grid, 1.0, 1.0, 0.2), params, ModelState(0.0, u, v)

    @pytest.mark.parametrize("with_history", [False, True], ids=["first", "ab2"])
    @pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("case", ["1d", "1d-batched", "2d"])
    def test_matches_field_by_field(self, case, theta, with_history):
        from chemostab.model import split_terms

        coeffs, params, state = self.setup(case)
        cfg = StepperConfig(theta_scheme=theta)
        history = ref_history = None
        if with_history:  # f of an earlier state, so that w = 0.5 and f_prev != f_n
            earlier = ModelState(0.0, 0.9 * state.u, 1.1 * state.v)
            f_prev = sum(split_terms(earlier, coeffs, params))
            history, ref_history = (f_prev, 0.02), (f_prev[0], f_prev[1], 0.02)
        stats = RunStats()
        out, err = step(state, 0.01, coeffs, params, cfg, stats=stats, history=history)
        u, v, ref_err, *_ = field_by_field_step(state, 0.01, coeffs, params, cfg,
                                                history=ref_history)
        assert err > 0.0
        assert err == ref_err
        assert np.array_equal(out.u, u) and np.array_equal(out.v, v)
        assert out.uv.shape == (2, *state.u.shape)
        assert stats.clamped_nodes == 0

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    def test_clamp_matches_field_by_field(self, batched):
        # a spike diffused over a short step leaves round-off negatives far
        # away, inside the band, in u and (through mu*u) in v
        grid = Grid((1.0,), (41,))
        u = np.zeros((2, 41) if batched else 41)
        u[..., 20] = 1.0
        if batched:
            u[1, 20], u[1, 5] = 0.0, 3.0
        state = ModelState(0.0, u, np.zeros_like(u))
        coeffs = const_set(grid, 0.0, 0.0, 0.0)
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        cfg = StepperConfig(theta_scheme=1.0)
        stats = RunStats()
        out, err = step(state, 1e-4, coeffs, params, cfg, stats=stats)
        u_ref, v_ref, err_ref, mass_u, mass_v, nodes = field_by_field_step(
            state, 1e-4, coeffs, params, cfg)
        assert np.array_equal(out.u, u_ref) and np.array_equal(out.v, v_ref)
        assert err == err_ref
        assert np.all(mass_u > 0.0) and np.all(mass_v > 0.0)
        assert np.array_equal(stats.clamped_mass_u, mass_u)
        assert np.array_equal(stats.clamped_mass_v, mass_v)
        assert np.array_equal(stats.clamped_nodes, nodes)
        assert out.uv.min() == 0.0


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
            finals.append(out.u[0])
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
            errs.append(abs(traj.final.u[0] - logistic_exact(4.0, 0.1)))
        for k in range(2):
            assert 1.3 <= errs[k] / errs[k + 1] <= 3.2

    @pytest.mark.parametrize("theta", [0.75, 1.0])
    def test_halving_tolerance_roughly_halves_error_first_order(self, theta):
        grid = Grid((1.0,), (3,))
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        cs = const_set(grid)
        errs = []
        for tol in (4e-4, 2e-4, 1e-4):
            cfg = StepperConfig(error_tol=tol, dt_max=0.05, dt_init=1e-4, theta_scheme=theta)
            traj = run(flat_state(grid, 0.1, 0.0), 4.0, cs, params, cfg, sample_dt=4.0)
            errs.append(abs(traj.final.u[0] - logistic_exact(4.0, 0.1)))
        for k in range(2):
            assert 1.3 <= errs[k] / errs[k + 1] <= 3.2

    @pytest.mark.parametrize("theta, tols", [
        (0.5, (4e-5, 2e-5, 1e-5)),
        (0.75, (1e-2, 5e-3, 2.5e-3)),
        (1.0, (1e-2, 5e-3, 2.5e-3)),
    ])
    def test_halving_tolerance_halves_diffusion_error(self, theta, tols):
        # no drift, no growth and a weak source: the time error is that of
        # the implicit diffusion and decay, which the estimate must see
        grid = Grid((1.0,), (21,))
        x = grid.axis_coords[0]
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1e-3)
        cs = const_set(grid, 0.0, 0.0, 0.0)
        state0 = ModelState(0.0, 1.0 + 0.5 * np.cos(np.pi * x),
                            0.5 + 0.3 * np.cos(2 * np.pi * x))
        t_end = 0.25
        ref = fixed_step_run(state0, t_end, 1000, cs, params, StepperConfig())
        errs = []
        for tol in tols:
            cfg = StepperConfig(error_tol=tol, theta_scheme=theta)
            out = run(state0, t_end, cs, params, cfg, sample_times=[0.0, t_end]).final
            errs.append(max(np.abs(out.u - ref.u).max(), np.abs(out.v - ref.v).max()))
        assert errs[0] <= tols[0]
        for k in range(2):
            assert 1.3 <= errs[k] / errs[k + 1] <= 3.2

    def test_contracting_layer_is_not_over_resolved(self):
        # every mode of the initial data decays (rates 1 + pi**2 k**2 for u
        # near 1, and 1 for v), so a local error is damped instead of adding
        # up; with the contraction credit the steps of the layer grow with
        # its decay, and the global error stays below and proportional to tol
        grid = Grid((1.0,), (33,))
        x = grid.axis_coords[0]
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        cs = const_set(grid)
        state0 = ModelState(0.0, 1.0 + 0.05 * np.cos(2 * np.pi * x) + 0.05 * np.cos(3 * np.pi * x),
                            np.zeros(33))
        t_end = 0.5
        ref = fixed_step_run(state0, t_end, 4000, cs, params, StepperConfig())
        tols = (4e-5, 2e-5, 1e-5)
        errs = []
        for tol in tols:
            traj = run(state0, t_end, cs, params, StepperConfig(error_tol=tol),
                       sample_times=[0.0, t_end])
            stats = traj.stats
            # 233, 327 and 460 attempts under the per-unit-step test alone
            assert stats.accepted + stats.rejected_error <= 150
            assert 0 < stats.credited <= stats.accepted
            out = traj.final
            errs.append(max(np.abs(out.u - ref.u).max(), np.abs(out.v - ref.v).max()))
        for tol, err in zip(tols, errs):
            assert err <= tol
        for k in range(2):
            assert 1.3 <= errs[k] / errs[k + 1] <= 3.2
