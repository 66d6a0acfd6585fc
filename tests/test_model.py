import numpy as np
import pytest

from chemostab import (
    CoefficientSet,
    ConstantCoefficient,
    Grid,
    GridMismatchError,
    ModelParams,
    ModelState,
    SeparableCoefficient,
    TimeFactor,
    integrate_values,
    laplacian_values,
    chemotaxis_values,
    mass_rate,
    reaction_values,
    spatial_profile,
    split_terms,
)


def const_set(grid, a0=1.0, a1=1.0, a2=0.0):
    return CoefficientSet(
        ConstantCoefficient(grid, 0, a0),
        ConstantCoefficient(grid, 1, a1),
        ConstantCoefficient(grid, 2, a2),
    )


def full_rhs(state, coeffs, params):
    """f = implicit + explicit part, the right-hand side the stepper extrapolates."""
    imp, exp = split_terms(state, coeffs, params)
    return imp + exp


@pytest.fixture
def grid():
    return Grid((1.0,), (21,))


class TestParams:
    def test_validation(self):
        ModelParams(chi=-0.5, tau=1.0, lam=2.0, mu=0.3)
        with pytest.raises(ValueError):
            ModelParams(chi=0.0, tau=0.0, lam=1.0, mu=1.0)
        with pytest.raises(ValueError):
            ModelParams(chi=0.0, tau=1.0, lam=-1.0, mu=1.0)
        with pytest.raises(ValueError):
            ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=0.0)

    def test_state_grid_check(self, grid):
        other = Grid((1.0,), (11,))
        with pytest.raises(GridMismatchError):
            ModelState(0.0, np.full(grid.counts, 1.0), np.full(other.counts, 1.0))


class TestRhsU:
    def test_extinction_is_equilibrium(self, grid):
        params = ModelParams(chi=1.0, tau=1.0, lam=1.0, mu=1.0)
        state = ModelState(0.0, np.full(grid.counts, 0.0), np.full(grid.counts, 2.0))
        out = full_rhs(state, const_set(grid), params)[0]
        assert np.all(out == 0.0)

    def test_flat_reduction_to_ode(self, grid):
        c = 0.7
        a0, a1, a2 = 1.3, 0.4, 0.2
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        state = ModelState(0.0, np.full(grid.counts, c), np.full(grid.counts, 5.0))
        out = full_rhs(state, const_set(grid, a0, a1, a2), params)[0]
        expected = c * (a0 - a1 * c - a2 * grid.volume * c)
        assert np.allclose(out, expected, rtol=1e-14)

    def test_carrying_capacity(self, grid):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        state = ModelState(0.0, np.full(grid.counts, 1.0), np.full(grid.counts, 0.0))
        out = full_rhs(state, const_set(grid, 1.0, 1.0, 0.0), params)[0]
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_reaction_vanishes_where_u_zero(self, grid):
        rng = np.random.default_rng(0)
        uvals = rng.uniform(0.0, 1.0, 21)
        uvals[[0, 7, 20]] = 0.0
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        state = ModelState(0.0, uvals, np.full(grid.counts, 0.0))
        react = reaction_values(grid, state.u, state.t, const_set(grid, 2.0, 1.0, 0.5))
        assert react[0] == 0.0
        assert react[7] == 0.0
        assert react[20] == 0.0

    def test_linearity_in_chi(self, grid):
        rng = np.random.default_rng(1)
        u = rng.uniform(0.1, 2.0, 21)
        v = rng.uniform(0.0, 1.0, 21)
        state = ModelState(0.0, u, v)
        cs = const_set(grid)

        def out(chi):
            return full_rhs(state, cs, ModelParams(chi=chi, tau=1.0, lam=1.0, mu=1.0))[0]

        lhs = out(0.4) + out(1.1) - out(0.0)
        rhs = out(1.5)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestRhsV:
    def test_chemical_equilibrium(self, grid):
        params = ModelParams(chi=0.0, tau=1.0, lam=2.0, mu=3.0)
        c = 0.8
        state = ModelState(
            0.0, np.full(grid.counts, c), np.full(grid.counts, params.mu * c / params.lam)
        )
        assert np.allclose(full_rhs(state, const_set(grid), params)[1], 0.0, atol=1e-14)

    def test_production(self, grid):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=2.0)
        state = ModelState(0.0, np.full(grid.counts, 1.0), np.full(grid.counts, 0.0))
        out = full_rhs(state, const_set(grid), params)[1]
        assert np.allclose(out, 2.0, rtol=1e-14)

    def test_tau_scaling_exact(self, grid):
        rng = np.random.default_rng(2)
        u = rng.uniform(0.0, 2.0, 21)
        v = rng.uniform(0.0, 2.0, 21)
        state = ModelState(0.0, u, v)
        cs = const_set(grid)
        full = full_rhs(state, cs, ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0))[1]
        halved = full_rhs(state, cs, ModelParams(chi=0.0, tau=0.5, lam=1.0, mu=1.0))[1]
        assert np.array_equal(halved, 2.0 * full)


class TestMassRate:
    def test_extinction(self, grid):
        params = ModelParams(chi=0.3, tau=0.5, lam=1.5, mu=1.0)
        v = np.full(grid.counts, 2.0)
        state = ModelState(0.0, np.full(grid.counts, 0.0), v)
        du, dv = mass_rate(state, const_set(grid), params)
        assert du == 0.0
        assert dv == pytest.approx(-params.lam * integrate_values(grid, v), rel=1e-14)

    def test_equilibrium_rates_vanish(self, grid):
        params = ModelParams(chi=0.0, tau=1.0, lam=1.0, mu=1.0)
        state = ModelState(0.0, np.full(grid.counts, 1.0), np.full(grid.counts, 1.0))
        du, dv = mass_rate(state, const_set(grid), params)
        assert abs(du) < 1e-14 and abs(dv) < 1e-14

    @pytest.mark.parametrize("seed", range(8))
    def test_divergence_theorem_identity(self, seed):
        # transport terms integrate to zero, so the integral of f's u row matches
        # the reaction-only rate, and tau times that of its v row the chemical one
        rng = np.random.default_rng(seed)
        grid = Grid((1.0, 1.5), (7, 9)) if seed % 2 else Grid((2.0,), (33,))
        shape = grid.counts
        u = rng.uniform(0.0, 3.0, shape)
        v = rng.uniform(0.0, 2.0, shape)
        params = ModelParams(
            chi=rng.uniform(-1, 1), tau=rng.uniform(0.2, 1.0),
            lam=rng.uniform(0.5, 2.0), mu=rng.uniform(0.5, 2.0),
        )
        cs = CoefficientSet(
            SeparableCoefficient(grid, 0, TimeFactor("constant", value=1.2),
                               spatial_profile(grid, "sine", offset=1.0, amplitude=0.5)),
            ConstantCoefficient(grid, 1, 0.8),
            ConstantCoefficient(grid, 2, rng.uniform(-0.5, 0.5)),
        )
        state = ModelState(0.3, u, v)
        du, dv = mass_rate(state, cs, params)
        f = full_rhs(state, cs, params)
        total_u = integrate_values(grid, f[0])
        total_v = integrate_values(grid, f[1])
        lap = laplacian_values(grid, u)
        chem = chemotaxis_values(grid, u, v, params.chi)
        scale = 1.0 + integrate_values(grid, np.abs(lap)) + integrate_values(
            grid, np.abs(chem)
        )
        assert abs(total_u - du) <= 1e-12 * scale
        assert abs(params.tau * total_v - dv) <= 1e-12 * scale
