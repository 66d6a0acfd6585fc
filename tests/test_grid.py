import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemostab import (
    Field,
    Grid,
    chemotaxis_values,
    gradient_neumann,
    integrate_values,
    laplacian_values,
    norms,
    w2inf_norm,
)

from oracles import trapezoid_sum

EPS = np.finfo(float).eps


def unit_interval(n=5):
    return Grid((1.0,), (n,))


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return Field(grid, rng.uniform(-2.0, 2.0, size=grid.counts))


class TestGridConstruction:
    def test_spacing_and_volume(self):
        g = Grid((2.0, 3.0), (5, 7))
        assert g.spacing == (0.5, 0.5)
        assert g.volume == 6.0
        assert g.node_count == 35

    def test_volume_is_product_of_extents(self):
        g = Grid((0.7, 1.3), (4, 9))
        assert g.volume == 0.7 * 1.3

    @pytest.mark.parametrize("counts", [(2,), (1,), (3, 2)])
    def test_too_few_nodes_rejected(self, counts):
        extents = (1.0,) * len(counts)
        with pytest.raises(ValueError):
            Grid(extents, counts)

    def test_bad_extent_rejected(self):
        with pytest.raises(ValueError):
            Grid((-1.0,), (5,))
        with pytest.raises(ValueError):
            Grid((0.0,), (5,))

    def test_weights_sum_to_volume(self):
        for g in (Grid((2.0,), (9,)), Grid((1.0, 2.0), (5, 11))):
            assert np.isclose(g.weights.sum(), g.volume, rtol=1e-14)


class TestField:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Field(unit_interval(), np.zeros(4))

    def test_nonfinite_rejected(self):
        vals = np.zeros(5)
        vals[2] = np.nan
        with pytest.raises(ValueError):
            Field(unit_interval(), vals)

    def test_immutable(self):
        f = Field.constant(unit_interval(), 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0
        with pytest.raises(AttributeError):
            f.values = np.zeros(5)


class TestLaplacian:
    def test_constants_in_kernel(self):
        for g in (unit_interval(7), Grid((1.0, 2.0), (5, 9))):
            out = laplacian_values(g, Field.constant(g, 7.0).values)
            assert np.all(out == 0.0)

    def test_hand_stencil_values(self):
        # 5 nodes, h = 0.25, f = (0,1,0,0,0): interior (0-2+0)/h^2, boundary 2(1-0)/h^2
        g = unit_interval(5)
        out = laplacian_values(g, np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
        assert out[1] == -32.0
        assert out[0] == 32.0
        assert out[2] == 16.0
        assert out[3] == 0.0 and out[4] == 0.0

    def test_row_sums_zero(self):
        # applying to coordinate-indicator fields reconstructs matrix columns;
        # constants-in-kernel plus symmetry under weights already pins row sums
        g = unit_interval(6)
        for i in range(6):
            e = np.zeros(6)
            e[i] = 1.0
            col = laplacian_values(g, e)
            # weighted column sums vanish (conservation column-wise)
            assert abs(np.sum(g.weights * col)) < 1e-10

    def test_cosine_accuracy_and_order(self):
        errors = []
        for n in (33, 65, 129):
            g = unit_interval(n)
            f = Field.from_function(g, lambda x: np.cos(np.pi * x))
            exact = -np.pi**2 * f.values
            errors.append(np.abs(laplacian_values(g, f.values) - exact).max())
        for k in range(2):
            ratio = errors[k] / errors[k + 1]
            assert 3.5 <= ratio <= 4.5

    def test_2d_cosine_accuracy(self):
        errs = []
        for n in (17, 33):
            g = Grid((1.0, 2.0), (n, n))
            f = Field.from_function(
                g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y / 2.0)
            )
            exact = -(np.pi**2 + (np.pi / 2.0) ** 2) * f.values
            errs.append(np.abs(laplacian_values(g, f.values) - exact).max())
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    @pytest.mark.parametrize("seed", range(5))
    def test_conservation_random(self, seed):
        g = unit_interval(17) if seed % 2 else Grid((1.0, 0.5), (7, 9))
        f = random_field(g, seed)
        lap = laplacian_values(g, f.values)
        tol = 10.0 * EPS * g.node_count * np.abs(lap).max()
        assert abs(np.sum(g.weights * lap)) <= tol


class TestChemotaxis:
    def test_constant_v_gives_zero(self):
        g = unit_interval(9)
        u = random_field(g, 0)
        out = chemotaxis_values(g, u.values, Field.constant(g, 3.0).values, 2.5)
        assert np.all(out == 0.0)

    def test_chi_zero_gives_zero(self):
        g = unit_interval(9)
        out = chemotaxis_values(g, random_field(g, 1).values, random_field(g, 2).values, 0.0)
        assert np.all(out == 0.0)

    def test_hand_flux_values(self):
        # 3 nodes, h=0.5, u=1, v=(0,1,0): F_{1/2}=2, F_{3/2}=-2
        g = unit_interval(3)
        u = Field.constant(g, 1.0)
        v = Field(g, np.array([0.0, 1.0, 0.0]))
        out = chemotaxis_values(g, u.values, v.values, 1.0)
        assert out[1] == 8.0
        # boundary nodes from the one-sided zero-flux closure
        assert out[0] == -8.0 and out[2] == -8.0

    @pytest.mark.parametrize("seed", range(5))
    def test_conservation_random(self, seed):
        g = Grid((1.0, 2.0), (6, 8)) if seed % 2 else unit_interval(21)
        u = random_field(g, 10 + seed)
        v = random_field(g, 20 + seed)
        out = chemotaxis_values(g, u.values, v.values, 0.7)
        scale = max(np.abs(out).max(), 1.0)
        assert abs(np.sum(g.weights * out)) <= 10.0 * EPS * g.node_count * scale


class TestIntegrate:
    def test_constant(self):
        g = Grid((2.0,), (9,))
        assert integrate_values(g, Field.constant(g, 1.0).values) == pytest.approx(2.0, abs=1e-15)

    def test_affine_exact(self):
        for n in (3, 7, 20):
            g = unit_interval(n)
            f = Field.from_function(g, lambda x: x)
            assert integrate_values(g, f.values) == pytest.approx(0.5, abs=1e-14)

    def test_quadratic_trapezoid_value(self):
        # closed-form composite trapezoid of x^2 on 10 intervals: (2n^2+1)/(6n^2)
        g = unit_interval(11)
        f = Field.from_function(g, lambda x: x**2)
        assert integrate_values(g, f.values) == pytest.approx(0.335, abs=1e-14)

    def test_bilinear_exact_2d(self):
        g = Grid((1.0, 2.0), (4, 5))
        f = Field.from_function(g, lambda x, y: (1.0 + 2.0 * x) * (3.0 + y))
        assert integrate_values(g, f.values) == pytest.approx(16.0, rel=1e-14)

    def test_matches_bruteforce_sum(self):
        g = Grid((1.5, 0.5), (5, 6))
        f = random_field(g, 3)
        assert integrate_values(g, f.values) == pytest.approx(
            trapezoid_sum(f.values, g.weights), rel=1e-13)

    @given(
        alpha=st.floats(-5, 5, allow_nan=False),
        beta=st.floats(-5, 5, allow_nan=False),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, alpha, beta, seed):
        g = unit_interval(9)
        f = random_field(g, seed)
        h = random_field(g, seed + 1)
        combo = Field(g, alpha * f.values + beta * h.values)
        lhs = integrate_values(g, combo.values)
        rhs = alpha * integrate_values(g, f.values) + beta * integrate_values(g, h.values)
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))


class TestNorms:
    def test_zero(self):
        f = Field.constant(unit_interval(), 0.0)
        assert norms(f.grid, f.values) == (0.0, 0.0)

    def test_constant(self):
        f = Field.constant(unit_interval(9), -3.0)
        l2, linf = norms(f.grid, f.values)
        assert l2 == pytest.approx(3.0, rel=1e-14)
        assert linf == 3.0

    def test_direct_quadrature_value(self):
        # (3,0,4) on (0,1): L2^2 = 0.25*9 + 0.5*0 + 0.25*16 = 6.25
        f = Field(unit_interval(3), np.array([3.0, 0.0, 4.0]))
        l2, linf = norms(f.grid, f.values)
        assert l2 == pytest.approx(2.5, abs=1e-14)
        assert linf == 4.0


class TestDerivativeHelpers:
    def test_gradient_boundary_vanishes(self):
        g = unit_interval(9)
        f = random_field(g, 7)
        (gx,) = gradient_neumann(g, f.values)
        assert gx[0] == 0.0 and gx[-1] == 0.0

    def test_gradient_exact_on_quadratics_2d(self):
        # central differences are exact on quadratics at interior nodes
        g = Grid((1.0, 2.0), (5, 9))
        f = Field.from_function(g, lambda x, y: x * x + 3.0 * y * y)
        gx, gy = gradient_neumann(g, f.values)
        x, y = g.coords()
        assert np.allclose(gx[1:-1, :], 2.0 * x[1:-1, :], rtol=1e-13, atol=1e-13)
        assert np.allclose(gy[:, 1:-1], 6.0 * y[:, 1:-1], rtol=1e-13, atol=1e-13)
        assert np.all(gx[[0, -1], :] == 0.0) and np.all(gy[:, [0, -1]] == 0.0)

    def test_w2inf_on_neumann_cosine(self):
        g = unit_interval(201)
        f = Field.from_function(g, lambda x: np.cos(np.pi * x))
        # dominated by the second derivative, pi^2
        assert w2inf_norm(f.grid, f.values) == pytest.approx(np.pi**2, rel=2e-2)

    def test_w2inf_flat(self):
        f = Field.constant(unit_interval(5), 4.0)
        assert w2inf_norm(f.grid, f.values) == 4.0


class TestBatchAxis:
    """A leading batch axis passes through every kernel: member k of the
    batched result is the kernel applied to member k alone."""

    @pytest.fixture(params=[(1.0,), (1.0, 2.0)], ids=["1d", "2d"])
    def grid(self, request):
        extents = request.param
        return Grid(extents, (11,) if len(extents) == 1 else (7, 9))

    @staticmethod
    def batch(grid, k=3, seed=4):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.1, 2.0, size=(k, *grid.counts))

    def test_stencils_match_members_bitwise(self, grid):
        u, v = self.batch(grid), self.batch(grid, seed=5)
        kernels = [
            lambda a, b: laplacian_values(grid, a),
            lambda a, b: chemotaxis_values(grid, a, b, 0.7),
            lambda a, b: np.stack(gradient_neumann(grid, a)),
        ]
        for kernel in kernels:
            batched = kernel(u, v)
            stacked = [kernel(a, b) for a, b in zip(u, v)]
            if batched.ndim > u.ndim:  # gradient_neumann: axis index leads
                batched = np.moveaxis(batched, 1, 0)
            assert np.array_equal(batched, np.stack(stacked))

    def test_reductions_are_per_member(self, grid):
        u = self.batch(grid)
        assert np.array_equal(w2inf_norm(grid, u), [w2inf_norm(grid, a) for a in u])
        assert np.array_equal(norms(grid, u)[1], [norms(grid, a)[1] for a in u])
        # sums may group terms differently per reduction, so round-off only
        np.testing.assert_allclose(integrate_values(grid, u),
                                   [integrate_values(grid, a) for a in u], rtol=1e-14)
        np.testing.assert_allclose(norms(grid, u)[0], [norms(grid, a)[0] for a in u],
                                   rtol=1e-14)

    def test_unbatched_reductions_are_scalars(self, grid):
        u = self.batch(grid, k=1)[0]
        for value in (integrate_values(grid, u), w2inf_norm(grid, u), *norms(grid, u)):
            assert isinstance(value, float)
