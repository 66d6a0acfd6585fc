import numpy as np
import pytest

from chemostab import Grid, laplacian_values
from chemostab.implicit import solve_shifted

from oracles import axis_laplacian_matrix, laplacian_matrix, shifted_solve


def apply_operator(grid, a, b, x):
    lap = laplacian_values(grid, x)
    return a * x - b * lap


def assert_matches_oracle(grid, a, b, rhs, x):
    ref = shifted_solve(grid, a, b, rhs)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


class TestAxisMatrix:
    def test_matches_stencil_action(self):
        grid = Grid((1.0,), (7,))
        mat = axis_laplacian_matrix(grid, 0)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 7)
        assert np.allclose(mat @ x, laplacian_values(grid, x), rtol=1e-13)

    def test_rows_annihilate_constants(self):
        grid = Grid((2.0,), (9,))
        mat = axis_laplacian_matrix(grid, 0)
        assert np.allclose(mat @ np.ones(9), 0.0, atol=1e-12)

    @pytest.mark.parametrize("counts", [(3, 5), (9, 4)])
    def test_kronecker_sum_matches_2d_stencil(self, counts):
        grid = Grid((0.5, 2.0), counts)
        x = np.random.default_rng(6).uniform(-1, 1, counts)
        lap = laplacian_values(grid, x)
        assert np.allclose((laplacian_matrix(grid) @ x.ravel()).reshape(counts), lap,
                           rtol=1e-13, atol=1e-12)


class TestSolveShifted:
    @pytest.mark.parametrize("a,b", [(1.0, 0.01), (1.7, 0.3), (1.0, 0.0)])
    def test_1d_residual(self, a, b):
        grid = Grid((1.0,), (23,))
        rng = np.random.default_rng(1)
        rhs = rng.uniform(-1, 1, 23)
        x = solve_shifted(grid, a, b, rhs)
        assert np.allclose(apply_operator(grid, a, b, x), rhs, rtol=1e-11, atol=1e-12)
        assert_matches_oracle(grid, a, b, rhs, x)

    @pytest.mark.parametrize("a,b", [(1.0, 0.05), (2.3, 0.4)])
    def test_2d_residual(self, a, b):
        grid = Grid((1.0, 2.0), (9, 13))
        rng = np.random.default_rng(2)
        rhs = rng.uniform(-1, 1, grid.counts)
        x = solve_shifted(grid, a, b, rhs)
        assert np.allclose(apply_operator(grid, a, b, x), rhs, rtol=1e-10, atol=1e-11)
        assert_matches_oracle(grid, a, b, rhs, x)

    @pytest.mark.parametrize("extents,counts,a,b", [
        ((1.0,), (3,), 1.7, 0.3),
        ((0.6,), (101,), 2.3, 1e2),
        ((1.0, 1.0), (3, 3), 1.0, 0.05),
        ((0.5, 2.0), (3, 5), 2.3, 0.4),
        ((1.0, 0.7), (17, 11), 1.0, 1e2),
        ((2.0, 0.5), (33, 9), 2.3, 1e2),
        ((1.0,), (401,), 1.0, 1e2),
    ])
    def test_matches_dense_oracle(self, extents, counts, a, b):
        grid = Grid(extents, counts)
        rng = np.random.default_rng(5)
        rhs = rng.uniform(-1, 1, counts)
        assert_matches_oracle(grid, a, b, rhs, solve_shifted(grid, a, b, rhs))

    def test_m_matrix_preserves_positivity(self):
        # the inverse of an M-matrix is entrywise nonnegative
        grid = Grid((1.0,), (15,))
        rng = np.random.default_rng(3)
        rhs = rng.uniform(0.1, 1.0, 15)
        x = solve_shifted(grid, 1.0, 0.5, rhs)
        assert np.all(x > 0.0)
        grid2 = Grid((1.0, 1.0), (7, 7))
        rhs2 = rng.uniform(0.1, 1.0, (7, 7))
        x2 = solve_shifted(grid2, 1.0, 0.5, rhs2)
        assert np.all(x2 > 0.0)

    def test_conserves_weighted_sum(self):
        # weights are a left null vector of the Laplacian part
        grid = Grid((1.0,), (21,))
        rng = np.random.default_rng(4)
        rhs = rng.uniform(-1, 1, 21)
        x = solve_shifted(grid, 1.0, 0.7, rhs)
        assert np.sum(grid.weights * x) == pytest.approx(
            np.sum(grid.weights * rhs), abs=1e-13)

    def test_invalid_shift_rejected(self):
        grid = Grid((1.0,), (5,))
        with pytest.raises(ValueError):
            solve_shifted(grid, 0.0, 0.1, np.ones(5))
        with pytest.raises(ValueError):
            solve_shifted(grid, 1.0, -0.1, np.ones(5))
