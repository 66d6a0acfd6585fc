"""Linear solves for the implicit diffusion part of the time stepper.

Solves (a*I - b*Lap) x = rhs on a grid, where Lap is the ghost-reflected
Neumann Laplacian and a > 0, b >= 0.

On this node-centred grid the type-I discrete cosine transform diagonalizes
the reflected-ghost Laplacian exactly, in any dimension: along an axis with
n nodes and spacing h, the cosine cos(pi*k*i/(n-1)) is an eigenvector with
eigenvalue -(4/h^2) * sin^2(pi*k/(2*(n-1))) (Strang, "The Discrete Cosine
Transform", SIAM Review 41, 1999).  The solve transforms rhs along every
axis, divides by the symbol a - b * (sum of the axis eigenvalues), and
transforms back.  Each DCT-I is a dense matrix C_n with entries
2*cos(pi*j*k/(n-1)), columns 0 and n-1 halved, cached per axis length:
rhs @ C0.T in 1D, C0 @ rhs @ C1.T in 2D.  C_n @ C_n = 2*(n-1) * I, so the same
matrices serve for the way back.  Both products act on the trailing axes, so
fields stacked on leading axes, a batch ``(K, *grid.counts)`` or the
stepper's pair ``(2, ...)`` of u and v with one a and b per field, are
solved in one call.  Each field is solved bit for bit as it is alone (the
vector-product rule): a single 1D field alone is a vector product, and one
product over both rows of a ``(2, n)`` pair rounds differently (at 1e-14),
so that pair is multiplied as ``(2, 1, n)``.

The matrix form costs O(n) flops per node per axis and O(n^2) memory per
distinct axis length (130 KB at 129 nodes).  It beats the FFT of the even
extension, whose time at small sizes goes to copies and temporaries, only
below about 300 nodes per axis.  Time per call relative to the FFT form, one
OpenBLAS thread on an x86 Xeon: 0.36 at 101 nodes, 1.5 at 401 and 14 at 1001
in 1D; 0.8 at 129^2 and 1.1-1.3 at 257^2 in 2D.  Every benchmark workload has
at most 129 nodes per axis, so only the matrix form is kept; an FFT form
comes back only together with a benchmark workload above the crossover.

The symbol is at least a > 0, so the division cannot break down.  Non-finite
input yields non-finite output rather than an error; the stepper rejects such
steps and retries with a smaller one.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grid import Grid

__all__ = ["solve_shifted"]


@lru_cache(maxsize=32)
def _neg_symbol(grid: Grid) -> np.ndarray:
    """-(sum of the per-axis Laplacian eigenvalues), shaped like a field."""
    out = np.zeros(grid.counts)
    for axis, (h, n) in enumerate(zip(grid.spacing, grid.counts)):
        lam = (4.0 / (h * h)) * np.sin(np.pi * np.arange(n) / (2.0 * (n - 1))) ** 2
        shape = [1] * grid.dim
        shape[axis] = n
        out = out + lam.reshape(shape)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _dct1_matrix(n: int) -> np.ndarray:
    """Unnormalized DCT-I on n points as a matrix acting on column vectors."""
    jk = np.outer(np.arange(n), np.arange(n)) % (2 * (n - 1))  # exact period reduction
    mat = 2.0 * np.cos(np.pi * jk / (n - 1))
    mat[:, [0, -1]] *= 0.5
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=1)  # the stages of one step share their shifts
def _divisor(grid: Grid, a: tuple, b: tuple, ndim: int) -> np.ndarray:
    """The symbol of a*I - b*Lap scaled by the round trip, one shift per leading index."""
    scale = math.prod(2 * (n - 1) for n in grid.counts)
    shape = (-1,) + (1,) * (ndim - 1)
    a, b = np.reshape(a, shape), np.reshape(b, shape)
    out = scale * a + (scale * b) * _neg_symbol(grid)
    out.flags.writeable = False
    return out


def solve_shifted(grid: Grid, a, b, rhs: np.ndarray) -> np.ndarray:
    """Solve (a*I - b*Lap) x = rhs for a > 0, b >= 0: scalars, or one per leading field."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # checked in Python: a numpy reduction over two entries is a sizeable share of a 1D solve
    if not (all(x > 0.0 for x in a.flat) and all(x >= 0.0 for x in b.flat)):
        raise ValueError(f"need a > 0 and b >= 0, got a={a}, b={b}")
    mats = [_dct1_matrix(n) for n in grid.counts]
    vectors = grid.dim == 1 and max(a.ndim, b.ndim) == 1 and rhs.ndim == 2  # single 1D fields

    def dct1(x: np.ndarray) -> np.ndarray:
        return x @ mats[0].T if grid.dim == 1 else mats[0] @ x @ mats[1].T

    spec = dct1(rhs[:, None] if vectors else rhs)
    spec /= _divisor(grid, tuple(a.flat), tuple(b.flat), spec.ndim)
    x = dct1(spec)
    return x[:, 0] if vectors else x
