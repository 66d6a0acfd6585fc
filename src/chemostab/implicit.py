"""Linear solves for the implicit diffusion part of the time stepper.

Solves (a*I - b*Lap) x = rhs on a grid, where Lap is the ghost-reflected
Neumann Laplacian and a > 0, b >= 0.

On this node-centred grid the type-I discrete cosine transform diagonalizes
the reflected-ghost Laplacian exactly, in any dimension: along an axis with
n nodes and spacing h, the cosine cos(pi*k*i/(n-1)) is an eigenvector with
eigenvalue -(4/h^2) * sin^2(pi*k/(2*(n-1))) (Strang, "The Discrete Cosine
Transform", SIAM Review 41, 1999).  The solve transforms rhs along every
axis, divides by the symbol a - b * (sum of the axis eigenvalues), and
transforms back.  Each DCT-I is the real FFT of the even extension
[f_0, ..., f_{n-1}, f_{n-2}, ..., f_1], whose spectrum is real.  Applied
twice, the DCT-I returns its input times 2*(n-1), so the same transform
serves for the way back.

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


def _dct1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized DCT-I along one axis."""
    x = np.swapaxes(x, axis, -1)
    spec = np.fft.rfft(np.concatenate([x, x[..., -2:0:-1]], axis=-1)).real
    return np.swapaxes(spec, axis, -1)


def solve_shifted(grid: Grid, a: float, b: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (a*I - b*Lap) x = rhs. Requires a > 0, b >= 0."""
    if a <= 0.0 or b < 0.0:
        raise ValueError(f"need a > 0 and b >= 0, got a={a}, b={b}")
    spec = rhs
    for axis in range(grid.dim):
        spec = _dct1(spec, axis)
    scale = math.prod(2 * (n - 1) for n in grid.counts)
    spec /= scale * a + (scale * b) * _neg_symbol(grid)
    for axis in range(grid.dim):
        spec = _dct1(spec, axis)
    return spec
