"""Rectangular grids with homogeneous-Neumann operators and trapezoid quadrature.

Nodes are placed at the endpoints and interior points of each axis
(``x_i = i * h``, ``h = length / (count - 1)``), so a field carries one value
per node.  All boundary treatment uses ghost reflection ``f(-h) = f(h)``,
which keeps the difference operators second order and makes the discrete
divergence theorem exact under the matching trapezoid weights: the weighted
sum of any Laplacian or conservative flux divergence telescopes to zero.

2D operators are tensor products of the 1D stencils; corners reflect in both
axes.

Every operator is an array kernel ``op(grid, values, ...)`` that takes and
returns plain arrays or floats; states and coefficient values are nodal
arrays shaped like ``grid.counts``.  Kernels index grid axes from the end, so
a batch of K fields stacked on a leading axis, shape ``(K, *grid.counts)``,
passes through: stencils act on each member, and reductions
(``integrate_values``, ``norms``, ``w2inf_norm``) return one value per member,
a scalar for an unbatched field.  :class:`Field` validates input where it
enters the program (config profiles, files, spatial profiles): it checks the
shape against a grid and, through :func:`require_finite`, the values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "require_finite",
    "laplacian_values",
    "chemotaxis_values",
    "integrate_values",
    "norms",
    "gradient_neumann",
    "w2inf_norm",
]


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered rectangle in 1 or 2 dimensions.

    Parameters
    ----------
    extents : tuple of float
        Physical side lengths, one per axis.
    counts : tuple of int
        Node counts per axis, each at least 3.
    """

    extents: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        extents = tuple(float(e) for e in self.extents)
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "counts", counts)
        if len(extents) not in (1, 2):
            raise ValueError(f"grid dimension must be 1 or 2, got {len(extents)}")
        if len(counts) != len(extents):
            raise ValueError("extents and counts must have the same length")
        for k, (ell, n) in enumerate(zip(extents, counts)):
            if not (ell > 0.0 and np.isfinite(ell)):
                raise ValueError(f"axis {k}: extent must be positive and finite")
            if n < 3:
                raise ValueError(f"axis {k}: need at least 3 nodes, got {n}")

    @cached_property
    def dim(self) -> int:
        return len(self.extents)

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / (n - 1) for e, n in zip(self.extents, self.counts))

    @property
    def volume(self) -> float:
        vol = 1.0
        for e in self.extents:
            vol *= e
        return vol

    @cached_property
    def axes(self) -> tuple[int, ...]:
        """The grid axes of a field, counted from the end (reduce over these per member)."""
        return tuple(range(-self.dim, 0))

    @cached_property
    def node_count(self) -> int:
        total = 1
        for n in self.counts:
            total *= n
        return total

    @cached_property
    def axis_coords(self) -> tuple[np.ndarray, ...]:
        """Per-axis node coordinates."""
        return tuple(
            np.linspace(0.0, e, n) for e, n in zip(self.extents, self.counts)
        )

    @cached_property
    def axis_weights(self) -> tuple[np.ndarray, ...]:
        """Per-axis trapezoid weights (h/2 at the ends, h inside).

        These double as control-volume widths for the conservative flux
        divergence.
        """
        out = []
        for h, n in zip(self.spacing, self.counts):
            w = np.full(n, h)
            w[0] = w[-1] = 0.5 * h
            w.flags.writeable = False
            out.append(w)
        return tuple(out)

    @cached_property
    def weights(self) -> np.ndarray:
        """Tensor-product quadrature weights, shaped like a field."""
        if self.dim == 1:
            w = self.axis_weights[0].copy()
        else:
            w = np.multiply.outer(self.axis_weights[0], self.axis_weights[1])
        w.flags.writeable = False
        return w

    def coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinate arrays shaped like a field (meshgrid in 2D)."""
        if self.dim == 1:
            return (self.axis_coords[0],)
        return tuple(np.meshgrid(*self.axis_coords, indexing="ij"))


def require_finite(values: np.ndarray) -> np.ndarray:
    """Return ``values`` unchanged; raise ``ValueError`` if any entry is non-finite."""
    if not np.isfinite(values).all():
        raise ValueError("field contains non-finite values")
    return values


class Field:
    """Immutable scalar field sampled at the nodes of a :class:`Grid`."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        arr = np.array(values, dtype=float, copy=True)
        if arr.shape != grid.counts:
            raise ValueError(
                f"values shape {arr.shape} does not match grid counts {grid.counts}"
            )
        require_finite(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.counts, float(value)))

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable[..., np.ndarray]) -> "Field":
        """Sample ``fn(x)`` (1D) or ``fn(x, y)`` (2D) at the nodes."""
        return cls(grid, np.asarray(fn(*grid.coords()), dtype=float))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def __repr__(self) -> str:
        return f"Field(grid={self.grid.counts}, min={self.min():.4g}, max={self.max():.4g})"


def _second_differences(grid: Grid, vals: np.ndarray) -> list[np.ndarray]:
    """Per-axis second differences with reflected ghosts ``f(-h) = f(h)``."""
    out = []
    for axis, h in zip(grid.axes, grid.spacing):
        v = np.swapaxes(vals, 0, axis)
        d = np.empty_like(v)
        d[1:-1] = v[:-2] - 2.0 * v[1:-1] + v[2:]
        d[0] = v[1] - 2.0 * v[0] + v[1]
        d[-1] = v[-2] - 2.0 * v[-1] + v[-2]
        d /= h * h
        out.append(np.swapaxes(d, 0, axis))
    return out


def laplacian_values(grid: Grid, vals: np.ndarray) -> np.ndarray:
    """Second-order Laplacian with reflected ghosts (zero normal derivative).

    Annihilates constants exactly; with the grid's trapezoid weights the
    weighted sum of the output telescopes to zero for any input.
    """
    return sum(_second_differences(grid, vals))


def chemotaxis_values(grid: Grid, uv: np.ndarray, vv: np.ndarray, chi: float) -> np.ndarray:
    """Drift term ``-chi * div(u grad v)`` in conservative face-flux form.

    The face flux is ``mean(u_L, u_R) * (v_R - v_L) / h``; boundary faces
    carry zero flux, so the quadrature-weighted sum of the output vanishes
    (discrete divergence theorem).
    """
    if chi == 0.0:
        return np.zeros_like(uv)
    div = np.zeros_like(uv)
    for axis, h, w in zip(grid.axes, grid.spacing, grid.axis_weights):
        u, v, d = (np.swapaxes(a, 0, axis) for a in (uv, vv, div))
        flux = 0.5 * (u[:-1] + u[1:]) * (v[1:] - v[:-1]) / h
        net = np.empty_like(u)  # right-face minus left-face flux per node
        net[0] = flux[0]  # zero flux through the boundary faces
        net[1:-1] = flux[1:] - flux[:-1]
        net[-1] = -flux[-1]
        d += net / w.reshape((-1,) + (1,) * (d.ndim - 1))
    return -float(chi) * div


def integrate_values(grid: Grid, vals: np.ndarray) -> float | np.ndarray:
    """Trapezoid quadrature over the rectangle; exact for per-axis affine fields."""
    return np.sum(grid.weights * vals, axis=grid.axes)


def norms(grid: Grid, vals: np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Return ``(L2, Linf)`` where L2 uses the grid quadrature."""
    l2 = np.sqrt(np.sum(grid.weights * vals * vals, axis=grid.axes))
    linf = np.max(np.abs(vals), axis=grid.axes)
    return l2, linf


def gradient_neumann(grid: Grid, vals: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-axis central first differences with reflected ghosts.

    The normal derivative at boundary nodes is identically zero, matching the
    no-flux boundary condition.
    """
    out = []
    for axis, h in zip(grid.axes, grid.spacing):
        v = np.swapaxes(vals, 0, axis)
        g = np.zeros_like(v)
        g[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        out.append(np.swapaxes(g, 0, axis))
    return tuple(out)


def w2inf_norm(grid: Grid, vals: np.ndarray) -> float | np.ndarray:
    """Discrete W^{2,inf} norm: nodal max of |f|, |first diffs|, |second diffs|.

    Mixed second differences are omitted; per-axis derivatives suffice for
    the diagnostics this feeds.
    """
    worst = np.max(np.abs(vals), axis=grid.axes)
    for d in (*gradient_neumann(grid, vals), *_second_differences(grid, vals)):
        worst = np.maximum(worst, np.max(np.abs(d), axis=grid.axes))
    return worst
