"""Uniform tensor-product grids and second-order finite-difference operators.

Fields live on a rectangular box in 1, 2 or 3 dimensions with a uniform
boundary rule, either periodic (wrap) or reflecting (even extension about the
boundary node).  All spatial derivatives use second-order central stencils,
applied by one operator per grid (`Stencil`) that owns the boundary rule;
convergence order is verified in the test suite.  Fields are immutable after
construction, so the operators are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NonPositiveField

BOUNDARIES = ("periodic", "reflecting")
_F8 = np.dtype(np.float64)


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid on a box.

    box       per-axis (lo, hi) intervals
    extents   per-axis point counts (>= 4)
    boundary  'periodic' (points lo + i*h, i < N, h = L/N) or
              'reflecting' (points include both endpoints, h = L/(N-1))
    """

    box: tuple[tuple[float, float], ...]
    extents: tuple[int, ...]
    boundary: str = "periodic"

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        extents = tuple(int(n) for n in self.extents)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "extents", extents)
        if not 1 <= len(box) <= 3:
            raise ValueError(f"grid dimension must be 1..3, got {len(box)}")
        if len(extents) != len(box):
            raise ValueError("extents and box must have the same length")
        if any(n < 4 for n in extents):
            raise ValueError("need at least 4 points per axis")
        if any(hi <= lo for lo, hi in box):
            raise ValueError("each box interval needs hi > lo")
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")

    @property
    def dim(self) -> int:
        return len(self.box)

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        if self.boundary == "periodic":
            return tuple((hi - lo) / n for (lo, hi), n in zip(self.box, self.extents))
        return tuple((hi - lo) / (n - 1) for (lo, hi), n in zip(self.box, self.extents))

    @cached_property
    def stencil(self) -> "Stencil":
        """The grid's stencil operator, built on first use."""
        return Stencil(self)

    @property
    def size(self) -> int:
        return int(np.prod(self.extents))

    def axis(self, k: int) -> np.ndarray:
        """Coordinates along axis k (periodic grids exclude the right endpoint)."""
        lo, hi = self.box[k]
        n = self.extents[k]
        if self.boundary == "periodic":
            return lo + self.spacing[k] * np.arange(n)
        return np.linspace(lo, hi, n)

    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(self.axis(k) for k in range(self.dim))

    def point(self, flat: int) -> tuple[float, ...]:
        """Coordinates of the grid point at C-order flat index `flat`."""
        idx = np.unravel_index(flat, self.extents)
        return tuple(float(self.axis(k)[i]) for k, i in enumerate(idx))

    def mesh(self) -> list[np.ndarray]:
        """Coordinate arrays of shape `extents`, one per axis ('ij' indexing)."""
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def contains(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            return False
        if self.boundary == "periodic":
            return True
        return all(lo <= xi <= hi for xi, (lo, hi) in zip(x, self.box))

    def scaled(self, lam: float) -> "Grid":
        """Grid with every coordinate multiplied by lam (same extents/boundary)."""
        return Grid(tuple((lam * lo, lam * hi) for lo, hi in self.box),
                    self.extents, self.boundary)

    @classmethod
    def line(cls, lo: float, hi: float, n: int, boundary: str = "periodic") -> "Grid":
        return cls(((lo, hi),), (n,), boundary)

    @classmethod
    def uniform(cls, lo: float, hi: float, n: int, dim: int,
                boundary: str = "periodic") -> "Grid":
        """Cube [lo, hi]^dim with n points per axis."""
        return cls(((lo, hi),) * dim, (n,) * dim, boundary)


@dataclass(frozen=True, eq=False)
class Field:
    """Scalar samples on a grid.  Values are read-only after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64, copy=True)
        if vals.shape != self.grid.extents:
            raise ValueError(
                f"value shape {vals.shape} does not match grid extents {self.grid.extents}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def max(self) -> float:
        return float(self.values.max())

    def min(self) -> float:
        return float(self.values.min())

    def is_positive(self) -> bool:
        return bool(self.values.min() > 0.0)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)

    def interp(self, x) -> float:
        """Multilinear interpolation at a point x (wraps on periodic grids)."""
        g = self.grid
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (g.dim,):
            raise ValueError(f"point must have {g.dim} coordinates")
        idx0, idx1, w = [], [], []
        for k in range(g.dim):
            lo, hi = g.box[k]
            h = g.spacing[k]
            n = g.extents[k]
            s = (x[k] - lo) / h
            if g.boundary == "periodic":
                s = s % n
                i0 = int(np.floor(s))
                frac = s - i0
                i0 %= n
                i1 = (i0 + 1) % n
            else:
                if not lo <= x[k] <= hi:
                    raise ValueError(f"point {x} outside grid box")
                i0 = min(int(np.floor(s)), n - 2)
                i0 = max(i0, 0)
                frac = s - i0
                i1 = i0 + 1
            idx0.append(i0)
            idx1.append(i1)
            w.append(frac)
        total = 0.0
        for corner in range(1 << g.dim):
            weight = 1.0
            ix = []
            for k in range(g.dim):
                if corner >> k & 1:
                    weight *= w[k]
                    ix.append(idx1[k])
                else:
                    weight *= 1.0 - w[k]
                    ix.append(idx0[k])
            if weight != 0.0:
                total += weight * float(self.values[tuple(ix)])
        return total

    @classmethod
    def constant(cls, grid: Grid, level: float) -> "Field":
        return cls(grid, np.full(grid.extents, float(level)))

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable[..., np.ndarray]) -> "Field":
        """Sample fn(x1, ..., xd) on the grid (fn must broadcast over arrays)."""
        return cls(grid, np.asarray(fn(*grid.mesh()), dtype=np.float64))

    @classmethod
    def gaussian(cls, grid: Grid, amplitude: float, width: float,
                 center=None) -> "Field":
        """amplitude * exp(-|x - center|^2 / (2 width^2)); positive everywhere."""
        if amplitude <= 0 or width <= 0:
            raise ValueError("gaussian needs amplitude > 0 and width > 0")
        if center is None:
            center = tuple(0.5 * (lo + hi) for lo, hi in grid.box)
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if center.shape != (grid.dim,):
            raise ValueError("center must have one coordinate per axis")
        r2 = sum((xk - ck) ** 2 for xk, ck in zip(grid.mesh(), center))
        return cls(grid, amplitude * np.exp(-r2 / (2.0 * width ** 2)))


def require_positive(f: Field, what: str = "field") -> Field:
    if not f.is_positive():
        raise NonPositiveField(f"{what} has min value {f.min()} <= 0")
    return f


def gaussian_halfwidth(width: float, rtol: float = 1e-12) -> float:
    """Half-width L so a Gaussian of the given width has tail <= rtol * peak at |x| = L."""
    return width * float(np.sqrt(-2.0 * np.log(rtol)))


# ---------------------------------------------------------------------------
# the stencil operator and the array-level stencils built on it

def _outside_neighbors(n: int, boundary: str) -> tuple[int, int]:
    """The boundary rule: indices of the values that stand in for the points
    just below index 0 and just above index n-1 of an axis of n points.
    Periodic takes the opposite edge; reflecting mirrors about the boundary
    node."""
    return (n - 1, 0) if boundary == "periodic" else (1, n - 2)


def _pair(i: int, j: int) -> slice:
    """The basic slice that selects index i, then index j (i != j)."""
    stop = j + 1 if j > i else j - 1
    return slice(i, stop if stop >= 0 else None, j - i)


class Stencil:
    """Three-point central stencils on one grid, read straight from the
    unpadded values (no ghost cells).

    Built once per grid (see `Grid.stencil`).  For each axis it holds a plan
    of (dst, minus, plus) slices:
    - one contiguous run of the flattened array, offset by the axis's
      element stride, for the points whose neighbours are in the array;
    - both edges of the axis (indices 0 and n-1) as one two-element strided
      view, with their outside neighbours taken from `_outside_neighbors`.
    On every axis but the first the run also covers the edge points, with
    wrong neighbours; the edge views then overwrite them.

    `bind` turns one axis's plan into views of a given (values, out) pair
    and `run` applies a kernel to them, so a caller that reuses its buffers
    binds once and runs many times; `apply` binds on the spot.
    """

    def __init__(self, grid: Grid):
        self.shape = grid.extents
        self.inv_h2 = tuple(1.0 / (h * h) for h in grid.spacing)
        size = grid.size
        plans = []
        for axis, n in enumerate(self.shape):
            s = math.prod(self.shape[axis + 1:])
            run = (slice(s, size - s), slice(0, size - 2 * s), slice(2 * s, size))
            below, above = _outside_neighbors(n, grid.boundary)
            lead = (slice(None),) * axis
            edges = (lead + (_pair(0, n - 1),), lead + (_pair(below, n - 2),),
                     lead + (_pair(1, above),))
            plans.append((run, edges))
        self._plans = tuple(plans)

    def bind(self, values: np.ndarray, axis: int, out: np.ndarray) -> tuple:
        """The (run, edges) views of `values` and `out` along one axis, each
        a (minus, center, plus, dst) tuple.  `values` must be C-contiguous
        float64 and `out` C-contiguous, both of the grid's shape and not
        sharing memory; the views stay valid for as long as the arrays do."""
        if (values.shape != self.shape or out.shape != self.shape or values.dtype != _F8
                or not (values.flags.c_contiguous and out.flags.c_contiguous)):
            raise ValueError(f"stencil needs C-contiguous float64 values and a "
                             f"C-contiguous output of shape {self.shape}")
        (dst, minus, plus), (e_dst, e_minus, e_plus) = self._plans[axis]
        flat, out_flat = values.reshape(-1), out.reshape(-1)
        return ((flat[minus], flat[dst], flat[plus], out_flat[dst]),
                (values[e_minus], values[e_dst], values[e_plus], out[e_dst]))

    @staticmethod
    def run(kernel: Callable, bound: tuple, scale: float) -> None:
        """kernel(minus, center, plus, out, scale) over the views from `bind`:
        the run, then the edges."""
        run, edges = bound
        kernel(*run, scale)
        kernel(*edges, scale)

    def apply(self, kernel: Callable, values: np.ndarray, axis: int,
              out: np.ndarray, scale: float) -> np.ndarray:
        """Run kernel(minus, center, plus, out, scale) over every point along
        one axis, writing into `out`: C-contiguous, of the grid's shape, and
        not sharing memory with `values`.  `values` is copied once if it is
        not C-contiguous float64.  Returns `out`."""
        v = np.ascontiguousarray(values, dtype=np.float64)
        self.run(kernel, self.bind(v, axis, out), scale)
        return out


def _minus_first(minus, center, plus, out, h2):
    """(f[i-1] - 2 f[i] + f[i+1]) / h^2, evaluated left to right."""
    np.multiply(center, 2.0, out=out)
    np.subtract(minus, out, out=out)
    out += plus
    out /= h2


def _plus_first(minus, center, plus, out, h2):
    """(f[i+1] - 2 f[i] + f[i-1]) / h^2, evaluated left to right."""
    _minus_first(plus, center, minus, out, h2)


def _difference(minus, center, plus, out, two_h):
    """(f[i+1] - f[i-1]) / (2h)."""
    np.subtract(plus, minus, out=out)
    out /= two_h


def second_diff(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """(f[i-1] - 2 f[i] + f[i+1]) / h^2 along one axis, neighbours per boundary rule."""
    h = grid.spacing[axis]
    return grid.stencil.apply(_minus_first, values, axis, np.empty(grid.extents), h * h)


def central_diff(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """(f[i+1] - f[i-1]) / (2h) along one axis."""
    h = grid.spacing[axis]
    return grid.stencil.apply(_difference, values, axis, np.empty(grid.extents), 2.0 * h)


def laplacian_nd(values: np.ndarray, grid: Grid) -> np.ndarray:
    op = grid.stencil
    out = np.empty(grid.extents)
    term = np.empty(grid.extents) if grid.dim > 1 else None
    for axis, h in enumerate(grid.spacing):
        op.apply(_plus_first, values, axis, out if axis == 0 else term, h * h)
        if axis > 0:
            out += term
    return out


def gradient_nd(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    return [central_diff(values, grid, axis) for axis in range(grid.dim)]


def grad_sq_nd(values: np.ndarray, grid: Grid) -> np.ndarray:
    out = central_diff(values, grid, 0) ** 2
    for axis in range(1, grid.dim):
        out += central_diff(values, grid, axis) ** 2
    return out


def hessian_sq_nd(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Squared Frobenius norm of the Hessian, sum_ij (d_i d_j f)^2.

    Diagonal entries from central second differences, mixed entries from
    nested central first differences (each counted twice by symmetry).
    In 1-D this reduces to (f_xx)^2.
    """
    out = second_diff(values, grid, 0) ** 2
    for axis in range(1, grid.dim):
        out += second_diff(values, grid, axis) ** 2
    for i in range(grid.dim):
        for j in range(i + 1, grid.dim):
            mixed = central_diff(central_diff(values, grid, i), grid, j)
            out += 2.0 * mixed ** 2
    return out


# ---------------------------------------------------------------------------
# Field-level operators

def laplacian(f: Field) -> Field:
    return f.with_values(laplacian_nd(f.values, f.grid))


def grad_sq(f: Field) -> Field:
    return f.with_values(grad_sq_nd(f.values, f.grid))


def hessian_sq(f: Field) -> Field:
    return f.with_values(hessian_sq_nd(f.values, f.grid))


def log_field(f: Field) -> Field:
    """Pointwise natural log; fails (never clips) if the field is not positive."""
    require_positive(f, "log_field input")
    return f.with_values(np.log(f.values))
