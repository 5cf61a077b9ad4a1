"""Uniform tensor-product grids and second-order finite-difference operators.

Fields live on a rectangular box in 1, 2 or 3 dimensions with a uniform
boundary rule, either periodic (wrap) or reflecting (even extension about the
boundary node).  All spatial derivatives use second-order central stencils;
convergence order is verified in the test suite.  Fields are immutable after
construction, so the operators are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonPositiveField

BOUNDARIES = ("periodic", "reflecting")


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

    @property
    def spacing(self) -> tuple[float, ...]:
        if self.boundary == "periodic":
            return tuple((hi - lo) / n for (lo, hi), n in zip(self.box, self.extents))
        return tuple((hi - lo) / (n - 1) for (lo, hi), n in zip(self.box, self.extents))

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
# array-level stencils (shared by Field-level operators and the integrator)

def fill_ghost(padded: np.ndarray, values: np.ndarray, boundary: str) -> np.ndarray:
    """Copy values into the interior of `padded` (one cell larger on each side
    of every axis) and fill its ghost cells by the boundary rule: periodic
    copies the opposite edge, reflecting mirrors about the boundary node.
    Returns `padded`."""
    padded[(slice(1, -1),) * values.ndim] = values
    lo_src, hi_src = (-2, 1) if boundary == "periodic" else (2, -3)
    for ax in range(values.ndim):
        view = padded.swapaxes(0, ax)
        view[0] = view[lo_src]
        view[-1] = view[hi_src]
    return padded


def _ghosted(values: np.ndarray, grid: Grid) -> np.ndarray:
    return fill_ghost(np.empty(tuple(n + 2 for n in values.shape)), values, grid.boundary)


def shift_slices(ndim: int, axis: int):
    """(minus, center, plus) views of a ghosted array along one axis."""
    lo = [slice(1, -1)] * ndim
    hi = [slice(1, -1)] * ndim
    lo[axis] = slice(0, -2)
    hi[axis] = slice(2, None)
    return tuple(lo), (slice(1, -1),) * ndim, tuple(hi)


def second_diff(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """(f[i-1] - 2 f[i] + f[i+1]) / h^2 along one axis, ghost points per boundary rule."""
    p = _ghosted(values, grid)
    lo, mid, hi = shift_slices(values.ndim, axis)
    h = grid.spacing[axis]
    return (p[lo] - 2.0 * p[mid] + p[hi]) / (h * h)


def central_diff(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """(f[i+1] - f[i-1]) / (2h) along one axis."""
    p = _ghosted(values, grid)
    lo, _, hi = shift_slices(values.ndim, axis)
    h = grid.spacing[axis]
    return (p[hi] - p[lo]) / (2.0 * h)


def laplacian_nd(values: np.ndarray, grid: Grid) -> np.ndarray:
    p = _ghosted(values, grid)
    out = None
    for axis in range(values.ndim):
        minus, center, plus = shift_slices(values.ndim, axis)
        h = grid.spacing[axis]
        term = (p[plus] - 2.0 * p[center] + p[minus]) / (h * h)
        out = term if out is None else out + term
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
