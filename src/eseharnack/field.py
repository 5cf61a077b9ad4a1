"""Uniform tensor-product grids and second-order finite-difference operators.

A grid is a rectangular box in 1, 2 or 3 dimensions with a uniform boundary
rule, either periodic (wrap) or reflecting (even extension about the
boundary node).  Values on it are plain float64 arrays of the grid's shape,
or stacks of them behind a leading batch axis.  All spatial derivatives use
second-order central stencils, applied by one operator per grid (`Stencil`)
that owns the boundary rule; convergence order is verified in the test
suite.  The stencils never write to their input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NonPositiveField, OutOfWindow

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
        if not all(math.isfinite(v) for iv in box for v in iv):
            raise ValueError(f"box bounds must be finite, got {box}")
        if any(hi <= lo for lo, hi in box):
            raise ValueError("each box interval needs hi > lo")
        # every squared distance between two points of the box stays finite
        if not sum((hi - lo) * (hi - lo) for lo, hi in box) < math.inf:
            raise ValueError(f"box {box} is too large: its squared diagonal overflows")
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

    def corners(self, xs) -> list[tuple[tuple[np.ndarray, ...], np.ndarray]]:
        """The corners that multilinear interpolation at the m points xs, of
        shape (m, dim), reads: per corner its index arrays and weights, bit k
        of the corner number choosing axis k's upper index.  Periodic grids
        wrap; OutOfWindow for points of another shape, a point outside a
        reflecting box or one too far off for its grid index to be finite."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise OutOfWindow(f"points must have shape (m, {self.dim}), got {xs.shape}")
        ends, weights = [], []
        periodic = self.boundary == "periodic"
        for x, (lo, hi), h, n in zip(xs.T, self.box, self.spacing, self.extents):
            with np.errstate(over="ignore", invalid="ignore"):   # refused below
                s = (x - lo) / h % n if periodic else (x - lo) / h
            inside = np.isfinite(s) if periodic else (lo <= x) & (x <= hi)
            if not inside.all():
                raise OutOfWindow(f"point {xs[np.argmin(inside)].tolist()} outside the "
                                  f"grid box {list(self.box)}")
            i0 = np.floor(s) if periodic else np.clip(np.floor(s), 0, n - 2)
            frac = s - i0
            i0 = i0.astype(np.intp) % n
            ends.append((i0, (i0 + 1) % n))
            weights.append((1.0 - frac, frac))
        return [(tuple(e[c >> k & 1] for k, e in enumerate(ends)),
                 math.prod((w[c >> k & 1] for k, w in enumerate(weights)), start=1.0))
                for c in range(1 << self.dim)]

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


def gaussian(grid: Grid, amplitude: float, width: float, center=None) -> np.ndarray:
    """amplitude * exp(-|x - center|^2 / (2 width^2)); positive everywhere."""
    for name, value in (("amplitude", amplitude), ("width", width)):
        if not 0 < value < math.inf:
            raise ValueError(f"gaussian needs a finite {name} > 0, got {value}")
    if center is None:
        center = tuple(0.5 * (lo + hi) for lo, hi in grid.box)
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (grid.dim,):
        raise ValueError(f"gaussian center {center.tolist()} has {center.size} "
                         f"coordinates, the grid has {grid.dim} axes")
    if not np.isfinite(center).all():
        raise ValueError(f"gaussian needs a finite center, got {center.tolist()}")
    try:
        spread = 2.0 * width ** 2
    except OverflowError:
        raise ValueError(f"gaussian width {width} is too large to square") from None
    if spread == 0.0:
        raise ValueError(f"gaussian width {width} is too small to square")
    # the largest |x - center|^2 on the grid, at the corner farthest from
    # the centre, summed in the order of the mesh below
    far = sum(max(d * d for d in (float(ax[0]) - ck, float(ax[-1]) - ck))
              for ax, ck in zip(grid.axes(), center.tolist()))
    if any(not lo <= ck <= hi for (lo, hi), ck in zip(grid.box, center.tolist())):
        cause = f"center {center.tolist()} lies outside the box {list(grid.box)} and"
    else:
        cause = f"width {width} is so small that"
    if not far < math.inf:
        raise ValueError(f"gaussian center {center.tolist()} is so far from the box "
                         f"{list(grid.box)} that |x - center|^2 overflows")
    if not far / spread < math.inf:
        raise ValueError(f"gaussian {cause} |x - center|^2 / (2 width^2) overflows "
                         f"on the grid")
    r2 = sum((xk - ck) ** 2 for xk, ck in zip(grid.mesh(), center))
    shape = np.exp(-r2 / spread)
    if not shape.min() > 0.0:
        raise ValueError(f"gaussian {cause} the Gaussian underflows to 0 at the grid "
                         f"point {far ** 0.5!r} from the centre")
    values = amplitude * shape
    if not values.min() > 0.0:
        raise ValueError(f"gaussian amplitude {amplitude} is so small that the Gaussian "
                         f"underflows to 0 at the grid point {far ** 0.5!r} from the "
                         f"centre")
    return values


def require_positive(values: np.ndarray, what: str = "field") -> np.ndarray:
    """`values` itself; NonPositiveField unless every value is > 0 (NaN is not)."""
    if not values.min() > 0.0:
        raise NonPositiveField(f"{what} has min value {float(values.min())} <= 0")
    return values


# ---------------------------------------------------------------------------
# the stencil operator and the array-level stencils built on it.  The
# array-level stencils take one sample of the grid's shape or a stack of
# samples (batch, *extents), and work on each sample of a stack alone.

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

    Built once per grid (see `Grid.stencil`).  It takes one sample of the
    grid's shape, or a stack of samples with a leading batch axis.  For each
    axis it holds a plan of
    - the axis's element stride, which offsets one contiguous run of the
      flattened array for the points whose neighbours are in the array;
    - both edges of the axis (indices 0 and n-1) as one two-element strided
      view, with their outside neighbours taken from `_outside_neighbors`.
    On every axis but the first of an unbatched sample the run also covers
    the edge points, with wrong neighbours; the edge views then overwrite
    them.  Behind a batch axis every spatial axis is such a later axis, so
    each element gets the same arithmetic as in a sample of its own.

    `bind` turns one axis's plan into views of a given (values, out) pair,
    so a caller that reuses its buffers binds once; `apply` binds on the
    spot and applies a kernel to the run, then the edges.
    """

    def __init__(self, grid: Grid):
        self.shape = grid.extents
        self.inv_h2 = tuple(1.0 / (h * h) for h in grid.spacing)
        # per axis: the element stride, and the (dst, minus, plus) edge
        # indices without and with a batch axis in front
        plans = []
        for axis, n in enumerate(self.shape):
            below, above = _outside_neighbors(n, grid.boundary)
            pairs = (_pair(0, n - 1), _pair(below, n - 2), _pair(1, above))
            plans.append((math.prod(self.shape[axis + 1:]),
                          tuple(tuple((slice(None),) * (lead + axis) + (pair,) for pair in pairs)
                                for lead in (0, 1))))
        self._plans = tuple(plans)

    def bind(self, values: np.ndarray, axis: int, out: np.ndarray,
             rows: tuple[int, int] | None = None) -> tuple:
        """The (run, edges) views of `values` and `out` along one spatial
        axis, each a (minus, center, plus, dst) tuple.  `values` must be
        C-contiguous float64 and `out` C-contiguous, both of the grid's shape
        or both of one (batch, *grid shape), and not sharing memory; the views
        stay valid for as long as the arrays do.  With `rows` = (lo, hi), an
        unbatched sample's views write only rows lo..hi-1 of the first axis
        (reading their neighbours wherever they lie)."""
        lead = values.ndim - len(self.shape)
        if (lead not in (0, 1) or values.shape[lead:] != self.shape
                or out.shape != values.shape or values.dtype != _F8
                or not (values.flags.c_contiguous and out.flags.c_contiguous)
                or (rows is not None and lead)):
            raise ValueError(f"stencil needs C-contiguous float64 values and a "
                             f"C-contiguous output of shape {self.shape} or "
                             f"(batch, *{self.shape}), rows only without a batch")
        s, edges = self._plans[axis]
        dst, minus, plus = edges[lead]
        size = values.size
        flat, out_flat = values.reshape(-1), out.reshape(-1)
        edge = (values[minus], values[dst], values[plus], out[dst])
        a, b = s, size - s
        if rows is not None:
            lo, hi = rows
            row = size // self.shape[0]
            a, b = max(a, lo * row), min(b, hi * row)
            b = max(a, b)
            # the first axis's edge view is rows 0 and n-1, of which the
            # range keeps those it holds; a later axis's edge view is cut
            # to the range's rows
            cut = slice(int(lo > 0), 1 + (hi == self.shape[0])) if axis == 0 else slice(lo, hi)
            edge = tuple(v[cut] for v in edge)
        return ((flat[a - s:b - s], flat[a:b], flat[a + s:b + s], out_flat[a:b]), edge)

    def apply(self, kernel: Callable, values: np.ndarray, axis: int,
              out: np.ndarray, scale: float) -> np.ndarray:
        """Run kernel(minus, center, plus, out, scale) over every point along
        one spatial axis, writing into `out`: C-contiguous, of the shape of
        `values`, and not sharing memory with `values`.  `values` is copied
        once if it is not C-contiguous float64.  Returns `out`."""
        run, edges = self.bind(np.ascontiguousarray(values, dtype=np.float64), axis, out)
        kernel(*run, scale)
        kernel(*edges, scale)
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
    return grid.stencil.apply(_minus_first, values, axis, np.empty(np.shape(values)), h * h)


def central_diff(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """(f[i+1] - f[i-1]) / (2h) along one axis."""
    h = grid.spacing[axis]
    return grid.stencil.apply(_difference, values, axis, np.empty(np.shape(values)),
                              2.0 * h)


def laplacian_nd(values: np.ndarray, grid: Grid) -> np.ndarray:
    op = grid.stencil
    out = np.empty(np.shape(values))
    term = np.empty(out.shape) if grid.dim > 1 else None
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


def log_field(values: np.ndarray) -> np.ndarray:
    """Pointwise natural log; fails (never clips) if a value is not positive."""
    return np.log(require_positive(values, "log_field input"))
