"""The per-grid stencil operator against the ghost-cell stencils it replaced.

The reference functions below are the ghost-cell implementations as they
stood before the operator: a padded copy of the values whose ghost cells
follow the boundary rule, and shifted views of it.  The operator performs
the same arithmetic per element in the same order, so every comparison is
exact.
"""

import numpy as np
import pytest

from eseharnack import Grid, ProblemSpec, StepConfig, solve, step
from eseharnack.errors import NonPositiveField
from eseharnack.field import (_plus_first, central_diff, grad_sq_nd, gradient_nd,
                              hessian_sq_nd, laplacian_nd, second_diff)
from eseharnack.integrate import _aligned, _Workspace, stable_dt


# ---------------------------------------------------------------------------
# reference: ghost cells

def _ref_fill_ghost(padded, values, boundary):
    padded[(slice(1, -1),) * values.ndim] = values
    lo_src, hi_src = (-2, 1) if boundary == "periodic" else (2, -3)
    for ax in range(values.ndim):
        view = padded.swapaxes(0, ax)
        view[0] = view[lo_src]
        view[-1] = view[hi_src]
    return padded


def _ref_ghosted(values, grid):
    return _ref_fill_ghost(np.empty(tuple(n + 2 for n in values.shape)), values,
                           grid.boundary)


def _ref_shift_slices(ndim, axis):
    lo = [slice(1, -1)] * ndim
    hi = [slice(1, -1)] * ndim
    lo[axis] = slice(0, -2)
    hi[axis] = slice(2, None)
    return tuple(lo), (slice(1, -1),) * ndim, tuple(hi)


def _ref_second_diff(values, grid, axis):
    p = _ref_ghosted(values, grid)
    lo, mid, hi = _ref_shift_slices(values.ndim, axis)
    h = grid.spacing[axis]
    return (p[lo] - 2.0 * p[mid] + p[hi]) / (h * h)


def _ref_central_diff(values, grid, axis):
    p = _ref_ghosted(values, grid)
    lo, _, hi = _ref_shift_slices(values.ndim, axis)
    h = grid.spacing[axis]
    return (p[hi] - p[lo]) / (2.0 * h)


def _ref_laplacian_nd(values, grid):
    p = _ref_ghosted(values, grid)
    out = None
    for axis in range(values.ndim):
        minus, center, plus = _ref_shift_slices(values.ndim, axis)
        h = grid.spacing[axis]
        term = (p[plus] - 2.0 * p[center] + p[minus]) / (h * h)
        out = term if out is None else out + term
    return out


def _ref_grad_sq_nd(values, grid):
    out = _ref_central_diff(values, grid, 0) ** 2
    for axis in range(1, grid.dim):
        out += _ref_central_diff(values, grid, axis) ** 2
    return out


def _ref_hessian_sq_nd(values, grid):
    out = _ref_second_diff(values, grid, 0) ** 2
    for axis in range(1, grid.dim):
        out += _ref_second_diff(values, grid, axis) ** 2
    for i in range(grid.dim):
        for j in range(i + 1, grid.dim):
            mixed = _ref_central_diff(_ref_central_diff(values, grid, i), grid, j)
            out += 2.0 * mixed ** 2
    return out


def _ref_rhs(values, grid, p, reaction):
    """The ghost-cell RK4 right-hand side."""
    shape = grid.extents
    padded = _ref_fill_ghost(np.empty(tuple(n + 2 for n in shape)), values,
                             grid.boundary)
    out, tmp = np.empty(shape), np.empty(shape)
    for ax in range(grid.dim):
        minus, _, plus = _ref_shift_slices(grid.dim, ax)
        dst = out if ax == 0 else tmp
        np.add(padded[plus], padded[minus], out=dst)
        dst -= values
        dst -= values
        dst *= 1.0 / (grid.spacing[ax] * grid.spacing[ax])
        if ax > 0:
            out += dst
    if reaction:
        if p == 2.0:
            np.multiply(values, values, out=tmp)
        elif p == int(p) and 1 < p <= 8:
            np.power(values, int(p), out=tmp)
        else:
            np.power(values, p, out=tmp)
        out += tmp
    return out


def _ref_rk4(y, dt, grid, p, reaction):
    """The RK4 step with the ghost-cell right-hand side and its stage checks."""
    def check(v, label):
        if v.min() <= 0.0:
            raise NonPositiveField(f"{label} went nonpositive (min={v.min()})")
        return v

    k1 = _ref_rhs(y, grid, p, reaction)
    k2 = _ref_rhs(check(y + k1 * (0.5 * dt), "RK stage 2"), grid, p, reaction)
    k3 = _ref_rhs(check(y + k2 * (0.5 * dt), "RK stage 3"), grid, p, reaction)
    k4 = _ref_rhs(check(y + k3 * dt, "RK stage 4"), grid, p, reaction)
    return check(y + (k1 + 2.0 * (k2 + k3) + k4) * (dt / 6.0), "RK4 result")


# ---------------------------------------------------------------------------
# inputs

SHAPES = {1: (13,), 2: (7, 9), 3: (5, 6, 4)}


def _grid(dim, boundary):
    return Grid(((-1.0, 2.0), (0.0, 1.5), (-0.5, 0.5))[:dim], SHAPES[dim], boundary)


def _values(grid, seed=0, positive=False):
    rng = np.random.default_rng(seed)
    if positive:
        return 0.5 + rng.random(grid.extents)
    return rng.standard_normal(grid.extents)


GRIDS = [(dim, boundary) for dim in (1, 2, 3) for boundary in ("periodic", "reflecting")]


# ---------------------------------------------------------------------------
# the integrator's right-hand side

@pytest.mark.parametrize("dim,boundary", GRIDS)
@pytest.mark.parametrize("p", [2.0, 3.0, 2.5])
@pytest.mark.parametrize("reaction", [True, False])
def test_rhs_matches_ghost_cell_reference(dim, boundary, p, reaction):
    g = _grid(dim, boundary)
    y = _values(g, seed=dim, positive=True)
    ws = _Workspace(g, p, reaction)
    out = np.empty(g.extents)
    for call, args in ws._rhs(y, out):
        call(*args)
    assert np.array_equal(out, _ref_rhs(y, g, p, reaction))


@pytest.mark.parametrize("dim,boundary", GRIDS)
@pytest.mark.parametrize("reaction", [True, False])
def test_rhs_reads_shifted_views_only_for_the_neighbour_sums(dim, boundary, reaction):
    # per axis the neighbour sum runs on the contiguous run and on the edge
    # view; every other call of the right-hand side takes whole arrays, so
    # an edit that brings back per-view pointwise calls fails here
    g = _grid(dim, boundary)
    ws = _Workspace(g, 2.5, reaction)
    y, out = _values(g, positive=True), np.empty(g.extents)
    calls = ws._rhs(y, out)
    assert len(calls) == 6 * dim - 1 + 2 * reaction
    shifted = []
    for call, args in calls:
        arrays = [a for a in args if isinstance(a, np.ndarray) and a.ndim > 0]
        if all(a.shape == g.extents for a in arrays):
            assert all(any(a is b for b in (y, out, ws.tmp, ws.acc)) for a in arrays)
        else:
            assert all(a.shape != g.extents for a in arrays)
            shifted.append((call, arrays))
    assert len(shifted) == 2 * dim
    for ax in range(dim):
        run, edges = g.stencil.bind(y, ax, out if ax == 0 else ws.tmp)
        for (call, arrays), (minus, _, plus, dst) in zip(shifted[2 * ax:2 * ax + 2],
                                                         (run, edges)):
            assert getattr(call, "func", call) is np.add
            assert [a.shape for a in arrays] == [plus.shape, minus.shape, dst.shape]
            assert all(np.shares_memory(a, b) and a.strides == b.strides
                       for a, b in zip(arrays, (plus, minus, dst)))


@pytest.mark.parametrize("dim,boundary", GRIDS)
def test_workspace_buffers_are_c_contiguous(dim, boundary):
    ws = _Workspace(_grid(dim, boundary), 2.0, True)
    for buf in (ws.tmp, *ws.stages, ws.acc, *ws.k, *ws.states):
        assert buf.flags.c_contiguous


def _assert_rk4_steps_match_the_reference(g, p):
    # consecutive steps alternate between the two state buffers, each
    # stepping through the calls bound when the workspace was built
    ws = _Workspace(g, p, True)
    y = _values(g, seed=g.dim, positive=True)
    ws.states[0][...] = y
    dt = stable_dt(g, p, float(y.max()), StepConfig())
    cur = 0
    for _ in range(6):
        ref = _ref_rk4(y, dt, g, p, True)
        nxt = ws.advance(cur, dt)
        assert nxt == 1 - cur
        assert np.array_equal(ws.states[nxt], ref)
        y, cur = ref, nxt
    assert cur == 0


@pytest.mark.parametrize("dim,boundary", GRIDS)
@pytest.mark.parametrize("p", [2.0, 2.5])
def test_rk4_through_bound_plans_matches_ghost_cell_reference(dim, boundary, p):
    _assert_rk4_steps_match_the_reference(_grid(dim, boundary), p)


# extents whose runs can start on a cache line: the last extent, and in 3-D
# the product of the last two, is a multiple of 8 float64s.  128^2 is the
# benchmark's 2-D geometry.
ALIGNABLE = [(16, 16), (8, 8, 8), (128, 128)]


def _alignable_grid(shape, boundary):
    return Grid(((-1.0, 2.0), (0.0, 1.5), (-0.5, 0.5))[:len(shape)], shape, boundary)


@pytest.mark.parametrize("boundary", ["periodic", "reflecting"])
@pytest.mark.parametrize("shape", ALIGNABLE)
def test_workspace_buffers_and_runs_start_on_a_cache_line(shape, boundary):
    g = _alignable_grid(shape, boundary)
    ws = _Workspace(g, 2.0, True)
    for buf in (*ws.stages, ws.acc, *ws.k, *ws.states):
        assert buf.ctypes.data % 64 == 0
    # every axis but the first writes its run into tmp, the first into a k
    (*_, last_run), _ = g.stencil.bind(ws.stages[0], g.dim - 1, ws.tmp)
    (*_, first_run), _ = g.stencil.bind(ws.stages[0], 0, ws.k[1])
    assert last_run.ctypes.data % 64 == 0
    assert first_run.ctypes.data % 64 == 0


@pytest.mark.parametrize("boundary", ["periodic", "reflecting"])
@pytest.mark.parametrize("shape", ALIGNABLE)
@pytest.mark.parametrize("p", [2.0, 2.5])
def test_rk4_in_aligned_buffers_matches_ghost_cell_reference(shape, boundary, p):
    _assert_rk4_steps_match_the_reference(_alignable_grid(shape, boundary), p)


@pytest.mark.parametrize("dim,boundary", [g for g in GRIDS if g[0] > 1])
def test_bind_over_two_row_ranges_writes_what_one_whole_bind_does(dim, boundary):
    # the split solve's halves each bind their own rows of the first axis
    g = _grid(dim, boundary)
    n0, v = g.extents[0], _values(g)
    for axis in range(dim):
        whole = g.stencil.apply(_plus_first, v, axis, np.empty(g.extents), 1.0)
        for mid in range(1, n0):
            out = np.full(g.extents, np.nan)
            for rows in ((0, mid), (mid, n0)):
                run, edges = g.stencil.bind(v, axis, out, rows)
                _plus_first(*run, 1.0)
                _plus_first(*edges, 1.0)
            assert np.array_equal(out, whole), (axis, mid)


@pytest.mark.parametrize("shape", [(16, 16), (8, 8, 8), (128, 128)])
def test_binding_the_second_half_of_the_rows_aligns_them(shape):
    g = _alignable_grid(shape, "reflecting")
    ws = _Workspace(g, 2.0, True)
    mid = shape[0] // 2
    ws.bind_rows(mid, shape[0])
    for buf in (ws.acc, *ws.k):
        assert buf[mid:].ctypes.data % 64 == 0
    (*_, last_run), _ = g.stencil.bind(ws.stages[0], g.dim - 1, ws.tmp, (mid, shape[0]))
    assert last_run.ctypes.data % 64 == 0


@pytest.mark.parametrize("shape", [(13,), (7, 9), (5, 6, 4)])
def test_aligned_puts_the_chosen_element_on_a_cache_line(shape):
    for first in range(8):
        buf = _aligned(shape, first)
        assert buf.shape == shape and buf.dtype == np.float64 and buf.flags.c_contiguous
        assert buf.reshape(-1)[first:].ctypes.data % 64 == 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bind_refuses_arrays_it_cannot_view(dim):
    # bound views must alias the caller's arrays, so bind never copies
    g = _grid(dim, "periodic")
    out = np.empty(g.extents)
    strided = _values(Grid(g.box, tuple(2 * n for n in g.extents)))[(slice(None, None, 2),) * dim]
    for values in (strided, np.ones(g.extents, dtype=np.float32)):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            g.stencil.bind(values, 0, out)
    v = _values(g)
    run, edges = g.stencil.bind(v, dim - 1, out)
    assert all(np.shares_memory(view, v) for view in run[:3] + edges[:3])
    assert np.shares_memory(run[3], out) and np.shares_memory(edges[3], out)


def test_step_rejects_nonpositive_input():
    g = Grid.line(0.0, 1.0, 16)
    vals = np.ones(16)
    vals[3] = 0.0
    with pytest.raises(NonPositiveField, match="step input"):
        step(vals, g, 1e-6, 2.0)


@pytest.mark.parametrize("dim,boundary", [(1, "periodic"), (2, "reflecting")])
def test_solve_aborts_with_the_reference_stage_failure(dim, boundary):
    # a unit spike on a 1e-20 floor at the widest CFL cap: RK stage 4 dips
    # below zero in the first step
    g = Grid(((0.0, 1.0),) * dim, (16,) * dim, boundary)
    y0 = np.full(g.extents, 1e-20)
    y0[(8,) * dim] = 1.0
    cfg = StepConfig(cfl_safety=1.0, sample_stride=1)
    trace = solve(ProblemSpec(g, 2.0, y0, 0.01), cfg)
    with pytest.raises(NonPositiveField) as ref:
        _ref_rk4(y0, stable_dt(g, 2.0, 1.0, cfg), g, 2.0, True)
    assert trace.status.kind == "aborted"
    assert trace.status.t_detect == 0.0
    assert trace.status.reason == str(ref.value)
    assert str(ref.value).startswith("RK stage 4")


# ---------------------------------------------------------------------------
# the array-level stencils

STENCILS = [
    (lambda v, g: second_diff(v, g, g.dim - 1), lambda v, g: _ref_second_diff(v, g, g.dim - 1)),
    (lambda v, g: second_diff(v, g, 0), lambda v, g: _ref_second_diff(v, g, 0)),
    (lambda v, g: central_diff(v, g, g.dim - 1), lambda v, g: _ref_central_diff(v, g, g.dim - 1)),
    (lambda v, g: central_diff(v, g, 0), lambda v, g: _ref_central_diff(v, g, 0)),
    (laplacian_nd, _ref_laplacian_nd),
    (grad_sq_nd, _ref_grad_sq_nd),
    (hessian_sq_nd, _ref_hessian_sq_nd),
]


@pytest.mark.parametrize("dim,boundary", GRIDS)
@pytest.mark.parametrize("which", range(len(STENCILS)))
def test_field_stencils_match_ghost_cell_reference(dim, boundary, which):
    fn, ref = STENCILS[which]
    g = _grid(dim, boundary)
    v = _values(g, seed=which)
    assert np.array_equal(fn(v, g), ref(v, g))


@pytest.mark.parametrize("dim,boundary", GRIDS)
def test_gradient_matches_ghost_cell_reference(dim, boundary):
    g = _grid(dim, boundary)
    v = _values(g)
    for got, axis in zip(gradient_nd(v, g), range(dim)):
        assert np.array_equal(got, _ref_central_diff(v, g, axis))


@pytest.mark.parametrize("boundary", ["periodic", "reflecting"])
def test_minimum_extent_matches_reference(boundary):
    # four points per axis: the reflecting edge neighbours 1 and n-2 are adjacent
    g = Grid(((0.0, 1.0), (0.0, 2.0)), (4, 4), boundary)
    v = _values(g)
    assert np.array_equal(laplacian_nd(v, g), _ref_laplacian_nd(v, g))
    assert np.array_equal(hessian_sq_nd(v, g), _ref_hessian_sq_nd(v, g))


# ---------------------------------------------------------------------------
# buffers

@pytest.mark.parametrize("dim,boundary", GRIDS)
def test_operator_writes_into_the_callers_buffer(dim, boundary):
    g = _grid(dim, boundary)
    v = _values(g, positive=True)
    op = g.stencil
    for axis, inv_h2 in enumerate(op.inv_h2):
        out = np.full(g.extents, np.nan)
        assert op.apply(_plus_first, v, axis, out, inv_h2) is out
        assert not np.isnan(out).any()
    assert g.stencil is op                  # built once per grid


@pytest.mark.parametrize("dim", [2, 3])
def test_operator_rejects_a_non_contiguous_output(dim):
    g = _grid(dim, "reflecting")
    v = _values(g)
    for out in (np.empty(g.extents, order="F"),
                np.empty(tuple(n + 1 for n in g.extents))[(slice(0, -1),) * dim],
                np.empty(g.extents[:-1] + (g.extents[-1] + 1,))):
        with pytest.raises(ValueError, match="C-contiguous"):
            g.stencil.apply(_plus_first, v, 0, out, 1.0)


@pytest.mark.parametrize("dim,boundary", GRIDS)
def test_non_contiguous_input_gives_the_reference(dim, boundary):
    g = _grid(dim, boundary)
    # every second element of a larger positive array, and in 2-D and 3-D a
    # Fortran-ordered array
    wide = _values(Grid(g.box, tuple(2 * n for n in g.extents), boundary), 5, True)
    inputs = [wide[(slice(None, None, 2),) * dim]]
    if dim > 1:
        inputs.append(np.asfortranarray(_values(g, seed=6, positive=True)))
    for v in inputs:
        assert not v.flags.c_contiguous
        assert np.array_equal(laplacian_nd(v, g), _ref_laplacian_nd(v, g))
        assert np.array_equal(hessian_sq_nd(v, g), _ref_hessian_sq_nd(v, g))
        dt = stable_dt(g, 2.5, float(v.max()), StepConfig())
        assert np.array_equal(step(v, g, dt, 2.5),
                              _ref_rk4(v, dt, g, 2.5, True))


# ---------------------------------------------------------------------------
# a stack of samples behind a batch axis

BATCH_STENCILS = [
    lambda v, g: second_diff(v, g, 0),
    lambda v, g: second_diff(v, g, g.dim - 1),
    lambda v, g: central_diff(v, g, 0),
    lambda v, g: central_diff(v, g, g.dim - 1),
    laplacian_nd,
    grad_sq_nd,
    hessian_sq_nd,
]


@pytest.mark.parametrize("batch", [1, 2, 5])
@pytest.mark.parametrize("dim,boundary", GRIDS)
def test_stencils_on_a_batch_equal_per_sample_calls(dim, boundary, batch):
    # a batch axis makes every spatial axis a later axis, whose run covers
    # the edges with wrong neighbours (across samples too) until the edge
    # views overwrite them
    g = _grid(dim, boundary)
    stack = np.stack([_values(g, seed=s) for s in range(batch)])
    for fn in BATCH_STENCILS:
        assert np.array_equal(fn(stack, g), np.stack([fn(v, g) for v in stack]))
    for axis, got in enumerate(gradient_nd(stack, g)):
        assert np.array_equal(got, np.stack([gradient_nd(v, g)[axis] for v in stack]))


@pytest.mark.parametrize("dim,boundary", [(1, "reflecting"), (2, "periodic"), (3, "reflecting")])
def test_batch_slices_and_non_contiguous_stacks_equal_per_sample_calls(dim, boundary):
    # a leading-axis slice of a trace-like stack is C-contiguous; every
    # second sample of it is not, and is copied once
    g = _grid(dim, boundary)
    stack = np.stack([_values(g, seed=s) for s in range(7)])
    for part in (stack[2:5], stack[::2], stack[6:]):
        assert np.array_equal(laplacian_nd(part, g), np.stack([laplacian_nd(v, g) for v in part]))
        assert np.array_equal(hessian_sq_nd(part, g),
                              np.stack([hessian_sq_nd(v, g) for v in part]))


@pytest.mark.parametrize("dim", [1, 2])
def test_bind_refuses_a_batch_it_cannot_view(dim):
    g = _grid(dim, "periodic")
    stack = np.stack([_values(g, seed=s) for s in range(3)])
    for values, out in ((stack, np.empty(g.extents)),          # output without the batch axis
                        (stack[None], np.empty((1,) + stack.shape)),    # two batch axes
                        (stack[:, ::-1], np.empty(stack.shape))):      # not C-contiguous
        with pytest.raises(ValueError, match="C-contiguous float64"):
            g.stencil.bind(values, 0, out)
