import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eseharnack import Grid, SolveTrace, TraceStatus, gaussian, log_field
from eseharnack.errors import NonPositiveField, OutOfWindow
from eseharnack.field import grad_sq_nd, hessian_sq_nd, laplacian_nd

from conftest import values_at


def _sample(grid, fn):
    """fn(x1, ..., xd) on the grid's mesh (fn must broadcast over arrays)."""
    return np.asarray(fn(*grid.mesh()), dtype=np.float64)


# ---------------------------------------------------------------------------
# grids

def test_grid_spacing_periodic_excludes_endpoint():
    g = Grid.line(0.0, 1.0, 10, "periodic")
    assert g.spacing == (0.1,)
    assert g.axis(0)[-1] == pytest.approx(0.9)


def test_grid_spacing_reflecting_includes_endpoints():
    g = Grid.line(0.0, 1.0, 11, "reflecting")
    assert g.spacing == (0.1,)
    assert g.axis(0)[0] == 0.0 and g.axis(0)[-1] == 1.0


@pytest.mark.parametrize("boundary", ["periodic", "reflecting"])
def test_grid_point_maps_a_flat_index_to_its_mesh_coordinates(boundary):
    g = Grid(((-1.0, 1.0), (0.0, 2.0), (3.0, 4.0)), (5, 4, 6), boundary)
    mesh = g.mesh()
    for flat in (0, 7, 61, g.size - 1):
        assert g.point(flat) == tuple(float(m.flat[flat]) for m in mesh)


@pytest.mark.parametrize("bad", [
    dict(box=((0, 1),) * 4, extents=(8,) * 4),          # dim > 3
    dict(box=((0, 1),), extents=(3,)),                  # too few points
    dict(box=((1, 0),), extents=(8,)),                  # hi <= lo
    dict(box=((0, 1),), extents=(8,), boundary="free"),
    dict(box=((0, 1), (0, 1)), extents=(8,)),           # length mismatch
])
def test_grid_validation(bad):
    with pytest.raises(ValueError):
        Grid(**bad)


@pytest.mark.parametrize("box", [((0.0, np.inf),), ((np.nan, 1.0),),
                                 ((0.0, 1.0), (-np.inf, 0.0))])
def test_grid_refuses_non_finite_bounds(box):
    with pytest.raises(ValueError, match="finite"):
        Grid(box, (8,) * len(box))


@pytest.mark.parametrize("box", [((-4.0, 1e308),), ((0.0, 1e154), (0.0, 1e154))])
def test_grid_refuses_a_box_whose_squared_diagonal_overflows(box):
    with pytest.raises(ValueError, match="squared diagonal overflows"):
        Grid(box, (8,) * len(box))


@pytest.mark.parametrize("amplitude, width, center, message", [
    (np.nan, 0.2, None, "amplitude > 0, got nan"),
    (0.0, 0.2, None, "amplitude > 0, got 0.0"),
    (1.0, np.nan, None, "width > 0, got nan"),
    (1.0, -0.2, None, "width > 0, got -0.2"),
    (1.0, 0.2, (0.0, 0.0), r"center \[0.0, 0.0\] has 2 coordinates"),
    (np.inf, 0.2, None, "amplitude > 0, got inf"),
    (1.0, 1e200, None, "width 1e[+]200 is too large to square"),
    # a centre or width for which the Gaussian overflows |x - c|^2 or
    # underflows to 0 on the grid is refused by name, before numpy warns
    # a non-finite centre is named as such, not as one far from the box
    (1.0, 0.2, (np.nan,), r"finite center, got \[nan\]"),
    (1.0, 0.2, (-np.inf,), r"finite center, got \[-inf\]"),
    (1.0, 0.2, (1e200,), r"center \[1e\+200\] is so far from the box .* overflows"),
    (1.0, 0.2, (40.0,), r"center \[40.0\] lies outside the box .* underflows to 0"),
    (1.0, 0.01, None, "width 0.01 is so small that the Gaussian underflows to 0"),
    (1.0, 1e-155, None, r"width 1e-155 is so small that .* overflows"),
    (1.0, 1e-170, None, "width 1e-170 is too small to square"),
    (1e-320, 0.2, None, "amplitude 1e-320 is so small that the Gaussian underflows"),
])
def test_gaussian_checks_its_parameters(amplitude, width, center, message):
    # NaN fails every comparison, so it is refused too
    with pytest.raises(ValueError, match=message):
        gaussian(Grid.line(-1.0, 1.0, 8), amplitude, width, center)


# ---------------------------------------------------------------------------
# laplacian

@pytest.mark.parametrize("boundary", ["periodic", "reflecting"])
def test_laplacian_annihilates_constants(boundary):
    g = Grid.line(-1.0, 3.0, 32, boundary)
    assert np.all(laplacian_nd(np.full(g.extents, 5.0), g) == 0.0)


def test_laplacian_sin_periodic():
    g = Grid.line(0.0, 2 * np.pi, 256)
    f = _sample(g, np.sin)
    err = np.abs(laplacian_nd(f, g) + f).max()
    h = g.spacing[0]
    assert err <= 0.2 * h ** 2   # measured constant ~ 1/12


def test_laplacian_exact_on_quadratics_interior():
    g = Grid.line(0.0, 1.0, 64, "reflecting")
    interior = laplacian_nd(_sample(g, lambda x: x ** 2), g)[1:-1]
    assert np.allclose(interior, 2.0, rtol=0, atol=1e-10)


def _order(errs):
    return [np.log2(a / b) for a, b in zip(errs, errs[1:])]


def test_laplacian_convergence_order_periodic():
    errs = []
    for n in (64, 128, 256):
        g = Grid.line(0.0, 2 * np.pi, n)
        f = _sample(g, np.sin)
        errs.append(np.abs(laplacian_nd(f, g) + f).max())
    assert all(s >= 1.9 for s in _order(errs))


def test_laplacian_convergence_order_reflecting():
    # cos(pi x) has zero normal derivative at both walls of [0, 1]
    errs = []
    for n in (65, 129, 257):
        g = Grid.line(0.0, 1.0, n, "reflecting")
        f = _sample(g, lambda x: np.cos(np.pi * x))
        exact = -np.pi ** 2 * f
        errs.append(np.abs(laplacian_nd(f, g) - exact).max())
    assert all(s >= 1.9 for s in _order(errs))


def test_periodic_laplacian_sums_to_zero():
    g = Grid.line(0.0, 2 * np.pi, 128)
    lap = laplacian_nd(_sample(g, lambda x: np.exp(np.sin(x))), g)
    total = lap.sum()
    scale = np.abs(lap).max()
    assert abs(total) <= 1e-12 * scale * g.size


@given(a=st.floats(-10, 10), b=st.floats(-10, 10))
@settings(max_examples=25, deadline=None)
def test_laplacian_linearity(a, b):
    g = Grid.line(0.0, 2 * np.pi, 64)
    rng = np.random.default_rng(7)
    f = rng.normal(size=g.extents)
    h = rng.normal(size=g.extents)
    lhs = laplacian_nd(a * f + b * h, g)
    rhs = a * laplacian_nd(f, g) + b * laplacian_nd(h, g)
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-8)


# ---------------------------------------------------------------------------
# grad_sq / hessian

def test_grad_sq_constant_is_zero():
    g = Grid.line(0.0, 1.0, 16)
    assert np.all(grad_sq_nd(np.full(g.extents, 3.0), g) == 0.0)


def test_grad_sq_exact_on_linear_interior():
    g = Grid.line(0.0, 1.0, 32, "reflecting")
    assert np.allclose(grad_sq_nd(_sample(g, lambda x: x), g)[1:-1], 1.0, atol=1e-12)


def test_grad_sq_sin_periodic_second_order():
    errs = []
    for n in (64, 128, 256):
        g = Grid.line(0.0, 2 * np.pi, n)
        exact = np.cos(g.axis(0)) ** 2
        errs.append(np.abs(grad_sq_nd(_sample(g, np.sin), g) - exact).max())
    assert errs[0] <= 0.5 * (2 * np.pi / 64) ** 2 * 4
    assert all(s >= 1.9 for s in _order(errs))


def test_hessian_sq_1d_is_squared_second_derivative():
    g = Grid.line(0.0, 2 * np.pi, 128)
    f = _sample(g, np.sin)
    assert np.allclose(hessian_sq_nd(f, g), laplacian_nd(f, g) ** 2, rtol=1e-12)


def test_hessian_sq_2d_on_polynomial_interior():
    g = Grid.uniform(0.0, 1.0, 33, 2, "reflecting")
    x, y = g.mesh()
    exact = 4 * y ** 4 + 4 * x ** 4 + 2 * (4 * x * y) ** 2
    got = hessian_sq_nd(x ** 2 * y ** 2, g)
    assert np.allclose(got[2:-2, 2:-2], exact[2:-2, 2:-2], rtol=1e-9, atol=1e-9)


def test_3d_laplacian_on_product_function():
    g = Grid.uniform(0.0, 2 * np.pi, 24, 3)
    f = _sample(g, lambda x, y, z: np.sin(x) * np.sin(y) * np.sin(z))
    err = np.abs(laplacian_nd(f, g) + 3.0 * f).max()
    assert err <= 0.5 * g.spacing[0] ** 2


def test_2d_laplacian_matches_sum_of_1d_terms():
    g = Grid.uniform(0.0, 2 * np.pi, 48, 2)
    f = _sample(g, lambda x, y: np.sin(x) * np.cos(y))
    err = np.abs(laplacian_nd(f, g) + 2.0 * f).max()
    assert err <= 1.0 * g.spacing[0] ** 2


# ---------------------------------------------------------------------------
# log

def test_log_field_values():
    g = Grid.line(0.0, 1.0, 8)
    assert np.all(log_field(np.full(g.extents, 1.0)) == 0.0)
    assert np.allclose(log_field(np.full(g.extents, np.e)), 1.0, rtol=1e-15)


def test_log_field_inverts_exp_pointwise():
    g = Grid.line(0.0, 2 * np.pi, 64)
    f = _sample(g, lambda x: np.exp(np.sin(x)))
    assert np.allclose(log_field(f), np.sin(g.axis(0)), atol=1e-14)


def test_log_field_rejects_nonpositive():
    vals = np.ones(8)
    vals[3] = 0.0
    with pytest.raises(NonPositiveField, match="log_field input has min value 0.0 <= 0"):
        log_field(vals)


# ---------------------------------------------------------------------------
# interpolation in space, read through a trace of one sample

def _interp(grid, values, x):
    trace = SolveTrace(grid, 2.0, np.array([1.0]), values[None], TraceStatus.reached(),
                       np.zeros(0))
    return values_at(trace, [x], [1.0])[0]


def test_interp_exact_on_multilinear():
    g = Grid(((0.0, 1.0), (0.0, 2.0)), (16, 16), "reflecting")
    f = _sample(g, lambda x, y: 2.0 * x + 3.0 * y + 1.0)
    assert _interp(g, f, (0.37, 1.21)) == pytest.approx(2 * 0.37 + 3 * 1.21 + 1, rel=1e-12)


def test_interp_periodic_wraps():
    g = Grid.line(0.0, 2 * np.pi, 64)
    f = _sample(g, np.sin)
    assert _interp(g, f, (0.3,)) == pytest.approx(_interp(g, f, (0.3 + 2 * np.pi,)),
                                                  rel=1e-12)


def test_interp_reflecting_out_of_box_raises():
    g = Grid.line(0.0, 1.0, 8, "reflecting")
    with pytest.raises(OutOfWindow):
        _interp(g, np.ones(g.extents), (1.5,))


@pytest.mark.parametrize("boundary, xs", [
    ("reflecting", [(0.5, 0.5, 0.5)]),      # another dimension
    ("reflecting", [0.5, 0.5]),             # no point axis
    ("reflecting", [(0.5, np.nan)]),
    ("periodic", [(0.5, np.inf)]),
    ("periodic", [(0.5, 1e308), (-1e308, 0.5)]),   # (x - lo) / h overflows
])
def test_corners_refuse_points_of_another_shape_or_off_the_grid(boundary, xs):
    g = Grid(((0.0, 1.0), (0.0, 2.0)), (8, 8), boundary)
    with pytest.raises(OutOfWindow):
        g.corners(xs)
