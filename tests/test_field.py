import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eseharnack import (Field, Grid, gaussian_halfwidth, grad_sq, hessian_sq,
                        laplacian, log_field)
from eseharnack.errors import NonPositiveField
from eseharnack.field import grad_sq_nd, hessian_sq_nd, laplacian_nd


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


def test_field_shape_validation_and_immutability():
    g = Grid.line(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        Field(g, np.zeros(7))
    f = Field.constant(g, 2.0)
    with pytest.raises(ValueError):
        f.values[0] = 3.0


def test_gaussian_halfwidth_meets_mass_target():
    w = 0.2
    L = gaussian_halfwidth(w, rtol=1e-12)
    assert np.exp(-L ** 2 / (2 * w ** 2)) == pytest.approx(1e-12, rel=1e-9)


# ---------------------------------------------------------------------------
# laplacian

@pytest.mark.parametrize("boundary", ["periodic", "reflecting"])
def test_laplacian_annihilates_constants(boundary):
    g = Grid.line(-1.0, 3.0, 32, boundary)
    lap = laplacian(Field.constant(g, 5.0))
    assert np.all(lap.values == 0.0)


def test_laplacian_sin_periodic():
    g = Grid.line(0.0, 2 * np.pi, 256)
    f = Field.from_function(g, np.sin)
    err = np.abs(laplacian(f).values + f.values).max()
    h = g.spacing[0]
    assert err <= 0.2 * h ** 2   # measured constant ~ 1/12


def test_laplacian_exact_on_quadratics_interior():
    g = Grid.line(0.0, 1.0, 64, "reflecting")
    f = Field.from_function(g, lambda x: x ** 2)
    interior = laplacian(f).values[1:-1]
    assert np.allclose(interior, 2.0, rtol=0, atol=1e-10)


def _order(errs):
    return [np.log2(a / b) for a, b in zip(errs, errs[1:])]


def test_laplacian_convergence_order_periodic():
    errs = []
    for n in (64, 128, 256):
        g = Grid.line(0.0, 2 * np.pi, n)
        f = Field.from_function(g, np.sin)
        errs.append(np.abs(laplacian(f).values + f.values).max())
    assert all(s >= 1.9 for s in _order(errs))


def test_laplacian_convergence_order_reflecting():
    # cos(pi x) has zero normal derivative at both walls of [0, 1]
    errs = []
    for n in (65, 129, 257):
        g = Grid.line(0.0, 1.0, n, "reflecting")
        f = Field.from_function(g, lambda x: np.cos(np.pi * x))
        exact = -np.pi ** 2 * f.values
        errs.append(np.abs(laplacian(f).values - exact).max())
    assert all(s >= 1.9 for s in _order(errs))


def test_periodic_laplacian_sums_to_zero():
    g = Grid.line(0.0, 2 * np.pi, 128)
    f = Field.from_function(g, lambda x: np.exp(np.sin(x)))
    total = laplacian(f).values.sum()
    scale = np.abs(laplacian(f).values).max()
    assert abs(total) <= 1e-12 * scale * f.grid.size


@given(a=st.floats(-10, 10), b=st.floats(-10, 10))
@settings(max_examples=25, deadline=None)
def test_laplacian_linearity(a, b):
    g = Grid.line(0.0, 2 * np.pi, 64)
    rng = np.random.default_rng(7)
    f = Field(g, rng.normal(size=g.extents))
    h = Field(g, rng.normal(size=g.extents))
    lhs = laplacian(Field(g, a * f.values + b * h.values)).values
    rhs = a * laplacian(f).values + b * laplacian(h).values
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-8)


# ---------------------------------------------------------------------------
# grad_sq / hessian

def test_grad_sq_constant_is_zero():
    g = Grid.line(0.0, 1.0, 16)
    assert np.all(grad_sq(Field.constant(g, 3.0)).values == 0.0)


def test_grad_sq_exact_on_linear_interior():
    g = Grid.line(0.0, 1.0, 32, "reflecting")
    f = Field.from_function(g, lambda x: x)
    assert np.allclose(grad_sq(f).values[1:-1], 1.0, atol=1e-12)


def test_grad_sq_sin_periodic_second_order():
    errs = []
    for n in (64, 128, 256):
        g = Grid.line(0.0, 2 * np.pi, n)
        f = Field.from_function(g, np.sin)
        exact = np.cos(g.axis(0)) ** 2
        errs.append(np.abs(grad_sq(f).values - exact).max())
    assert errs[0] <= 0.5 * (2 * np.pi / 64) ** 2 * 4
    assert all(s >= 1.9 for s in _order(errs))


def test_hessian_sq_1d_is_squared_second_derivative():
    g = Grid.line(0.0, 2 * np.pi, 128)
    f = Field.from_function(g, np.sin)
    assert np.allclose(hessian_sq(f).values, laplacian(f).values ** 2, rtol=1e-12)


def test_hessian_sq_2d_on_polynomial_interior():
    g = Grid.uniform(0.0, 1.0, 33, 2, "reflecting")
    f = Field.from_function(g, lambda x, y: x ** 2 * y ** 2)
    x, y = g.mesh()
    exact = 4 * y ** 4 + 4 * x ** 4 + 2 * (4 * x * y) ** 2
    got = hessian_sq(f).values
    assert np.allclose(got[2:-2, 2:-2], exact[2:-2, 2:-2], rtol=1e-9, atol=1e-9)


def test_3d_laplacian_on_product_function():
    g = Grid.uniform(0.0, 2 * np.pi, 24, 3)
    f = Field.from_function(g, lambda x, y, z: np.sin(x) * np.sin(y) * np.sin(z))
    err = np.abs(laplacian(f).values + 3.0 * f.values).max()
    assert err <= 0.5 * g.spacing[0] ** 2


def test_2d_laplacian_matches_sum_of_1d_terms():
    g = Grid.uniform(0.0, 2 * np.pi, 48, 2)
    f = Field.from_function(g, lambda x, y: np.sin(x) * np.cos(y))
    exact = -2.0 * f.values
    err = np.abs(laplacian(f).values - exact).max()
    assert err <= 1.0 * g.spacing[0] ** 2


# ---------------------------------------------------------------------------
# log

def test_log_field_values():
    g = Grid.line(0.0, 1.0, 8)
    assert np.all(log_field(Field.constant(g, 1.0)).values == 0.0)
    assert np.allclose(log_field(Field.constant(g, np.e)).values, 1.0, rtol=1e-15)


def test_log_field_inverts_exp_pointwise():
    g = Grid.line(0.0, 2 * np.pi, 64)
    f = Field.from_function(g, lambda x: np.exp(np.sin(x)))
    assert np.allclose(log_field(f).values, np.sin(g.axis(0)), atol=1e-14)


def test_log_field_rejects_nonpositive():
    g = Grid.line(0.0, 1.0, 8)
    vals = np.ones(8)
    vals[3] = 0.0
    with pytest.raises(NonPositiveField):
        log_field(Field(g, vals))


# ---------------------------------------------------------------------------
# interpolation

def test_interp_exact_on_multilinear():
    g = Grid(((0.0, 1.0), (0.0, 2.0)), (16, 16), "reflecting")
    f = Field.from_function(g, lambda x, y: 2.0 * x + 3.0 * y + 1.0)
    assert f.interp((0.37, 1.21)) == pytest.approx(2 * 0.37 + 3 * 1.21 + 1, rel=1e-12)


def test_interp_periodic_wraps():
    g = Grid.line(0.0, 2 * np.pi, 64)
    f = Field.from_function(g, np.sin)
    assert f.interp((0.3,)) == pytest.approx(f.interp((0.3 + 2 * np.pi,)), rel=1e-12)


def test_interp_reflecting_out_of_box_raises():
    g = Grid.line(0.0, 1.0, 8, "reflecting")
    f = Field.constant(g, 1.0)
    with pytest.raises(ValueError):
        f.interp((1.5,))
