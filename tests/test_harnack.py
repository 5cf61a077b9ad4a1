import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eseharnack import (Field, Grid, HarnackConstants, HarnackReport,
                        LocalizerSpec, StepConfig, certify_verdict,
                        default_window, evolution_residual, f_form, h0_report,
                        harnack_h0, harnack_hr, localizer_min_b, log_field,
                        make_localizer, phi_r, preset, solve)
from eseharnack.errors import (BetaZero, NonPositiveTime, WindowTooSmall)
from eseharnack.field import (grad_sq_nd, gradient_nd, hessian_sq_nd,
                              laplacian_nd)
from eseharnack.integrate import SolveTrace, TraceStatus

from conftest import gaussian_problem

HAMILTON = preset("hamilton_1d")[2]
IMPROVED = preset("improved_1d")[2]
BLOWUP_K = preset("blowup(1,2,1)")[2]


# ---------------------------------------------------------------------------
# H0

def test_h0_on_constant_solution_is_reaction_plus_time_term(const_run):
    # constants kill the derivative terms exactly: H0 = c f^(p-1) + a/t
    k, p = HAMILTON, 2.0
    for t in const_run.times[1:20]:
        f = const_run.field_at(t)
        u = log_field(f)
        h0 = harnack_h0(u, t, k, p)
        expected = k.c * f.values ** (p - 1.0) + k.a / t
        assert np.allclose(h0.values, expected, rtol=1e-12)
        assert h0.min() > 0


def test_h0_requires_positive_time():
    g = Grid.line(0.0, 1.0, 16)
    u = Field.constant(g, 0.0)
    with pytest.raises(NonPositiveTime):
        harnack_h0(u, 0.0, HAMILTON, 2.0)
    with pytest.raises(NonPositiveTime):
        harnack_h0(u, -1.0, HAMILTON, 2.0)


def test_h0_blows_up_as_t_vanishes(gauss128):
    u = log_field(gauss128.field_at(gauss128.times[1]))
    assert harnack_h0(u, 1e-9, HAMILTON, 2.0).min() >= 1e8


@given(s=st.floats(0.01, 100.0))
@settings(max_examples=30, deadline=None)
def test_h0_scales_linearly_in_the_constants(s):
    g = Grid.line(0.0, 2 * np.pi, 64)
    u = Field.from_function(g, lambda x: 0.3 * np.sin(x))
    base = harnack_h0(u, 0.7, BLOWUP_K, 2.0).values
    scaled = harnack_h0(u, 0.7, BLOWUP_K.scaled(s), 2.0).values
    assert np.allclose(scaled, s * base, rtol=1e-12)


# ---------------------------------------------------------------------------
# localizer

def test_phi_r_point_value():
    loc = LocalizerSpec(((0.0, 1.0),), 1.0, 1.0)
    # a/t + b/x^2 + b/(1-x)^2 = 1 + 4 + 4 at the midpoint
    assert phi_r((0.5,), 1.0, loc) == pytest.approx(9.0)


def test_phi_r_walls_and_outside_are_infinite():
    loc = LocalizerSpec(((0.0, 1.0),), 1.0, 1.0)
    assert phi_r((0.0,), 1.0, loc) == math.inf
    assert phi_r((1.0,), 1.0, loc) == math.inf
    assert phi_r((2.0,), 1.0, loc) == math.inf


def test_phi_r_small_time_pole():
    loc = LocalizerSpec(((0.0, 1.0),), 1.0, 1.0)
    assert phi_r((0.5,), 1e-12, loc) >= 1e12
    with pytest.raises(NonPositiveTime):
        phi_r((0.5,), 0.0, loc)


def test_localizer_min_b_value():
    # (2, 1, c, 2n), n = 1: lead = 4/2 = 2, bound = 2 * (6 + 4/1) = 20
    assert localizer_min_b(1, BLOWUP_K) == pytest.approx(20.0)
    with pytest.raises(BetaZero):
        localizer_min_b(1, HAMILTON)


def test_make_localizer_validates_a_and_b():
    with pytest.raises(ValueError):
        make_localizer(((0.0, 1.0),), 1, BLOWUP_K, b=19.0)
    with pytest.raises(ValueError):
        make_localizer(((0.0, 1.0),), 1, BLOWUP_K, a=0.5)
    loc = make_localizer(((0.0, 1.0),), 1, BLOWUP_K)
    assert loc.b > 20.0
    assert loc.a == BLOWUP_K.a


def test_localizer_spec_validation():
    with pytest.raises(ValueError):
        LocalizerSpec(((1.0, 0.0),), 1.0, 1.0)
    with pytest.raises(ValueError):
        LocalizerSpec(((0.0, 1.0),), 0.0, 1.0)


@pytest.fixture(scope="module")
def peaked_run():
    prob = gaussian_problem(256, t_end=0.1, box=(-8.0, 8.0), width=1.0,
                            amplitude=5.0, boundary="periodic")
    return solve(prob, StepConfig(sample_stride=4))


def test_hr_dominates_h0_inside_rectangle(peaked_run):
    k, p = BLOWUP_K, 2.0
    t = peaked_run.times[len(peaked_run.times) // 2]
    f = peaked_run.field_at(t)
    u = log_field(f)
    loc = make_localizer(((-4.0, 4.0),), 1, k)
    hr = harnack_hr(u, t, k, p, loc)
    h0 = harnack_h0(u, t, k, p)
    inside = np.isfinite(hr.values)
    assert inside.any() and not inside.all()
    # phi_R >= a/t inside R, so H_R >= H0 pointwise there
    assert np.all(hr.values[inside] >= h0.values[inside])
    assert hr.values[inside].min() >= h0.min()


def test_hr_positive_at_small_times(peaked_run):
    k, p = BLOWUP_K, 2.0
    t = peaked_run.times[1]
    f = peaked_run.field_at(t)
    hr = harnack_hr(log_field(f), t, k, p, make_localizer(((-4.0, 4.0),), 1, k))
    finite = hr.values[np.isfinite(hr.values)]
    assert finite.min() > 0


def test_hr_tiny_rectangle_is_pole_dominated(peaked_run):
    k, p = BLOWUP_K, 2.0
    t = peaked_run.t_final
    f = peaked_run.field_at(t)
    g = peaked_run.grid
    h = g.spacing[0]
    x0 = g.axis(0)[128]
    loc = make_localizer(((x0 - 2 * h, x0 + 2 * h),), 1, k)
    hr = harnack_hr(log_field(f), t, k, p, loc)
    finite = hr.values[np.isfinite(hr.values)]
    assert finite.size >= 1
    assert np.all(finite > 0)


def test_hr_rejects_beta_zero(peaked_run):
    t = peaked_run.times[1]
    f = peaked_run.field_at(t)
    loc = LocalizerSpec(((-4.0, 4.0),), 1.0, 100.0)
    with pytest.raises(BetaZero):
        harnack_hr(log_field(f), t, HAMILTON, 2.0, loc)


# ---------------------------------------------------------------------------
# evolution identity residual

def test_residual_tiny_on_constant_run(const_run):
    win = default_window(const_run)
    stats = evolution_residual(const_run, HAMILTON, 2.0, win)
    assert stats.max_rel <= 1e-4
    assert stats.mean_rel <= 1e-5


def test_residual_decreases_under_refinement(gauss256, gauss512):
    win = (0.5, 0.9)      # smooth window: the wall kink is resolved here
    coarse = evolution_residual(gauss256, HAMILTON, 2.0, win)
    fine = evolution_residual(gauss512, HAMILTON, 2.0, win)
    assert fine.max_rel < coarse.max_rel
    assert fine.mean_rel < coarse.mean_rel


def test_h0_positive_all_the_way_to_detection():
    # run the baseline Gaussian into blowup and check the window that ends at
    # 0.9 * detection time; the min moves to the flat mid-phase and stays up
    prob = gaussian_problem(256, t_end=50.0)
    trace = solve(prob, StepConfig(sample_stride=16))
    assert trace.status.kind == "blowup"
    rep = h0_report(trace, HAMILTON, 2.0, (0.05, 0.9 * trace.status.t_detect))
    assert rep.min_h0 >= -1e-2


def test_h0_defect_shrinks_along_three_resolutions(gauss128, gauss256, gauss512):
    # the negative part eps(h) = max(0, -min H0) may not grow along h, h/2, h/4,
    # for every admissible constant set exercised by the suite
    for k in (HAMILTON, IMPROVED, BLOWUP_K):
        eps = []
        for trace in (gauss128, gauss256, gauss512):
            rep = h0_report(trace, k, 2.0)
            eps.append(max(0.0, -rep.min_h0))
        assert eps[0] >= eps[1] >= eps[2], (k, eps)


def test_residual_window_errors(gauss128):
    with pytest.raises(WindowTooSmall):
        evolution_residual(gauss128, HAMILTON, 2.0, (0.5, 0.5))
    ts = gauss128.times
    with pytest.raises(WindowTooSmall):
        evolution_residual(gauss128, HAMILTON, 2.0, (ts[3], ts[3] + 1e-12))


def _cached_residual(trace, k, p, window):
    """The residual computed with every window sample's H - a/t cached and
    the per-centre residuals stacked: the reference for the streaming code."""
    g, ts = trace.grid, trace.times
    centers = [i for i, t in enumerate(ts)
               if window[0] <= t <= window[1] and 0 < i < len(ts) - 1]
    cache = {}

    def s_at(i):
        if i not in cache:
            u = np.log(trace.samples[i])
            cache[i] = (k.alpha * laplacian_nd(u, g) + k.beta * grad_sq_nd(u, g)
                        + k.c * np.exp(u * (p - 1.0)))
        return cache[i]

    resid, ht_max = [], 0.0
    for i in centers:
        t, u, s = ts[i], np.log(trace.samples[i]), s_at(i)
        x = np.exp(u * (p - 1.0))
        hm, hp = t - ts[i - 1], ts[i + 1] - t
        h_t = (hm / hp * (s_at(i + 1) - s) + hp / hm * (s - s_at(i - 1))) / (hm + hp) \
            - k.a / t ** 2
        adv = sum(gh * gu for gh, gu in zip(gradient_nd(s, g), gradient_nd(u, g)))
        rhs = (laplacian_nd(s, g) + 2.0 * adv + (p - 1.0) * x * (s + k.a / t)
               + 2.0 * (k.alpha - k.beta) * hessian_sq_nd(u, g)
               + (k.alpha * (p - 1.0) + k.beta - k.c * p) * (p - 1.0) * x
               * grad_sq_nd(u, g)
               - (p - 1.0) * x * (k.a / t) - k.a / t ** 2)
        resid.append(np.abs(h_t - rhs))
        ht_max = max(ht_max, float(np.abs(h_t).max()))
    stacked = np.stack(resid)
    return float(stacked.max()), float(stacked.mean()), ht_max, len(centers)


def test_residual_matches_cached_reference(gauss128):
    window = default_window(gauss128)
    stats = evolution_residual(gauss128, IMPROVED, 2.0, window)
    assert (stats.max_abs, stats.mean_abs, stats.normalizer, stats.n_times) == \
        _cached_residual(gauss128, IMPROVED, 2.0, window)


def test_residual_streams_its_samples():
    # beside its (n_centres, *extents) result the residual holds a bounded
    # number of field-sized arrays, however long the window
    g = Grid.uniform(0.0, 2 * np.pi, 32, dim=2)
    x, y = g.mesh()
    ts = np.linspace(0.01, 1.2, 120)
    samples = np.stack([2.0 + np.sin(x) * np.cos(y) * np.exp(-t) for t in ts])
    trace = SolveTrace(g, 2.0, ts, samples, TraceStatus.reached(), np.zeros(0))
    window = (ts[0], ts[-1])
    stats = evolution_residual(trace, HAMILTON, 2.0, window)
    assert stats.n_times == 118
    tracemalloc.start()
    try:
        evolution_residual(trace, HAMILTON, 2.0, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (stats.n_times + 32) * samples[0].nbytes


# ---------------------------------------------------------------------------
# f-form coefficients

def test_f_form_hamilton():
    assert f_form(HAMILTON, 2.0) == pytest.approx((2 / 3, 1.0, 0.5))


def test_f_form_improved():
    assert f_form(IMPROVED, 2.0) == pytest.approx((0.5, 1.0, 0.75))


def test_f_form_reaction_coefficient_vanishes_at_c_equals_alpha():
    k = HarnackConstants(1.0, 0.0, 1.0, 1.0)
    assert f_form(k, 2.0)[2] == 0.0


def test_f_form_dim2_differs_from_improved_1d():
    # the 2-D constants (1, 0, 1/2, a=1) give (1, 1, 1/2), not (1/2, 1, 3/4)
    k = preset("dim2")[2]
    assert f_form(k, 2.0) == pytest.approx((1.0, 1.0, 0.5))


# ---------------------------------------------------------------------------
# reports

def test_h0_report_structure(gauss256):
    rep = h0_report(gauss256, HAMILTON, 2.0)
    assert rep.verdict == "consistent"
    assert rep.min_h0 > -1e-2
    lo, hi = rep.t_window
    assert lo == pytest.approx(0.05 * gauss256.t_final)
    assert hi == pytest.approx(0.9 * gauss256.t_final)
    assert lo <= rep.argmin_t <= hi
    curve_min = min(m for _, m in rep.curve)
    assert curve_min == rep.min_h0
    assert len(rep.argmin_x) == 1


def test_h0_report_flags_violations(gauss256):
    # far-from-admissible constants push H0 negative on the same trace
    bad = HarnackConstants(1.0, 0.0, 0.01, 0.01)
    rep = h0_report(gauss256, bad, 2.0)
    assert rep.verdict == "violated"
    assert rep.min_h0 < -1e-2


def test_certify_verdict_policy():
    def rep(min_h0):
        return HarnackReport(min_h0, (0.0,), 0.5, [(0.5, min_h0)], (0.1, 0.9),
                             1e-2, "consistent", HAMILTON)
    assert certify_verdict(rep(-5e-3), rep(-2e-3)) == "certified"
    assert certify_verdict(rep(-5e-3), rep(-8e-3)) == "consistent"
    assert certify_verdict(rep(-5e-2), rep(-1e-3)) == "violated"
    assert certify_verdict(rep(1e-3), rep(2e-3)) == "certified"
