import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


from eseharnack import (Grid, HarnackConstants, LocalizerSpec,
                        StepConfig, default_window, evolution_residual, f_form,
                        h0_report, localizer_min_b, make_localizer, phi_r,
                        preset, solve)
from eseharnack.errors import (BetaZero, NonPositiveTime, WindowTooSmall)
from eseharnack.field import (grad_sq_nd, gradient_nd, hessian_sq_nd,
                              laplacian_nd)
from eseharnack.harnack import (PairwiseSum, _phi_r_block, _solution_part, block_len,
                                cutoff_parts, hr_window_min, window_indices)
from eseharnack.integrate import SolveTrace, TraceStatus

from conftest import gaussian_problem

HAMILTON = preset("hamilton_1d")[2]
IMPROVED = preset("improved_1d")[2]
BLOWUP_K = preset("blowup(1,2,1)")[2]


# ---------------------------------------------------------------------------
# H0

def _trace(grid, times, samples):
    return SolveTrace(grid, 2.0, np.asarray(times, dtype=float), np.asarray(samples),
                      TraceStatus.reached(), np.zeros(0))


def test_h0_on_constant_solution_is_reaction_plus_time_term(const_run):
    # constants kill the derivative terms exactly: H0 = c f^(p-1) + a/t
    k, p = HAMILTON, 2.0
    ts = const_run.times
    rep = h0_report(const_run, k, p, (ts[1], ts[19]))
    assert [t for t, _ in rep.curve] == list(ts[1:20])
    for (t, got), f in zip(rep.curve, const_run.samples[1:20]):
        assert np.ptp(f) == 0.0
        assert got == pytest.approx(k.c * f[0] ** (p - 1.0) + k.a / t, rel=1e-12)
    assert rep.min_h0 > 0


def test_h0_requires_positive_time():
    g = Grid.line(0.0, 1.0, 16)
    trace = _trace(g, [0.0, 0.5], np.ones((2, 16)))
    loc = make_localizer(((0.0, 1.0),), 1, BLOWUP_K)
    for start in (0.0, -1.0):
        with pytest.raises(NonPositiveTime):
            h0_report(trace, HAMILTON, 2.0, (start, 1.0))
        with pytest.raises(NonPositiveTime):
            hr_window_min(trace, BLOWUP_K, 2.0, loc, (start, 1.0))


def test_h0_blows_up_as_t_vanishes(gauss128):
    trace = _trace(gauss128.grid, [1e-9], gauss128.samples[1:2])
    assert h0_report(trace, HAMILTON, 2.0, (1e-9, 1e-9)).min_h0 >= 1e8


@given(s=st.floats(0.01, 100.0))
@settings(max_examples=30, deadline=None)
def test_h0_scales_linearly_in_the_constants(s):
    g = Grid.line(0.0, 2 * np.pi, 64)
    x = g.axis(0)
    times = [0.3, 0.7, 1.1]
    trace = _trace(g, times, [np.exp(0.3 * np.sin(x + t)) for t in times])
    base = h0_report(trace, BLOWUP_K, 2.0, (0.3, 1.1)).curve
    scaled = h0_report(trace, BLOWUP_K.scaled(s), 2.0, (0.3, 1.1)).curve
    assert [t for t, _ in scaled] == times
    assert np.allclose([m for _, m in scaled], [s * m for _, m in base], rtol=1e-12)


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


def test_make_localizer_chooses_a_and_b():
    loc = make_localizer(((0.0, 1.0),), 1, BLOWUP_K)
    assert loc.b == 1.05 * localizer_min_b(1, BLOWUP_K) > 20.0
    assert loc.a == BLOWUP_K.a
    # an a below its lower bound n alpha^2 / (2 (alpha - beta)) = 2 is raised to it
    low_a = HarnackConstants(BLOWUP_K.alpha, BLOWUP_K.beta, BLOWUP_K.c, 0.5)
    assert make_localizer(((0.0, 1.0),), 1, low_a).a == 2.0


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
    g = peaked_run.grid
    loc = make_localizer(((-4.0, 4.0),), 1, k)
    phi = _phi_r_block(g, [t], loc, cutoff_parts(g, loc))[0]
    inside = np.isfinite(phi)
    assert inside.any() and not inside.all()
    # phi_R >= a/t inside R, so H_R >= H0 pointwise there, and the minimum
    # of H_R over R is at least that of H0 over the whole grid
    assert np.all(phi[inside] >= k.a / t)
    assert hr_window_min(peaked_run, k, p, loc, (t, t)) >= \
        h0_report(peaked_run, k, p, (t, t)).min_h0


def test_hr_positive_at_small_times(peaked_run):
    k, p = BLOWUP_K, 2.0
    t = peaked_run.times[1]
    loc = make_localizer(((-4.0, 4.0),), 1, k)
    assert 0 < hr_window_min(peaked_run, k, p, loc, (t, t)) < math.inf


def test_hr_tiny_rectangle_is_pole_dominated(peaked_run):
    k, p = BLOWUP_K, 2.0
    t = peaked_run.t_final
    g = peaked_run.grid
    h = g.spacing[0]
    x0 = g.axis(0)[128]
    loc = make_localizer(((x0 - 2 * h, x0 + 2 * h),), 1, k)
    # finite at the grid points strictly inside the rectangle
    assert 0 < hr_window_min(peaked_run, k, p, loc, (t, t)) < math.inf


def _per_sample_phi_r(grid, t, loc):
    """phi_R built from the mesh for every sample, as the H_R check did before
    it built the time-independent parts once."""
    out = np.full(grid.extents, loc.a / t)
    inside = np.ones(grid.extents, dtype=bool)
    for k, xk in enumerate(grid.mesh()):
        lo, hi = loc.rect[k]
        ok = (xk > lo) & (xk < hi)
        inside &= ok
        with np.errstate(divide="ignore", invalid="ignore"):
            out += np.where(ok, loc.b / (xk - lo) ** 2 + loc.b / (hi - xk) ** 2, 0.0)
    out[~inside] = math.inf
    return out


@pytest.mark.parametrize("boundary", ["periodic", "reflecting"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hr_with_cutoff_built_once_matches_per_sample_construction(dim, boundary):
    g = Grid(((-2.0, 2.0), (-1.0, 3.0), (0.0, 1.0))[:dim], (16, 12, 9)[:dim], boundary)
    rect = ((-1.0, 1.3), (0.1, 2.0), (0.25, 0.75))[:dim]
    loc = make_localizer(rect, dim, BLOWUP_K)
    times = (0.01, 0.3, 2.0)
    block = _phi_r_block(g, times, loc, cutoff_parts(g, loc))
    for t, phi in zip(times, block):
        expected = _per_sample_phi_r(g, t, loc)
        assert np.array_equal(phi, expected)
        assert np.isinf(expected).any() and np.isfinite(expected).any()


def test_hr_rejects_beta_zero(peaked_run):
    t = peaked_run.times[1]
    loc = LocalizerSpec(((-4.0, 4.0),), 1.0, 100.0)
    with pytest.raises(BetaZero):
        hr_window_min(peaked_run, HAMILTON, 2.0, loc, (t, t))


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


def test_residual_peak_stays_flat_as_the_centres_grow():
    # the statistics are reduced as the residual goes, so at 30 centres as at
    # 120 it holds the arrays of one block of centres (one centre at 64^2)
    g = Grid.uniform(0.0, 2 * np.pi, 64, dim=2)
    x, y = g.mesh()
    field_bytes = 8 * g.size
    for n_centres in (30, 120):
        ts = np.linspace(0.01, 1.2, n_centres + 2)
        samples = np.stack([2.0 + np.sin(x) * np.cos(y) * np.exp(-t) for t in ts])
        trace = SolveTrace(g, 2.0, ts, samples, TraceStatus.reached(), np.zeros(0))
        tracemalloc.start()
        try:
            stats = evolution_residual(trace, HAMILTON, 2.0, (ts[0], ts[-1]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.n_times == n_centres
        assert peak <= 20 * field_bytes, peak / field_bytes


# ---------------------------------------------------------------------------
# the streamed sum behind the residual's mean

def _random_values(size, seed):
    """Positive values over 16 decades, so that any change of summation
    order shows in the last bits."""
    rng = np.random.default_rng(seed)
    return rng.random(size) * 10.0 ** rng.uniform(-8.0, 8.0, size)


def _streamed(pieces, size):
    total = PairwiseSum(size)
    for piece in pieces:
        total.add(piece)
    return total.total


@given(n_rows=st.integers(1, 40), row_len=st.integers(1, 700),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
@settings(max_examples=150, deadline=None)
def test_pairwise_sum_equals_numpy_reduce_of_the_joined_rows(n_rows, row_len, seed, data):
    # pieces of whole rows, as the residual feeds them, or cut anywhere,
    # empty pieces included
    size = n_rows * row_len
    flat = _random_values(size, seed)
    cuts = data.draw(st.one_of(
        st.integers(1, n_rows).map(lambda k: list(range(k * row_len, size, k * row_len))),
        st.lists(st.integers(0, size), max_size=12).map(sorted)))
    assert _streamed(np.split(flat, cuts), size) == np.add.reduce(flat)


@pytest.mark.parametrize("n_rows, row_len, rows_per_piece", [
    (1, 1000, 1), (37, 16, 5), (9, 130, 2), (3, 7, 2), (1727, 256, 512), (64, 16384, 8),
], ids=["one-row", "rows-under-128", "length-not-multiple-of-8", "tiny",
        "gauss-1d-residual", "gauss-2d-rows"])
def test_pairwise_sum_mean_equals_numpy_mean(n_rows, row_len, rows_per_piece):
    rows = _random_values(n_rows * row_len, n_rows).reshape(n_rows, row_len)
    pieces = [rows[i:i + rows_per_piece].reshape(-1)
              for i in range(0, n_rows, rows_per_piece)]
    assert _streamed(pieces, rows.size) / rows.size == rows.mean()


def test_pairwise_sum_needs_exactly_its_size():
    total = PairwiseSum(10)
    total.add(np.ones(4))
    with pytest.raises(ValueError, match="4 of 10"):
        total.total
    with pytest.raises(ValueError, match="11 elements fed"):
        total.add(np.ones(7))


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


def _h0_argmin_per_sample(trace, k, p, window):
    """The argmin search as it was: a `Grid.point` call at every drop of the
    running minimum.  Returns (argmin_x, argmin_t, every argmin_x taken)."""
    best, arg_x, arg_t, taken = math.inf, (), math.nan, []
    for i in window_indices(trace.times, window):
        t = trace.times[i]
        h0 = _solution_part(np.log(trace.samples[i]), trace.grid, k, p) + k.a / t
        m = float(h0.min())
        if m < best:
            best, arg_x, arg_t = m, trace.grid.point(int(np.argmin(h0))), t
            taken.append(arg_x)
    return arg_x, arg_t, taken


def test_h0_argmin_converts_the_best_sample_once(monkeypatch):
    # positive samples on a non-square 2-D grid whose log gets rougher with
    # t, so the running minimum drops many times, each at another point
    grid = Grid(((-1.0, 1.0), (0.0, 3.0)), (12, 9), "reflecting")
    rng = np.random.default_rng(5)
    times = np.linspace(0.1, 1.0, 24)
    rough = np.linspace(0.1, 1.0, len(times))[:, None, None]
    samples = np.exp(rough * rng.standard_normal((len(times), *grid.extents)))
    trace = SolveTrace(grid, 2.0, times, samples, TraceStatus.reached(), np.full(5, 0.1))
    window = (0.1, 1.0)
    arg_x, arg_t, taken = _h0_argmin_per_sample(trace, HAMILTON, 2.0, window)
    assert len(set(taken)) >= 8

    calls = []
    point = Grid.point
    monkeypatch.setattr(Grid, "point",
                        lambda self, flat: calls.append(flat) or point(self, flat))
    rep = h0_report(trace, HAMILTON, 2.0, window)
    assert rep.argmin_x == arg_x and rep.argmin_t == arg_t
    assert len(calls) == 1


def test_h0_report_flags_violations(gauss256):
    # far-from-admissible constants push H0 negative on the same trace
    bad = HarnackConstants(1.0, 0.0, 0.01, 0.01)
    rep = h0_report(gauss256, bad, 2.0)
    assert rep.verdict == "violated"
    assert rep.min_h0 < -1e-2


# ---------------------------------------------------------------------------
# the checks walk a window a block of samples at a time; per-sample
# references, as the checks were written before the blocks

def test_block_len_bounds_the_points_of_a_block():
    assert block_len(Grid.line(0.0, 1.0, 256)) == 16
    assert block_len(Grid.line(0.0, 1.0, 16)) == 256
    assert block_len(Grid.uniform(0.0, 1.0, 64, dim=2)) == 1
    assert block_len(Grid.uniform(0.0, 1.0, 128, dim=2)) == 1
    assert block_len(Grid.uniform(0.0, 1.0, 8, dim=3)) == 8


def _rough_trace(extents, n_samples, seed, boundary="reflecting"):
    """Positive samples with a rough log at unevenly spaced times, so that
    every term of H and of its time derivative is far from zero."""
    grid = Grid(((-1.0, 1.0), (0.0, 2.0), (-0.5, 0.5))[:len(extents)], extents, boundary)
    rng = np.random.default_rng(seed)
    times = 0.05 + np.cumsum(rng.uniform(0.5, 1.5, n_samples)) / n_samples
    samples = np.exp(0.3 * rng.standard_normal((n_samples, *extents)))
    return SolveTrace(grid, 2.0, times, samples, TraceStatus.reached(), np.zeros(0))


# (extents, samples): blocks of 16 with a short last block in 1-D and 2-D,
# blocks of 8 in 3-D, one sample per block at 64^2
BLOCK_TRACES = [((256,), 39), ((16, 16), 23), ((8, 8, 8), 13), ((64, 64), 6)]


def _h0_report_per_sample(trace, k, p, window):
    curve, best, arg_x, arg_t = [], math.inf, (), math.nan
    for i in window_indices(trace.times, window):
        t = trace.times[i]
        h0 = _solution_part(np.log(trace.samples[i]), trace.grid, k, p) + k.a / t
        m = float(h0.min())
        curve.append((t, m))
        if m < best:
            best, arg_x, arg_t = m, trace.grid.point(int(np.argmin(h0))), t
    return curve, best, arg_x, arg_t


@pytest.mark.parametrize("extents, n_samples", BLOCK_TRACES)
def test_h0_report_on_blocks_equals_the_per_sample_report(extents, n_samples):
    trace = _rough_trace(extents, n_samples, seed=len(extents))
    ts = trace.times
    for window in ((ts[0], ts[-1]), (ts[2], ts[-3])):
        rep = h0_report(trace, IMPROVED, 2.0, window)
        curve, best, arg_x, arg_t = _h0_report_per_sample(trace, IMPROVED, 2.0, window)
        assert rep.curve == curve
        assert (rep.min_h0, rep.argmin_x, rep.argmin_t) == (best, arg_x, arg_t)


def _hr_min_per_sample(trace, k, p, loc, window):
    best = math.inf
    for i in window_indices(trace.times, window):
        hr = (_solution_part(np.log(trace.samples[i]), trace.grid, k, p)
              + _per_sample_phi_r(trace.grid, trace.times[i], loc))
        finite = hr[np.isfinite(hr)]
        if finite.size:
            best = min(best, float(finite.min()))
    return best


@pytest.mark.parametrize("extents, n_samples", BLOCK_TRACES)
def test_hr_window_min_on_blocks_equals_the_per_sample_minimum(extents, n_samples):
    trace = _rough_trace(extents, n_samples, seed=10 + len(extents), boundary="periodic")
    dim = len(extents)
    loc = make_localizer(((-0.7, 0.4), (0.3, 1.9), (-0.2, 0.3))[:dim], dim, BLOWUP_K)
    ts = trace.times
    for window in ((ts[0], ts[-1]), (ts[1], ts[-2])):
        assert hr_window_min(trace, BLOWUP_K, 2.0, loc, window) == \
            _hr_min_per_sample(trace, BLOWUP_K, 2.0, loc, window)


@pytest.mark.parametrize("extents, n_samples", BLOCK_TRACES)
def test_residual_on_blocks_matches_cached_reference(extents, n_samples):
    # every block ends at a centre whose next sample starts the next block
    trace = _rough_trace(extents, n_samples, seed=20 + len(extents))
    ts = trace.times
    for window in ((ts[0], ts[-1]), (ts[2], ts[-2])):
        stats = evolution_residual(trace, IMPROVED, 2.0, window)
        assert (stats.max_abs, stats.mean_abs, stats.normalizer, stats.n_times) == \
            _cached_residual(trace, IMPROVED, 2.0, window)


def test_window_errors_name_the_window_and_its_sample_count(gauss128):
    ts = gauss128.times
    empty = (float(ts[3]) + 1e-12, float(ts[4]) - 1e-12)
    span = f"which span [{float(ts[0])!r}, {float(ts[-1])!r}]"
    for check in (lambda w: h0_report(gauss128, HAMILTON, 2.0, w),
                  lambda w: hr_window_min(gauss128, BLOWUP_K, 2.0,
                                          make_localizer(((-1.0, 1.0),), 1, BLOWUP_K), w)):
        with pytest.raises(WindowTooSmall) as exc:
            check(empty)
        assert str(exc.value) == (f"the window [{empty[0]!r}, {empty[1]!r}] holds 0 of the "
                                  f"trace's {len(ts)} samples, {span}; the check needs at "
                                  f"least one")
    with pytest.raises(WindowTooSmall, match=f"holds 2 of the trace's {len(ts)} samples, "
                                             f".*; the residual needs at least 3"):
        evolution_residual(gauss128, HAMILTON, 2.0, (ts[3], ts[4]))
