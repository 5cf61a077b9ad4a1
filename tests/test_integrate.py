import contextlib
import gc
import itertools
import math
import os
import pickle
import signal
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from eseharnack import (Grid, ProblemSpec, RescaleSpec, StepConfig, gaussian,
                        ode_blowup_time, ode_oracle, rescale_problem,
                        rescale_trace, solve, step)
from eseharnack.cli import rescale_commutation_discrepancy
from eseharnack import integrate
from eseharnack.errors import NonPositiveField, OutOfWindow
from eseharnack.integrate import (_TIMED, _WARM, _WINDOW, SolveTrace, TraceStatus,
                                  _capacity, _Workspace, bracket, stable_dt)

from conftest import (constant_problem, field_at, gaussian_problem, needs_split,
                      values_at)
from test_stencil import _ref_rk4


# ---------------------------------------------------------------------------
# single step

def test_step_matches_ode_on_constant_data():
    # spatially constant data reduces to f' = f^p; RK4 local error is O(dt^5)
    g = Grid.line(0.0, 1.0, 16)
    dt = 1e-4
    out = step(np.ones(g.extents), g, dt, 2.0)
    exact = ode_oracle(1.0, 2.0, dt)
    assert np.allclose(out, exact, atol=5 * dt ** 5)


def test_zero_step_is_identity():
    g = Grid.line(0.0, 1.0, 16)
    f = np.ones(g.extents)
    assert step(f, g, 0.0, 2.0) is f


def test_reaction_slows_the_maximum_decay():
    # one step on Gaussian data: the source term keeps the peak higher than
    # the pure-heat step on the same data
    prob = gaussian_problem(128, t_end=0.1)
    f = prob.initial
    dt = 1e-4
    with_reaction = step(f, prob.grid, dt, 2.0, reaction=True)
    heat_only = step(f, prob.grid, dt, 2.0, reaction=False)
    assert with_reaction.max() > heat_only.max()
    assert with_reaction.max() < f.max()      # diffusion still wins at width 0.2


def test_step_rejects_positivity_loss():
    g = Grid.line(0.0, 1.0, 16, "reflecting")
    vals = np.full(16, 1e-9)
    vals[8] = 1.0                              # sharp spike, huge negative lap
    with pytest.raises(NonPositiveField):
        step(vals, g, 1.0, 2.0)


def test_step_rejects_negative_dt():
    g = Grid.line(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        step(np.ones(g.extents), g, -1e-3, 2.0)


def test_step_refuses_values_off_the_grid():
    g = Grid.line(0.0, 1.0, 16)
    with pytest.raises(ValueError, match=r"value shape \(1,\) does not match grid extents"):
        step(np.ones(1), g, 1e-3, 2.0)


@pytest.mark.parametrize("dim, reaction", [(1, True), (2, True), (2, False)])
def test_step_equals_one_advance_of_a_solve_workspace(dim, reaction):
    # step() copies its input into states[0]; the solve loop also steps out
    # of states[1], through the other bound plan
    prob = gaussian_problem(32, dim=dim, reaction=reaction)
    dt = stable_dt(prob.grid, prob.p, float(prob.initial.max()), StepConfig(), reaction)
    ws = _Workspace(prob.grid, prob.p, reaction)
    ws.states[1][...] = prob.initial
    assert np.array_equal(step(prob.initial, prob.grid, dt, prob.p, reaction),
                          ws.states[ws.advance(1, dt)])


@pytest.mark.parametrize("level, status", [(0.1, "reached_t_end"), (10.0, "aborted")])
def test_reaction_rate_out_of_float_range_sets_no_cap_or_a_zero_step(level, status):
    # p f^(p-1) at p = 400 underflows to 0 for f = 0.1 (the reaction is
    # negligible) and overflows for f = 10 (no step is small enough)
    prob = ProblemSpec(Grid.line(0.0, 1.0, 16), 400.0, np.full(16, level), 0.01)
    assert solve(prob, StepConfig(f_cap=100.0)).status.kind == status


# ---------------------------------------------------------------------------
# solve: blowup detection and ODE agreement

def test_constant_data_blows_up_near_exact_time(const_run):
    assert const_run.status.kind == "blowup"
    assert const_run.status.criterion == "f_cap"
    assert const_run.status.t_detect == pytest.approx(1.0, rel=1e-2)


def test_constant_data_level_half_blows_up_near_two():
    tr = solve(constant_problem(level=0.5, t_end=5.0),
               StepConfig(reaction_safety=0.02, sample_stride=1))
    assert tr.status.kind == "blowup"
    assert tr.status.t_detect == pytest.approx(ode_blowup_time(0.5, 2.0), rel=1e-2)


def test_short_gaussian_reaches_t_end(gauss128):
    assert gauss128.status.kind == "reached_t_end"
    assert gauss128.samples.min() > 0.0
    assert not (gauss128.samples.flags.writeable or gauss128.times.flags.writeable)
    ts = gauss128.times
    assert np.all(np.diff(ts) > 0)


def test_a_trace_unpickled_from_a_worker_stays_read_only(gauss128):
    # the rescale check's worker hands its trace back pickled
    back = pickle.loads(pickle.dumps(gauss128))
    assert not (back.samples.flags.writeable or back.times.flags.writeable)
    assert np.array_equal(back.samples, gauss128.samples) and back.status == gauss128.status


def test_constant_run_tracks_ode_to_1e6(const_run):
    t_star = ode_blowup_time(1.0, 2.0)
    for t, m in zip(*const_run.max_curve()):
        if t > 0.9 * t_star:
            break
        exact = ode_oracle(1.0, 2.0, t)
        assert abs(m - exact) <= 1e-6 * exact


def test_detection_converges_first_order_or_better():
    # h -> h/2 with the reaction step cap tightened proportionally; the box is
    # wide so the CFL cap never binds for constant data
    errs = []
    for n, rs in ((16, 0.4), (32, 0.2), (64, 0.1)):
        tr = solve(constant_problem(n_points=n), StepConfig(reaction_safety=rs, sample_stride=1))
        errs.append(abs(tr.status.t_detect - 1.0))
    assert errs[0] / errs[1] >= 2.0
    assert errs[1] / errs[2] >= 2.0


def test_comparison_monotonicity_on_nested_gaussians():
    cfg = StepConfig(sample_stride=8)
    lo = solve(gaussian_problem(128, t_end=0.5), cfg)
    hi = solve(gaussian_problem(128, t_end=0.5, amplitude=1.2), cfg)
    for t, f in zip(lo.times, lo.samples):
        if t > hi.t_final:
            break
        assert np.all(field_at(hi, t) >= f * (1 - 1e-9))


def test_dt_floor_declares_blowup_only_while_rising():
    # growing run: the reaction cap dives below dt_min long before f_cap
    prob = constant_problem(t_end=2.0)
    tr = solve(prob, StepConfig(dt_min=1e-3, f_cap=1e30, sample_stride=1))
    assert tr.status.kind == "blowup"
    assert tr.status.criterion == "dt_floor"
    # shrinking run: same floor without growth is an abort, not blowup
    heat = ProblemSpec(Grid.line(0.0, 1.0, 64), 2.0, np.ones(64), 1.0, reaction=False)
    tr2 = solve(heat, StepConfig(dt_min=1.0, sample_stride=1))
    assert tr2.status.kind == "aborted"


def test_time_floor_declares_blowup_where_t_stops_advancing():
    # p = 3 blows up near T* = 0.5.  With dt_min = 1e-300 the reaction cap
    # falls below half the float spacing at t (at max f ~ 1.1e7) long before
    # f_cap, and one more step would leave t where it is
    cfg = StepConfig(reaction_safety=0.02, dt_min=1e-300, f_cap=1e300, sample_stride=1)
    tr = solve(constant_problem(p=3.0), cfg)
    assert (tr.status.kind, tr.status.criterion) == ("blowup", "dt_floor")
    assert np.all(np.diff(tr.times) > 0) and np.isfinite(tr.samples).all()
    fmax = float(tr.samples[-1].max())
    assert 1e6 < fmax < 1e8
    assert tr.t_final + stable_dt(tr.grid, 3.0, fmax, cfg) == tr.t_final


def test_solve_validates_f_cap_against_initial_data():
    with pytest.raises(ValueError):
        solve(constant_problem(level=2.0), StepConfig(f_cap=1.5))


# ---------------------------------------------------------------------------
# the sample array

def _ref_solve(prob, cfg):
    """The solve loop as it stood with a list of samples stacked at the end;
    it steps with the ghost-cell RK4 reference, which returns a new array
    every step."""
    fmax = float(prob.initial.max())
    grid = prob.grid
    y = prob.initial
    t = 0.0
    times = [t]
    samples = [y]
    step_log = []
    prev_max = fmax
    status = None
    accepted = 0
    while t < prob.t_end:
        dt_stable = stable_dt(grid, prob.p, fmax, cfg, prob.reaction)
        if dt_stable < cfg.dt_min:
            if fmax > prev_max:
                status = TraceStatus.blowup(t, criterion="dt_floor")
            else:
                status = TraceStatus.aborted("dt underflow without growth", t)
            break
        dt = min(dt_stable, prob.t_end - t)
        try:
            y = _ref_rk4(y, dt, grid, prob.p, prob.reaction)
        except NonPositiveField as exc:
            status = TraceStatus.aborted(str(exc), t)
            break
        prev_max = fmax
        t += dt
        accepted += 1
        step_log.append(dt)
        if accepted % cfg.sample_stride == 0:
            times.append(t)
            samples.append(y)
        fmax = float(y.max())
        if fmax > cfg.f_cap:
            status = TraceStatus.blowup(t, criterion="f_cap")
            break
    if status is None:
        status = TraceStatus.reached()
    if times[-1] != t:
        times.append(t)
        samples.append(y)
    return np.array(times), np.stack(samples), status, np.asarray(step_log)


@pytest.mark.parametrize("cfg", [
    StepConfig(reaction_safety=0.05, sample_stride=1),             # f_cap
    StepConfig(reaction_safety=0.05, sample_stride=3),             # off-stride last sample
    StepConfig(reaction_safety=0.05, dt_min=1e-6, sample_stride=2),  # dt_floor
])
def test_reaction_capped_run_grows_the_sample_array(cfg):
    # constant data blows up at t = 1 while dt shrinks like 1/f, so the run
    # takes far more steps than the first dt predicts and the array grows
    prob = constant_problem(t_end=2.0)
    trace = solve(prob, cfg)
    first = _capacity(prob.t_end, stable_dt(prob.grid, prob.p, prob.initial.max(), cfg),
                      cfg.sample_stride, prob.initial.nbytes)
    assert len(trace.samples) > 2 * first
    times, samples, status, step_log = _ref_solve(prob, cfg)
    assert trace.status == status and status.kind == "blowup"
    assert np.array_equal(trace.times, times)
    assert np.array_equal(trace.samples, samples)
    assert np.array_equal(trace.step_log, step_log)
    assert trace.samples.flags.c_contiguous and not trace.samples.flags.writeable


def test_diffusion_bound_run_matches_the_list_and_stack_loop():
    prob = gaussian_problem(64, t_end=0.05, dim=2, box=(-2.0, 2.0))
    cfg = StepConfig(sample_stride=5)
    trace = solve(prob, cfg)
    times, samples, status, step_log = _ref_solve(prob, cfg)
    assert trace.status == status
    assert np.array_equal(trace.times, times)
    assert np.array_equal(trace.samples, samples)
    assert np.array_equal(trace.step_log, step_log)


def test_solve_holds_each_sample_once():
    # 64^2 diffusion-bound run, one sample per step: 200 samples
    prob = gaussian_problem(64, t_end=0.2, dim=2)
    cfg = StepConfig(sample_stride=1)
    field_bytes = 8 * prob.grid.size
    tracemalloc.start()
    try:
        trace = solve(prob, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = len(trace.samples)
    assert n >= 200
    assert trace.status.kind == "reached_t_end"
    # the samples, the workspace's nine buffers and the initial field
    assert peak <= (n + 16) * field_bytes


def test_solve_records_each_sample_and_step_in_a_few_bytes():
    # configs/gaussian_hamilton.ini's run: 8,129 steps and 2,034 samples,
    # whose times, maxima, argmax and step log take 8 bytes an entry; as
    # lists of 32-byte Python objects they peaked some 600 KB above the samples
    tracemalloc.start()
    try:
        trace = solve(gaussian_problem(256), StepConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(trace.step_log), len(trace.samples)) == (8129, 2034)
    assert peak - trace.samples.nbytes <= 300_000


def test_capacity_estimate():
    assert _capacity(1.0, 0.01, 1, 8) == 102
    assert _capacity(1.0, 0.01, 4, 8) == 27
    # the reservation is capped, and never below the initial and final rows
    assert _capacity(1.0, 1e-300, 1, 8) == (1 << 28) // 8
    assert _capacity(1.0, 1e-300, 1, 1 << 40) == 2
    assert _capacity(1.0, 0.0, 1, 1 << 20) == (1 << 28) // (1 << 20)


def test_stepconfig_validation():
    with pytest.raises(ValueError):
        StepConfig(cfl_safety=0.0)
    with pytest.raises(ValueError):
        StepConfig(reaction_safety=1.5)
    with pytest.raises(ValueError):
        StepConfig(sample_stride=0)


def test_problemspec_validation():
    g = Grid.line(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        ProblemSpec(g, 1.0, np.ones(16), 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(g, 2.0, np.ones(16), 0.0)
    with pytest.raises(ValueError, match="t_end"):
        ProblemSpec(g, 2.0, np.ones(16), math.inf)
    with pytest.raises(ValueError, match="shape"):
        ProblemSpec(g, 2.0, np.ones(15), 1.0)
    for p in (math.inf, 1e200):
        with pytest.raises(ValueError, match=r"p > 1 with p\^2 finite"):
            ProblemSpec(g, p, np.ones(16), 1.0)


@pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan])
def test_problemspec_refuses_nonpositive_initial_data(bad):
    values = np.ones(16)
    values[5] = bad
    with pytest.raises(NonPositiveField, match="initial data"):
        ProblemSpec(Grid.line(0.0, 1.0, 16), 2.0, values, 1.0)


def test_problemspec_refuses_infinite_initial_data():
    values = np.ones(16)
    values[5] = math.inf
    with pytest.raises(ValueError, match="initial data must be finite, found max inf"):
        ProblemSpec(Grid.line(0.0, 1.0, 16), 2.0, values, 1.0)


def test_problemspec_holds_a_read_only_copy_of_the_initial_data():
    values = np.ones(16, dtype=np.int64)
    prob = ProblemSpec(Grid.line(0.0, 1.0, 16), 2.0, values, 1.0)
    values[0] = 5
    assert prob.initial.dtype == np.float64 and prob.initial[0] == 1.0
    assert values.flags.writeable and not prob.initial.flags.writeable
    with pytest.raises(ValueError):
        prob.initial[0] = 2.0


# ---------------------------------------------------------------------------
# trace interpolation

def test_values_at_interpolates_linearly_in_time(gauss128):
    # at a grid point the spatial interpolation reads that point alone
    ts, g = gauss128.times, gauss128.grid
    t_mid = 0.5 * (ts[3] + ts[4])
    idx = [0, 37, 64, 127]
    xs = [g.point(i) for i in idx]
    expected = 0.5 * (gauss128.samples[3][idx] + gauss128.samples[4][idx])
    assert values_at(gauss128, xs, [t_mid] * 4) == pytest.approx(expected, rel=1e-12)
    assert np.array_equal(values_at(gauss128, xs, [ts[3]] * 4), gauss128.samples[3][idx])


def test_bracket_at_sample_times_and_between(gauss128):
    ts = gauss128.times
    t_mid = 0.5 * (ts[3] + ts[4])
    below, above, w = bracket(ts, [ts[0], ts[3], t_mid, ts[-1]])
    assert below.tolist() == [0, 3, 3, len(ts) - 1]
    assert above.tolist() == [0, 3, 4, len(ts) - 1]
    assert w.tolist() == [0.0, 0.0, (t_mid - ts[3]) / (ts[4] - ts[3]), 0.0]
    assert [a.shape for a in bracket(ts, [])] == [(0,)] * 3


def _corners_at(grid, x):
    """Scalar oracle: the (index, weight) pairs that multilinear
    interpolation at one point x reads, corner bit k choosing axis k's
    upper index, per axis s = (x - lo) / h wrapped (periodic) or its floor
    clamped to [0, n - 2] (reflecting)."""
    ends, fracs = [], []
    for xk, (lo, hi), h, n in zip(x, grid.box, grid.spacing, grid.extents):
        s = (xk - lo) / h
        if grid.boundary == "periodic":
            s = s % n
            i0 = int(np.floor(s))
            fracs.append(s - i0)
            ends.append((i0 % n, (i0 % n + 1) % n))
        else:
            i0 = max(min(int(np.floor(s)), n - 2), 0)
            fracs.append(s - i0)
            ends.append((i0, i0 + 1))
    corners = []
    for corner in range(1 << grid.dim):
        weight, ix = 1.0, []
        for k in range(grid.dim):
            up = corner >> k & 1
            weight *= fracs[k] if up else 1.0 - fracs[k]
            ix.append(ends[k][up])
        corners.append((tuple(ix), weight))
    return corners


@pytest.mark.parametrize("dim, boundary", [(1, "reflecting"), (2, "reflecting"),
                                           (2, "periodic"), (3, "periodic")])
def test_values_at_equals_interpolating_the_whole_field(dim, boundary):
    # the classical check interpolates in time only the corners it reads, so
    # it must give the whole field interpolated in time, then in space, bit
    # for bit, at sample times and between
    prob = gaussian_problem(32 if dim < 3 else 8, t_end=0.05, dim=dim, boundary=boundary)
    trace = solve(prob, StepConfig(sample_stride=3))
    rng = np.random.default_rng(dim)
    ts = trace.times
    lo, hi = ts[0], ts[-1]
    times = [*rng.uniform(lo, hi, 150), *ts[rng.integers(len(ts), size=50)], lo, hi]
    xs = rng.uniform(*prob.grid.box[0], (len(times), dim))
    if boundary == "periodic":
        xs += rng.integers(-2, 3, xs.shape) * (prob.grid.box[0][1] - prob.grid.box[0][0])
    got = values_at(trace, xs, times)
    for x, t, value in zip(xs, times, got):
        f = field_at(trace, t)
        whole = 0.0
        for ix, weight in _corners_at(trace.grid, x):
            whole += weight * float(f[ix])
        assert value == whole


def test_values_at_out_of_window(gauss128):
    with pytest.raises(OutOfWindow):
        values_at(gauss128, [(0.0,)], [gauss128.t_final + 1.0])


# ---------------------------------------------------------------------------
# parabolic rescaling

def _one_sample_trace(grid, level, t):
    return SolveTrace(grid, 2.0, np.array([t]), np.full((1, *grid.extents), level),
                      TraceStatus.reached(), np.zeros(0))


def test_rescale_identity():
    g = Grid.line(-1.0, 1.0, 16)
    out = rescale_trace(_one_sample_trace(g, 3.0, 0.7), RescaleSpec(1.0, 2.0))
    assert out.times.tolist() == [0.7]
    assert out.grid == g
    assert np.all(out.samples == 3.0)


def test_rescale_direct_formula():
    # p = 2 so delta = -2; lambda = 2 quarters the values and doubles the box
    g = Grid.line(-1.0, 1.0, 16)
    out = rescale_trace(_one_sample_trace(g, 4.0, 0.25), RescaleSpec(2.0, 2.0))
    assert out.times.tolist() == [1.0]
    assert np.all(out.samples == 1.0)
    assert out.grid.box == ((-2.0, 2.0),)


def test_rescale_spec_validation():
    with pytest.raises(ValueError):
        RescaleSpec(0.0, 2.0)
    with pytest.raises(ValueError):
        RescaleSpec(1.0, 1.0)
    assert RescaleSpec(2.0, 2.0).delta == -2.0
    assert RescaleSpec(2.0, 3.0).delta == -1.0
    # lambda^2 or lambda^delta out of float range: overflow, or underflow to 0
    for lam, p in ((1e200, 2.0), (1e-200, 2.0), (2.0, 1.0001), (math.inf, 2.0)):
        with pytest.raises(ValueError, match="overflow or underflow"):
            RescaleSpec(lam, p)


def test_solve_commutes_with_rescaling():
    prob = gaussian_problem(128, t_end=0.5)
    cfg = StepConfig(sample_stride=4)
    spec = RescaleSpec(2.0, 2.0)
    disc = rescale_commutation_discrepancy(solve(prob, cfg),
                                           solve(rescale_problem(prob, spec), cfg), spec)
    assert disc <= 1e-3


def test_rescale_trace_scales_status_and_steps(const_run):
    spec = RescaleSpec(2.0, 2.0)
    out = rescale_trace(const_run, spec)
    assert out.status.t_detect == pytest.approx(4.0 * const_run.status.t_detect)
    assert np.allclose(out.step_log, 4.0 * const_run.step_log)
    assert out.times[0] == 4.0 * const_run.times[0]
    assert np.allclose(out.samples[0], 0.25 * const_run.samples[0])


def test_rescale_problem_scales_the_initial_data_grid_and_horizon():
    prob = gaussian_problem(32, t_end=0.5)
    out = rescale_problem(prob, RescaleSpec(2.0, 2.0))
    assert out.grid == prob.grid.scaled(2.0)
    assert np.array_equal(out.initial, prob.initial * 0.25)
    assert (out.p, out.t_end, out.reaction) == (2.0, 2.0, True)


def test_rescaled_problem_blowup_time_scales():
    cfg = StepConfig(sample_stride=1)
    base = solve(constant_problem(t_end=10.0), cfg)
    scaled = solve(rescale_problem(constant_problem(t_end=10.0), RescaleSpec(2.0, 2.0)), cfg)
    assert scaled.status.t_detect == pytest.approx(4.0 * base.status.t_detect, rel=2e-2)


# ---------------------------------------------------------------------------
# the row split: a forked partner steps the second half of the rows

@pytest.fixture
def split(monkeypatch):
    """Lets every solve of dim 2 or 3 split, however small its grid, and
    records each forked partner's pid and every split step; a solve that
    hangs fails after two minutes instead.  No window check ends the split
    and neither side's patience at the barrier runs out (both are
    `_WINDOW` one-process steps), so that a slow test box cannot end a
    split early; the partner still exits once its solver is gone."""
    monkeypatch.setattr(integrate, "_SPLIT_DIMS", (2, 3))
    monkeypatch.setattr(integrate, "_SPLIT_POINTS", 0)
    monkeypatch.setattr(integrate, "_WINDOW", 10 ** 9)
    seen = SimpleNamespace(partners=[], steps=[])
    fork, step = _Workspace._fork, _Workspace._step

    def spy_fork(self, per_step):
        forked = fork(self, per_step)   # returns in this process only
        seen.partners.append(self._pid)
        return forked

    def spy_step(self, i):
        if self._pid is not None:   # a split step
            seen.steps.append(i)
        return step(self, i)

    def hung(*_):
        raise TimeoutError("the solve hung")

    monkeypatch.setattr(_Workspace, "_fork", spy_fork)
    monkeypatch.setattr(_Workspace, "_step", spy_step)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        yield seen
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _one_process(prob, cfg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(integrate, "_SPLIT_POINTS", math.inf)
        return solve(prob, cfg)


def _assert_same_trace(got, want):
    assert got.status == want.status
    for name in ("times", "samples", "step_log", "maxima", "argmax"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    # the peaks the solve recorded (a split solve's max is the larger of its
    # halves') are those its samples give
    rebuilt = SolveTrace(got.grid, got.p, got.times, got.samples, got.status, got.step_log)
    assert np.array_equal(rebuilt.maxima, got.maxima)
    assert np.array_equal(rebuilt.argmax, got.argmax)


def _split_problem(extents, boundary="reflecting", p=2.0, reaction=True, center=0.3,
                   steps=100):
    """A Gaussian off the centre row on [-2, 2]^dim, run for about `steps` steps."""
    dim = len(extents)
    grid = Grid(((-2.0, 2.0),) * dim, extents, boundary)
    f0 = gaussian(grid, 1.0, 0.4, (center,) + (0.0,) * (dim - 1))
    t_end = steps * stable_dt(grid, p, 1.0, StepConfig(), reaction)
    return ProblemSpec(grid, p, f0, t_end, reaction=reaction)


def _on_step(monkeypatch, n, action):
    """Runs action() at the solve loop's n-th stable_dt call (call 0 sizes
    the sample array, call k sets the k-th step), whose dt is action's
    value when it returns one."""
    calls, real = itertools.count(), integrate.stable_dt

    def stable_dt(*args, **kwargs):
        if next(calls) == n:
            value = action()
            if value is not None:
                return value
        return real(*args, **kwargs)

    monkeypatch.setattr(integrate, "stable_dt", stable_dt)


@needs_split
@pytest.mark.parametrize("extents", [(24, 16), (25, 16), (12, 8, 8), (13, 8, 8)],
                         ids=["2d", "2d-odd-rows", "3d", "3d-odd-rows"])
@pytest.mark.parametrize("boundary, reaction, p", [
    ("periodic", True, 2.0), ("reflecting", True, 2.5), ("reflecting", False, 2.0),
    ("periodic", False, 2.5)])
def test_split_solve_equals_the_one_process_solve(split, monkeypatch, extents, boundary,
                                                  reaction, p):
    prob = _split_problem(extents, boundary, p, reaction)
    cfg = StepConfig(sample_stride=3)
    got = solve(prob, cfg)
    want = _one_process(prob, cfg)
    assert len(split.partners) == 1
    assert len(split.steps) == len(want.step_log) - _WARM - _TIMED > 60
    _assert_same_trace(got, want)


@needs_split
@pytest.mark.parametrize("center", [-1.0, 1.0], ids=["solver-rows", "partner-rows"])
def test_split_stage_failure_aborts_with_the_one_process_label_and_min(split, monkeypatch,
                                                                       center):
    # the 30th step runs to t_end at once: its second stage goes far below
    # zero around the peak, which lies in one half of the rows
    prob = _split_problem((32, 16), center=center, steps=1000)
    cfg = StepConfig(sample_stride=4)
    _on_step(monkeypatch, 30, lambda: 1e3)
    want = _one_process(prob, cfg)
    _on_step(monkeypatch, 30, lambda: 1e3)
    got = solve(prob, cfg)
    assert len(split.steps) == 30 - _WARM - _TIMED
    assert got.status.kind == "aborted"
    assert got.status.reason.startswith("RK stage 2 went nonpositive (min=-")
    _assert_same_trace(got, want)


@needs_split
@pytest.mark.parametrize("sig", [signal.SIGSTOP, signal.SIGKILL], ids=["stop", "kill"])
def test_split_solve_finishes_alone_when_the_partner_stops_or_dies(split, monkeypatch, sig):
    # the solver waits at most 4096 one-process steps (about 0.25 s on a
    # 2-vCPU VM) for a stopped partner: longer than the partner's start-up
    # after the fork, which took more than 32 steps in 12 of 40 solves
    monkeypatch.setattr(integrate, "_WINDOW", 4096)
    prob = _split_problem((32, 16), steps=200)
    cfg = StepConfig(sample_stride=4)
    want = _one_process(prob, cfg)
    _on_step(monkeypatch, 40, lambda: os.kill(split.partners[0], sig))
    got = solve(prob, cfg)
    assert 0 < len(split.steps) < len(want.step_log) - _WARM - _TIMED
    _assert_same_trace(got, want)
    with pytest.raises(ChildProcessError):   # reaped
        os.waitpid(split.partners[0], os.WNOHANG)


def _state(pid: int) -> str | None:
    """The state letter of process `pid` (Z once it has exited unreaped),
    or None once it is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return None


def _wait_for_exit(pid: int, seconds: float) -> str | None:
    deadline = time.monotonic() + seconds
    while _state(pid) not in (None, "Z", "X") and time.monotonic() < deadline:
        time.sleep(0.01)
    return _state(pid)


@needs_split
def test_split_partner_exits_when_its_solver_stalls_between_steps(split, monkeypatch):
    # the partner waits for the next step no longer than the solver waits
    # at a stage barrier: a window of one-process steps, 4096 here
    monkeypatch.setattr(integrate, "_WINDOW", 4096)
    prob = _split_problem((32, 16), steps=200)
    cfg = StepConfig(sample_stride=4)
    want = _one_process(prob, cfg)
    seen = []
    _on_step(monkeypatch, 40, lambda: seen.append(_wait_for_exit(split.partners[0], 30)))
    got = solve(prob, cfg)
    assert seen == ["Z"]   # exited on its own while the solver stalled
    assert 0 < len(split.steps) < len(want.step_log) - _WARM - _TIMED
    _assert_same_trace(got, want)
    with pytest.raises(ChildProcessError):   # reaped
        os.waitpid(split.partners[0], os.WNOHANG)


@needs_split
def test_split_partner_exits_when_its_solver_is_killed(split, monkeypatch):
    # the fixture's patience is unbounded: the partner sees its parent change
    prob = _split_problem((32, 16), steps=200)
    rfd, wfd = os.pipe()

    def report_partner_and_stall():
        os.write(wfd, f"{split.partners[0]}\n".encode())
        time.sleep(60)

    _on_step(monkeypatch, 40, report_partner_and_stall)
    solver = os.fork()
    if solver == 0:
        try:
            solve(prob, StepConfig(sample_stride=4))
        finally:
            os._exit(1)
    os.close(wfd)
    try:
        with open(rfd) as pipe:
            partner = int(pipe.readline())
    finally:
        os.kill(solver, signal.SIGKILL)
        os.waitpid(solver, 0)
    try:
        assert _wait_for_exit(partner, 1.0) in (None, "Z", "X")
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.kill(partner, signal.SIGKILL)


def _children() -> set[int]:
    me, found = os.getpid(), set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            if int(stat.read_text().rsplit(")", 1)[1].split()[1]) == me:
                found.add(int(stat.parent.name))
        except OSError:   # the process ended meanwhile
            pass
    return found


def _held() -> tuple:
    """This process's children, open descriptors and shared mappings."""
    maps = Path("/proc/self/maps").read_text().splitlines()
    return (_children(), len(os.listdir("/proc/self/fd")),
            sum(" rw-s " in line for line in maps))


@needs_split
@pytest.mark.parametrize("end", ["return", "abort", "exception"])
def test_split_solve_leaves_no_process_pipe_or_mapping_behind(split, monkeypatch, end):
    prob = _split_problem((32, 16), steps=1000 if end == "abort" else 100)
    cfg = StepConfig(sample_stride=4)
    gc.collect()   # a workspace that an earlier failed test left in a traceback
    before = _held()

    def step_30():
        if end == "exception":
            raise RuntimeError("a bug in the solve loop")
        return 1e3 if end == "abort" else None

    _on_step(monkeypatch, 30, step_30)
    if end == "exception":
        with pytest.raises(RuntimeError):
            solve(prob, cfg)
    else:
        trace = solve(prob, cfg)
        assert trace.status.kind == ("aborted" if end == "abort" else "reached_t_end")
        del trace
    gc.collect()
    assert split.partners and split.steps
    assert _held() == before


class _PolicyProbe:
    """Stands in for a shared workspace under `_Workspace._policy`: its fork
    starts nothing."""
    _policy = _Workspace._policy

    def __init__(self):
        self._pid = None

    def _fork(self, per_step):
        self._pid = "partner"
        return True

    def _alone(self):
        self._pid = None


def _split_ends_after(split_steps, alone=300e-6):
    """Drives `_Workspace._policy` with one-process steps of `alone` seconds
    until the fork and its warm-up, then with the seconds of `split_steps`;
    how many of those it took when it ended the split, or None."""
    pace = _PolicyProbe()._policy()
    next(pace)
    for _ in range(_WARM + _TIMED + _WARM):
        pace.send(alone)
    for n, seconds in enumerate(split_steps, 1):
        try:
            pace.send(seconds)
        except StopIteration:
            return n
    return None


def test_split_policy_keeps_a_split_that_one_stall_slows_and_ends_a_slow_one():
    # split steps at 0.7x a one-process step gain about 23 ms a window; one
    # 40 ms host stall puts the first window over as many steps alone
    alone = 300e-6
    stalled = [40e-3] + [0.7 * alone] * (8 * _WINDOW - 1)
    assert sum(stalled[:_WINDOW]) > _WINDOW * alone
    assert _split_ends_after(stalled, alone) is None
    # a competing busy process: split steps 1.5x slower than alone
    assert _split_ends_after([1.5 * alone] * (8 * _WINDOW), alone) <= 3 * _WINDOW


@needs_split
def test_only_large_2d_grids_may_split():
    # 3-D grids and 2-D grids below 2^14 points step alone
    box = (-1.0, 1.0)
    assert integrate._may_split(Grid((box,) * 2, (128, 128)))
    assert not integrate._may_split(Grid((box,) * 2, (128, 127)))
    assert not integrate._may_split(Grid((box,) * 3, (32, 32, 32)))
    assert not integrate._may_split(Grid.line(*box, 1 << 16))


@pytest.mark.parametrize("platform, missing", [
    ("darwin", ["sched_getaffinity", "sched_setaffinity"]),
    ("win32", ["uname", "fork", "sched_getaffinity", "sched_setaffinity"])])
def test_solve_runs_alone_where_the_split_cannot(split, monkeypatch, platform, missing):
    # os.fork, os.uname and os.sched_getaffinity are not everywhere; where
    # they are missing a 2-D solve steps in one process, as it always did
    prob = _split_problem((24, 16))
    cfg = StepConfig(sample_stride=3)
    want = _one_process(prob, cfg)
    monkeypatch.setattr(integrate.sys, "platform", platform)
    for name in missing:
        monkeypatch.delattr(os, name, raising=False)
    got = solve(prob, cfg)
    assert split.partners == [] and split.steps == []
    _assert_same_trace(got, want)


@needs_split
@pytest.mark.parametrize("cpus", [{0, 1}, {0, 1, 2}], ids=["two-cpus", "three-cpus"])
def test_split_pins_each_side_only_on_exactly_two_cpus(split, monkeypatch, tmp_path, cpus):
    # each side appends the CPU sets it pins itself to; the spy pins nothing
    log = tmp_path / "pinned"

    def pin(pid, to):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {sorted(to)}\n")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    monkeypatch.setattr(os, "sched_setaffinity", pin)
    prob = _split_problem((24, 16))
    cfg = StepConfig(sample_stride=3)
    _assert_same_trace(solve(prob, cfg), _one_process(prob, cfg))
    assert len(split.partners) == 1 and split.steps
    pinned = sorted(log.read_text().splitlines()) if log.exists() else []
    if len(cpus) == 2:
        me, partner = os.getpid(), split.partners[0]
        assert pinned == sorted([f"{me} [0]", f"{partner} [1]", f"{me} [0, 1]"])
    else:
        assert pinned == []
