import tracemalloc

import numpy as np
import pytest

from eseharnack import (ConstantIC, Field, GaussianIC, Grid, ProblemSpec,
                        RescaleSpec, StepConfig, TabulatedIC, initial_field,
                        ode_blowup_time, ode_oracle, rescale_field,
                        rescale_problem, rescale_trace, solve, step)
from eseharnack.cli import rescale_commutation_discrepancy
from eseharnack.errors import NonPositiveField, OutOfWindow
from eseharnack.integrate import (TraceStatus, _capacity, _Workspace,
                                  initial_field, stable_dt)

from conftest import constant_problem, gaussian_problem


# ---------------------------------------------------------------------------
# single step

def test_step_matches_ode_on_constant_data():
    # spatially constant data reduces to f' = f^p; RK4 local error is O(dt^5)
    g = Grid.line(0.0, 1.0, 16)
    f = Field.constant(g, 1.0)
    dt = 1e-4
    out = step(f, 0.0, dt, 2.0)
    exact = ode_oracle(1.0, 2.0, dt)
    assert np.allclose(out.values, exact, atol=5 * dt ** 5)


def test_zero_step_is_identity():
    g = Grid.line(0.0, 1.0, 16)
    f = Field.constant(g, 1.0)
    assert step(f, 0.0, 0.0, 2.0) is f


def test_reaction_slows_the_maximum_decay():
    # one step on Gaussian data: the source term keeps the peak higher than
    # the pure-heat step on the same data
    prob = gaussian_problem(128, t_end=0.1)
    f = initial_field(prob)
    dt = 1e-4
    with_reaction = step(f, 0.0, dt, 2.0, reaction=True)
    heat_only = step(f, 0.0, dt, 2.0, reaction=False)
    assert with_reaction.max() > heat_only.max()
    assert with_reaction.max() < f.max()      # diffusion still wins at width 0.2


def test_step_rejects_positivity_loss():
    g = Grid.line(0.0, 1.0, 16, "reflecting")
    vals = np.full(16, 1e-9)
    vals[8] = 1.0                              # sharp spike, huge negative lap
    f = Field(g, vals)
    with pytest.raises(NonPositiveField):
        step(f, 0.0, 1.0, 2.0)


def test_step_rejects_negative_dt():
    g = Grid.line(0.0, 1.0, 16)
    with pytest.raises(ValueError):
        step(Field.constant(g, 1.0), 0.0, -1e-3, 2.0)


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
        prob = ProblemSpec(Grid.line(0.0, 100.0, n), 2.0, ConstantIC(1.0), 2.0)
        tr = solve(prob, StepConfig(reaction_safety=rs, sample_stride=1))
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
        g = hi.field_at(t)
        assert np.all(g.values >= f * (1 - 1e-9))


def test_dt_floor_declares_blowup_only_while_rising():
    # growing run: the reaction cap dives below dt_min long before f_cap
    prob = constant_problem(t_end=2.0)
    tr = solve(prob, StepConfig(dt_min=1e-3, f_cap=1e30, sample_stride=1))
    assert tr.status.kind == "blowup"
    assert tr.status.criterion == "dt_floor"
    # shrinking run: same floor without growth is an abort, not blowup
    heat = ProblemSpec(Grid.line(0.0, 1.0, 64), 2.0, ConstantIC(1.0), 1.0,
                       reaction=False)
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
    """The solve loop as it stood with a list of sample copies stacked at the
    end; it steps through `_Workspace.rk4`, which binds on the spot."""
    f0 = initial_field(prob)
    fmax = f0.max()
    grid = prob.grid
    ws = _Workspace(grid, prob.p, prob.reaction)
    y = np.array(f0.values)
    y_next = np.empty(grid.extents)
    t = 0.0
    times = [t]
    samples = [f0.values]
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
            ws.rk4(y, dt, y_next)
        except NonPositiveField as exc:
            status = TraceStatus.aborted(str(exc), t)
            break
        prev_max = fmax
        y, y_next = y_next, y
        t += dt
        accepted += 1
        step_log.append(dt)
        if accepted % cfg.sample_stride == 0:
            times.append(t)
            samples.append(y.copy())
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
    f0 = initial_field(prob)
    first = _capacity(prob.t_end, stable_dt(prob.grid, prob.p, f0.max(), cfg),
                      cfg.sample_stride, f0.values.nbytes)
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
        ProblemSpec(g, 1.0, ConstantIC(1.0), 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(g, 2.0, ConstantIC(1.0), 0.0)
    with pytest.raises(NonPositiveField):
        ProblemSpec(g, 2.0, ConstantIC(-1.0), 1.0)
    bad = np.ones(16)
    bad[5] = -1.0
    with pytest.raises(NonPositiveField):
        initial_field(ProblemSpec(g, 2.0, TabulatedIC(bad), 1.0))


# ---------------------------------------------------------------------------
# trace interpolation

def test_field_at_interpolates_linearly(gauss128):
    ts = gauss128.times
    t_mid = 0.5 * (ts[3] + ts[4])
    expected = 0.5 * (gauss128.samples[3] + gauss128.samples[4])
    assert np.allclose(gauss128.field_at(t_mid).values, expected, rtol=1e-12)
    assert np.array_equal(gauss128.field_at(ts[3]).values, gauss128.samples[3])


def test_field_at_out_of_window(gauss128):
    with pytest.raises(OutOfWindow):
        gauss128.field_at(gauss128.t_final + 1.0)


# ---------------------------------------------------------------------------
# parabolic rescaling

def test_rescale_identity():
    g = Grid.line(-1.0, 1.0, 16)
    f = Field.constant(g, 3.0)
    out, t = rescale_field(f, 0.7, RescaleSpec(1.0, 2.0))
    assert t == 0.7
    assert out.grid == g
    assert np.all(out.values == f.values)


def test_rescale_direct_formula():
    # p = 2 so delta = -2; lambda = 2 quarters the values and doubles the box
    g = Grid.line(-1.0, 1.0, 16)
    f = Field.constant(g, 4.0)
    out, t = rescale_field(f, 0.25, RescaleSpec(2.0, 2.0))
    assert t == 1.0
    assert np.all(out.values == 1.0)
    assert out.grid.box == ((-2.0, 2.0),)


def test_rescale_spec_validation():
    with pytest.raises(ValueError):
        RescaleSpec(0.0, 2.0)
    with pytest.raises(ValueError):
        RescaleSpec(1.0, 1.0)
    assert RescaleSpec(2.0, 2.0).delta == -2.0
    assert RescaleSpec(2.0, 3.0).delta == -1.0


def test_solve_commutes_with_rescaling():
    prob = gaussian_problem(128, t_end=0.5)
    cfg = StepConfig(sample_stride=4)
    disc = rescale_commutation_discrepancy(solve(prob, cfg), prob, cfg,
                                           RescaleSpec(2.0, 2.0))
    assert disc <= 1e-3


def test_rescale_trace_scales_status_and_steps(const_run):
    spec = RescaleSpec(2.0, 2.0)
    out = rescale_trace(const_run, spec)
    assert out.status.t_detect == pytest.approx(4.0 * const_run.status.t_detect)
    assert np.allclose(out.step_log, 4.0 * const_run.step_log)
    assert out.times[0] == 4.0 * const_run.times[0]
    assert np.allclose(out.samples[0], 0.25 * const_run.samples[0])


def test_rescaled_problem_blowup_time_scales():
    cfg = StepConfig(sample_stride=1)
    base = solve(constant_problem(t_end=10.0), cfg)
    scaled = solve(rescale_problem(constant_problem(t_end=10.0), RescaleSpec(2.0, 2.0)), cfg)
    assert scaled.status.t_detect == pytest.approx(4.0 * base.status.t_detect, rel=2e-2)
