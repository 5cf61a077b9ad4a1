import numpy as np
import pytest

from eseharnack import (ConstantIC, Field, GaussianIC, Grid, ProblemSpec,
                        RescaleSpec, StepConfig, TabulatedIC, initial_field,
                        ode_blowup_time, ode_oracle, rescale_field,
                        rescale_problem, rescale_trace, solve, step)
from eseharnack.cli import rescale_commutation_discrepancy
from eseharnack.errors import NonPositiveField, OutOfWindow

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


def test_solve_validates_f_cap_against_initial_data():
    with pytest.raises(ValueError):
        solve(constant_problem(level=2.0), StepConfig(f_cap=1.5))


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
