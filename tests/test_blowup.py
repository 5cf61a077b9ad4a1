import numpy as np
import pytest

from eseharnack import (Field, Grid, SolveTrace, StepConfig, TraceStatus,
                        blowup_report, blowup_threshold,
                        center_monotonicity_check, classify_regime,
                        estimate_blowup_time, first_threshold_hit,
                        normalize_threshold_time, ode_blowup_time, ode_oracle,
                        solve, tail_fit)
from eseharnack.errors import (InsufficientSamples, InvalidC, PastBlowup,
                               ThresholdNeverMet)

from conftest import constant_problem, gaussian_problem


# ---------------------------------------------------------------------------
# threshold

def test_threshold_values():
    assert blowup_threshold(1, 2.0, 1.0) == pytest.approx(4.0)
    assert blowup_threshold(2, 1.5, 1.0) == pytest.approx(64.0)   # (8/1)^2


def test_threshold_pole_as_c_approaches_two():
    assert blowup_threshold(1, 2.0, 2.0 - 1e-12) > 1e12


def test_threshold_rejects_c_outside_range():
    with pytest.raises(InvalidC):
        blowup_threshold(1, 2.0, 2.0)
    with pytest.raises(InvalidC):
        blowup_threshold(1, 2.0, 0.5)
    with pytest.raises(InvalidC):
        blowup_threshold(3, 2.0, 1.0)   # n(p-1) = 3 leaves no valid c


# ---------------------------------------------------------------------------
# ODE oracle

def test_ode_oracle_values():
    assert ode_oracle(1.0, 2.0, 0.5) == pytest.approx(2.0)
    assert ode_oracle(1.0, 2.0, 0.0) == pytest.approx(1.0)
    assert ode_blowup_time(1.0, 2.0) == pytest.approx(1.0)
    assert ode_blowup_time(1.0, 3.0) == pytest.approx(0.5)
    assert ode_blowup_time(2.0, 2.0) == pytest.approx(0.5)


def test_ode_oracle_past_blowup():
    with pytest.raises(PastBlowup):
        ode_oracle(1.0, 2.0, 1.0)
    with pytest.raises(PastBlowup):
        ode_oracle(1.0, 2.0, 1.5)


# ---------------------------------------------------------------------------
# extrapolated estimate

def test_estimate_on_constant_data(const_run):
    assert estimate_blowup_time(const_run, 2.0) == pytest.approx(1.0, rel=1e-2)


def test_estimate_on_level_two_constant_data():
    tr = solve(constant_problem(level=2.0, t_end=2.0), StepConfig(sample_stride=1))
    assert estimate_blowup_time(tr, 2.0) == pytest.approx(0.5, rel=1e-2)


def test_estimate_requires_blowup_status(gauss128):
    with pytest.raises(ValueError):
        estimate_blowup_time(gauss128, 2.0)


def test_estimate_invariant_under_f_cap():
    ests = []
    for cap in (1e6, 1e8):
        tr = solve(constant_problem(t_end=2.0), StepConfig(f_cap=cap, sample_stride=1))
        ests.append(estimate_blowup_time(tr, 2.0))
    assert ests[0] == pytest.approx(ests[1], rel=1e-2)


def test_tail_fit_reports_quality(const_run):
    root, quality = tail_fit(const_run, 2.0)
    assert root == pytest.approx(1.0, rel=1e-2)
    assert quality < 1e-6      # (max f)^(1-p) is a line for constant data


def test_tail_fit_insufficient_samples():
    g = Grid.line(0.0, 1.0, 16)
    f = Field.constant(g, 1.0)
    tr = SolveTrace(g, 2.0, np.array([0.0, 0.1]), np.stack([f.values, f.values]),
                    TraceStatus.blowup(0.1, "f_cap"), np.array([0.1]))
    with pytest.raises(InsufficientSamples):
        tail_fit(tr, 2.0)


# ---------------------------------------------------------------------------
# center monotonicity and the t0 = 1 normalization

def test_center_monotonicity_on_constant_growth(const_run):
    assert center_monotonicity_check(const_run, threshold=1.0, t0=const_run.times[1])


def test_center_monotonicity_threshold_never_met(gauss128):
    with pytest.raises(ThresholdNeverMet):
        center_monotonicity_check(gauss128, threshold=50.0, t0=0.1)


@pytest.fixture(scope="module")
def peak5_run():
    prob = gaussian_problem(256, t_end=2.0, box=(-8.0, 8.0), width=1.0,
                            amplitude=5.0, boundary="periodic")
    return solve(prob, StepConfig(sample_stride=2, f_cap=1e6))


def test_peak5_blows_up_and_grows_from_threshold(peak5_run):
    assert peak5_run.status.kind == "blowup"
    x0, t0 = first_threshold_hit(peak5_run, blowup_threshold(1, 2.0, 1.0))
    assert t0 == 0.0            # peak 5 exceeds threshold 4 from the start
    assert x0 == (0.0,)


def test_threshold_scans_match_per_sample_loop(peak5_run, const_run):
    def loop_hit(trace, hit):
        for t, values in zip(trace.times, trace.samples):
            if hit(t, values.max()):
                i = np.unravel_index(int(np.argmax(values)), trace.grid.extents)
                return tuple(float(ax[j]) for ax, j in zip(trace.grid.axes(), i)), t
        return None

    for trace in (peak5_run, const_run):
        for tau in (1.5, 4.0, 20.0):
            assert first_threshold_hit(trace, tau) == loop_hit(trace, lambda t, m: m >= tau)
        _, _, met = normalize_threshold_time(trace, 1, 2.0, 1.0)
        assert met == loop_hit(trace, lambda t, m: t > 0 and t * m ** 1.0 >= 4.0)


def test_normalization_puts_threshold_at_unit_time(peak5_run):
    resc, lam, (x0, t0) = normalize_threshold_time(peak5_run, 1, 2.0, 1.0)
    assert lam == pytest.approx(t0 ** -0.5)
    # the rescaled field at t~ = 1 meets the threshold at the marked point
    f1 = resc.field_at(1.0)
    tau = blowup_threshold(1, 2.0, 1.0)
    assert f1.max() >= tau * (1 - 1e-6)
    assert center_monotonicity_check(resc, tau, 1.0)
    assert resc.status.kind == "blowup"


def test_normalization_requires_threshold(gauss128):
    with pytest.raises(ThresholdNeverMet):
        normalize_threshold_time(gauss128, 1, 2.0, 1.0)


def test_blowup_time_rescaling_consistency(peak5_run):
    # lambda-rescaled trace must extrapolate to lambda^2 times the estimate
    from eseharnack import RescaleSpec, rescale_trace
    est = estimate_blowup_time(peak5_run, 2.0)
    scaled = rescale_trace(peak5_run, RescaleSpec(3.0, 2.0))
    est_scaled = estimate_blowup_time(scaled, 2.0)
    assert est_scaled == pytest.approx(9.0 * est, rel=2e-2)


# ---------------------------------------------------------------------------
# regime classification and the report

def test_classify_regime():
    assert classify_regime(1, 2.0) == "subcritical"
    assert classify_regime(2, 2.0) == "critical"
    assert classify_regime(3, 2.0) == "supercritical"
    assert classify_regime(1, 1.5) == "subcritical"
    with pytest.raises(ValueError):
        classify_regime(1, 1.0)


def test_blowup_report_on_detected_run(peak5_run):
    rep = blowup_report(peak5_run, 1, 2.0, c=1.0)
    assert rep.regime == "subcritical"
    assert rep.threshold_value == pytest.approx(4.0)
    assert rep.threshold_met_at is not None
    assert rep.detected
    assert rep.t_estimate is not None
    assert rep.t_estimate > 0
    assert rep.fit_residual is not None


def test_blowup_report_without_detection(gauss128):
    rep = blowup_report(gauss128, 1, 2.0, c=1.0)
    assert not rep.detected
    assert rep.t_estimate is None
    assert rep.threshold_met_at is None
