import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from eseharnack import (Grid, SolveTrace, StepConfig, TraceStatus,
                        blowup_report, blowup_threshold,
                        center_monotonicity_check, classify_regime, grows_from,
                        normalize_threshold_time, ode_blowup_time, ode_oracle,
                        solve, tail_fit, threshold_hit)
from eseharnack.cli import load_config
from eseharnack.errors import (InsufficientSamples, InvalidC, PastBlowup,
                               ThresholdNeverMet)

from conftest import constant_problem, field_at, gaussian_problem


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


def test_threshold_that_overflows_is_refused_by_name():
    # (4/0.01)^1000 used to raise a bare OverflowError, so verify exited 4
    with pytest.raises(InvalidC, match=r"overflows for c=1.99, n=1, p=1.001"):
        blowup_threshold(1, 1.001, 1.99)


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
    assert blowup_report(const_run, 1, 2.0).t_estimate == pytest.approx(1.0, rel=1e-2)


def test_estimate_on_level_two_constant_data():
    tr = solve(constant_problem(level=2.0, t_end=2.0), StepConfig(sample_stride=1))
    assert blowup_report(tr, 1, 2.0).t_estimate == pytest.approx(0.5, rel=1e-2)


def test_estimate_requires_blowup_status(gauss128):
    # the tail fit of a run that reached t_end is not reported as a blowup time
    assert gauss128.status.kind == "reached_t_end"
    assert blowup_report(gauss128, 1, 2.0).t_estimate is None


def test_estimate_invariant_under_f_cap():
    ests = []
    for cap in (1e6, 1e8):
        tr = solve(constant_problem(t_end=2.0), StepConfig(f_cap=cap, sample_stride=1))
        ests.append(blowup_report(tr, 1, 2.0).t_estimate)
    assert ests[0] == pytest.approx(ests[1], rel=1e-2)


def test_tail_fit_reports_quality(const_run):
    root, quality = tail_fit(const_run, 2.0)
    assert root == pytest.approx(1.0, rel=1e-2)
    assert quality < 1e-6      # (max f)^(1-p) is a line for constant data


def test_tail_fit_insufficient_samples():
    g = Grid.line(0.0, 1.0, 16)
    tr = SolveTrace(g, 2.0, np.array([0.0, 0.1]), np.ones((2, *g.extents)),
                    TraceStatus.blowup(0.1, "f_cap"), np.array([0.1]))
    with pytest.raises(InsufficientSamples):
        tail_fit(tr, 2.0)


@pytest.mark.parametrize("times, levels, why", [
    ([0.0, 0.1], [1.0, 2.0], "need >= 3 samples"),
    ([0.0, 0.1, 0.2], [1.0, 1.0, 1.0], "slope is nonnegative"),
    # a tail a few float spacings of t long
    ([0.5, 0.5 + 2 ** -53, 0.5 + 2 ** -52], [1e3, 1e4, 1e5], "rank-deficient"),
], ids=["two-samples", "flat", "rank-deficient"])
def test_blowup_report_without_a_usable_fit_has_no_estimate(times, levels, why):
    g = Grid.line(0.0, 1.0, 16)
    samples = np.stack([np.full(g.extents, v) for v in levels])
    tr = SolveTrace(g, 2.0, np.array(times), samples,
                    TraceStatus.blowup(times[-1], "dt_floor"), np.diff(times))
    with pytest.raises(InsufficientSamples, match=why):
        tail_fit(tr, 2.0)
    rep = blowup_report(tr, 1, 2.0)
    assert rep.detected and rep.t_estimate is None and rep.fit_residual is None


# ---------------------------------------------------------------------------
# center monotonicity and the t0 = 1 normalization

def test_center_monotonicity_on_constant_growth(const_run):
    assert center_monotonicity_check(const_run, threshold=1.0, t0=const_run.times[1])


def test_center_monotonicity_threshold_never_met(gauss128):
    # t0 = 0.1 lies between two samples; the message names the peak of the
    # field interpolated in time there
    assert 0.1 not in gauss128.times
    peak = float(field_at(gauss128, 0.1).max())
    with pytest.raises(ThresholdNeverMet, match=re.escape(f"= {peak} < threshold 50.0")):
        center_monotonicity_check(gauss128, threshold=50.0, t0=0.1)


@pytest.fixture(scope="module")
def peak5_run():
    prob = gaussian_problem(256, t_end=2.0, box=(-8.0, 8.0), width=1.0,
                            amplitude=5.0, boundary="periodic")
    return solve(prob, StepConfig(sample_stride=2, f_cap=1e6))


def test_peak5_blows_up_and_grows_from_threshold(peak5_run):
    # the peak 5 exceeds the t = 1 threshold 4 from the start, but at t = 0
    # the hypothesis t * f >= 4 does not hold; it first holds at t0 = 0.1846
    assert peak5_run.status.kind == "blowup"
    x0, t0 = threshold_hit(peak5_run, 1, 2.0, 1.0)
    assert t0 == pytest.approx(0.1845703125)
    assert x0 == (0.0,)
    i = int(np.searchsorted(peak5_run.times, t0))
    assert peak5_run.times[i] == t0
    peaks = peak5_run.samples.max(axis=1)
    assert peak5_run.times[i - 1] * peaks[i - 1] < 4.0 <= t0 * peaks[i]
    assert grows_from(peak5_run, t0)


def test_threshold_scans_match_per_sample_loop(peak5_run, const_run, gauss128):
    # the report and the t0 = 1 normalization take the one scan's sample
    def loop_hit(trace, target):
        for t, values in zip(trace.times, trace.samples):
            if t > 0 and t * values.max() >= target:
                i = np.unravel_index(int(np.argmax(values)), trace.grid.extents)
                return tuple(float(ax[j]) for ax, j in zip(trace.grid.axes(), i)), t
        return None

    found = []
    for trace in (peak5_run, const_run, gauss128):
        for c in (1.0, 1.5, 1.9, 1.999):
            met = loop_hit(trace, 4.0 / (2.0 - c))
            found.append(met is not None)
            assert threshold_hit(trace, 1, 2.0, c) == met
            assert blowup_report(trace, 1, 2.0, c).threshold_met_at == met
            if met is None:
                with pytest.raises(ThresholdNeverMet):
                    normalize_threshold_time(trace, 1, 2.0, c)
            else:
                assert normalize_threshold_time(trace, 1, 2.0, c)[2] == met
    assert any(found) and not all(found)


def test_threshold_hit_where_the_peak_power_overflows():
    # (1e300)^1.5 is past the float range: that sample meets any threshold
    g = Grid.line(0.0, 1.0, 16)
    samples = np.stack([np.full(g.extents, v) for v in (1.0, 2.0, 1e300)])
    tr = SolveTrace(g, 2.5, np.array([0.0, 0.1, 0.2]), samples,
                    TraceStatus.blowup(0.2, "f_cap"), np.full(2, 0.1))
    assert threshold_hit(tr, 1, 2.5, 1.6) == ((0.0,), 0.2)


def test_normalization_puts_threshold_at_unit_time(peak5_run):
    resc, lam, (x0, t0) = normalize_threshold_time(peak5_run, 1, 2.0, 1.0)
    assert lam == pytest.approx(t0 ** -0.5)
    # the rescaled field at t~ = 1 meets the threshold at the marked point
    f1 = field_at(resc, 1.0)
    tau = blowup_threshold(1, 2.0, 1.0)
    assert f1.max() >= tau * (1 - 1e-6)
    assert center_monotonicity_check(resc, tau, 1.0)
    assert resc.status.kind == "blowup"


@pytest.mark.parametrize("c", [0.5, 2.0, 3.0])
def test_threshold_scan_rejects_c_outside_range(peak5_run, c):
    # c = 2 divided by zero, and c > 2 made every positive sample a hit
    for scan in (threshold_hit, normalize_threshold_time):
        with pytest.raises(InvalidC, match=re.escape(f"need n(p-1) <= c < 2, got c={c}")):
            scan(peak5_run, 1, 2.0, c)


def test_normalization_requires_threshold(gauss128):
    with pytest.raises(ThresholdNeverMet):
        normalize_threshold_time(gauss128, 1, 2.0, 1.0)


def test_blowup_time_rescaling_consistency(peak5_run):
    # lambda-rescaled trace must extrapolate to lambda^2 times the estimate
    from eseharnack import RescaleSpec, rescale_trace
    est, _ = tail_fit(peak5_run, 2.0)
    scaled = rescale_trace(peak5_run, RescaleSpec(3.0, 2.0))
    est_scaled, _ = tail_fit(scaled, 2.0)
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


CONST_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "constant_blowup.ini"


@pytest.mark.parametrize("name", ["amplitude-10", "constant-blowup"])
def test_a_streamed_trace_gives_the_kept_traces_blowup_report(name):
    # the trace of a solve whose samples went to a sink holds none, yet its
    # report must be the kept one's, float for float
    if name == "amplitude-10":   # verify's CI config: it meets the threshold
        prob, step, c = gaussian_problem(128, t_end=5.0, amplitude=10.0), StepConfig(), 1.5
    else:                        # reaction-capped; no c, so the tail fit alone
        rc = load_config(CONST_CONFIG)
        prob, step, c = rc.problem, rc.step, rc.blowup_c
    dropped = SimpleNamespace(add=lambda t, values: None, close=lambda: None)
    streamed, kept = solve(prob, step, dropped), solve(prob, step)
    assert streamed.samples.shape == (0, *prob.grid.extents)
    assert len(streamed.times) == len(kept.samples)
    want = blowup_report(kept, prob.n, prob.p, c)
    assert want.detected and want.t_estimate is not None
    assert blowup_report(streamed, prob.n, prob.p, c) == want
    if name == "amplitude-10":
        assert len(kept.times) == 285
        assert want.threshold_met_at[0] == pytest.approx((0.0315,), abs=1e-4)
