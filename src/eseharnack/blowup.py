"""Blowup threshold, blowup-time estimation, and Fujita-regime classification.

With the constants (alpha, beta, a) = (2, 1, 2n) and n(p-1) <= c < 2, the
Harnack inequality implies that any positive solution reaching

    f(x0, t0) >= (4n / (2-c))^{1/(p-1)}

at t0 = 1 grows monotonically at that point afterwards and blows up in finite
time.  The t0 = 1 normalization is realized here by parabolic rescaling of a
computed trace, not by re-solving from shifted time.  The `regime` label is
Fujita's classification on R^n (n(p-1) vs 2) only: on the harness's periodic
and reflecting boxes every positive solution blows up, in every regime, by
T_hi = m0^{1-p}/(p-1), m0 the weighted mean of f0 (trapezoid weights on a
reflecting grid).  So no run can observe global existence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InsufficientSamples, InvalidC, PastBlowup,
                     ThresholdNeverMet)
from .integrate import RescaleSpec, SolveTrace, rescale_trace


def classify_regime(n: int, p: float) -> str:
    """Fujita's regime on R^n: 'subcritical' (n(p-1) < 2), 'critical' (= 2), else
    'supercritical' (small data exist globally on R^n, never on a box)."""
    if p <= 1:
        raise ValueError("need p > 1")
    x = n * (p - 1.0)
    if math.isclose(x, 2.0, rel_tol=0.0, abs_tol=1e-12):
        return "critical"
    return "subcritical" if x < 2.0 else "supercritical"


def blowup_threshold(n: int, p: float, c: float) -> float:
    """(4n/(2-c))^{1/(p-1)}, defined for n(p-1) <= c < 2."""
    if not n * (p - 1.0) <= c < 2.0:
        raise InvalidC(f"need n(p-1) <= c < 2, got c={c} for n={n}, p={p}")
    try:
        return (4.0 * n / (2.0 - c)) ** (1.0 / (p - 1.0))
    except OverflowError:
        raise InvalidC(f"the threshold (4n/(2-c))^(1/(p-1)) overflows for c={c}, "
                       f"n={n}, p={p}") from None


# ---------------------------------------------------------------------------
# exact ODE oracle (spatially constant solutions)

def ode_blowup_time(f0: float, p: float) -> float:
    """T* = f0^{1-p} / (p-1), the exact blowup time of f' = f^p."""
    if f0 <= 0:
        raise ValueError("need f0 > 0")
    return f0 ** (1.0 - p) / (p - 1.0)


def ode_oracle(f0: float, p: float, t: float) -> float:
    """Exact solution (f0^{1-p} - (p-1) t)^{-1/(p-1)} of f' = f^p, f(0) = f0."""
    if f0 <= 0:
        raise ValueError("need f0 > 0")
    rest = f0 ** (1.0 - p) - (p - 1.0) * t
    if rest <= 0:
        raise PastBlowup(f"t={t} is at or beyond T*={ode_blowup_time(f0, p)}")
    return rest ** (-1.0 / (p - 1.0))


# ---------------------------------------------------------------------------
# blowup-time extrapolation

_K_TAIL = 8   # samples in the tail fit


def tail_fit(trace: SolveTrace, p: float) -> tuple[float, float]:
    """Linear fit of g(t) = (max_x f)^{1-p} on the last `_K_TAIL` samples of
    the trace; returns (root of the fit, normalized rms fit residual).

    For spatially constant data g is exactly linear with slope -(p-1), so the
    extrapolated root is the exact blowup time; the residual quantifies how
    far a spatially varying run is from that regime.
    """
    ts, ms = trace.max_curve()
    if len(ts) < 3:
        raise InsufficientSamples(f"need >= 3 samples, trace has {len(ts)}")
    k = min(_K_TAIL, len(ts))
    if k < 3:
        raise InsufficientSamples("tail shorter than 3 samples")
    t_tail = ts[-k:]
    g = ms[-k:] ** (1.0 - p)
    slope, intercept = np.polyfit(t_tail, g, 1)
    if slope >= 0:
        raise InsufficientSamples("tail fit slope is nonnegative; no root ahead")
    root = -intercept / slope
    fit = intercept + slope * t_tail
    quality = float(np.sqrt(np.mean((g - fit) ** 2)) / np.mean(np.abs(g)))
    return float(root), quality


def estimate_blowup_time(trace: SolveTrace, p: float) -> float:
    """Extrapolated blowup time for a trace that was declared blowup."""
    if trace.status.kind != "blowup":
        raise ValueError(f"trace status is {trace.status.kind!r}, not blowup")
    root, _ = tail_fit(trace, p)
    return root


# ---------------------------------------------------------------------------
# threshold scanning and monotone growth

def _argmax_at(trace: SolveTrace, i: int) -> tuple[tuple[float, ...], float]:
    """Grid point where sample i peaks, and the sample's time."""
    return trace.grid.point(int(np.argmax(trace.samples[i]))), float(trace.times[i])


def first_threshold_hit(trace: SolveTrace, threshold: float) -> tuple[tuple[float, ...], float]:
    """First sampled (x, t) with f(x, t) >= threshold; ThresholdNeverMet otherwise."""
    _, ms = trace.max_curve()
    hits = np.flatnonzero(ms >= threshold)
    if not hits.size:
        raise ThresholdNeverMet(f"no sample reaches {threshold}")
    return _argmax_at(trace, hits[0])


def center_monotonicity_check(trace: SolveTrace, threshold: float, t0: float) -> bool:
    """True iff max_x f is nondecreasing (to 1e-9 relative) over sampled t >= t0.

    Precondition: the (time-interpolated) field at t0 reaches the threshold.
    """
    f0 = trace.field_at(t0)
    if f0.max() < threshold:
        raise ThresholdNeverMet(
            f"max f(., t0={t0}) = {f0.max()} < threshold {threshold}")
    ts, ms = trace.max_curve()
    sel = ms[ts >= t0]
    if len(sel) < 2:
        return True
    return bool(np.all(sel[1:] >= sel[:-1] * (1.0 - 1e-9)))


def normalize_threshold_time(trace: SolveTrace, n: int, p: float, c: float
                             ) -> tuple[SolveTrace, float, tuple[tuple[float, ...], float]]:
    """Rescale a trace so the blowup threshold is met exactly at t~ = 1.

    Scans for the first sample with t * f^{p-1} >= 4n/(2-c) at some grid
    point (the scale-invariant form of the threshold condition), then applies
    lambda = t0^{-1/2}.  Returns (rescaled trace, lambda, (x0, t0)).
    """
    if not n * (p - 1.0) <= c < 2.0:
        raise InvalidC(f"need n(p-1) <= c < 2, got c={c}")
    target = 4.0 * n / (2.0 - c)
    ts, ms = trace.max_curve()
    hits = np.flatnonzero((ts > 0) & (ts * ms ** (p - 1.0) >= target))
    if not hits.size:
        raise ThresholdNeverMet(
            "no sample satisfies t * f^(p-1) >= 4n/(2-c); run longer or raise the data")
    x0, t = _argmax_at(trace, hits[0])
    lam = t ** -0.5
    return rescale_trace(trace, RescaleSpec(lam, p)), lam, (x0, t)


# ---------------------------------------------------------------------------
# report

@dataclass(frozen=True)
class BlowupReport:
    regime: str
    threshold_value: float | None
    threshold_met_at: tuple[tuple[float, ...], float] | None
    detected: bool
    t_estimate: float | None
    fit_residual: float | None
    method: str


def blowup_report(trace: SolveTrace, n: int, p: float, c: float | None = None) -> BlowupReport:
    """Assemble regime, threshold scan and (if detected) the extrapolated time."""
    regime = classify_regime(n, p)
    threshold = None
    met_at = None
    if c is not None:
        threshold = blowup_threshold(n, p, c)
        try:
            met_at = first_threshold_hit(trace, threshold)
        except ThresholdNeverMet:
            met_at = None
    detected = trace.status.kind == "blowup"
    t_est = None
    quality = None
    if detected:
        t_est, quality = tail_fit(trace, p)
    method = (f"tail fit of (max f)^(1-p) over last {_K_TAIL} samples; "
              f"detection criterion {trace.status.criterion or 'n/a'}")
    return BlowupReport(regime, threshold, met_at, detected, t_est, quality, method)
