"""Blowup threshold, blowup-time estimation, and Fujita-regime classification.

With the constants (alpha, beta, a) = (2, 1, 2n) and n(p-1) <= c < 2, the
Harnack inequality implies that any positive solution reaching

    f(x0, t0) >= (4n / (2-c))^{1/(p-1)}

at t0 = 1 grows monotonically at that point afterwards and blows up in finite
time.  Parabolic rescaling moves any time t0 > 0 to 1, so at t0 the hypothesis
reads t0 * f(x0, t0)^{p-1} >= 4n/(2-c): `threshold_hit` finds the first sample
that meets it, `blowup_report` reports that sample beside the t0 = 1 threshold
above, and `normalize_threshold_time` rescales the trace (it does not
re-solve) so that the sample falls at t~ = 1.  The `regime` label is
Fujita's classification on R^n (n(p-1) vs 2) only: on the harness's periodic
and reflecting boxes every positive solution blows up, in every regime, by
T_hi = m0^{1-p}/(p-1), m0 the weighted mean of f0 (trapezoid weights on a
reflecting grid).  So no run can observe global existence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import blowup_c_valid
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
    if not blowup_c_valid(n, p, c):
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
    far a spatially varying run is from that regime.  InsufficientSamples if
    the fit has no use: under 3 samples, a rank-deficient fit or no root ahead.
    """
    ts, ms = trace.max_curve()
    if len(ts) < 3:
        raise InsufficientSamples(f"need >= 3 samples, trace has {len(ts)}")
    t_tail = ts[-_K_TAIL:]
    g = ms[-_K_TAIL:] ** (1.0 - p)
    # full=True returns the rank in place of warning (a tail spanning a few
    # float spacings of t is rank-deficient)
    (slope, intercept), _, rank, _, _ = np.polyfit(t_tail, g, 1, full=True)
    if rank < 2:
        raise InsufficientSamples("tail fit is rank-deficient")
    if slope >= 0:
        raise InsufficientSamples("tail fit slope is nonnegative; no root ahead")
    root = -intercept / slope
    fit = intercept + slope * t_tail
    quality = float(np.sqrt(np.mean((g - fit) ** 2)) / np.mean(np.abs(g)))
    return float(root), quality


# ---------------------------------------------------------------------------
# threshold scanning and monotone growth

def threshold_hit(trace: SolveTrace, n: int, p: float, c: float
                  ) -> tuple[tuple[float, ...], float] | None:
    """First sampled (x, t) with t > 0 and t * f(x, t)^{p-1} >= 4n/(2-c), x
    where that sample peaks; None if no sample meets it."""
    if not blowup_c_valid(n, p, c):
        raise InvalidC(f"need n(p-1) <= c < 2, got c={c}")
    ts, ms = trace.max_curve()
    # a peak whose (p-1)th power overflows meets the threshold as inf does
    with np.errstate(over="ignore", invalid="ignore"):
        hits = np.flatnonzero((ts > 0) & (ts * ms ** (p - 1.0) >= 4.0 * n / (2.0 - c)))
    if not hits.size:
        return None
    return trace.peak(int(hits[0])), float(ts[hits[0]])


def grows_from(trace: SolveTrace, t0: float) -> bool:
    """True iff max_x f is nondecreasing (to 1e-9 relative) over sampled t >= t0."""
    ts, ms = trace.max_curve()
    sel = ms[ts >= t0]
    return bool(np.all(sel[1:] >= sel[:-1] * (1.0 - 1e-9)))


def center_monotonicity_check(trace: SolveTrace, threshold: float, t0: float) -> bool:
    """`grows_from`, once the field at t0 (interpolated in time) reaches the
    threshold; ThresholdNeverMet if it does not."""
    (below,), (above,), (w,) = trace.bracket([t0])
    peak = float(((1.0 - w) * trace.samples[below] + w * trace.samples[above]).max())
    if peak < threshold:
        raise ThresholdNeverMet(f"max f(., t0={t0}) = {peak} < threshold {threshold}")
    return grows_from(trace, t0)


def normalize_threshold_time(trace: SolveTrace, n: int, p: float, c: float
                             ) -> tuple[SolveTrace, float, tuple[tuple[float, ...], float]]:
    """Rescale a trace so the blowup threshold is met exactly at t~ = 1.

    Takes the sample `threshold_hit` finds, at t0, and applies
    lambda = t0^{-1/2}.  Returns (rescaled trace, lambda, (x0, t0)).
    """
    hit = threshold_hit(trace, n, p, c)
    if hit is None:
        raise ThresholdNeverMet(
            "no sample satisfies t * f^(p-1) >= 4n/(2-c); run longer or raise the data")
    lam = hit[1] ** -0.5
    return rescale_trace(trace, RescaleSpec(lam, p)), lam, hit


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
    """Regime, the t0 = 1 threshold and `threshold_hit` for a given c, and,
    if detected, the extrapolated time (None where the tail fit has no use).
    The scans read the trace's max curve, so a trace whose samples went to
    a sink gives the report its kept samples would."""
    regime = classify_regime(n, p)
    threshold = None if c is None else blowup_threshold(n, p, c)
    met_at = None if c is None else threshold_hit(trace, n, p, c)
    detected = trace.status.kind == "blowup"
    t_est = None
    quality = None
    if detected:
        try:
            t_est, quality = tail_fit(trace, p)
        except InsufficientSamples:
            pass
    method = (f"tail fit of (max f)^(1-p) over last {_K_TAIL} samples; "
              f"detection criterion {trace.status.criterion or 'n/a'}")
    return BlowupReport(regime, threshold, met_at, detected, t_est, quality, method)
