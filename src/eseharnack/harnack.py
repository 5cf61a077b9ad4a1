"""The Harnack quantity H0, its localized variant, and the evolution identity.

For a positive solution f of f_t = lap(f) + f^p and u = log f, the quantity

    H0 = alpha*lap(u) + beta*|grad u|^2 + c*exp(u(p-1)) + a/t

is nonnegative for all t > 0 whenever (alpha, beta, c, a) is admissible
(see `constants`).  This module evaluates H0 on solver traces, the localized
H_R where a/t is replaced by a cutoff phi_R that blows up at the walls of a
rectangle, and the residual of the exact evolution identity

    H_t = lap(H) + 2 grad(H).grad(u) + (p-1) e^{u(p-1)} H
          + 2(alpha-beta) |hess u|^2
          + (alpha(p-1) + beta - c p)(p-1) e^{u(p-1)} |grad u|^2
          - (p-1) e^{u(p-1)} phi + phi_t - lap(phi) - 2 grad(phi).grad(u)

with phi = a/t (so phi_t = -a/t^2 and the space derivatives of phi vanish).
The identity holds exactly in the continuum; the residual reported here is
pure discretization error and must shrink under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HarnackConstants, a_lower
from .errors import BetaZero, NonPositiveTime, WindowTooSmall
# log_field is not called here, but bench/tracing.py times it as
# eseharnack.harnack.log_field
from .field import (Field, Grid, grad_sq_nd, gradient_nd, hessian_sq_nd,  # noqa: F401
                    laplacian_nd, log_field)
from .integrate import SolveTrace


def _solution_part(u: np.ndarray, grid: Grid, k: HarnackConstants,
                   p: float) -> np.ndarray:
    """alpha*lap(u) + beta*|grad u|^2 + c*exp(u(p-1)): H without its time
    (a/t) or cutoff (phi_R) term."""
    return (k.alpha * laplacian_nd(u, grid)
            + k.beta * grad_sq_nd(u, grid)
            + k.c * np.exp(u * (p - 1.0)))


def window_indices(times: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Indices of the samples with lo <= t <= hi; for the increasing times of
    a trace they form one contiguous run."""
    lo, hi = window
    return np.flatnonzero((lo <= times) & (times <= hi))


def harnack_h0(u: Field, t: float, k: HarnackConstants, p: float) -> Field:
    """Pointwise H0 for u = log f at time t > 0."""
    if t <= 0:
        raise NonPositiveTime(f"H0 needs t > 0, got {t}")
    return Field(u.grid, _solution_part(u.values, u.grid, k, p) + k.a / t)


# ---------------------------------------------------------------------------
# localizer

@dataclass(frozen=True)
class LocalizerSpec:
    """Cutoff phi_R(x, t) = a/t + sum_k [ b/(x_k - lo_k)^2 + b/(hi_k - x_k)^2 ]
    on the open rectangle, extended by +inf outside."""

    rect: tuple[tuple[float, float], ...]
    a: float
    b: float

    def __post_init__(self):
        if any(hi <= lo for lo, hi in self.rect):
            raise ValueError("localizer rectangle needs hi > lo on every axis")
        if self.a <= 0 or self.b <= 0:
            raise ValueError("localizer needs a > 0 and b > 0")

    @property
    def dim(self) -> int:
        return len(self.rect)


def localizer_min_b(n: int, k: HarnackConstants) -> float:
    """Lower bound on the pole strength b that makes the cutoff argument work:

        b > (n alpha^2 / (2 (alpha-beta))) * (6 + n alpha^2 / ((alpha-beta) beta)).

    Diverges as beta -> 0, so the localized check needs beta > 0.
    """
    if k.beta == 0:
        raise BetaZero("localizer bound diverges at beta = 0")
    d = k.alpha - k.beta
    if d <= 0:
        raise ValueError("need alpha > beta")
    lead = n * k.alpha ** 2 / (2.0 * d)
    return lead * (6.0 + n * k.alpha ** 2 / (d * k.beta))


def make_localizer(rect, n: int, k: HarnackConstants, a: float | None = None,
                   b: float | None = None, b_margin: float = 1.05) -> LocalizerSpec:
    """LocalizerSpec with a and b validated (or chosen) against the constants."""
    b_min = localizer_min_b(n, k)
    a_min = a_lower(n, k.alpha, k.beta)
    if b is None:
        b = b_margin * b_min
    elif b <= b_min:
        raise ValueError(f"need b > {b_min}, got {b}")
    if a is None:
        a = k.a if k.a >= a_min else a_min
    elif a < a_min:
        raise ValueError(f"need a >= {a_min}, got {a}")
    return LocalizerSpec(tuple((float(lo), float(hi)) for lo, hi in rect), a, b)


def phi_r(x, t: float, loc: LocalizerSpec) -> float:
    """Cutoff value at a point; +inf on and outside the rectangle walls."""
    if t <= 0:
        raise NonPositiveTime(f"phi_R needs t > 0, got {t}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (loc.dim,):
        raise ValueError(f"point must have {loc.dim} coordinates")
    total = loc.a / t
    for xk, (lo, hi) in zip(x, loc.rect):
        if not lo < xk < hi:
            return math.inf
        total += loc.b / (xk - lo) ** 2 + loc.b / (hi - xk) ** 2
    return total


def cutoff_parts(grid: Grid, loc: LocalizerSpec) -> tuple[list[np.ndarray], np.ndarray]:
    """The time-independent parts of phi_R on a grid: per axis the pole term
    b/(x_k - lo_k)^2 + b/(hi_k - x_k)^2 (0 off the open interval), shaped to
    broadcast along that axis, and the mask of points outside the open
    rectangle."""
    inside = np.ones(grid.extents, dtype=bool)
    poles = []
    for k, xk in enumerate(grid.axes()):
        xk = xk.reshape((1,) * k + (-1,) + (1,) * (grid.dim - k - 1))
        lo, hi = loc.rect[k]
        ok = (xk > lo) & (xk < hi)
        inside &= ok
        with np.errstate(divide="ignore", invalid="ignore"):
            poles.append(np.where(ok, loc.b / (xk - lo) ** 2 + loc.b / (hi - xk) ** 2, 0.0))
    return poles, ~inside


def _phi_r_grid(grid: Grid, t: float, loc: LocalizerSpec,
                parts: tuple[list[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
    """phi_R sampled on a grid, +inf outside the open rectangle: a/t plus the
    pole terms of `parts` (cutoff_parts(grid, loc)) in axis order."""
    poles, outside = cutoff_parts(grid, loc) if parts is None else parts
    out = np.full(grid.extents, loc.a / t)
    for pole in poles:
        out += pole
    out[outside] = math.inf
    return out


def harnack_hr(u: Field, t: float, k: HarnackConstants, p: float,
               loc: LocalizerSpec,
               parts: tuple[list[np.ndarray], np.ndarray] | None = None) -> Field:
    """H0 with a/t replaced by phi_R; +inf outside the rectangle.

    Requires beta > 0: the admissible-b bound diverges at beta = 0 and the
    localized statement is unavailable there.  A caller evaluating many
    samples on one grid passes `parts = cutoff_parts(u.grid, loc)`, built
    once.
    """
    if k.beta == 0:
        raise BetaZero("localized Harnack quantity needs beta > 0")
    if t <= 0:
        raise NonPositiveTime(f"H_R needs t > 0, got {t}")
    g = u.grid
    return Field(g, _solution_part(u.values, g, k, p) + _phi_r_grid(g, t, loc, parts))


# ---------------------------------------------------------------------------
# evolution identity residual

@dataclass(frozen=True)
class ResidualStats:
    max_abs: float
    mean_abs: float
    normalizer: float   # max |H_t| over the window
    n_times: int

    @property
    def max_rel(self) -> float:
        return self.max_abs / self.normalizer

    @property
    def mean_rel(self) -> float:
        return self.mean_abs / self.normalizer


def _dt_nonuniform(fm, f0, fp, tm, t0, tp) -> np.ndarray:
    """Second-order 3-point derivative at t0 for unevenly spaced samples."""
    hm = t0 - tm
    hp = tp - t0
    return (hm / hp * (fp - f0) + hp / hm * (f0 - fm)) / (hm + hp)


def evolution_residual(trace: SolveTrace, k: HarnackConstants, p: float,
                       t_window: tuple[float, float]) -> ResidualStats:
    """Residual of the evolution identity over a time window of a trace.

    H is evaluated with phi = a/t on every needed sample.  Time derivatives
    use the nonuniform 3-point stencil on the sampled times, applied to the
    solution-dependent part of H only; the a/t contribution enters as the
    exact -a/t^2 (differencing a known closed form would only add quadrature
    noise).  Spatial terms use the central stencils.  Values are normalized
    by max |H_t| over the window.

    The centres are walked in order, holding the solution part of H at the
    previous, current and next sample only.
    """
    lo, hi = t_window
    if hi <= lo:
        raise WindowTooSmall("empty time window")
    g = trace.grid
    ts = trace.times
    in_win = window_indices(ts, t_window)
    if len(in_win) < 3:
        raise WindowTooSmall(
            f"need >= 3 samples in window, found {len(in_win)}")
    centers = in_win[(in_win > 0) & (in_win < len(ts) - 1)]
    if not len(centers):
        raise WindowTooSmall("no window sample has both time neighbors")

    def log_and_part(i):
        u = np.log(trace.samples[i])
        return u, _solution_part(u, g, k, p)

    _, s_prev = log_and_part(centers[0] - 1)
    u, s = log_and_part(centers[0])
    abs_resid = np.empty((len(centers), *g.extents))
    ht_max = 0.0
    for row, i in zip(abs_resid, centers):
        u_next, s_next = log_and_part(i + 1)
        t = ts[i]
        x = np.exp(u * (p - 1.0))
        phi = k.a / t
        h = s + phi
        h_t = _dt_nonuniform(s_prev, s, s_next,
                             ts[i - 1], t, ts[i + 1]) - k.a / t ** 2
        grad_u = gradient_nd(u, g)
        grad_h = gradient_nd(s, g)       # a/t is spatially constant
        adv = sum(gh * gu for gh, gu in zip(grad_h, grad_u))
        rhs = (laplacian_nd(s, g)
               + 2.0 * adv
               + (p - 1.0) * x * h
               + 2.0 * (k.alpha - k.beta) * hessian_sq_nd(u, g)
               + (k.alpha * (p - 1.0) + k.beta - k.c * p) * (p - 1.0) * x
               * grad_sq_nd(u, g)
               - (p - 1.0) * x * phi
               - k.a / t ** 2)
        np.abs(h_t - rhs, out=row)
        ht_max = max(ht_max, float(np.abs(h_t).max()))
        s_prev, u, s = s, u_next, s_next

    return ResidualStats(max_abs=float(abs_resid.max()),
                         mean_abs=float(abs_resid.mean()),
                         normalizer=ht_max,
                         n_times=len(centers))


# ---------------------------------------------------------------------------
# the inequality in terms of f, and window reports

def f_form(k: HarnackConstants, p: float) -> tuple[float, float, float]:
    """Coefficients (time, gradient, reaction) of the f-form inequality.

    Dividing H0 >= 0 by alpha and eliminating lap(u) via the equation for
    u = log f gives

        f_t + (a/alpha) f/t  >=  (1 - beta/alpha) |grad f|^2/f
                                 + (1 - c/alpha) f^p.

    For the hamilton_1d preset this is f_t + 2f/(3t) >= f_x^2/f + f^2/2.
    """
    if k.alpha <= 0:
        raise ValueError("need alpha > 0")
    return (k.a / k.alpha, 1.0 - k.beta / k.alpha, 1.0 - k.c / k.alpha)


@dataclass(frozen=True)
class HarnackReport:
    min_h0: float
    argmin_x: tuple[float, ...]
    argmin_t: float
    curve: list[tuple[float, float]]   # (t, min over grid of H0)
    t_window: tuple[float, float]
    tol: float
    verdict: str                       # 'consistent' | 'violated' (see certify_verdict)
    constants: HarnackConstants

    @property
    def passed(self) -> bool:
        return self.verdict != "violated"


def default_window(trace: SolveTrace, t_min_frac: float = 0.05,
                   t_max_frac: float = 0.9) -> tuple[float, float]:
    """Default check window [t_min_frac, t_max_frac] * t_final.

    Small times are excluded deliberately: a/t dominates there and the check
    would be vacuous, which we document rather than hide.
    """
    tf = trace.t_final
    return (t_min_frac * tf, t_max_frac * tf)


def h0_report(trace: SolveTrace, k: HarnackConstants, p: float,
              t_window: tuple[float, float] | None = None,
              tol: float = 1e-2) -> HarnackReport:
    """Minimum of H0 over grid x window, with argmin and per-sample curve."""
    if t_window is None:
        t_window = default_window(trace)
    if t_window[0] <= 0:
        raise NonPositiveTime("window must start at t > 0")
    g = trace.grid
    curve: list[tuple[float, float]] = []
    best = math.inf
    arg_x: tuple[float, ...] = ()
    arg_t = math.nan
    for i in window_indices(trace.times, t_window):
        t = trace.times[i]
        h0 = _solution_part(np.log(trace.samples[i]), g, k, p) + k.a / t
        m = float(h0.min())
        curve.append((t, m))
        if m < best:
            best = m
            arg_x = g.point(int(np.argmin(h0)))
            arg_t = t
    if not curve:
        raise WindowTooSmall("no trace samples inside the window")
    verdict = "consistent" if best >= -tol else "violated"
    return HarnackReport(best, arg_x, arg_t, curve, t_window, tol, verdict, k)


def certify_verdict(coarse: HarnackReport, fine: HarnackReport,
                    eps: float | None = None) -> str:
    """Two-resolution certification: min H0 >= -eps on the coarse grid and
    >= -eps/2 on the refined one.  Single-resolution positivity is only ever
    reported as 'consistent'."""
    eps = coarse.tol if eps is None else eps
    if coarse.min_h0 >= -eps and fine.min_h0 >= -0.5 * eps:
        return "certified"
    if coarse.min_h0 >= -eps:
        return "consistent"
    return "violated"
