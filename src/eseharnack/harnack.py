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
pure discretization error and must shrink under refinement.  The checks
over a time window take its samples a block at a time (`block_len`), with
the arithmetic each sample gets on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HarnackConstants, a_lower
from .errors import BetaZero, NonPositiveTime, WindowTooSmall
# log_field is not called here, but bench/tracing.py times it as
# eseharnack.harnack.log_field
from .field import (Grid, grad_sq_nd, gradient_nd, hessian_sq_nd,  # noqa: F401
                    laplacian_nd, log_field)
from .integrate import SolveTrace


def _solution_part(u: np.ndarray, grid: Grid, k: HarnackConstants,
                   p: float) -> np.ndarray:
    """alpha*lap(u) + beta*|grad u|^2 + c*exp(u(p-1)): H without its time
    (a/t) or cutoff (phi_R) term, for one sample or a block of them."""
    return (k.alpha * laplacian_nd(u, grid)
            + k.beta * grad_sq_nd(u, grid)
            + k.c * np.exp(u * (p - 1.0)))


def window_indices(times: np.ndarray, window: tuple[float, float]) -> np.ndarray:
    """Indices of the samples with lo <= t <= hi; for the increasing times of
    a trace they form one contiguous run."""
    lo, hi = window
    return np.flatnonzero((lo <= times) & (times <= hi))


# The trace checks evaluate a block of samples per numpy call, of at most
# this many grid points but at least one sample: 16 samples of 256 points,
# one sample of 64^2.  Per-call overhead, not arithmetic, bounds a check on
# a small grid, and the blocks keep a 2-D check's memory that of one sample.
_BLOCK_POINTS = 4096


def block_len(grid: Grid) -> int:
    """Samples per block of the trace checks on `grid`."""
    return max(1, _BLOCK_POINTS // grid.size)


def column(values, grid: Grid) -> np.ndarray:
    """Per-sample scalars, shaped to broadcast over a block (rows, *extents)."""
    return np.array(values, dtype=np.float64).reshape((-1,) + (1,) * grid.dim)


def _window_error(times: np.ndarray, window: tuple[float, float], found: int,
                  need: str) -> WindowTooSmall:
    lo, hi = window
    return WindowTooSmall(
        f"the window [{lo!r}, {hi!r}] holds {found} of the trace's {len(times)} samples, "
        f"which span [{float(times[0])!r}, {float(times[-1])!r}]; {need}")


def _window_blocks(trace: SolveTrace, k: HarnackConstants, p: float,
                   t_window: tuple[float, float]):
    """The samples inside a window, a block at a time: yields (times, part)
    with the block's sample times and `_solution_part` of their log, of
    shape (len(times), *extents)."""
    if t_window[0] <= 0:
        raise NonPositiveTime("window must start at t > 0")
    idx = window_indices(trace.times, t_window)
    if not len(idx):
        raise _window_error(trace.times, t_window, 0, "the check needs at least one")
    step = block_len(trace.grid)
    for start in range(idx[0], idx[-1] + 1, step):
        stop = min(start + step, idx[-1] + 1)
        yield (trace.times[start:stop],
               _solution_part(np.log(trace.samples[start:stop]), trace.grid, k, p))


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


_B_MARGIN = 1.05   # the localizer's b over its lower bound `localizer_min_b`


def make_localizer(rect, n: int, k: HarnackConstants) -> LocalizerSpec:
    """LocalizerSpec on `rect`: b `_B_MARGIN` times its lower bound, a at least `a_lower`."""
    b = _B_MARGIN * localizer_min_b(n, k)
    a_min = a_lower(n, k.alpha, k.beta)
    a = k.a if k.a >= a_min else a_min
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
        # off the open interval the term is discarded; on it, a distance whose
        # square overflows gives b / inf = 0, the term's limit
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            poles.append(np.where(ok, loc.b / (xk - lo) ** 2 + loc.b / (hi - xk) ** 2, 0.0))
    return poles, ~inside


def _phi_r_block(grid: Grid, times, loc: LocalizerSpec,
                 parts: tuple[list[np.ndarray], np.ndarray]) -> np.ndarray:
    """phi_R sampled on a grid at each of `times`, of shape (len(times),
    *extents), +inf outside the open rectangle: a/t plus the pole terms of
    `parts` (cutoff_parts(grid, loc)) in axis order."""
    poles, outside = parts
    out = np.empty((len(times), *grid.extents))
    out[...] = column([loc.a / t for t in times], grid)
    for pole in poles:
        out += pole
    np.copyto(out, math.inf, where=outside)
    return out


def hr_window_min(trace: SolveTrace, k: HarnackConstants, p: float,
                  loc: LocalizerSpec, t_window: tuple[float, float]) -> float:
    """Minimum of H_R over the finite values on the samples inside a window
    (the grid points strictly inside the rectangle); inf if there are none."""
    if k.beta == 0:
        raise BetaZero("localized Harnack quantity needs beta > 0")
    g = trace.grid
    parts = cutoff_parts(g, loc)
    best = math.inf
    for times, hr in _window_blocks(trace, k, p, t_window):
        hr += _phi_r_block(g, times, loc, parts)
        finite = hr[np.isfinite(hr)]
        if finite.size:
            best = min(best, float(finite.min()))
    return best


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


# numpy's pairwise_sum (numpy/_core/src/umath/loops_utils.h.src) sums a run
# of at most this many elements in one fixed order and splits a longer one
_PW_BLOCKSIZE = 128


class PairwiseSum:
    """`np.add.reduce` of a float64 sequence of known size, bit for bit,
    from its elements fed in order, one contiguous 1-D piece at a time.

    numpy adds a contiguous array with its `pairwise_sum`: a run of more
    than 128 elements splits at n2 = n//2 - (n//2) % 8, and the sums of the
    two halves are added left + right.  This walks that tree as the pieces
    arrive.  A node that lies inside one piece, or has at most 128 elements,
    goes to `np.add.reduce` whole, which sums it in numpy's order; any other
    node is split as numpy splits it.  A node of at most 128 elements that
    straddles two pieces keeps its head until the next piece comes.  The
    tree's sum is added to 0.0, as numpy's reduction adds it to the identity.
    """

    def __init__(self, size: int):
        self.size = size
        # nodes (start, n) still to sum, the next one last; None adds the
        # top two partial sums
        self._todo: list = [None, (0, size)]
        self._sums = [0.0]
        self._fed = 0
        self._head = np.empty(0)    # the elements fed so far of a straddling node

    def add(self, piece: np.ndarray) -> None:
        lo, hi = self._fed, self._fed + len(piece)
        if hi > self.size:
            raise ValueError(f"{hi} elements fed to a sum of {self.size}")
        self._fed = hi
        todo, sums = self._todo, self._sums
        while todo:
            node = todo[-1]
            if node is None:
                todo.pop()
                right = sums.pop()
                sums[-1] += right
                continue
            start, n = node
            end = start + n
            if n > _PW_BLOCKSIZE and not lo <= start <= end <= hi:
                if start >= hi:
                    break
                half = n // 2
                half -= half % 8
                todo[-1:] = [None, (start + half, n - half), (start, half)]
                continue
            if end > hi:
                if start < lo:
                    self._head = np.concatenate((self._head, piece))
                elif start < hi:
                    self._head = piece[start - lo:].copy()
                break
            todo.pop()
            run = (piece[start - lo:end - lo] if start >= lo
                   else np.concatenate((self._head, piece[:end - lo])))
            sums.append(float(np.add.reduce(run)))

    @property
    def total(self) -> float:
        if self._fed != self.size:
            raise ValueError(f"{self._fed} of {self.size} elements fed")
        return self._sums[0]


def evolution_residual(trace: SolveTrace, k: HarnackConstants, p: float,
                       t_window: tuple[float, float]) -> ResidualStats:
    """Residual of the evolution identity over a time window of a trace.

    H is evaluated with phi = a/t on every needed sample.  Time derivatives
    use the nonuniform 3-point stencil on the sampled times, applied to the
    solution-dependent part of H only; the a/t contribution enters as the
    exact -a/t^2 (differencing a known closed form would only add quadrature
    noise).  Spatial terms use the central stencils.  Values are normalized
    by max |H_t| over the window.

    The centres are walked in order, a block of at most `block_len(grid)`
    at a time.  The log and the solution part of H are computed once per
    sample, a block ahead: the time differences at a block's edges read the
    last solution-part row of the block before and the first of the block
    after.  Each block's |residual| updates the max and a `PairwiseSum`, so
    `mean_abs` is the sum over all centres and points in numpy's exact
    pairwise order (the order of `np.mean` of the stacked rows) divided by
    their count, and the residual holds the arrays of one block of centres,
    never a whole (n_centres, *extents) array.
    """
    lo, hi = t_window
    if hi <= lo:
        raise WindowTooSmall("empty time window")
    g = trace.grid
    ts = trace.times
    in_win = window_indices(ts, t_window)
    if len(in_win) < 3:
        raise _window_error(ts, t_window, len(in_win), "the residual needs at least 3")
    # three or more samples in a row: the middle ones have both time neighbours
    centers = in_win[(in_win > 0) & (in_win < len(ts) - 1)]
    first, end, n_centres = int(centers[0]), int(centers[-1]) + 1, len(centers)
    block = block_len(g)
    abs_sum = PairwiseSum(n_centres * g.size)
    block_max = []
    ht_max = 0.0

    def log_and_part(i, j):
        u = np.log(trace.samples[i:j])
        return u, _solution_part(u, g, k, p)

    # per centre: a/t, a/t^2, and the weights of the second-order 3-point
    # derivative for unevenly spaced samples,
    #   (hm/hp (f(t+hp) - f(t)) + hp/hm (f(t) - f(t-hm))) / (hm + hp)
    times = ts[first:end]
    hm = [b - a for a, b in zip(ts[first - 1:end - 1], times)]
    hp = [b - a for a, b in zip(times, ts[first + 1:end + 1])]
    a_t = column([k.a / t for t in times], g)
    a_t2 = column([k.a / t ** 2 for t in times], g)
    w_fwd = column([m / q for m, q in zip(hm, hp)], g)
    w_back = column([q / m for m, q in zip(hm, hp)], g)
    w_sum = column([m + q for m, q in zip(hm, hp)], g)

    s_before = log_and_part(first - 1, first)[1]
    u, s = log_and_part(first, min(first + block, end))
    i = first
    while i < end:
        m = len(s)
        j = i + m
        # the next block of centres, or after the last block the sample
        # after the last centre
        u_next, s_next = log_and_part(j, min(j + block, end) if j < end else end + 1)
        back, fwd = np.empty(s.shape), np.empty(s.shape)
        np.subtract(s[1:], s[:-1], out=fwd[:-1])
        np.subtract(s_next[:1], s[-1:], out=fwd[-1:])
        np.subtract(s[:1], s_before, out=back[:1])
        back[1:] = fwd[:-1]
        r = slice(i - first, j - first)
        phi = a_t[r]
        h_t = (w_fwd[r] * fwd + w_back[r] * back) / w_sum[r] - a_t2[r]
        del back, fwd
        x = np.exp(u * (p - 1.0))
        # grad H = grad s, as a/t is spatially constant
        grad_u = gradient_nd(u, g)
        adv = sum(gh * gu for gh, gu in zip(gradient_nd(s, g), grad_u))
        rhs = (laplacian_nd(s, g)
               + 2.0 * adv
               + (p - 1.0) * x * (s + phi)
               + 2.0 * (k.alpha - k.beta) * hessian_sq_nd(u, g)
               + (k.alpha * (p - 1.0) + k.beta - k.c * p) * (p - 1.0) * x
               * sum(gu * gu for gu in grad_u)
               - (p - 1.0) * x * phi
               - a_t2[r])
        res = np.abs(np.subtract(h_t, rhs, out=rhs), out=rhs)
        abs_sum.add(res.reshape(-1))
        block_max.append(res.max())
        for row_max in np.abs(h_t).reshape(m, -1).max(axis=1):
            ht_max = max(ht_max, float(row_max))
        s_before, u, s = s[-1:].copy(), u_next, s_next
        i = j

    return ResidualStats(max_abs=float(np.max(block_max)),
                         mean_abs=abs_sum.total / abs_sum.size,
                         normalizer=ht_max,
                         n_times=n_centres)


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
    verdict: str                       # 'consistent' | 'violated'
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
    g = trace.grid
    curve: list[tuple[float, float]] = []
    best = math.inf
    arg_flat = None
    arg_t = math.nan
    for times, h0 in _window_blocks(trace, k, p, t_window):
        h0 += column([k.a / t for t in times], g)
        rows = h0.reshape(len(times), -1)
        for t, m, row in zip(times, rows.min(axis=1), rows):
            m = float(m)
            curve.append((t, m))
            if m < best:
                best = m
                arg_flat = int(np.argmin(row))
                arg_t = t
    arg_x = () if arg_flat is None else g.point(arg_flat)
    verdict = "consistent" if best >= -tol else "violated"
    return HarnackReport(best, arg_x, arg_t, curve, t_window, tol, verdict, k)

