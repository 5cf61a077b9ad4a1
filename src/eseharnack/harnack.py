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
over a time window run in one pass (`Checks`) over a run's samples, which
takes them one at a time (`add`), as a solve records them or a kept trace
replays them (`feed`), and evaluates them a block at a time (`block_len`),
with the arithmetic each sample gets on its own.  The functions that take
a trace replay it through that pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HarnackConstants, a_lower
from .errors import BetaZero, NonPositiveTime, WindowTooSmall
# log_field is not called here, but bench/tracing.py times it as
# eseharnack.harnack.log_field
from .field import (Grid, central_diff, grad_sq_nd, gradient_nd,  # noqa: F401
                    hessian_sq_nd, laplacian_nd, log_field)
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
    return _fed(trace, k, p, t_window, loc=loc).hr_min()


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
    """Residual of the evolution identity over a time window of a trace
    (`Checks`).

    H is evaluated with phi = a/t on every needed sample.  Time derivatives
    use the nonuniform 3-point stencil on the sampled times, applied to the
    solution-dependent part of H only; the a/t contribution enters as the
    exact -a/t^2 (differencing a known closed form would only add quadrature
    noise).  Spatial terms use the central stencils.  Values are normalized
    by max |H_t| over the window.
    """
    return _fed(trace, k, p, t_window, residual=True).residual()


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
    return _fed(trace, k, p, t_window, h0=True).h0_report(tol)


# ---------------------------------------------------------------------------
# the checks of a run, in one pass over its samples

class Checks:
    """The checks of one run over a time window, in one pass over its
    samples.  They come one at a time (`add`), as a solve records them or a
    kept trace replays them (`feed`), and `close` follows the last.  The
    samples are expected at the times `plan`, which fix the window's
    samples before any comes; a sample at another time, or past the plan's
    end, stops the pass for good (`complete` is then False).

    The pass holds up to `block_len` samples and hands them on as a block,
    cut at the window's ends so that a block lies inside the window or
    outside it whole.  Every block goes to each of `extra`, which take it
    as `classical.PairCheck` does.  A block inside the window has u = log f
    and the solution part of H computed once, for the enabled checks: H0
    (`h0`), the H_R minimum (a localizer `loc`) and the residual
    (`residual`).  Each sample gets the arithmetic it gets in a check on
    its own, so the reports are those of the checks run alone, bit for
    bit.  The blowup check takes no block: it reads each sample's max and
    argmax from the run's trace (`SolveTrace.max_curve`).
    The window's arithmetic ignores overflow and invalid operations: a term
    past the float range makes a statistic inf or nan, a failed check.

    The residual's centres are the window's samples but the run's first and
    last, which lack a time neighbour.  It keeps one block of centres in
    hand: their time differences read the solution part of the sample
    before them and of the one after.  Each block's |residual| updates the
    max and a `PairwiseSum`, whose size, the centre count, the plan fixes:
    `mean_abs` is the sum over all centres and points in numpy's exact
    pairwise order (that of `np.mean` of the stacked rows) divided by their
    count, while the residual holds the arrays of one block of centres.
    """

    def __init__(self, grid: Grid, k: HarnackConstants, p: float, plan: np.ndarray,
                 window: tuple[float, float], h0: bool = False,
                 loc: LocalizerSpec | None = None, residual: bool = False, extra=()):
        self.grid, self.k, self.p = grid, k, p
        self.plan, self.window = plan, window
        self.first = int(np.searchsorted(plan, window[0]))   # the window holds first..end-1
        self.end = max(self.first, int(np.searchsorted(plan, window[1], "right")))
        self._rows = np.empty((block_len(grid), *grid.extents))
        self.count = self._start = 0
        self._off = False
        self._takers = extra
        positive = window[0] > 0   # H0 and H_R are refused on any other window
        self.curve: list[tuple[float, float]] | None = [] if h0 and positive else None
        self._best: tuple = (math.inf, None, math.nan)   # min H0, its flat index and t
        self._poles = cutoff_parts(grid, loc) if loc is not None and positive else None
        self.loc, self._hr = loc, math.inf
        self.n_centres = max(0, min(self.end, len(plan) - 1) - max(self.first, 1))
        self._sum = PairwiseSum(self.n_centres * grid.size) if residual else None
        self._block_max: list[float] = []
        self._ht_max = 0.0
        self._before = self._prev = self._pending = None

    @property
    def complete(self) -> bool:
        """Whether every sample came, each at its planned time."""
        return not self._off and self.count == len(self.plan)

    def add(self, t: float, values: np.ndarray) -> None:
        i = self.count
        self._off = self._off or i == len(self.plan) or t != self.plan[i]
        if self._off:
            return
        if i - self._start == len(self._rows) or i in (self.first, self.end):
            self._hand(i)
        self._rows[i - self._start] = values
        self.count += 1

    def feed(self, trace: SolveTrace) -> None:
        """A kept trace's samples, through `add`, then `close`."""
        for t, values in zip(trace.times, trace.samples):
            self.add(t, values)
        self.close()

    def close(self) -> None:
        """Hands on the samples still held; `solve` calls it at the end."""
        self._hand(self.count)
        if self._pending is not None and len(self._pending[0]) > 1:
            times, u, s = self._pending   # the run's last sample is no centre
            self._pending = (times[:-1], u[:-1], s[:-1])
            with np.errstate(over="ignore", invalid="ignore"):
                self._centres(times[-1], s[-1:])

    def _hand(self, stop: int) -> None:
        """The samples held, start..stop-1, as a block, at index i = start."""
        i = self._start
        if stop == i:
            return
        times, samples = self.plan[i:stop], self._rows[:stop - i]
        self._start = stop
        for taker in self._takers:
            taker.take(times, samples)
        with np.errstate(over="ignore", invalid="ignore"):
            if self.first <= i < self.end:
                u = np.log(samples)
                s = _solution_part(u, self.grid, self.k, self.p)
                if self.curve is not None:
                    self._h0(times, s + column([self.k.a / t for t in times], self.grid))
                if self._poles is not None:
                    self._hr_min(times, s)
                if self._sum is not None:
                    self._residual_block(i, times, u, s)
            elif self._sum is not None and stop == self.first:
                self._before = (times[-1], samples[-1:].copy())
            elif self._pending is not None and i == self.end:   # the sample after the window
                self._centres(times[0], self._part(samples[:1]))

    def _part(self, values: np.ndarray) -> np.ndarray:
        return _solution_part(np.log(values), self.grid, self.k, self.p)

    def _h0(self, times: np.ndarray, h0: np.ndarray) -> None:
        rows = h0.reshape(len(times), -1)
        for t, m, row in zip(times, rows.min(axis=1), rows):
            m = float(m)
            self.curve.append((t, m))
            if m < self._best[0]:
                self._best = (m, int(np.argmin(row)), t)

    def _hr_min(self, times: np.ndarray, s: np.ndarray) -> None:
        hr = s + _phi_r_block(self.grid, times, self.loc, self._poles)
        finite = hr[np.isfinite(hr)]
        if finite.size:
            self._hr = min(self._hr, float(finite.min()))

    def _residual_block(self, i: int, times, u, s) -> None:
        if self._pending is not None:
            self._centres(times[0], s[:1])
        elif i == 0:   # the run's first sample has no time before it: no centre
            self._prev = (times[0], s[:1])
            times, u, s = times[1:], u[1:], s[1:]
        elif self._prev is None:
            t, values = self._before
            self._prev, self._before = (t, self._part(values)), None
        if len(times):
            self._pending = (times, u, s)

    def _centres(self, t_next: float, s_next: np.ndarray) -> None:
        """The residual at the centres in hand, s_next the solution part of
        the sample after them, at t_next."""
        (t_prev, s_prev), (times, u, s) = self._prev, self._pending
        g, k, p = self.grid, self.k, self.p
        # per centre: a/t, a/t^2, and the weights of the second-order 3-point
        # derivative for unevenly spaced samples,
        #   (hm/hp (f(t+hp) - f(t)) + hp/hm (f(t) - f(t-hm))) / (hm + hp)
        ts = [t_prev, *times, t_next]
        hm = [b - a for a, b in zip(ts, ts[1:-1])]
        hp = [b - a for a, b in zip(ts[1:-1], ts[2:])]
        phi = column([k.a / t for t in times], g)
        a_t2 = column([k.a / t ** 2 for t in times], g)
        # the right-hand side, term by term in the order of the identity,
        # each added into it in place, which holds few arrays at once; grad H
        # = grad s, as a/t is spatially constant
        grad_u = gradient_nd(u, g)
        rhs = laplacian_nd(s, g)
        rhs += 2.0 * sum(central_diff(s, g, axis) * gu for axis, gu in enumerate(grad_u))
        x = np.exp(u * (p - 1.0))
        rhs += (p - 1.0) * x * (s + phi)
        grad_sq = sum(gu * gu for gu in grad_u)
        del grad_u
        rhs += 2.0 * (k.alpha - k.beta) * hessian_sq_nd(u, g)
        rhs += (k.alpha * (p - 1.0) + k.beta - k.c * p) * (p - 1.0) * x * grad_sq
        del grad_sq
        rhs -= (p - 1.0) * x * phi
        rhs -= a_t2
        del x
        back, fwd = np.empty(s.shape), np.empty(s.shape)
        np.subtract(s[1:], s[:-1], out=fwd[:-1])
        np.subtract(s_next, s[-1:], out=fwd[-1:])
        np.subtract(s[:1], s_prev, out=back[:1])
        back[1:] = fwd[:-1]
        h_t = (column([m / q for m, q in zip(hm, hp)], g) * fwd
               + column([q / m for m, q in zip(hm, hp)], g) * back) \
            / column([m + q for m, q in zip(hm, hp)], g) - a_t2
        del back, fwd
        res = np.abs(np.subtract(h_t, rhs, out=rhs), out=rhs)
        self._sum.add(res.reshape(-1))
        self._block_max.append(res.max())
        for row_max in np.abs(h_t).reshape(len(times), -1).max(axis=1):
            self._ht_max = max(self._ht_max, float(row_max))
        self._prev, self._pending = (times[-1], s[-1:].copy()), None

    def _window_holds(self, least: int, need: str) -> None:
        found = self.end - self.first
        if found < least:
            raise _window_error(self.plan, self.window, found, need)

    def _positive_window(self) -> None:
        if self.window[0] <= 0:
            raise NonPositiveTime("window must start at t > 0")
        self._window_holds(1, "the check needs at least one")

    def h0_report(self, tol: float = 1e-2) -> HarnackReport:
        """Minimum of H0 over grid x window, with argmin and per-sample curve."""
        self._positive_window()
        best, flat, t = self._best
        arg_x = () if flat is None else self.grid.point(flat)
        verdict = "consistent" if best >= -tol else "violated"
        return HarnackReport(best, arg_x, t, self.curve, self.window, tol, verdict, self.k)

    def hr_min(self) -> float:
        """Minimum of H_R over its finite values in the window; inf if none."""
        self._positive_window()
        return self._hr

    def residual(self) -> ResidualStats:
        lo, hi = self.window
        if hi <= lo:
            raise WindowTooSmall("empty time window")
        self._window_holds(3, "the residual needs at least 3")
        return ResidualStats(max_abs=float(np.max(self._block_max)),
                             mean_abs=self._sum.total / self._sum.size,
                             normalizer=self._ht_max, n_times=self.n_centres)


def _fed(trace: SolveTrace, k: HarnackConstants, p: float, window: tuple[float, float],
         **enabled) -> Checks:
    """`Checks` of the enabled checks, fed the whole trace."""
    checks = Checks(trace.grid, k, p, trace.times, window, **enabled)
    checks.feed(trace)
    return checks
