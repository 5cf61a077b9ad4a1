"""Space-time path costs and the classical (integrated) Harnack inequality.

Integrating the differential Harnack inequality along a space-time curve
gamma(t) = (x(t), t) bounds log f(x1, t1) - log f(x2, t2) by the action

    integral over [t1, t2] of  |xdot|^2 / 2 + n/t,

whose infimum over paths has the closed form

    |x2 - x1|^2 / (2 (t2 - t1)) + n log(t2 / t1)

(straight line at constant speed; the n/t term is path independent).  In
multiplicative form:

    f(x1, t1) <= f(x2, t2) * (t2/t1)^n * exp(|x2-x1|^2 / (2 (t2-t1))).

The checker evaluates this on solver traces, at endpoint pairs drawn from
`random.Random(seed)`; a small dynamic-programming minimizer over a
waypoint lattice serves as an independent cross-check of the closed form.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import NonMonotoneTime, NonPositiveTime
from .field import Grid
from .integrate import PointValues, SolveTrace


@dataclass(frozen=True)
class PathSpec:
    """Piecewise-linear space-time path through (x, t) knots, t increasing."""

    points: tuple[tuple[tuple[float, ...], float], ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("path needs at least two points")
        ts = [t for _, t in self.points]
        if ts[0] <= 0:
            raise NonPositiveTime("path must start at t > 0")
        if any(t1 >= t2 for t1, t2 in zip(ts, ts[1:])):
            raise NonMonotoneTime("path times must be strictly increasing")
        dims = {len(x) for x, _ in self.points}
        if len(dims) != 1:
            raise ValueError("all path points need the same dimension")

    @classmethod
    def from_endpoints(cls, x1, t1: float, x2, t2: float,
                       waypoints=()) -> "PathSpec":
        pts = [(tuple(np.atleast_1d(x1).astype(float)), float(t1))]
        for x, t in waypoints:
            pts.append((tuple(np.atleast_1d(x).astype(float)), float(t)))
        pts.append((tuple(np.atleast_1d(x2).astype(float)), float(t2)))
        return cls(tuple(pts))

    @property
    def dim(self) -> int:
        return len(self.points[0][0])


def path_cost(path: PathSpec, dim: int) -> float:
    """Action of a piecewise-linear path.

    Each segment is integrated exactly: the speed is constant so the kinetic
    part is |dx|^2/(2 dt), and the n/t part integrates to n log(t+/t-).
    """
    total = 0.0
    for (xa, ta), (xb, tb) in zip(path.points, path.points[1:]):
        dx2 = sum((b - a) ** 2 for a, b in zip(xa, xb))
        dt = tb - ta
        total += 0.5 * dx2 / dt + dim * math.log(tb / ta)
    return total


def min_path_cost(x1, t1: float, x2, t2: float, dim: int) -> float:
    """Closed-form infimum over all paths joining (x1, t1) to (x2, t2)."""
    if not 0 < t1 < t2:
        raise NonMonotoneTime("need 0 < t1 < t2")
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    dx2 = float(np.sum((x2 - x1) ** 2))
    return 0.5 * dx2 / (t2 - t1) + dim * math.log(t2 / t1)


def dp_min_path_cost(x1, t1: float, x2, t2: float, dim: int,
                     n_time: int = 20, n_space: int = 20) -> float:
    """Brute-force minimum over lattice waypoint paths (independent oracle).

    Positions live on the per-axis lattice spanning [x1_k, x2_k]; leaving that
    segment never helps since projecting back reduces the speed pointwise.
    Transitions between consecutive time slices are all-to-all.
    """
    if not 0 < t1 < t2:
        raise NonMonotoneTime("need 0 < t1 < t2")
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    axes = []
    for a, b in zip(x1, x2):
        axes.append(np.linspace(a, b, n_space) if a != b else np.array([a]))
    pts = np.array(list(product(*axes)))        # (P, dim)
    ts = np.linspace(t1, t2, n_time)

    start = int(np.argmin(np.sum((pts - x1) ** 2, axis=1)))
    end = int(np.argmin(np.sum((pts - x2) ** 2, axis=1)))
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)  # (P, P)

    cost = np.full(len(pts), np.inf)
    cost[start] = 0.0
    for ta, tb in zip(ts, ts[1:]):
        dt = tb - ta
        hop = 0.5 * d2 / dt + dim * math.log(tb / ta)
        cost = np.min(cost[:, None] + hop, axis=0)
    return float(cost[end])


# ---------------------------------------------------------------------------
# trace checking

@dataclass(frozen=True)
class PairVerdict:
    x1: tuple[float, ...]
    t1: float
    x2: tuple[float, ...]
    t2: float
    lhs: float
    rhs: float
    slack: float        # rhs / lhs; >= 1 when the inequality holds exactly
    log_slack: float
    passed: bool


def classical_harnack_check(trace: SolveTrace, pairs, dim: int,
                            tol: float = 1e-3) -> list[PairVerdict]:
    """Check f(x1,t1) <= f(x2,t2) (t2/t1)^n exp(|dx|^2/(2 dt)) per pair
    (`PairCheck`, fed the whole trace)."""
    if not pairs:
        return []
    check = PairCheck(trace.grid, pairs, dim, tol)
    check.take(trace.times, trace.samples)
    return check.verdicts()


class PairCheck(PointValues):
    """The classical check of endpoint pairs (x1, t1, x2, t2), from a run's
    samples taken a block at a time (`PointValues` of the endpoints).

    Computed in log space so huge right-hand sides cannot overflow; a pair
    passes when slack >= 1 - tol, the tolerance absorbing interpolation
    error (reported, never hidden).  `verdicts` raises NonMonotoneTime
    unless 0 < t1 < t2, OutOfWindow for an endpoint outside the run's
    window; an endpoint off the box is refused at once.
    """

    def __init__(self, grid: Grid, pairs, dim: int, tol: float = 1e-3):
        self.pairs = [(np.atleast_1d(np.asarray(x1, dtype=float)), t1,
                       np.atleast_1d(np.asarray(x2, dtype=float)), t2)
                      for x1, t1, x2, t2 in pairs]
        x1s, t1s, x2s, t2s = zip(*self.pairs)
        super().__init__(grid, x1s + x2s, t1s + t2s)
        self.dim, self.tol = dim, tol

    def verdicts(self) -> list[PairVerdict]:
        if any(not 0 < t1 < t2 for _, t1, _, t2 in self.pairs):
            raise NonMonotoneTime("need 0 < t1 < t2 per pair")
        f = self.values().tolist()
        out = []
        for (x1a, t1, x2a, t2), f1, f2 in zip(self.pairs, f, f[len(self.pairs):]):
            dx2 = float(np.sum((x2a - x1a) ** 2))
            log_rhs = math.log(f2) + self.dim * math.log(t2 / t1) + 0.5 * dx2 / (t2 - t1)
            log_slack = log_rhs - math.log(f1)
            with np.errstate(over="ignore"):
                slack = float(np.exp(log_slack))
                rhs = float(np.exp(log_rhs))
            out.append(PairVerdict(tuple(float(c) for c in x1a), float(t1),
                                   tuple(float(c) for c in x2a), float(t2),
                                   f1, rhs, slack, log_slack,
                                   passed=log_slack >= math.log1p(-self.tol)))
        return out


def random_pairs(grid: Grid, n_pairs: int, seed: int,
                 t_window: tuple[float, float]) -> list[tuple]:
    """Seeded endpoint pairs in the grid's box and the window, t2 - t1 >= 5 % of the window.

    Coordinates are lo + (hi - lo) * random.Random(seed).random(); a seed that
    is not an integer (None: fresh OS entropy) raises TypeError, a negative one
    ValueError (Random(-s) is Random(s)).
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = random.Random(seed)

    def draw(lo: float, hi: float) -> float:
        return lo + (hi - lo) * rng.random()

    t_lo, t_hi = t_window
    gap = 0.05 * (t_hi - t_lo)
    pairs = []
    for _ in range(n_pairs):
        t1 = draw(t_lo, t_hi - gap)
        t2 = draw(t1 + gap, t_hi)
        x1 = tuple(draw(lo, hi) for lo, hi in grid.box)
        x2 = tuple(draw(lo, hi) for lo, hi in grid.box)
        pairs.append((x1, t1, x2, t2))
    return pairs
