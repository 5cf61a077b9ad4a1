"""Space-time path costs and the classical (integrated) Harnack inequality.

Integrating the differential Harnack inequality along a space-time curve
gamma(t) = (x(t), t) bounds log f(x1, t1) - log f(x2, t2) by the action

    integral over [t1, t2] of  |xdot|^2 / 2 + n/t,

whose infimum over paths has the closed form

    |x2 - x1|^2 / (2 (t2 - t1)) + n log(t2 / t1)

(straight line at constant speed; the n/t term is path independent).  In
multiplicative form:

    f(x1, t1) <= f(x2, t2) * (t2/t1)^n * exp(|x2-x1|^2 / (2 (t2-t1))).

The checker evaluates this on solver traces; a small dynamic-programming
minimizer over a waypoint lattice serves as an independent cross-check of
the closed form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import NonMonotoneTime, NonPositiveTime
from .harnack import default_window
from .integrate import SolveTrace


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
    """Check f(x1,t1) <= f(x2,t2) (t2/t1)^n exp(|dx|^2/(2 dt)) per pair.

    Computed in log space so huge right-hand sides cannot overflow; a pair
    passes when slack >= 1 - tol, the tolerance absorbing interpolation
    error (reported, never hidden).  OutOfWindow for an endpoint outside
    the trace's window or box (`SolveTrace.values_at`).
    """
    pairs = [(np.atleast_1d(np.asarray(x1, dtype=float)), t1,
              np.atleast_1d(np.asarray(x2, dtype=float)), t2) for x1, t1, x2, t2 in pairs]
    if any(not 0 < t1 < t2 for _, t1, _, t2 in pairs):
        raise NonMonotoneTime("need 0 < t1 < t2 per pair")
    if not pairs:
        return []
    x1s, t1s, x2s, t2s = zip(*pairs)
    f1s, f2s = trace.values_at(x1s, t1s), trace.values_at(x2s, t2s)
    out = []
    for (x1a, t1, x2a, t2), f1, f2 in zip(pairs, f1s.tolist(), f2s.tolist()):
        dx2 = float(np.sum((x2a - x1a) ** 2))
        log_rhs = math.log(f2) + dim * math.log(t2 / t1) + 0.5 * dx2 / (t2 - t1)
        log_slack = log_rhs - math.log(f1)
        with np.errstate(over="ignore"):
            slack = float(np.exp(log_slack))
            rhs = float(np.exp(log_rhs))
        out.append(PairVerdict(tuple(float(c) for c in x1a), float(t1),
                               tuple(float(c) for c in x2a), float(t2),
                               f1, rhs, slack, log_slack,
                               passed=log_slack >= math.log1p(-tol)))
    return out


# np.random.default_rng(seed).uniform without importing numpy.random (6 MB and
# 10 ms under numpy 2): SeedSequence hashes and mixes the seed's 32-bit words
# into four; four 64-bit words seed PCG64 (O'Neill 2014; pcg_setseq_128_srandom_r),
# a 128-bit LCG with an XSL-RR output; a double is its top 53 bits times 2^-53.
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    def hashmix(v: int) -> int:
        nonlocal const
        v ^= const
        const = const * mult & _M32
        v = v * const & _M32
        return v ^ v >> 16
    return hashmix


def _seed_state(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, np.uint64), as Python ints."""
    words = [seed >> 32 * i & _M32 for i in range(max(1, -(-seed.bit_length() // 32)))]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]

    def mix(dst: int, v: int) -> None:
        x = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(v)) & _M32
        pool[dst] = x ^ x >> 16

    for src, dst in product(range(4), repeat=2):
        if src != dst:
            mix(dst, pool[src])
    for w, dst in product(words[4:], range(4)):
        mix(dst, w)
    state = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool + pool))
    return [lo | hi << 32 for lo, hi in zip(state[::2], state[1::2])]


class _Uniform:
    """`uniform(lo, hi)` draws as np.random.default_rng(seed).uniform(lo, hi) does,
    raising where it does; a `seed` of None (fresh OS entropy) is refused."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("expected non-negative integer")
        s0, s1, i0, i1 = _seed_state(seed)
        self.inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self.state = ((self.inc + (s0 << 64 | s1)) * _PCG_MULT + self.inc) & _M128

    def uniform(self, lo, hi) -> float:
        lo = float(lo)
        span = float(hi) - lo
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0:
            raise ValueError("high - low < 0")
        self.state = s = (self.state * _PCG_MULT + self.inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        return lo + span * ((x >> 11) * 2.0 ** -53)


def random_pairs(trace: SolveTrace, n_pairs: int, seed: int,
                 t_window: tuple[float, float] | None = None) -> list[tuple]:
    """Seeded endpoint pairs in the trace's box and window, t2 - t1 >= 5 % of the window."""
    rng = _Uniform(seed)
    if t_window is None:
        t_window = default_window(trace)
    t_lo, t_hi = t_window
    gap = 0.05 * (t_hi - t_lo)
    box = trace.grid.box
    pairs = []
    for _ in range(n_pairs):
        t1 = rng.uniform(t_lo, t_hi - gap)
        t2 = rng.uniform(t1 + gap, t_hi)
        x1 = tuple(rng.uniform(lo, hi) for lo, hi in box)
        x2 = tuple(rng.uniform(lo, hi) for lo, hi in box)
        pairs.append((x1, t1, x2, t2))
    return pairs
