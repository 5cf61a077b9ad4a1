"""Time integration of f_t = lap(f) + f^p with blowup detection and rescaling.

Method of lines with classical 4-stage Runge-Kutta in time and the grid's
stencil operator (`field.Stencil`) in space: the right-hand side reads the
neighbours straight from the state, with no ghost cells.  The step size
obeys two caps,

    dt <= cfl_safety * h^2 / (2 n)            (diffusion stability)
    dt <= reaction_safety / (p * max f^{p-1}) (reaction stiffness)

so the explicit scheme stays stable all the way into the blowup regime, where
the reaction cap takes over and dt shrinks like f^{1-p}.  Blowup is declared,
never proved: the trace status records which criterion fired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapBelowInitial, NonPositiveField, OutOfWindow
from .field import Field, Grid, require_positive


# ---------------------------------------------------------------------------
# problem description

@dataclass(frozen=True)
class ConstantIC:
    level: float

    def __post_init__(self):
        if not self.level > 0:
            raise NonPositiveField(f"constant initial data needs level > 0, got {self.level}")


@dataclass(frozen=True)
class GaussianIC:
    amplitude: float
    width: float
    center: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("amplitude", "width"):
            if not getattr(self, name) > 0:
                raise ValueError(f"need {name} > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class TabulatedIC:
    values: np.ndarray


InitialData = ConstantIC | GaussianIC | TabulatedIC


@dataclass(frozen=True)
class ProblemSpec:
    """Cauchy problem: grid, exponent p > 1, positive initial data, horizon."""

    grid: Grid
    p: float
    initial: InitialData
    t_end: float
    reaction: bool = True  # False integrates the pure heat equation (sanity runs)

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError(f"need p > 1, got {self.p}")
        if not self.t_end > 0:
            raise ValueError(f"need t_end > 0, got {self.t_end}")
        ic = self.initial
        if isinstance(ic, GaussianIC) and ic.center is not None \
                and np.size(ic.center) != self.grid.dim:
            raise ValueError(f"center has {np.size(ic.center)} coordinates, "
                             f"the grid has {self.grid.dim} axes")

    @property
    def n(self) -> int:
        return self.grid.dim


@dataclass(frozen=True)
class StepConfig:
    cfl_safety: float = 0.25
    reaction_safety: float = 0.05
    dt_min: float = 1e-12
    f_cap: float = 1e8
    sample_stride: int = 4

    def __post_init__(self):
        for name in ("cfl_safety", "reaction_safety"):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in (0, 1], got {getattr(self, name)}")
        for name in ("dt_min", "f_cap"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.sample_stride < 1:
            raise ValueError(f"sample_stride must be >= 1, got {self.sample_stride}")


def initial_field(prob: ProblemSpec) -> Field:
    ic = prob.initial
    if isinstance(ic, ConstantIC):
        f = Field.constant(prob.grid, ic.level)
    elif isinstance(ic, GaussianIC):
        f = Field.gaussian(prob.grid, ic.amplitude, ic.width, ic.center)
    elif isinstance(ic, TabulatedIC):
        f = Field(prob.grid, ic.values)
    else:
        raise TypeError(f"unknown initial data {ic!r}")
    return require_positive(f, "initial data")


# ---------------------------------------------------------------------------
# trace

@dataclass(frozen=True)
class TraceStatus:
    kind: str                    # 'reached_t_end' | 'blowup' | 'aborted'
    t_detect: float | None = None
    reason: str | None = None
    criterion: str | None = None  # which detection rule fired ('f_cap' | 'dt_floor')

    @classmethod
    def reached(cls) -> "TraceStatus":
        return cls("reached_t_end")

    @classmethod
    def blowup(cls, t: float, criterion: str) -> "TraceStatus":
        return cls("blowup", t_detect=t, criterion=criterion)

    @classmethod
    def aborted(cls, reason: str, t: float) -> "TraceStatus":
        return cls("aborted", t_detect=t, reason=reason)


@dataclass
class SolveTrace:
    """Sampled solution history plus step metadata.

    times    sample times, float64 of shape (n_samples,), increasing
    samples  sampled values, float64 of shape (n_samples, *grid.extents)

    Both arrays are read-only.
    """

    grid: Grid
    p: float
    times: np.ndarray
    samples: np.ndarray
    status: TraceStatus
    step_log: np.ndarray

    def __post_init__(self):
        self.times.setflags(write=False)
        self.samples.setflags(write=False)

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def max_curve(self) -> tuple[np.ndarray, np.ndarray]:
        return self.times, self.samples.max(axis=tuple(range(1, self.samples.ndim)))

    def window(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def field_at(self, t: float) -> Field:
        """Linear-in-time interpolation between the bracketing samples."""
        ts = self.times
        if not ts[0] <= t <= ts[-1]:
            raise OutOfWindow(f"t={t} outside sampled window [{ts[0]}, {ts[-1]}]")
        i = int(np.searchsorted(ts, t))
        if i == 0 or ts[i] == t:
            return Field(self.grid, self.samples[i])
        w = (t - ts[i - 1]) / (ts[i] - ts[i - 1])
        return Field(self.grid, (1.0 - w) * self.samples[i - 1] + w * self.samples[i])

    def value_at(self, x, t: float) -> float:
        """Multilinear in space, linear in time."""
        return self.field_at(t).interp(x)


# ---------------------------------------------------------------------------
# stepping

def _check_stage(values: np.ndarray, label: str) -> np.ndarray:
    if values.min() <= 0.0:
        raise NonPositiveField(f"{label} went nonpositive (min={values.min()})")
    return values


def _diffusion(minus, center, plus, out, inv_h2):
    """((f[i+1] + f[i-1]) - f[i] - f[i]) * (1/h^2), evaluated left to right."""
    np.add(plus, minus, out=out)
    out -= center
    out -= center
    out *= inv_h2


class _Workspace:
    """Preallocated buffers for the RK4 stepper.

    The solve loop runs tens of thousands of steps on mid-size arrays, so the
    right-hand side is evaluated allocation-free: the grid's stencil operator
    reads the neighbours straight from the state, and every stage writes into
    a reused C-contiguous buffer.  The workspace owns the two state buffers
    the solve loop alternates between and the stage buffer, and binds the
    stencil views of each of them into its k buffer once (`_bind`); arrays
    from outside are bound on the spot.
    """

    def __init__(self, grid: Grid, p: float, reaction: bool):
        self.op = grid.stencil
        self.p = p
        self.reaction = reaction
        shape = grid.extents
        self.tmp = np.empty(shape)
        self.stage = np.empty(shape)
        self.acc = np.empty(shape)
        self.k = [np.empty(shape) for _ in range(4)]
        self.states = (np.empty(shape), np.empty(shape))
        self._state_plans = tuple(self._bind(y, self.k[0]) for y in self.states)
        self._stage_plans = tuple(self._bind(self.stage, k) for k in self.k[1:])

    def _bind(self, values: np.ndarray, out: np.ndarray) -> tuple:
        """The diffusion term's stencil views of `values`, per axis: axis 0
        writes into `out`, every later axis into `tmp`."""
        return tuple(self.op.bind(values, ax, out if ax == 0 else self.tmp)
                     for ax in range(len(self.op.inv_h2)))

    def _rhs(self, values: np.ndarray, out: np.ndarray, plan: tuple | None = None) -> None:
        """lap(values) + values^p into `out`; `plan` is `_bind(values, out)`,
        bound on the spot when not given."""
        if plan is None:
            plan = self._bind(np.ascontiguousarray(values, dtype=np.float64), out)
        op = self.op
        for ax, (bound, inv_h2) in enumerate(zip(plan, op.inv_h2)):
            op.run(_diffusion, bound, inv_h2)
            if ax > 0:
                out += self.tmp
        if self.reaction:
            t = self.tmp
            if self.p == 2.0:
                np.multiply(values, values, out=t)
            elif self.p == int(self.p) and 1 < self.p <= 8:
                np.power(values, int(self.p), out=t)
            else:
                np.power(values, self.p, out=t)
            out += t

    def rk4(self, y: np.ndarray, dt: float, out: np.ndarray,
            plan: tuple | None = None) -> None:
        """One step from the positive state y into `out` (distinct from y);
        checks that every later stage and the result stay positive.  `plan`
        is `_bind(y, k[0])`, bound on the spot when not given."""
        k1, k2, k3, k4 = self.k
        plan2, plan3, plan4 = self._stage_plans
        stage, acc = self.stage, self.acc
        self._rhs(y, k1, plan)
        np.multiply(k1, 0.5 * dt, out=stage)
        stage += y
        self._rhs(_check_stage(stage, "RK stage 2"), k2, plan2)
        np.multiply(k2, 0.5 * dt, out=stage)
        stage += y
        self._rhs(_check_stage(stage, "RK stage 3"), k3, plan3)
        np.multiply(k3, dt, out=stage)
        stage += y
        self._rhs(_check_stage(stage, "RK stage 4"), k4, plan4)
        np.add(k2, k3, out=acc)
        acc *= 2.0
        acc += k1
        acc += k4
        acc *= dt / 6.0
        np.add(y, acc, out=out)
        _check_stage(out, "RK4 result")

    def advance(self, i: int, dt: float) -> int:
        """One step from states[i] into the other state buffer, through the
        plans bound at construction; returns the other buffer's index."""
        self.rk4(self.states[i], dt, self.states[1 - i], self._state_plans[i])
        return 1 - i


def step(f: Field, t: float, dt: float, p: float, reaction: bool = True) -> Field:
    """One classical RK4 step; fails if the input, any stage or the result
    is not positive."""
    if dt < 0:
        raise ValueError("need dt >= 0")
    if dt == 0.0:
        return f
    _check_stage(f.values, "step input")
    ws = _Workspace(f.grid, p, reaction)
    out = np.empty(f.grid.extents)
    ws.rk4(f.values, dt, out)
    return Field(f.grid, out)


def stable_dt(grid: Grid, p: float, fmax: float, cfg: StepConfig,
              reaction: bool = True) -> float:
    h_min = min(grid.spacing)
    dt = cfg.cfl_safety * h_min * h_min / (2.0 * grid.dim)
    if reaction:
        dt = min(dt, cfg.reaction_safety / (p * fmax ** (p - 1.0)))
    return dt


# Reserved rows beyond the written ones are never touched, so they cost
# address space, not memory; the cap bounds the reservation of a run that
# ends long before t_end at a small first dt.
_RESERVE_BYTES = 1 << 28


def _capacity(t_end: float, dt: float, stride: int, row_bytes: int) -> int:
    """Rows to reserve for a run's samples: the steps a run at constant dt
    would take, one sample per stride, plus the initial and final samples.
    Capped at `_RESERVE_BYTES`; a run that needs more rows grows the array."""
    rows = t_end / dt / stride + 2.0 if dt > 0 else math.inf
    return math.ceil(min(rows, max(2, _RESERVE_BYTES // row_bytes)))


def solve(prob: ProblemSpec, cfg: StepConfig | None = None) -> SolveTrace:
    """Integrate until t_end, blowup declaration, or abort.

    Blowup is declared when max f exceeds cfg.f_cap, or when the stable dt
    falls below cfg.dt_min, or below the float spacing at t, while max f is
    still rising.  A positivity failure,
    or a step whose result is not finite (an overflow), aborts with the
    timestamp attached; the failed step is not recorded.

    Each sample is written once, into one array of shape
    (capacity, *extents).  The capacity comes from the first step's dt, which
    the diffusion cap keeps for the whole run; a reaction-capped run takes
    smaller steps, and the array then grows in place (doubling).  It is cut
    to the sample count at the end and handed to the trace as it is.
    """
    cfg = cfg or StepConfig()
    f0 = initial_field(prob)
    fmax = f0.max()
    if cfg.f_cap <= fmax:
        raise CapBelowInitial(f"[step] f_cap = {cfg.f_cap} must exceed the initial "
                              f"maximum {fmax}")

    grid = prob.grid
    ws = _Workspace(grid, prob.p, prob.reaction)
    cur = 0
    y = ws.states[cur]
    y[...] = f0.values

    capacity = _capacity(prob.t_end, stable_dt(grid, prob.p, fmax, cfg, prob.reaction),
                         cfg.sample_stride, 8 * grid.size)
    samples = np.empty((capacity, *grid.extents))
    samples[0] = y
    t = 0.0
    times = [t]
    step_log: list[float] = []
    prev_max = fmax
    status: TraceStatus | None = None
    accepted = 0

    def record(at: float, values: np.ndarray) -> None:
        n = len(times)
        if n == len(samples):
            # no view of the array exists, so realloc may move it
            samples.resize((2 * n, *grid.extents), refcheck=False)
        samples[n] = values
        times.append(at)

    while t < prob.t_end:
        dt_stable = stable_dt(grid, prob.p, fmax, cfg, prob.reaction)
        # t + dt == t: the step lies below the float spacing at t, so time
        # would stop advancing while f still grows
        if dt_stable < cfg.dt_min or t + dt_stable == t:
            if fmax > prev_max:
                status = TraceStatus.blowup(t, criterion="dt_floor")
            else:
                status = TraceStatus.aborted("dt underflow without growth", t)
            break
        dt = min(dt_stable, prob.t_end - t)
        try:
            nxt = ws.advance(cur, dt)
        except NonPositiveField as exc:
            status = TraceStatus.aborted(str(exc), t)
            break
        new_max = float(ws.states[nxt].max())   # also the next step's dt input
        if not math.isfinite(new_max):
            # y, the last finite state, stays the trace's end
            status = TraceStatus.aborted(f"RK4 result is not finite (max={new_max})", t)
            break
        cur = nxt
        y = ws.states[cur]
        prev_max, fmax = fmax, new_max
        t += dt
        accepted += 1
        step_log.append(dt)
        if accepted % cfg.sample_stride == 0:
            record(t, y)
        if fmax > cfg.f_cap:
            status = TraceStatus.blowup(t, criterion="f_cap")
            break

    if status is None:
        status = TraceStatus.reached()
    if times[-1] != t:
        record(t, y)
    samples.resize((len(times), *grid.extents), refcheck=False)
    return SolveTrace(grid, prob.p, np.array(times), samples, status,
                      np.asarray(step_log))


# ---------------------------------------------------------------------------
# parabolic rescaling:  f~(lam x, lam^2 t) = lam^delta f(x, t), delta = -2/(p-1)

@dataclass(frozen=True)
class RescaleSpec:
    lam: float
    p: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("need lambda > 0")
        if self.p <= 1:
            raise ValueError("need p > 1")

    @property
    def delta(self) -> float:
        return -2.0 / (self.p - 1.0)


def rescale_field(f: Field, t: float, spec: RescaleSpec) -> tuple[Field, float]:
    """The symmetry that preserves the equation: values scaled by lam^delta,
    box coordinates by lam, time by lam^2."""
    scaled = Field(f.grid.scaled(spec.lam), f.values * spec.lam ** spec.delta)
    return scaled, spec.lam ** 2 * t


def rescale_problem(prob: ProblemSpec, spec: RescaleSpec) -> ProblemSpec:
    """The rescaled Cauchy problem (initial data tabulated on the scaled grid)."""
    f0, _ = rescale_field(initial_field(prob), 0.0, spec)
    return ProblemSpec(grid=f0.grid, p=prob.p, initial=TabulatedIC(f0.values),
                       t_end=spec.lam ** 2 * prob.t_end, reaction=prob.reaction)


def rescale_trace(trace: SolveTrace, spec: RescaleSpec) -> SolveTrace:
    """rescale_field applied to every sample, the status time and the dt log."""
    status = trace.status
    if status.t_detect is not None:
        status = TraceStatus(status.kind, spec.lam ** 2 * status.t_detect,
                             status.reason, status.criterion)
    return SolveTrace(trace.grid.scaled(spec.lam), trace.p, spec.lam ** 2 * trace.times,
                      trace.samples * spec.lam ** spec.delta, status,
                      trace.step_log * spec.lam ** 2)
