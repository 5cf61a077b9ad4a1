"""Time integration of f_t = lap(f) + f^p with blowup detection and rescaling.

Method of lines with classical 4-stage Runge-Kutta in time and the central
stencils from `field` in space.  The step size obeys two caps,

    dt <= cfl_safety * h^2 / (2 n)            (diffusion stability)
    dt <= reaction_safety / (p * max f^{p-1}) (reaction stiffness)

so the explicit scheme stays stable all the way into the blowup regime, where
the reaction cap takes over and dt shrinks like f^{1-p}.  Blowup is declared,
never proved: the trace status records which criterion fired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveField, OutOfWindow
from .field import Field, Grid, fill_ghost, require_positive, shift_slices


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


class _Workspace:
    """Preallocated buffers for the RK4 stepper.

    The solve loop runs tens of thousands of steps on mid-size arrays, so the
    right-hand side is evaluated allocation-free: ghost cells are filled in
    place and every stage writes into a reused buffer.
    """

    def __init__(self, grid: Grid, p: float, reaction: bool):
        self.grid = grid
        self.p = p
        self.reaction = reaction
        shape = grid.extents
        self.padded = np.empty(tuple(n + 2 for n in shape))
        self.tmp = np.empty(shape)
        self.stage = np.empty(shape)
        self.acc = np.empty(shape)
        self.k = [np.empty(shape) for _ in range(4)]
        self._shifts = [shift_slices(grid.dim, ax) for ax in range(grid.dim)]

    def _rhs(self, values: np.ndarray, out: np.ndarray) -> None:
        g = self.grid
        p = fill_ghost(self.padded, values, g.boundary)
        for ax, (minus, _, plus) in enumerate(self._shifts):
            dst = out if ax == 0 else self.tmp
            np.add(p[plus], p[minus], out=dst)
            dst -= values
            dst -= values
            dst *= 1.0 / (g.spacing[ax] * g.spacing[ax])
            if ax > 0:
                out += dst
        if self.reaction:
            t = self.tmp
            if self.p == 2.0:
                np.multiply(values, values, out=t)
            elif self.p == int(self.p) and 1 < self.p <= 8:
                np.power(values, int(self.p), out=t)
            else:
                np.power(values, self.p, out=t)
            out += t

    def rk4(self, y: np.ndarray, dt: float, out: np.ndarray) -> None:
        """One step into `out` (distinct from y); checks stage positivity."""
        k1, k2, k3, k4 = self.k
        stage, acc = self.stage, self.acc
        _check_stage(y, "step input")
        self._rhs(y, k1)
        np.multiply(k1, 0.5 * dt, out=stage)
        stage += y
        self._rhs(_check_stage(stage, "RK stage 2"), k2)
        np.multiply(k2, 0.5 * dt, out=stage)
        stage += y
        self._rhs(_check_stage(stage, "RK stage 3"), k3)
        np.multiply(k3, dt, out=stage)
        stage += y
        self._rhs(_check_stage(stage, "RK stage 4"), k4)
        np.add(k2, k3, out=acc)
        acc *= 2.0
        acc += k1
        acc += k4
        acc *= dt / 6.0
        np.add(y, acc, out=out)
        _check_stage(out, "RK4 result")


def step(f: Field, t: float, dt: float, p: float, reaction: bool = True) -> Field:
    """One classical RK4 step; fails if any stage or the result loses positivity."""
    if dt < 0:
        raise ValueError("need dt >= 0")
    if dt == 0.0:
        return f
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


def solve(prob: ProblemSpec, cfg: StepConfig | None = None) -> SolveTrace:
    """Integrate until t_end, blowup declaration, or abort.

    Blowup is declared when max f exceeds cfg.f_cap, or when the stable dt
    falls below cfg.dt_min while max f is still rising.  A positivity failure
    aborts with the timestamp attached.
    """
    cfg = cfg or StepConfig()
    f0 = initial_field(prob)
    if cfg.f_cap <= f0.max():
        raise ValueError("f_cap must exceed the initial maximum")

    grid = prob.grid
    ws = _Workspace(grid, prob.p, prob.reaction)
    y = np.array(f0.values)          # writable working copy
    y_next = np.empty(grid.extents)

    t = 0.0
    times = [t]
    samples = [f0.values]
    step_log: list[float] = []
    prev_max = f0.max()
    status: TraceStatus | None = None
    accepted = 0

    while t < prob.t_end:
        fmax = float(y.max())
        dt_stable = stable_dt(grid, prob.p, fmax, cfg, prob.reaction)
        if dt_stable < cfg.dt_min:
            if fmax > prev_max:
                status = TraceStatus.blowup(t, criterion="dt_floor")
            else:
                status = TraceStatus.aborted("dt underflow without growth", t)
            break
        dt = min(dt_stable, prob.t_end - t)
        try:
            ws.rk4(y, dt, y_next)
        except NonPositiveField as exc:
            status = TraceStatus.aborted(str(exc), t)
            break
        prev_max = fmax
        y, y_next = y_next, y
        t += dt
        accepted += 1
        step_log.append(dt)
        if accepted % cfg.sample_stride == 0:
            times.append(t)
            samples.append(y.copy())
        if y.max() > cfg.f_cap:
            status = TraceStatus.blowup(t, criterion="f_cap")
            break

    if status is None:
        status = TraceStatus.reached()
    if times[-1] != t:
        times.append(t)
        samples.append(y)           # the stepping is over; np.stack copies it
    return SolveTrace(grid, prob.p, np.array(times), np.stack(samples), status,
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
