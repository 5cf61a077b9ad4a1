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
import os
import sys
import threading
from dataclasses import dataclass
from functools import partial
from time import perf_counter, sleep

import numpy as np

from .errors import CapBelowInitial, NonPositiveField, OutOfWindow
from .field import Grid, require_positive


# ---------------------------------------------------------------------------
# problem description

def _check_shape(values: np.ndarray, grid: Grid) -> None:
    if values.shape != grid.extents:
        raise ValueError(
            f"value shape {values.shape} does not match grid extents {grid.extents}")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Cauchy problem: grid, exponent p > 1, positive initial data, horizon.

    `initial` is f0 itself, copied into a read-only float64 array of the
    grid's extents; every value must be finite and > 0.
    """

    grid: Grid
    p: float
    initial: np.ndarray
    t_end: float
    reaction: bool = True  # False integrates the pure heat equation (sanity runs)

    def __post_init__(self):
        # the evolution identity's coefficients are quadratic in p
        if not (1 < self.p and self.p * self.p < math.inf):
            raise ValueError(f"need p > 1 with p^2 finite, got {self.p}")
        if not 0 < self.t_end < math.inf:
            raise ValueError(f"need a finite t_end > 0, got {self.t_end}")
        f0 = np.array(self.initial, dtype=np.float64, copy=True)
        _check_shape(f0, self.grid)
        require_positive(f0, "initial data")
        if not f0.max() < math.inf:
            raise ValueError(f"initial data must be finite, found max {float(f0.max())}")
        f0.setflags(write=False)
        object.__setattr__(self, "initial", f0)

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
    samples  sampled values, float64 of shape (n_samples, *grid.extents),
             or (0, *grid.extents) for a solve whose samples went to a sink
    maxima   each sample's max f, float64 of shape (n_samples,)
    argmax   each sample's first maximum, a flat index, of shape (n_samples,)

    `solve` records maxima and argmax as it samples; a trace built from its
    samples (maxima and argmax None) derives them.  Every array is read-only.
    """

    grid: Grid
    p: float
    times: np.ndarray
    samples: np.ndarray
    status: TraceStatus
    step_log: np.ndarray
    reaction: bool = True   # False: a solve of the pure heat equation
    maxima: np.ndarray | None = None
    argmax: np.ndarray | None = None

    def __post_init__(self):
        if self.maxima is None:
            rows = self.samples.reshape(len(self.samples), self.grid.size)
            self.argmax = rows.argmax(axis=1)
            self.maxima = rows[np.arange(len(rows)), self.argmax]
        for a in (self.times, self.samples, self.maxima, self.argmax):
            a.setflags(write=False)

    def __setstate__(self, state: dict) -> None:   # pickle's arrays come back writable
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def max_curve(self) -> tuple[np.ndarray, np.ndarray]:
        return self.times, self.maxima

    def bracket(self, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(below, above, w), one entry per time of the array ts: the
        solution at ts[j] is (1 - w[j]) * samples[below[j]] + w[j] *
        samples[above[j]], where a sample time has below == above and w == 0.
        OutOfWindow for a time outside [times[0], times[-1]]."""
        times, ts = self.times, np.asarray(ts, dtype=float)
        off = ~((times[0] <= ts) & (ts <= times[-1]))
        if off.any():
            raise OutOfWindow(f"t={ts[off][0]} outside sampled window "
                              f"[{times[0]}, {times[-1]}]")
        above = np.searchsorted(times, ts)
        hit = times[above] == ts
        below = np.where(hit, above, above - 1)
        w = np.divide(ts - times[below], times[above] - times[below],
                      out=np.zeros(ts.shape), where=~hit)
        return below, above, w

    def peak(self, i: int) -> tuple[float, ...]:
        """The grid point where sample i peaks (its first maximum)."""
        return self.grid.point(int(self.argmax[i]))


# ---------------------------------------------------------------------------
# stepping

# with axis None: ndarray.min and ndarray.max without their Python wrappers
_min, _max = np.minimum.reduce, np.maximum.reduce


def _aligned(shape: tuple[int, ...], first: int = 0) -> np.ndarray:
    """An uninitialised C-contiguous float64 array of `shape` whose element
    `first` (in C order) starts on a 64-byte cache line."""
    size = math.prod(shape)
    raw = np.empty(size + 8)
    skip = -(raw.ctypes.data // 8 + first) % 8
    return raw[skip:skip + size].reshape(shape)


# The control block of a split step, in float64 slots: per side (0 the
# solver, 1 its partner) two cache lines holding its arrivals at the stage
# barrier and the min and max of its rows; then what the solver sets per
# step.
_SIDE, _ARRIVED, _MIN, _MAX = 16, 0, 1, 2
_GO, _CUR, _DT, _CTL = 32, 33, 34, 64


def _shared(shape: tuple[int, ...], count: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The control block and `count` C-contiguous float64 arrays of `shape`,
    each starting on a cache line, in one anonymous shared mapping, which a
    forked child writes as well.  It is unmapped when the last of these
    arrays goes."""
    import mmap
    size = math.prod(shape)
    stride = -(-size // 8) * 8
    flat = np.frombuffer(mmap.mmap(-1, 8 * (_CTL + count * stride)), np.float64)
    return flat[:_CTL], [flat[_CTL + j * stride:][:size].reshape(shape) for j in range(count)]


def _part(rows: tuple[int, int] | None):
    """The rows lo..hi-1 of the first axis of an array, or the array itself."""
    return (lambda a: a) if rows is None else (lambda a: a[rows[0]:rows[1]])


# a grid of these dims with this many points or more may step in two
# processes; 3-D grids step alone until a 3-D workload has timed the split
_SPLIT_DIMS, _SPLIT_POINTS = (2,), 1 << 14
# steps left untimed (first touches) before the one-process steps are timed,
# and again after the fork; the split's running time is then checked every
# window of steps
_WARM, _TIMED, _WINDOW = 4, 16, 256


def _may_split(grid: Grid) -> bool:
    """Whether a solve on `grid` may fork a partner (`_Workspace`): a dim in
    `_SPLIT_DIMS` and `_SPLIT_POINTS` points or more, two CPUs to run on, no
    other solve in this command (this process is no worker process, of
    sweep --jobs or of the rescale check, and runs none alongside), and no
    other thread, whose locks a fork would copy held.  Linux on x86-64 only:
    the split needs `os.fork` and `os.sched_getaffinity`, and the barrier
    relies on every CPU seeing the stores of x86-64 in program order."""
    if (grid.dim not in _SPLIT_DIMS or grid.size < _SPLIT_POINTS or sys.platform != "linux"
            or os.uname().machine != "x86_64" or len(os.sched_getaffinity(0)) < 2
            or threading.active_count() > 1):
        return False
    import multiprocessing
    return multiprocessing.parent_process() is None and not multiprocessing.active_children()


# for the (n, 2) edge view of a 2-D grid's last axis: iterate the long axis
# innermost, not the pair
_add_f = partial(np.add, order="F")


class _Workspace:
    """Preallocated buffers for the RK4 stepper, and every call of a step
    bound to them once.

    The solve loop runs tens of thousands of steps on mid-size arrays, so a
    step allocates nothing and makes as few numpy calls as its IEEE
    operations allow.  The grid's stencil operator reads the neighbours
    straight from the state, and every call writes into a reused buffer.
    The workspace owns the two state buffers the solve loop alternates
    between, two stage buffers that the stages alternate between, the acc
    and k buffers, and, per state buffer, the step's calls as (ufunc, args)
    per stage (`_bind`).  Their scalars are 0-d arrays (a Python float costs
    a conversion per call); dt/2, dt and dt/6 are set once per step.

    Every buffer starts on a 64-byte cache line, and `tmp` is offset so
    that its last axis's contiguous run does: a float64 ufunc whose output
    does not start on a line takes about twice as long.  The first axis's
    run starts prod(extents[1:]) elements in, so it is aligned when that is
    a multiple of 8.

    With `shared`, the states, the stages and the step's scalars lie in
    shared memory, and the workspace may step in two processes (`_policy`):
    after timing `_TIMED` steps alone it forks a partner, binds its own
    calls to the first half of the rows of the first axis and the
    partner's to the rest, and the two cross a barrier after each stage,
    where each side waits for the other by polling shared memory alone.
    A half reads the neighbouring rows of the other half's states and
    stages, hence two stage buffers: a stage's buffer is written only after
    the barrier behind every read of it.  Every other buffer is each
    process's own, aligned for its first row.  Each element gets the same
    IEEE operations either way, so the result is the same bit for bit.
    """

    def __init__(self, grid: Grid, p: float, reaction: bool, shared: bool = False):
        self.op = grid.stencil
        self.p = p
        self.reaction = reaction
        shape = grid.extents
        self._pace = self._pid = self._first = None
        if shared:
            self._ctl, bufs = _shared(shape, 4)
            self._mv = memoryview(self._ctl)
            scalars = [self._ctl[j:j + 1].reshape(()) for j in range(_DT, _DT + 3)]
            self._pace = self._policy().send
            self._pace(None)
        else:
            bufs = [_aligned(shape) for _ in range(4)]
            scalars = [np.zeros(()) for _ in range(3)]
        self.states, self.stages = tuple(bufs[:2]), tuple(bufs[2:])
        self._half_dt, self._dt, self._sixth_dt = scalars
        self.bind_rows(0, shape[0])

    def bind_rows(self, lo: int, hi: int) -> None:
        """Binds every call of a step to rows lo..hi-1 of the first axis,
        with scratch buffers of this process's own whose row lo starts on a
        cache line (the plans of all rows are those of whole arrays)."""
        shape = self.op.shape
        first = lo * (math.prod(shape) // shape[0])
        if first != self._first:
            self.tmp = _aligned(shape, first=max(first, 1))
            self.acc = _aligned(shape, first)
            self.k = [_aligned(shape, first) for _ in range(4)]
            self._first = first
        self._rows = None if (lo, hi) == (0, shape[0]) else (lo, hi)
        self._plans = (self._bind(0), self._bind(1))

    def _rhs(self, values: np.ndarray, out: np.ndarray, rows=None) -> list:
        """The calls that write lap(values) + values^p into `out`, with `tmp`
        and `acc` as scratch; with `rows`, into those rows only.  Per axis
        only the neighbour sum reads shifted views, the run's and then the
        edges' (whose sums overwrite the run's wrong ones); the rest of the
        diffusion term runs on the whole array, or the whole rows."""
        calls, last, part = [], len(self.op.inv_h2) - 1, _part(rows)
        v, o = part(values), part(out)
        for ax, inv_h2 in enumerate(self.op.inv_h2):
            dst = out if ax == 0 else self.tmp
            (minus, _, plus, run), (e_minus, _, e_plus, edges) = self.op.bind(values, ax, dst, rows)
            d = part(dst)
            calls += [(np.add, (plus, minus, run)),
                      (_add_f if ax == last == 1 else np.add, (e_plus, e_minus, edges)),
                      (np.subtract, (d, v, d)), (np.subtract, (d, v, d)),
                      (np.multiply, (d, np.array(inv_h2), d))]
            if ax > 0:
                calls.append((np.add, (o, d, o)))
        if self.reaction:
            # np.square(x) is x * x, bit for bit
            acc = part(self.acc)
            calls += [(np.square, (v, acc)) if self.p == 2.0
                      else (np.power, (v, np.array(self.p), acc)),
                      (np.add, (o, acc, o))]
        return calls

    def _bind(self, i: int) -> tuple:
        """The step out of states[i]: per stage, its calls, the rows of the
        array that `_step` then checks, that array and its label."""
        rows = self._rows
        part = _part(rows)
        y, out = self.states[i], self.states[1 - i]
        k1, k2, k3, k4 = (part(k) for k in self.k)
        s1, s2 = self.stages
        acc = part(self.acc)
        add, multiply = np.add, np.multiply

        def next_stage(k, scale, stage):
            return [(multiply, (k, scale, part(stage))), (add, (part(stage), part(y), part(stage)))]

        return ((self._rhs(y, self.k[0], rows) + next_stage(k1, self._half_dt, s1),
                 part(s1), s1, "RK stage 2"),
                (self._rhs(s1, self.k[1], rows) + next_stage(k2, self._half_dt, s2),
                 part(s2), s2, "RK stage 3"),
                (self._rhs(s2, self.k[2], rows) + next_stage(k3, self._dt, s1),
                 part(s1), s1, "RK stage 4"),
                (self._rhs(s1, self.k[3], rows) + [
                    (add, (k2, k3, acc)), (multiply, (acc, np.array(2.0), acc)),
                    (add, (acc, k1, acc)), (add, (acc, k4, acc)),
                    (multiply, (acc, self._sixth_dt, acc)), (add, (part(y), acc, part(out)))],
                 part(out), out, "RK4 result"))

    def advance(self, i: int, dt: float) -> int:
        """One step from the positive state states[i] into the other state
        buffer; checks that every later stage and the result stay positive.
        Returns the other buffer's index, and sets `result_max`."""
        self._half_dt[...] = 0.5 * dt
        self._dt[...] = dt
        self._sixth_dt[...] = dt / 6.0
        start = perf_counter()
        nxt = self._step(i)
        if self._pace is not None:   # None once a failed split step went alone
            try:
                self._pace(perf_counter() - start)
            except StopIteration:
                self._pace = None
        return nxt

    def _step(self, i: int) -> int:
        """The step on this process's rows: all of them, or while split the
        solver's half, which crosses the barrier after each stage and is
        redone alone if the partner is gone or stalls."""
        split = self._pid is not None
        if split:
            self._mv[_CUR] = i
            self._mv[_GO] += 1.0
        for j, (calls, values, whole, label) in enumerate(self._plans[i]):
            for call, args in calls:
                call(*args)
            if not split:
                low = _min(values, None)
            elif self._cross(values, j == 3):
                low = _min(self._mins, None)
            else:
                self._alone()
                return self._step(i)
            if low <= 0.0:
                raise NonPositiveField(f"{label} went nonpositive (min={whole.min()})")
        self.result_max = float(_max(self._maxes if split else self.states[1 - i], None))
        return 1 - i

    # -- the split ----------------------------------------------------------

    def _policy(self):
        """Sent each step's seconds: forks the partner after timing `_TIMED`
        steps alone, and ends the split for good once the split steps since
        the warm-up have taken longer than as many steps alone plus a whole
        window of them, checked every `_WINDOW` steps.  A competing busy
        process slows them from then on; a burst of steps that the host's
        preemption of a vCPU stretches is paid back by the steps around it,
        and the extra window lets one such stall pass even in the first
        window, whose gain alone is too small to pay for it."""
        for _ in range(_WARM):
            yield
        timed = []
        for _ in range(_TIMED):
            timed.append((yield))
        alone = sorted(timed)[_TIMED // 2]   # the median, which a stalled step leaves
        if not self._fork(alone):
            return
        for _ in range(_WARM):
            yield
        split, steps = 0.0, 0
        while self._pid is not None:
            for _ in range(_WINDOW):
                split += yield
            steps += _WINDOW
            if split > (steps + _WINDOW) * alone:
                self._alone()

    def _fork(self, per_step: float) -> bool:
        """Forks the partner onto the second half of the rows; False if no
        process could be started.  At the barrier each side spins for a
        quarter of a one-process step, then polls with naps of that length,
        and gives up once the other has kept it waiting a window of
        one-process steps; the partner also gives up once the solver is
        gone.  Only the shared memory links the two.  While the split lasts
        on a process allowed exactly two CPUs, each side is pinned to one: left
        to the scheduler, two processes forked like this sometimes shared
        one CPU of a 2-vCPU VM for a whole second, the other idle.  With
        more CPUs neither is pinned, lest concurrent solves all pile onto
        the same two.  The partner is a process, not a thread: each ufunc
        call of either half must take the interpreter lock back.  Solving the
        128^2 benchmark config on a 2-vCPU VM, a thread partner took 4.3-6.3 s
        (threading.Barrier) or 4.6-4.8 s (a spin yielding the lock), the forked
        one 1.6-1.7 s, and the solve alone on one CPU 1.9-2.1 s."""
        n0 = self.op.shape[0]
        self._spin, self._patience = per_step / 4, _WINDOW * per_step
        cpus = os.sched_getaffinity(0)
        self._cpus = cpus if len(cpus) == 2 else None
        solver = os.getpid()
        try:
            pid = os.fork()
        except OSError:
            return False
        if pid == 0:
            try:
                if self._cpus:
                    os.sched_setaffinity(0, {max(cpus)})
                self._join(1, solver)
                self.bind_rows(n0 // 2, n0)
                self._serve()
            finally:
                os._exit(0)
        self._pid = pid
        if self._cpus:
            os.sched_setaffinity(0, {min(cpus)})
        self._join(0, None)
        self.bind_rows(0, n0 // 2)
        return True

    def _join(self, side: int, solver: int | None) -> None:
        ctl = self._ctl
        self._mine, self._other = _SIDE * side, _SIDE * (1 - side)
        self._solver = solver   # the partner's parent; None on the solver
        self._own = [ctl[self._mine + j:][:1].reshape(()) for j in (_MIN, _MAX)]
        self._mins, self._maxes = ctl[_MIN:2 * _SIDE:_SIDE], ctl[_MAX:2 * _SIDE:_SIDE]

    def _serve(self) -> None:
        """The partner: each step the solver starts, on its own rows, until
        the solver is gone or keeps it waiting too long."""
        mv, steps = self._mv, 0.0
        while self._wait(_GO, steps + 1.0):
            steps += 1.0
            for j, (calls, values, _, _) in enumerate(self._plans[int(mv[_CUR])]):
                for call, args in calls:
                    call(*args)
                if not self._cross(values, j == 3):
                    return

    def _cross(self, values: np.ndarray, last: bool) -> bool:
        """This side's stage barrier: publishes the min of its rows (and, on
        the last stage, their max), then waits for the other side's."""
        _min(values, None, out=self._own[0])
        if last:
            _max(values, None, out=self._own[1])
        mv = self._mv
        mv[self._mine + _ARRIVED] += 1.0
        return self._wait(self._other + _ARRIVED, mv[self._mine + _ARRIVED])

    def _wait(self, slot: int, target: float) -> bool:
        """Until control slot `slot` reaches `target`: spins for `_spin`
        seconds, then polls it, napping `_spin` seconds between reads (a
        spin alone starves the other side where both share one CPU).  False
        once the other side has kept this one waiting `_patience` seconds,
        or once the partner's solver is gone (its parent is no longer the
        solver), so that neither side waits for good."""
        mv, spin = self._mv, self._spin
        start = perf_counter()
        while mv[slot] < target:
            waited = perf_counter() - start
            if waited > spin:
                if waited > self._patience or (self._solver is not None
                                               and os.getppid() != self._solver):
                    return False
                sleep(spin)
        return True

    def _alone(self) -> None:
        """Ends the split for good: this process steps every row again."""
        self._pace = None
        if self._pid is not None:
            self.close()
            self.bind_rows(0, self.op.shape[0])

    def close(self) -> None:
        """Stops and reaps the partner, if any, and, if it was pinned, gives
        this process its CPUs back."""
        self._pace = None
        if self._pid is not None:
            import signal
            pid, self._pid = self._pid, None
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except OSError:   # already reaped: SIGCHLD is ignored
                pass
            if self._cpus:
                os.sched_setaffinity(0, self._cpus)

    def __enter__(self) -> "_Workspace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def step(values: np.ndarray, grid: Grid, dt: float, p: float,
         reaction: bool = True) -> np.ndarray:
    """One classical RK4 step of `values`, an array of the grid's shape, into
    a new array; `values` itself when dt is 0.  Fails if the input, any stage
    or the result is not positive."""
    if dt < 0:
        raise ValueError("need dt >= 0")
    if dt == 0.0:
        return values
    _check_shape(values, grid)
    if _min(values, None) <= 0.0:
        raise NonPositiveField(f"step input went nonpositive (min={values.min()})")
    ws = _Workspace(grid, p, reaction)
    ws.states[0][...] = values
    return ws.states[ws.advance(0, dt)]


def stable_dt(grid: Grid, p: float, fmax: float, cfg: StepConfig,
              reaction: bool = True) -> float:
    h_min = min(grid.spacing)
    dt = cfg.cfl_safety * h_min * h_min / (2.0 * grid.dim)
    if reaction:
        # for a large p the rate p f^(p-1) underflows to 0, which sets no
        # cap, or overflows, which sets a zero step that the dt floor stops
        try:
            rate = p * fmax ** (p - 1.0)
        except OverflowError:
            rate = math.inf
        if rate > 0:
            dt = min(dt, cfg.reaction_safety / rate)
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


class _Kept:
    """The sink that keeps every sample: each is written once, into one
    array of shape (capacity, *extents).  A run that needs more rows grows
    the array in place (doubling); `close` cuts it to the sample count."""

    def __init__(self, capacity: int, extents: tuple[int, ...]):
        self.samples = np.empty((capacity, *extents))
        self.count = 0

    def add(self, t: float, values: np.ndarray) -> None:
        if self.count == len(self.samples):
            # no view of the array exists, so realloc may move it
            self.samples.resize((2 * self.count, *self.samples.shape[1:]), refcheck=False)
        self.samples[self.count] = values
        self.count += 1

    def close(self) -> None:
        self.samples.resize((self.count, *self.samples.shape[1:]), refcheck=False)


def check_cap(prob: ProblemSpec, cfg: StepConfig) -> float:
    """The initial maximum of `prob`; CapBelowInitial unless `cfg.f_cap`
    exceeds it, since the run would then be declared a blowup at t = 0."""
    fmax = float(prob.initial.max())
    if cfg.f_cap <= fmax:
        raise CapBelowInitial(f"[step] f_cap = {cfg.f_cap} must exceed the initial "
                              f"maximum {fmax}")
    return fmax


# steps a plan replays at a time, and at most
_PLAN_CHUNK, _PLAN_STEPS = 1 << 12, 1 << 24


def planned_times(prob: ProblemSpec, cfg: StepConfig | None = None) -> np.ndarray:
    """The sample times of a solve of `prob` whose every step takes the
    first step's dt until the last, which ends at t_end: those of a run that
    the diffusion cap keeps at one dt, as `solve` records them.  The steps
    are replayed in chunks (`np.cumsum` adds in order, as the solve does);
    a plan of more than `_PLAN_STEPS` steps stops short."""
    cfg = cfg or StepConfig()
    t_end, stride = prob.t_end, cfg.sample_stride
    dt = stable_dt(prob.grid, prob.p, float(prob.initial.max()), cfg, prob.reaction)
    times, t, steps = [np.zeros(1)], 0.0, 0
    while t < t_end and steps < _PLAN_STEPS and not (dt < cfg.dt_min or t + dt == t):
        acc = np.cumsum(np.concatenate(([t], np.full(_PLAN_CHUNK, dt))))
        prev, ts = acc[:-1], acc[1:]   # t before and after each step
        short = t_end - prev < dt   # a step that takes t_end - t instead
        done = short | (ts >= t_end)
        n = int(np.argmax(done)) + 1 if done.any() else _PLAN_CHUNK
        if short[n - 1]:
            ts[n - 1] = prev[n - 1] + (t_end - prev[n - 1])
        times.append(ts[stride - 1 - steps % stride:n:stride])
        t, steps = float(ts[n - 1]), steps + n
    times = np.concatenate(times)
    return times if times[-1] == t else np.append(times, t)


def solve(prob: ProblemSpec, cfg: StepConfig | None = None, sink=None) -> SolveTrace:
    """Integrate until t_end, blowup declaration, or abort.

    Blowup is declared when max f exceeds cfg.f_cap, or when the stable dt
    falls below cfg.dt_min, or below the float spacing at t, while max f is
    still rising.  A positivity failure,
    or a step whose result is not finite (an overflow), aborts with the
    timestamp attached; the failed step is not recorded.

    The trace records each sample's time, max f (the step's `result_max`,
    which also sets the next dt) and first argmax, whatever keeps the
    samples.  Each recorded sample goes to `sink.add(t, values)`, values
    the solver's state, which the sink copies if it keeps it, and
    `sink.close()` follows the last; the trace then holds no samples.  With
    no sink the samples are kept (`_Kept`) and the trace holds them: the
    capacity comes from the first step's dt, which the diffusion cap keeps
    for the whole run; a reaction-capped run takes smaller steps and grows
    the array.
    """
    cfg = cfg or StepConfig()
    fmax = check_cap(prob, cfg)
    grid = prob.grid
    ws = _Workspace(grid, prob.p, prob.reaction, shared=_may_split(grid))
    cur = 0
    y = ws.states[cur]
    y[...] = prob.initial

    kept = sink if sink is not None else _Kept(_capacity(prob.t_end, stable_dt(grid, prob.p, fmax, cfg, prob.reaction),
                                   cfg.sample_stride, 8 * grid.size), grid.extents)
    t = 0.0
    times, maxima, argmax = [], [], []
    step_log: list[float] = []
    prev_max = fmax
    status: TraceStatus | None = None
    accepted = 0

    def record(at: float, values: np.ndarray) -> None:
        kept.add(at, values)
        times.append(at)
        maxima.append(fmax)   # every sample is of y, whose max fmax is
        argmax.append(values.argmax())

    record(t, y)

    with ws:   # ends a forked partner, whatever ends the loop
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
            new_max = ws.result_max   # also the next step's dt input
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
    kept.close()
    samples = kept.samples if sink is None else np.empty((0, *grid.extents))
    return SolveTrace(grid, prob.p, np.array(times), samples, status, np.asarray(step_log),
                      prob.reaction, np.array(maxima), np.array(argmax))


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
        try:
            factors = (self.lam ** 2, self.lam ** self.delta)
        except OverflowError:
            factors = (math.inf,)
        if not all(0 < f < math.inf for f in factors):
            raise ValueError(f"lambda = {self.lam} makes lambda^2 or lambda^delta "
                             f"(delta = {self.delta}) overflow or underflow")

    @property
    def delta(self) -> float:
        return -2.0 / (self.p - 1.0)


def rescale_problem(prob: ProblemSpec, spec: RescaleSpec) -> ProblemSpec:
    """The rescaled Cauchy problem: initial data scaled by lam^delta on the
    scaled grid, horizon by lam^2.  ValueError if the scaled data would
    overflow, checked before it is multiplied."""
    factor = spec.lam ** spec.delta
    fmax = float(prob.initial.max())
    if not factor * fmax < math.inf:
        raise ValueError(f"lambda^delta * max f0 = {factor} * {fmax} overflows")
    return ProblemSpec(prob.grid.scaled(spec.lam), prob.p, prob.initial * factor,
                       spec.lam ** 2 * prob.t_end, prob.reaction)


def rescale_trace(trace: SolveTrace, spec: RescaleSpec) -> SolveTrace:
    """The symmetry that preserves the equation, applied to a trace: values
    scaled by lam^delta, box coordinates by lam, and the sample times, the
    status time and the dt log by lam^2."""
    status = trace.status
    if status.t_detect is not None:
        status = TraceStatus(status.kind, spec.lam ** 2 * status.t_detect,
                             status.reason, status.criterion)
    return SolveTrace(trace.grid.scaled(spec.lam), trace.p, spec.lam ** 2 * trace.times,
                      trace.samples * spec.lam ** spec.delta, status,
                      trace.step_log * spec.lam ** 2, trace.reaction)
