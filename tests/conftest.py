import os
from pathlib import Path

import numpy as np
import pytest

from eseharnack import Grid, ProblemSpec, StepConfig, gaussian, solve
from eseharnack.classical import PairCheck

# the width-0.2 Gaussian on [-4, 4] with reflecting walls is the shared
# baseline run for the Harnack / residual / classical checks
BASE_BOX = (-4.0, 4.0)
BASE_WIDTH = 0.2
BASE_AMPLITUDE = 1.0


def gaussian_problem(n_points, t_end=1.0, dim=1, box=BASE_BOX, width=BASE_WIDTH,
                     amplitude=BASE_AMPLITUDE, p=2.0, boundary="reflecting",
                     reaction=True):
    grid = Grid((box,) * dim, (n_points,) * dim, boundary)
    center = (0.0,) * dim
    return ProblemSpec(grid, p, gaussian(grid, amplitude, width, center),
                       t_end, reaction=reaction)


def constant_problem(level=1.0, t_end=2.0, n_points=16, box=(0.0, 100.0), p=2.0):
    # wide box so the CFL cap never binds and the reaction cap rules the step
    grid = Grid.line(*box, n_points)
    return ProblemSpec(grid, p, np.full(grid.extents, level), t_end)


def field_at(trace, t):
    """The whole sampled field at time t, linear in time between the samples
    that bracket t: the reference for the interpolations of the package.
    Between samples i - 1 and i, i the first sample after t (or the last
    sample): a sample time gets w = 0 or, at the last sample, w = 1, which
    reproduce that sample exactly."""
    ts = trace.times
    i = min(int(np.searchsorted(ts, t, side="right")), len(ts) - 1)
    w = (t - ts[i - 1]) / (ts[i] - ts[i - 1])
    return (1.0 - w) * trace.samples[i - 1] + w * trace.samples[i]


def values_at(trace, xs, ts):
    """The solution at the m points (xs[j], ts[j]), xs of shape (m, dim), as
    the classical check reads a pair's endpoints from the whole trace."""
    check = PairCheck(trace.grid, [(x, t, x, t) for x, t in zip(xs, ts)], trace.grid.dim)
    check.take(trace.times, trace.samples)
    return check.values()[:len(ts)]


@pytest.fixture(scope="session")
def gauss128():
    return solve(gaussian_problem(128), StepConfig(sample_stride=8))


@pytest.fixture(scope="session")
def gauss256():
    return solve(gaussian_problem(256), StepConfig(sample_stride=4))


@pytest.fixture(scope="session")
def gauss512():
    return solve(gaussian_problem(512), StepConfig(sample_stride=2))


@pytest.fixture(scope="session")
def heat256():
    """Reaction-free twin of the baseline (pure heat sanity runs)."""
    return solve(gaussian_problem(256, reaction=False), StepConfig(sample_stride=4))


@pytest.fixture(scope="session")
def const_run():
    """Constant data f0 = 1, p = 2: blows up at exactly T* = 1."""
    return solve(constant_problem(), StepConfig(reaction_safety=0.01, sample_stride=1))


# a solve of dim >= 2 may split its rows with a forked partner only where
# integrate._may_split allows it; these tests also read /proc
needs_split = pytest.mark.skipif(
    not (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
         and os.uname().machine == "x86_64" and Path("/proc/self/maps").exists()),
    reason="the row split runs on Linux on x86-64 with two CPUs")


# ---------------------------------------------------------------------------
# acceptance reporting: one pass/fail line per criterion at the end of the run

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{name}]: {tag}"
    if detail:
        line += f"  ({detail})"
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
