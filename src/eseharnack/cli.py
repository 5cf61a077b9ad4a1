"""Command-line front end: solve runs, verification suites, sweeps, reports.

Commands
    solve        integrate a configured problem, write the trace to disk
    verify       run the enabled check set on a solved (or inline) trace
    region       CSV feasibility map over an (alpha, beta) grid
    sweep        verify over a cartesian product of config overrides
    preset-list  show the constant-preset catalog

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 usage/config error,
3 solver abort, 4 internal error (an unexpected exception; the traceback
goes to stderr).  Reports are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import itertools
import json
import math
import os
import sys
import threading
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import blowup as bl
from . import classical as cl
from . import constants as co
from . import harnack as ha
from . import integrate, traceio
from .errors import (BetaZero, CapBelowInitial, ConfigError, EseError, InvalidC,
                     NonPositiveField, WindowTooSmall)
# log_field and rescale_trace are not called here, but bench/tracing.py
# times them as eseharnack.cli.log_field and eseharnack.cli.rescale_trace
from .field import Grid, gaussian, log_field  # noqa: F401
from .integrate import (ProblemSpec, RescaleSpec, SolveTrace,  # noqa: F401
                        StepConfig, rescale_problem, rescale_trace, solve, stable_dt)

KNOWN_CHECKS = ("h0", "hr", "residual", "blowup", "classical", "rescale")

# the classical check takes a fraction of a millisecond per pair and keeps
# every pair's verdict for its CSV, so this many pairs take tens of seconds
MAX_CLASSICAL_PAIRS = 100_000


# ---------------------------------------------------------------------------
# config file parsing

@dataclass
class CheckSettings:
    enabled: tuple[str, ...] = ()
    t_min_frac: float = 0.05
    t_max_frac: float = 0.9
    h0_tol: float = 1e-2
    hr_rect: tuple[tuple[float, float], ...] | None = None
    residual_tol: float = 5e-2
    classical_pairs: int = 100
    classical_tol: float = 1e-3
    rescale_lambda: float = 2.0
    rescale_tol: float = 1e-3
    blowup_c: float | None = None

    def __post_init__(self):
        if not 0 < self.t_min_frac < self.t_max_frac <= 1:
            raise ValueError(f"need 0 < t_min_frac < t_max_frac <= 1, got t_min_frac = "
                             f"{self.t_min_frac} and t_max_frac = {self.t_max_frac}")
        for name in ("h0_tol", "residual_tol", "rescale_tol"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0 <= self.classical_tol < 1:
            raise ValueError(f"classical_tol must lie in [0, 1), since a pair passes when "
                             f"its slack is >= 1 - classical_tol; got {self.classical_tol}")
        if not 1 <= self.classical_pairs <= MAX_CLASSICAL_PAIRS:
            raise ValueError(f"classical_pairs must lie in [1, {MAX_CLASSICAL_PAIRS}], "
                             f"got {self.classical_pairs}")
        if not 0 < self.rescale_lambda < math.inf:
            raise ValueError(f"rescale_lambda must be finite and > 0, "
                             f"got {self.rescale_lambda}")
        if self.blowup_c is not None and not math.isfinite(self.blowup_c):
            raise ValueError(f"blowup_c must be finite, got {self.blowup_c}")


@dataclass
class RunConfig:
    problem: ProblemSpec
    step: StepConfig
    constants: co.HarnackConstants
    constants_source: str
    checks: CheckSettings
    outdir: str = "out"
    trace_dir: str | None = None
    # for the enabled checks: rescale's problem, hr's cutoff, blowup's threshold c
    rescaled: ProblemSpec | None = None
    localizer: ha.LocalizerSpec | None = None
    blowup_c: float | None = None


SECTIONS = ("problem", "step", "constants", "checks", "output", "verify")


class _Parser(configparser.ConfigParser):
    """A ConfigParser that records every (section, key) read through `get`,
    so that keys nobody read can be rejected.  Values are taken as written:
    configparser's interpolation raised on a '%' in a value (a file's or a
    sweep override's) outside every config error, an exit 4."""

    def __init__(self):
        super().__init__(inline_comment_prefixes=("#", ";"), interpolation=None)
        self.read_keys: set[tuple[str, str]] = set()

    def get(self, section, option, **kwargs):
        self.read_keys.add((section, self.optionxform(option)))
        return super().get(section, option, **kwargs)


def _check_section(section: str) -> None:
    if section not in SECTIONS:
        raise ConfigError(f"unknown section [{section}]; known: {', '.join(SECTIONS)}")


def _reject_unread(cp: _Parser) -> None:
    """ConfigError naming the first section outside SECTIONS, or the first
    key that a section sets and `build_config` never read."""
    for section in cp.sections():
        _check_section(section)
        for key in cp.options(section):
            if (section, key) not in cp.read_keys:
                raise ConfigError(f"[{section}] {key}: unknown key, or unused given "
                                  f"the section's other keys")


def _get(cp, section, key, cast):
    """A required key, cast; ConfigError naming the key if it is missing or bad."""
    if not cp.has_option(section, key):
        raise ConfigError(f"[{section}] is missing required key '{key}'")
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None


def _optional(cp, section, **casts) -> dict:
    """The keys of `section` that the config sets, cast.  Keys it leaves out
    are left out here too, so the dataclass they feed supplies the default."""
    return {key: _get(cp, section, key, cast)
            for key, cast in casts.items() if cp.has_option(section, key)}


def _parse_bool(raw: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "on", "true", "yes"):
        return True
    if val in ("0", "off", "false", "no"):
        return False
    raise ValueError(f"expected on/off, got {raw!r}")


def _parse_intervals(raw: str) -> tuple[tuple[float, float], ...]:
    out = []
    for part in raw.split(","):
        lo, sep, hi = part.partition(":")
        if not sep:
            raise ValueError(f"interval {part!r} must look like lo:hi")
        out.append((float(lo), float(hi)))
    return tuple(out)


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(","))


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.split(","))


def load_config(path, overrides=()) -> RunConfig:
    cp = _Parser()
    try:
        with open(path) as fh:
            cp.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except configparser.Error as exc:
        # configparser messages carry line numbers
        raise ConfigError(f"config parse error: {exc}") from None
    for section, key, value in overrides:
        _check_section(section)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value)
    return build_config(cp)


def build_config(cp: _Parser) -> RunConfig:
    """The run config that `cp` describes; ConfigError naming the first bad,
    missing, unknown or unused key."""
    if not cp.has_section("problem"):
        raise ConfigError("config needs a [problem] section")

    dim = _get(cp, "problem", "dim", int)
    if not 1 <= dim <= 3:   # before a one-interval box is repeated dim times
        raise ConfigError(f"[problem] dim = {dim}: need 1, 2 or 3")
    box = _get(cp, "problem", "box", _parse_intervals)
    extents = _get(cp, "problem", "extents", _parse_ints)
    if len(box) == 1 and dim > 1:
        box = box * dim
    if len(extents) == 1 and dim > 1:
        extents = extents * dim
    try:
        grid = Grid(box, extents, **_optional(cp, "problem", boundary=str))
    except ValueError as exc:
        raise ConfigError(f"[problem] grid: {exc}") from None
    if grid.dim != dim:
        raise ConfigError(f"[problem] dim={dim} but box has {grid.dim} axes")

    kind = _get(cp, "problem", "initial", str).strip().lower()
    p = _get(cp, "problem", "p", float)
    t_end = _get(cp, "problem", "t_end", float)
    try:
        if kind == "constant":
            level = _get(cp, "problem", "level", float)
            if not 0 < level < math.inf:
                raise ValueError(f"constant initial data needs a finite level > 0, "
                                 f"got {level}")
            initial = np.full(grid.extents, level)
        elif kind == "gaussian":
            initial = gaussian(grid, _get(cp, "problem", "amplitude", float),
                               _get(cp, "problem", "width", float),
                               **_optional(cp, "problem", center=_parse_floats))
        elif kind == "file":
            initial = traceio.load_array(_get(cp, "problem", "file", str), grid.extents)
        else:
            raise ConfigError(
                f"[problem] initial must be constant/gaussian/file, got {kind!r}")
        problem = ProblemSpec(grid, p, initial, t_end,
                              **_optional(cp, "problem", reaction=_parse_bool))
    except (ValueError, NonPositiveField) as exc:
        raise ConfigError(f"[problem]: {exc}") from None
    except MemoryError:
        raise ConfigError(f"[problem] extents = {grid.extents}: the initial data, "
                          f"{grid.size} float64 values, cannot be allocated") from None

    try:
        step = StepConfig(**_optional(cp, "step", cfl_safety=float, reaction_safety=float,
                                      dt_min=float, f_cap=float, sample_stride=int))
    except ValueError as exc:
        raise ConfigError(f"[step]: {exc}") from None
    if not problem.reaction:
        # every step is then the diffusion cap, and once t + dt == t time
        # stops: a t_end that far out would take some 2^53 steps to abort
        dt = stable_dt(grid, problem.p, 0.0, step, reaction=False)
        if problem.t_end + dt == problem.t_end:
            raise ConfigError(f"[problem] t_end = {problem.t_end} is out of reach with "
                              f"reaction = off: its step dt = {dt} is below half the "
                              f"float spacing at t_end")
    integrate.check_cap(problem, step)

    if cp.has_option("constants", "preset"):
        name = cp.get("constants", "preset").strip()
        try:
            n_k, p_k, k = co.preset(name)
        except EseError as exc:
            raise ConfigError(f"[constants] preset: {exc}") from None
        if n_k != grid.dim or p_k != problem.p:
            raise ConfigError(
                f"[constants] preset {name} is for (n={n_k}, p={p_k}), "
                f"problem has (n={grid.dim}, p={problem.p})")
        source = name
    elif cp.has_section("constants"):
        k = co.HarnackConstants(*(_get(cp, "constants", key, float)
                                  for key in ("alpha", "beta", "c", "a")))
        source = "explicit"
    else:
        raise ConfigError("config needs a [constants] section (preset or explicit tuple)")

    enabled = tuple(v.strip() for v in cp.get("checks", "enabled", fallback="").split(",")
                    if v.strip())
    for name in enabled:
        if name not in KNOWN_CHECKS:
            raise ConfigError(f"[checks] unknown check {name!r}; known: {KNOWN_CHECKS}")
    try:
        checks = CheckSettings(enabled, **_optional(
            cp, "checks", t_min_frac=float, t_max_frac=float, h0_tol=float,
            hr_rect=_parse_intervals, residual_tol=float,
            classical_pairs=int, classical_tol=float, rescale_lambda=float,
            rescale_tol=float, blowup_c=float))
    except ValueError as exc:
        raise ConfigError(f"[checks]: {exc}") from None
    if checks.t_min_frac * problem.t_end == 0:
        raise ConfigError(f"[checks] t_min_frac = {checks.t_min_frac} times [problem] t_end = "
                          f"{problem.t_end} rounds to 0: the check window must start at t > 0")
    rect = checks.hr_rect
    if rect is not None and not (len(rect) == grid.dim
                                 and all(-math.inf < lo < hi < math.inf for lo, hi in rect)):
        raise ConfigError(f"[checks] hr_rect = {cp.get('checks', 'hr_rect')!r}: need "
                          f"{grid.dim} finite intervals lo:hi with lo < hi, one per grid axis")
    # built here, so that a value no check can run with is refused before any solve
    rescaled = None
    if "rescale" in enabled:
        lam = checks.rescale_lambda
        try:
            rescaled = rescale_problem(problem, RescaleSpec(lam, problem.p))
            integrate.check_cap(rescaled, step)
        except CapBelowInitial as exc:
            raise ConfigError(f"[checks] rescale (rescale_lambda = {lam}): {exc}") from None
        except (ValueError, NonPositiveField) as exc:
            raise ConfigError(f"[checks] rescale_lambda = {lam}: {exc}") from None
    blowup_c = None
    if "blowup" in enabled:
        # [checks] blowup_c, else the constants' c where it lies in n(p-1) <= c < 2
        blowup_c = checks.blowup_c
        if blowup_c is None and co.blowup_c_valid(dim, problem.p, k.c):
            blowup_c = k.c
        if blowup_c is not None:
            try:
                bl.blowup_threshold(dim, problem.p, blowup_c)
            except InvalidC as exc:
                key = "[constants] c" if checks.blowup_c is None else "[checks] blowup_c"
                raise ConfigError(f"{key} = {blowup_c}: {exc}") from None
    loc = None
    if "hr" in enabled:
        if rect is None:   # the central half of the box
            rect = tuple((lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo)) for lo, hi in grid.box)
        try:
            loc = ha.make_localizer(rect, dim, k)
        except (BetaZero, ValueError) as exc:
            raise ConfigError(f"[checks] hr with (alpha, beta) = ({k.alpha}, {k.beta}): "
                              f"{exc}") from None
        if not all(((lo < x) & (x < hi)).any() for x, (lo, hi) in zip(grid.axes(), loc.rect)):
            raise ConfigError(f"[checks] hr_rect: no grid point lies strictly inside the "
                              f"rectangle {[list(iv) for iv in loc.rect]}")
    rc = RunConfig(problem, step, k, source, checks,
                   cp.get("output", "dir", fallback=RunConfig.outdir),
                   cp.get("verify", "trace_dir", fallback=None), rescaled, loc, blowup_c)
    _reject_unread(cp)
    return rc


# ---------------------------------------------------------------------------
# report writing

def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def make_out_dir(path, source: str) -> Path:
    """`path` as a directory, made if missing; ConfigError naming it and its
    `source` (`--out` or `[output] dir`) if it cannot be made."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{source} {str(out)!r}: cannot make the directory: "
                          f"{exc.strerror}") from None
    return out


def write_csv(path, header, rows) -> None:
    with traceio.writing(path), open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_summary(path, summary: dict) -> None:
    # JSON has no token for a non-finite float, so each is written as the
    # string _fmt puts in the CSVs; allow_nan=False refuses any left over
    strict = json.loads(json.dumps(summary), parse_constant=lambda c: _fmt(float(c)))
    with traceio.writing(path):
        Path(path).write_text(json.dumps(strict, sort_keys=True, indent=2, allow_nan=False)
                              + "\n")


# ---------------------------------------------------------------------------
# verify pipeline (shared by verify and sweep)

def _run_summary(trace: SolveTrace, report: bl.BlowupReport,
                 k: co.HarnackConstants) -> dict:
    """The summary keys solve and verify share: the constants, the regime and
    how the solve ended."""
    out = {"status": trace.status.kind, "n_steps": int(len(trace.step_log)),
           "constants": {"alpha": k.alpha, "beta": k.beta, "c": k.c, "a": k.a},
           "regime": report.regime}
    if report.detected:
        out["t_detect"] = trace.status.t_detect
        out["t_estimate"] = report.t_estimate
    if trace.status.kind == "aborted":
        out["abort_reason"] = trace.status.reason
    return out


def _check_blowup(trace: SolveTrace, report: bl.BlowupReport) -> tuple[bool, dict]:
    """Consistency checks around the blowup machinery, on a run's max curve.

    If blowup was detected, the extrapolated time must exceed 0.95 times the
    last sample's time and, when a sample met the threshold (its
    `blowup.threshold_hit`), max f must not decrease from that sample on.
    """
    ok = True
    if report.detected:
        ok &= report.t_estimate is not None and report.t_estimate > 0.95 * trace.t_final
        if report.threshold_met_at is not None:
            ok &= bl.grows_from(trace, report.threshold_met_at[1])
    return ok, asdict(report)


# bench/tracing.py times cli._min_hr_over_window by name; verify reads the
# H_R minimum from its check pass
_min_hr_over_window = ha.hr_window_min


def run_pipeline(rc: RunConfig, out: Path, out_source: str, seed: int,
                 allow_inadmissible: bool, require_checks: bool) -> tuple[int, dict]:
    """Solve (or load) and run the enabled checks, writing the reports into
    `out` (given by `out_source`); returns (exit_code, summary)."""
    n, p, k = rc.problem.n, rc.problem.p, rc.constants
    verdict = co.check_admissible(n, p, k)
    if not verdict.admissible and not allow_inadmissible:
        raise ConfigError(
            "constants are inadmissible: " +
            ", ".join(f"{v.name} (slack {v.slack:.3g})" for v in verdict.violated) +
            "; pass --allow-inadmissible to compute anyway")
    if require_checks and not rc.checks.enabled:
        raise ConfigError("[checks] enabled must name at least one check")
    if "classical" in rc.checks.enabled:
        hyp = co.check_classical_hypothesis(n, p, k)
        if not hyp.admissible and not allow_inadmissible:
            raise ConfigError(
                "constants fail the classical-Harnack hypotheses: " +
                ", ".join(v.name for v in hyp.violated))

    make_out_dir(out, out_source)
    # a trace of another problem is refused before the worker starts
    loaded = _load_matching_trace(rc) if rc.trace_dir else None
    # started first, so that it runs alongside the main solve and checks
    worker = nullcontext() if rc.rescaled is None else _rescaled_solve(rc)
    with worker as rescaled_trace, _naming_the_window_keys(rc):
        return _solve_and_check(rc, out, seed, verdict, rescaled_trace, loaded)


def _load_matching_trace(rc: RunConfig) -> SolveTrace:
    """The trace at `[verify] trace_dir`; ConfigError unless it is a solve of
    the configured problem up to its horizon."""
    trace = traceio.load_trace(rc.trace_dir)
    # a solve stops at the first t >= t_end, which can round one ulp over
    t_end = rc.problem.t_end
    if (trace.grid != rc.problem.grid or trace.p != rc.problem.p or trace.times[0] != 0
            or trace.reaction != rc.problem.reaction
            or not trace.t_final <= t_end + math.ulp(t_end)
            or (trace.status.kind == "reached_t_end" and trace.t_final < t_end)
            or not np.array_equal(trace.samples[0], rc.problem.initial)):
        raise ConfigError("loaded trace does not match the configured problem")
    return trace


@contextmanager
def _naming_the_window_keys(rc: RunConfig):
    """A window error of a trace check, raised as a ConfigError that also
    names the keys that set the window and the sample spacing."""
    try:
        yield
    except WindowTooSmall as exc:
        cs = rc.checks
        samples = (f"the trace at [verify] trace_dir = {rc.trace_dir} sets the samples"
                   if rc.trace_dir else f"[step] sample_stride = {rc.step.sample_stride} "
                   f"steps lie between samples")
        raise ConfigError(f"{exc}.  The window is [checks] t_min_frac = {cs.t_min_frac} "
                          f"to t_max_frac = {cs.t_max_frac} of the final time, and "
                          f"{samples}") from None


def _checks(rc: RunConfig, seed: int, plan: np.ndarray) -> tuple[ha.Checks, cl.PairCheck | None]:
    """The check pass of the enabled checks on a run whose samples are
    planned at the times `plan`, and its classical pairs, drawn in the
    window that the plan's last time fixes."""
    cs, grid, t_final = rc.checks, rc.problem.grid, float(plan[-1])
    window = (cs.t_min_frac * t_final, cs.t_max_frac * t_final)
    pairs = None
    if "classical" in cs.enabled:
        pairs = cl.PairCheck(grid, cl.random_pairs(grid, cs.classical_pairs, seed, window),
                             grid.dim, plan, cs.classical_tol)
    checks = ha.Checks(grid, rc.constants, rc.problem.p, plan, window, h0="h0" in cs.enabled,
                       loc=rc.localizer, residual="residual" in cs.enabled,
                       extra=[] if pairs is None else [pairs])
    return checks, pairs


def _checked_solve(rc: RunConfig, seed: int, kept: SolveTrace | None):
    """The run and its check pass: (trace, checks, pairs).

    A `kept` trace, loaded from `[verify] trace_dir`, holds its samples, as
    does a solve for the rescale check, which compares the trace whole with
    the rescaled solve; the pass replays them.  Otherwise the pass runs as
    the solve records its samples, planned on the sample times of a run at
    its first dt (`integrate.planned_times`), which a diffusion-capped run
    that reaches t_end keeps.  A run that does not, but is not aborted, is
    solved again with the pass planned on its own times: a solve is
    deterministic bit for bit, so the second one must end where the first
    did."""
    if kept is None and rc.rescaled is not None:
        kept = solve(rc.problem, rc.step)
    if kept is not None:
        checks, pairs = _checks(rc, seed, kept.times)
        checks.feed(kept)
        return kept, checks, pairs
    checks, pairs = _checks(rc, seed, integrate.planned_times(rc.problem, rc.step))
    trace = solve(rc.problem, rc.step, checks)
    if checks.complete or trace.status.kind == "aborted":
        return trace, checks, pairs
    checks, pairs = _checks(rc, seed, trace.times)
    again = solve(rc.problem, rc.step, checks)
    if not checks.complete or (again.status, len(again.step_log)) != (trace.status,
                                                                      len(trace.step_log)):
        raise RuntimeError(f"a second solve of the problem ended {again.status} after "
                           f"{len(again.step_log)} steps, the first {trace.status} after "
                           f"{len(trace.step_log)}")
    return again, checks, pairs


def _solve_and_check(rc: RunConfig, out: Path, seed: int, verdict: co.AdmissibilityVerdict,
                     rescaled_trace, loaded: SolveTrace | None) -> tuple[int, dict]:
    """`run_pipeline` after validation: solve (unless a trace was `loaded`),
    run the enabled checks (`_checked_solve`) and write the reports; the
    rescale check compares the trace with `rescaled_trace()`, the solve of
    the rescaled problem."""
    n, p, k = rc.problem.n, rc.problem.p, rc.constants
    cs = rc.checks
    trace, checks, pairs = _checked_solve(rc, seed, loaded)

    check_blowup = "blowup" in cs.enabled and trace.status.kind != "aborted"
    blowup = bl.blowup_report(trace, n, p, rc.blowup_c if check_blowup else None)
    summary: dict = {
        **_run_summary(trace, blowup, k),
        "admissible": verdict.admissible,
        "violated": [v.name for v in verdict.violated],
        "min_h0": None,
        "residual_stats": None,
        "classical_pass_fraction": None,
        "checks": {},
        "seed": seed,
    }
    summary["constants"]["source"] = rc.constants_source
    if trace.status.kind == "aborted":
        write_summary(out / "summary.json", summary)
        return 3, summary

    if "h0" in cs.enabled:
        report = checks.h0_report(cs.h0_tol)
        summary["min_h0"] = report.min_h0
        summary["checks"]["h0"] = report.passed
        summary["h0"] = {"min": report.min_h0,
                         "argmin_x": list(report.argmin_x),
                         "argmin_t": report.argmin_t,
                         "verdict": report.verdict,
                         "tol": cs.h0_tol}
        write_csv(out / "h0_curve.csv", ["t", "min_h0"], report.curve)

    if "hr" in cs.enabled:
        loc = rc.localizer
        min_hr = checks.hr_min()
        summary["hr"] = {"min": min_hr, "rect": [list(iv) for iv in loc.rect],
                         "a": loc.a, "b": loc.b}
        # inf, where no H_R inside is finite, fails as an overflowing residual does
        summary["checks"]["hr"] = -cs.h0_tol <= min_hr < math.inf

    if "residual" in cs.enabled:
        # a term past the float range makes the statistics inf or nan: a failed check
        stats = checks.residual()
        summary["residual_stats"] = {"max_rel": stats.max_rel,
                                     "mean_rel": stats.mean_rel,
                                     "max_abs": stats.max_abs,
                                     "normalizer": stats.normalizer,
                                     "n_times": stats.n_times}
        # verdict on the mean: the sup norm is dominated by under-resolved
        # log-field tails near the walls (reported above, never hidden)
        summary["checks"]["residual"] = stats.mean_rel <= cs.residual_tol

    if check_blowup:
        summary["checks"]["blowup"], summary["blowup"] = _check_blowup(trace, blowup)

    if pairs is not None:
        verdicts = pairs.verdicts()
        frac = sum(v.passed for v in verdicts) / len(verdicts)
        summary["classical_pass_fraction"] = frac
        summary["checks"]["classical"] = frac == 1.0
        write_csv(out / "classical_pairs.csv",
                  ["x1", "t1", "x2", "t2", "lhs", "rhs", "slack", "pass"],
                  [(";".join(repr(c) for c in v.x1), v.t1,
                    ";".join(repr(c) for c in v.x2), v.t2,
                    v.lhs, v.rhs, v.slack, v.passed) for v in verdicts])

    if "rescale" in cs.enabled:
        disc = rescale_commutation_discrepancy(trace, rescaled_trace(),
                                               RescaleSpec(cs.rescale_lambda, p))
        summary["rescale"] = {"lambda": cs.rescale_lambda, "max_rel_discrepancy": disc}
        summary["checks"]["rescale"] = disc <= cs.rescale_tol

    write_summary(out / "summary.json", summary)
    return (0 if all(summary["checks"].values()) else 1), summary


def _exit_with_parent() -> None:
    """Ends this worker process, of the rescale check or of `sweep --jobs`, as
    soon as its parent process is gone.  A parent killed by SIGKILL runs no
    cleanup, and its worker would otherwise run on, re-parented."""
    import multiprocessing.connection
    sentinel = multiprocessing.parent_process().sentinel

    def watch():
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _rescale_worker(send, problem: ProblemSpec, step: StepConfig) -> None:
    """The rescale check's worker: sends (True, the solve of `problem`), or
    (False, the exception that solving or sending it raised).  It calls
    integrate.solve, not this module's `solve`, which bench/tracing.py wraps."""
    _exit_with_parent()
    try:
        send.send((True, integrate.solve(problem, step)))
    except Exception as exc:
        send.send((False, exc))


@contextmanager
def _rescaled_solve(rc: RunConfig):
    """Solve `rc.rescaled` in one worker process while the caller goes on;
    yields a function that waits for that solve and returns its trace, or
    raises what it raised.  On exit the worker is stopped, not waited for."""
    # The default start method, as sweep's: a forked worker imports nothing
    # and finishes before the caller's checks do (spawn works too, but its
    # imports put it on the critical path).
    import multiprocessing
    recv, send = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.Process(target=_rescale_worker, args=(send, rc.rescaled, rc.step))
    with recv:
        with send:   # the worker's end: closed here, a worker gone reads as EOFError
            proc.start()

        def result() -> SolveTrace:
            ok, value = recv.recv()
            if not ok:
                raise value
            return value

        try:
            yield result
        finally:
            proc.terminate()
            proc.join()
            proc.close()


def rescale_commutation_discrepancy(trace: SolveTrace, other: SolveTrace,
                                    spec: RescaleSpec) -> float:
    """max relative gap between solve-then-rescale and rescale-then-solve,
    where `other` is the solve of the problem of `trace` rescaled by `spec`.

    The solved trace is rescaled a block of samples at a time
    (`harnack.block_len`), and `other` interpolated at the block's rescaled
    times with one weight per row, so no more than two whole traces are
    held at once.  A rescaled time that hits a sample of `other` exactly
    takes that sample, as (1 - 0) * sample + 0 * sample.
    """
    lo = max(spec.lam ** 2 * trace.times[0], other.times[0])
    hi = min(spec.lam ** 2 * trace.t_final, other.t_final)
    idx = ha.window_indices(spec.lam ** 2 * trace.times, (lo, hi))
    worst = 0.0
    step = ha.block_len(trace.grid)
    for start in range(0, len(idx), step):
        block = idx[start:start + step]
        rows = slice(block[0], block[-1] + 1)
        f = trace.samples[rows] * spec.lam ** spec.delta
        below, above, w = integrate.bracket(other.times, spec.lam ** 2 * trace.times[rows])
        g = (ha.column(1.0 - w, trace.grid) * other.samples[below]
             + ha.column(w, trace.grid) * other.samples[above])
        n = len(w)
        gaps = np.abs(f - g).reshape(n, -1).max(axis=1)
        for gap, denom in zip(gaps, np.abs(f).reshape(n, -1).max(axis=1)):
            worst = max(worst, float(gap) / float(denom))
    return worst


# ---------------------------------------------------------------------------
# commands

def cmd_solve(args) -> int:
    rc = load_config(args.config)
    source = "--out" if args.out else "[output] dir"
    out = make_out_dir(args.out or rc.outdir, source)
    make_out_dir(out / "trace", source)   # a file in its way is refused before the solve
    trace = solve(rc.problem, rc.step)
    traceio.save_trace(out / "trace", trace)
    report = bl.blowup_report(trace, rc.problem.n, rc.problem.p)
    summary = {**_run_summary(trace, report, rc.constants),
               "n_samples": len(trace.samples), "t_final": trace.t_final}
    if report.detected:
        summary["detection_criterion"] = trace.status.criterion
        summary["fit_residual"] = report.fit_residual
    write_summary(out / "summary.json", summary)
    print(f"status: {trace.status.kind}  samples: {len(trace.samples)}  out: {out}")
    return 3 if trace.status.kind == "aborted" else 0


def cmd_verify(args) -> int:
    if args.seed < 0:   # the classical draw refuses it, but only after the solve
        raise ConfigError(f"--seed {args.seed} must be >= 0")
    rc = load_config(args.config)
    out = Path(args.out or rc.outdir)
    code, summary = run_pipeline(rc, out, "--out" if args.out else "[output] dir", args.seed,
                                 args.allow_inadmissible, require_checks=True)
    for name, ok in summary["checks"].items():
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    print(f"summary: {out / 'summary.json'}")
    return code


# every cell of the region map is a feasibility solve in Python, so a
# million points a side is far past any useful map (and an 8 MB axis)
_MAX_GRID_COUNT = 10 ** 6


def _parse_grid_spec(flag: str, raw: str) -> np.ndarray:
    """A `lo:hi:count` flag value as count evenly spaced points; ConfigError
    naming the flag and the value if it is malformed."""
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{flag} {raw!r} must look like lo:hi:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"{flag} {raw!r} must look like lo:hi:count with numbers "
                          f"lo, hi and an integer count") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{flag} {raw!r} needs finite lo and hi")
    if not 1 <= count <= _MAX_GRID_COUNT:
        raise ConfigError(f"{flag} {raw!r} needs 1 <= count <= {_MAX_GRID_COUNT}")
    return np.linspace(lo, hi, count)


def cmd_region(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n {args.n} must be at least 1")
    if not (math.isfinite(args.p) and args.p > 1):
        raise ConfigError(f"--p {args.p} must be a finite number > 1")
    alphas = _parse_grid_spec("--alpha", args.alpha)
    betas = _parse_grid_spec("--beta", args.beta)
    rows = []
    any_valid = False
    for alpha in alphas:
        for beta in betas:
            if alpha > beta >= 0:
                any_valid = True
                reg = co.feasible_region(args.n, args.p, alpha, beta)
                rows.append((args.n, args.p, float(alpha), float(beta),
                             reg.c_lo, reg.c_hi, reg.a_min, reg.feasible))
            else:
                rows.append((args.n, args.p, float(alpha), float(beta),
                             math.nan, math.nan, math.nan, False))
    if not any_valid:
        raise ConfigError("no grid point has alpha > beta >= 0")
    path = make_out_dir(args.out, "--out") / "region.csv"
    write_csv(path, ["n", "p", "alpha", "beta", "c_lo", "c_hi", "a_min", "feasible"], rows)
    n_feas = sum(1 for r in rows if r[-1])
    print(f"{len(rows)} cells ({n_feas} feasible) -> {path}")
    return 0


def _axis_points(axes: list[tuple[str, str, list[str]]]):
    """Cartesian product of override axes; yields (label, overrides)."""
    names = [f"{sec}.{key}" for sec, key, _ in axes]
    for combo in itertools.product(*(vals for _, _, vals in axes)):
        label = ",".join(f"{n}={v}" for n, v in zip(names, combo))
        overrides = [(sec, key, val) for (sec, key, _), val in zip(axes, combo)]
        yield label, overrides


def _sweep_worker(packed):
    config_path, overrides, outdir, seed, allow_inadmissible = packed
    try:
        rc = load_config(config_path, overrides=overrides)
        code, summary = run_pipeline(rc, Path(outdir), "--out", seed, allow_inadmissible,
                                     require_checks=False)
    except EseError as exc:
        return 2, {"status": "config_error", "error": str(exc)}
    return code, summary


def cmd_sweep(args) -> int:
    axes = []
    for spec in args.axis:
        head, sep, tail = spec.partition("=")
        if not sep or "." not in head:
            raise ConfigError(f"axis {spec!r} must look like section.key=v1,v2,... "
                              f"or section.key=v1;v2;...")
        section, _, key = head.partition(".")
        # ';' separates the values when there is one, so that a value may
        # hold commas (a per-axis box, a 2-D hr_rect, a centre)
        values = [v.strip() for v in tail.split(";" if ";" in tail else ",") if v.strip()]
        if not values:
            raise ConfigError(f"axis {spec!r} has no values")
        axes.append((section.strip(), key.strip(), values))
    if not axes:
        raise ConfigError("sweep needs at least one --axis")
    if args.jobs < 1:
        raise ConfigError(f"--jobs {args.jobs} must be at least 1")
    if args.seed < 0:
        raise ConfigError(f"--seed {args.seed} must be >= 0")
    load_config(args.config)  # validate template before spawning workers

    out = make_out_dir(args.out, "--out")
    points = list(_axis_points(axes))
    jobs = []
    for i, (label, overrides) in enumerate(points):
        subdir = out / f"point_{i:03d}"
        jobs.append((args.config, overrides, str(subdir), args.seed,
                     args.allow_inadmissible))

    # the fork start method forks every worker at the first submit
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_exit_with_parent) as pool:
            results = list(pool.map(_sweep_worker, jobs))
    else:
        results = [_sweep_worker(j) for j in jobs]

    rows = []
    worst = 0
    for i, ((label, _), (code, summary)) in enumerate(zip(points, results)):
        worst = max(worst, code)
        rows.append((i, label, summary.get("status"),
                     summary.get("t_estimate"), summary.get("min_h0"),
                     summary.get("classical_pass_fraction"),
                     code == 0))
        print(f"point {i:03d} [{label}]: {summary.get('status')} "
              f"{'ok' if code == 0 else f'exit {code}'}")
    write_csv(out / "sweep.csv",
              ["point", "axes", "status", "t_estimate", "min_h0",
               "classical_pass_fraction", "pass"], rows)
    return worst


def cmd_preset_list(_args) -> int:
    for name in sorted(co._FIXED_PRESETS):
        n, p, k = co.preset(name)
        print(f"{name}: n={n} p={p} (alpha, beta, c, a)="
              f"({k.alpha}, {k.beta}, {k.c}, {k.a})")
    print("blowup(n,p,c): n=n p=p (2, 1, c, 2n) for n(p-1) <= c < 2")
    return 0


# ---------------------------------------------------------------------------
# entry

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eseharnack",
        description="Solver and Harnack verification harness for f_t = lap(f) + f^p")
    sub = ap.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="integrate and store the trace")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(fn=cmd_solve)

    p_verify = sub.add_parser("verify", help="run the configured check suite")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--allow-inadmissible", action="store_true")
    p_verify.set_defaults(fn=cmd_verify)

    p_region = sub.add_parser("region", help="feasibility map over (alpha, beta)")
    p_region.add_argument("--n", type=int, required=True)
    p_region.add_argument("--p", type=float, required=True)
    p_region.add_argument("--alpha", required=True, metavar="LO:HI:COUNT")
    p_region.add_argument("--beta", required=True, metavar="LO:HI:COUNT")
    p_region.add_argument("--out", default="out")
    p_region.set_defaults(fn=cmd_region)

    p_sweep = sub.add_parser("sweep", help="grid of runs over config overrides")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", action="append", default=[],
                         metavar="SECTION.KEY=V1,V2,...",
                         help="one axis of the grid of runs, repeatable; the values are "
                              "split on ';' if the list holds one, else on ',', so "
                              "'checks.hr_rect=-1:1,-1:1;-0.5:0.5,-0.5:0.5' sweeps two "
                              "2-D rectangles")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--allow-inadmissible", action="store_true")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_list = sub.add_parser("preset-list", help="show the constant catalog")
    p_list.set_defaults(fn=cmd_preset_list)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a bug, not a verdict: keep it apart from exit 1
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
