"""Span tracing installed from the benchmark's side, and the per-layer
metrics computed from the spans.

Each wrapper replaces the module attribute a caller looks up at call time,
so no code of the package changes.  A span records its name, start, end,
the index of its parent span and a few counts taken from the call's
arguments or result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time

# (span name, module, attribute).  The attribute is the one the caller looks
# up, so the stencils are timed as harnack calls them, and not again where
# field calls them internally.
WRAPPED = (
    ("cli.load_config", "eseharnack.cli", "load_config"),
    ("cli.run_pipeline", "eseharnack.cli", "run_pipeline"),
    ("cli.rescale", "eseharnack.cli", "rescale_commutation_discrepancy"),
    ("cli.write_summary", "eseharnack.cli", "write_summary"),
    ("cli.write_csv", "eseharnack.cli", "write_csv"),
    ("harnack.hr", "eseharnack.cli", "_min_hr_over_window"),
    ("integrate.solve", "eseharnack.cli", "solve"),
    ("integrate.rescale_trace", "eseharnack.cli", "rescale_trace"),
    ("field.log_field", "eseharnack.cli", "log_field"),
    ("field.log_field", "eseharnack.harnack", "log_field"),
    ("field.laplacian_nd", "eseharnack.harnack", "laplacian_nd"),
    ("field.gradient_nd", "eseharnack.harnack", "gradient_nd"),
    ("field.grad_sq_nd", "eseharnack.harnack", "grad_sq_nd"),
    ("field.hessian_sq_nd", "eseharnack.harnack", "hessian_sq_nd"),
    ("harnack.h0_report", "eseharnack.harnack", "h0_report"),
    ("harnack.evolution_residual", "eseharnack.harnack", "evolution_residual"),
    ("classical.random_pairs", "eseharnack.classical", "random_pairs"),
    ("classical.check", "eseharnack.classical", "classical_harnack_check"),
    ("blowup.blowup_report", "eseharnack.blowup", "blowup_report"),
    ("blowup.tail_fit", "eseharnack.blowup", "tail_fit"),
    ("constants.check_admissible", "eseharnack.constants", "check_admissible"),
    ("constants.check_classical_hypothesis", "eseharnack.constants",
     "check_classical_hypothesis"),
    ("traceio.save_trace", "eseharnack.traceio", "save_trace"),
    ("traceio.load_trace", "eseharnack.traceio", "load_trace"),
)

STENCILS = ("laplacian_nd", "gradient_nd", "grad_sq_nd", "hessian_sq_nd")


def _trace_counts(trace) -> dict:
    return {"samples": len(trace.samples), "points": trace.grid.size,
            "steps": len(trace.step_log)}


# counts taken after a call returns, from (args, result)
COUNTERS = {
    "integrate.solve": lambda args, out: _trace_counts(out),
    "traceio.save_trace": lambda args, out: _trace_counts(args[1]),
    "traceio.load_trace": lambda args, out: _trace_counts(out),
    "field.log_field": lambda args, out: {"points": out.values.size},
    "harnack.h0_report": lambda args, out: {"samples": len(out.curve),
                                            "min_h0": out.min_h0},
    "classical.check": lambda args, out: {"pairs": len(out),
                                          "passed": sum(v.passed for v in out)},
}
for _name in STENCILS:
    COUNTERS[f"field.{_name}"] = lambda args, out: {"points": args[0].size}

# unit of every per-layer metric, in the order they are reported
UNITS = {
    "integrate.solve_s": "s",
    "integrate.solve_calls": "count",
    "integrate.steps": "count",
    "integrate.samples": "count",
    "integrate.rescale_trace_s": "s",
    "integrate.ns_per_point_step": "ns",
    "integrate.trace_mb": "MB-computed",
    "field.stencil_s": "s",
    "field.stencil_calls": "count",
    "field.ns_per_point": "ns",
    **{f"field.{n}.{m}": u for n in STENCILS
       for m, u in (("s", "s"), ("calls", "count"), ("ns_per_point", "ns"))},
    "field.log_s": "s",
    "harnack.h0_s": "s",
    "harnack.hr_s": "s",
    "harnack.residual_s": "s",
    "harnack.samples_checked": "count",
    "harnack.min_h0": "1",
    "classical.check_s": "s",
    "classical.pairs": "count",
    "classical.us_per_pair": "us",
    "classical.pass_frac": "fraction",
    "blowup.report_s": "s",
    "blowup.tail_fit_calls": "count",
    "blowup.t_estimate_err": "1",
    "constants.check_s": "s",
    "traceio.save_s": "s",
    "traceio.load_s": "s",
    "traceio.files": "count",
    "traceio.bytes": "B-computed",
    "cli.load_config_s": "s",
    "cli.pipeline_self_s": "s",
    "cli.rescale_self_s": "s",
    "cli.report_write_s": "s",
    "cli.summary_match": "1",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_gap_s": "s",
    "trace.unattributed_s": "s",
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        # [name, start, end, parent index (-1 for none), counts]
        self.spans: list[list] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _end(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._open.pop()

    def run(self, name: str, fn, *args):
        """Call fn(*args) as a root span."""
        span = self._begin(name)
        try:
            return fn(*args)
        finally:
            self._end(span)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(span)
            if counter is not None:
                span[4] = counter(args, out)
            return out
        return traced

    def install(self) -> None:
        for name, module, attr in WRAPPED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its child spans cover.  Spans of
    one thread nest, so the children of a span never overlap."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced run (trace.* and the output facts are
    added by the caller).  A layer the workload does not reach reads 0."""
    selfs = self_times(spans)

    def each(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(*names):
        return sum(spans[i][2] - spans[i][1] for n in names for i in each(n))

    def counted(name, key):
        return sum(spans[i][4][key] for i in each(name))

    def ratio(num, den, scale):
        return num * scale / den if den else 0.0

    def under(i, ancestor):
        while spans[i][3] >= 0:
            i = spans[i][3]
            if spans[i][0] == ancestor:
                return True
        return False

    solves = each("integrate.solve")
    solve_s = total("integrate.solve")
    point_steps = sum(spans[i][4]["steps"] * spans[i][4]["points"] for i in solves)
    held = [spans[i][4] for i in solves + each("traceio.load_trace")]
    out = {
        "integrate.solve_s": solve_s,
        "integrate.solve_calls": len(solves),
        "integrate.steps": counted("integrate.solve", "steps"),
        "integrate.samples": counted("integrate.solve", "samples"),
        "integrate.rescale_trace_s": total("integrate.rescale_trace"),
        "integrate.ns_per_point_step": ratio(solve_s, point_steps, 1e9),
        "integrate.trace_mb": max((c["samples"] * c["points"] * 8 / 1e6 for c in held),
                                  default=0.0),
    }
    stencil_s = stencil_calls = stencil_points = 0
    for n in STENCILS:
        s, calls, points = (total(f"field.{n}"), len(each(f"field.{n}")),
                            counted(f"field.{n}", "points"))
        out[f"field.{n}.s"] = s
        out[f"field.{n}.calls"] = calls
        out[f"field.{n}.ns_per_point"] = ratio(s, points, 1e9)
        stencil_s += s
        stencil_calls += calls
        stencil_points += points
    out["field.stencil_s"] = stencil_s
    out["field.stencil_calls"] = stencil_calls
    out["field.ns_per_point"] = ratio(stencil_s, stencil_points, 1e9)
    out["field.log_s"] = total("field.log_field")

    h0 = each("harnack.h0_report")
    out["harnack.h0_s"] = total("harnack.h0_report")
    out["harnack.hr_s"] = total("harnack.hr")
    out["harnack.residual_s"] = total("harnack.evolution_residual")
    out["harnack.samples_checked"] = counted("harnack.h0_report", "samples")
    out["harnack.min_h0"] = min((spans[i][4]["min_h0"] for i in h0), default=0.0)

    pairs = counted("classical.check", "pairs")
    check_s = total("classical.random_pairs", "classical.check")
    out["classical.check_s"] = check_s
    out["classical.pairs"] = pairs
    out["classical.us_per_pair"] = ratio(check_s, pairs, 1e6)
    out["classical.pass_frac"] = ratio(counted("classical.check", "passed"), pairs, 1.0)

    out["blowup.report_s"] = total("blowup.blowup_report")
    out["blowup.tail_fit_calls"] = sum(under(i, "cli.run_pipeline")
                                       for i in each("blowup.tail_fit"))
    out["constants.check_s"] = total("constants.check_admissible",
                                     "constants.check_classical_hypothesis")

    io = [spans[i][4] for i in each("traceio.save_trace") + each("traceio.load_trace")]
    out["traceio.save_s"] = total("traceio.save_trace")
    out["traceio.load_s"] = total("traceio.load_trace")
    # one .fld per sample plus metadata.json and steps.npy
    out["traceio.files"] = sum(c["samples"] + 2 for c in io)
    out["traceio.bytes"] = sum((c["samples"] * c["points"] + c["steps"]) * 8 for c in io)

    out["cli.load_config_s"] = total("cli.load_config")
    out["cli.pipeline_self_s"] = sum(selfs[i] for i in each("cli.run_pipeline"))
    out["cli.rescale_self_s"] = sum(selfs[i] for i in each("cli.rescale"))
    out["cli.report_write_s"] = total("cli.write_summary", "cli.write_csv")
    out["trace.unattributed_s"] = sum(selfs[i] for i, s in enumerate(spans) if s[3] < 0)
    return out
