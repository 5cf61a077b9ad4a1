"""One measured run in a fresh interpreter; prints one JSON line.

    child.py setup --config PATH
        time `import eseharnack` plus loading and validating the config
    child.py run --workload NAME --config PATH --seed N --rundir DIR [--trace]
        one complete workload run, its peak RSS and its output checks
    child.py pin --workload NAME --config PATH --rundir DIR
        one run whose summaries become the reference for NAME

run.py starts this; it is not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


def setup(config: Path) -> dict:
    t0 = time.perf_counter()
    import eseharnack  # noqa: F401
    from eseharnack.cli import load_config
    load_config(config)
    return {"setup_s": time.perf_counter() - t0}


def run(args) -> dict:
    from eseharnack import cli

    rundir = Path(args.rundir)
    workloads.prepare_run(args.workload, Path(args.config), rundir)
    call = (cli, args.workload, Path(args.config), args.seed, rundir)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    t0 = time.perf_counter()
    if tracer is None:
        codes = workloads.run(*call)
    else:
        codes = tracer.run("workload", workloads.run, *call)
    wall = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux
    result = {"wall_s": wall,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    refdir = workloads.reference_dir(BENCH, args.workload, args.size)
    if args.command == "pin":
        workloads.pin(args.workload, rundir, refdir, args.seed, codes)
        return result
    try:
        problems, facts = workloads.check(args.workload, rundir, refdir, args.seed, codes)
    except Exception as exc:  # a missing or malformed report fails the run
        problems, facts = [f"output check raised {exc!r}"], {}
    result["problems"] = problems
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans)
        layers["cli.summary_match"] = facts.get("summary_match", 0)
        layers["blowup.t_estimate_err"] = facts.get("t_estimate_err", 0.0)
        layers["trace.self_gap_s"] = abs(wall - sum(tracing.self_times(tracer.spans)))
        result["layers"] = layers
        out = ROOT / ".bench_out" / f"{args.workload}-spans.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(tracer.spans))
    return result


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("command", choices=("setup", "run", "pin"))
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rundir")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    result = setup(Path(args.config)) if args.command == "setup" else run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
