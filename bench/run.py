"""Benchmark of the eseharnack verify pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl
    python3 bench/run.py --pin

A measurement is a closed loop with one client: one workload run at a time,
each in a fresh interpreter started from the checkout's own src/, until
--seconds have passed.  --trace 0 reports the end-to-end metrics (setup_s is
the median of several fresh interpreters that import the package and load
the workload's config, before the loop).  --trace 1 alternates untraced and
traced runs and reports the per-layer metrics of the traced ones.  Every run's
outputs are checked; a run that raises, exits with an unexpected code or
fails a check counts in `failed`.  The last line of output is one JSON object.

--out FILE appends each result, with the machine it ran on, as a JSON line;
--compare reads two such files (see compare.py).  --pin re-pins the
reference summaries after a deliberate change of behaviour.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import compare
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"

SETUP_RUNS = 7          # fresh interpreters for setup_s, after one warm-up
DEADLINE_S = 170.0      # a measurement ends well inside the 180 s allowed

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child(*args: str, timeout: float) -> dict | None:
    """Run child.py; its last stdout line is its result.  None if it failed."""
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *args],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"run timed out: {' '.join(args)}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run exited {proc.returncode}: {' '.join(args)}\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": _numpy_version(), "cpu": None, "caches": {},
            "git_sha": None}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                info["caches"][f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eseharnack").glob("*.py")):
        digest.update(path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    try:
        info["git_sha"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        pass
    return info


def _numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def _spread(values: list[float]) -> str:
    """Median, the highest percentile that has ten samples beyond it, max
    and count."""
    n, ranked = len(values), sorted(values)
    tail = (f"p{100 * (n - 10) // n} {ranked[n - 11]:.6g}" if n > 10
            else "no percentile has 10 samples beyond it")
    return f"median {statistics.median(values):.6g}  {tail}  max {ranked[-1]:.6g}  n={n}"


def measure(name: str, seed: int, seconds: int, trace: bool, size: str) -> dict:
    """One measurement of one workload; returns the result object."""
    deadline = time.perf_counter() + DEADLINE_S
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config = str(workloads.write_config(name, size, ROOT, work))
        setup = []
        if not trace:
            for i in range(SETUP_RUNS + 1):
                res = child("setup", "--config", config,
                            timeout=deadline - time.perf_counter())
                if res is None:
                    raise SystemExit(f"{name}: setup run failed")
                if i:
                    setup.append(res["setup_s"])

        runs = []   # (traced, result or None)
        took = []   # duration of each run, interpreter start included
        start = time.perf_counter()
        # start another run only if a typical one still ends inside --seconds
        while (len(runs) < (2 if trace else 1)
               or time.perf_counter() + statistics.median(took) < start + seconds):
            traced = trace and len(runs) % 2 == 1
            rundir = work / f"run-{len(runs)}"
            args = ["run", "--workload", name, "--size", size, "--config", config,
                    "--seed", str(seed), "--rundir", str(rundir)]
            t0 = time.perf_counter()
            res = child(*args, *(["--trace"] if traced else []),
                        timeout=deadline - t0)
            took.append(time.perf_counter() - t0)
            if res is not None and res["problems"]:
                print(f"{name} run {len(runs)} failed: {'; '.join(res['problems'])}",
                      file=sys.stderr)
            runs.append((traced, res))
            shutil.rmtree(rundir, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    failed = sum(res is None or bool(res["problems"]) for _, res in runs)
    done = [(traced, res) for traced, res in runs if res is not None]
    if not done:
        raise SystemExit(f"{name}: no run completed")
    plain = [res for traced, res in done if not traced]
    print(f"{name}: seed {seed}, {len(runs)} runs ({size} size), "
          f"fail_frac {failed}/{len(runs)} = {failed / len(runs):.6g}")
    if trace:
        metrics = _layer_summary([res for traced, res in done if traced], plain)
    else:
        values = {"wall_s": [r["wall_s"] for r in plain],
                  "setup_s": setup,
                  "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
        for m, vals in values.items():
            print(f"  {m} ({UNITS[m]}): {_spread(vals)}")
        metrics = {m: {"value": statistics.median(v), "unit": UNITS[m]}
                   for m, v in values.items()}
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def _layer_summary(traced: list[dict], plain: list[dict]) -> dict:
    """Medians of the per-layer metrics over the traced runs; the tracing
    overhead is the traced median wall time minus the untraced one."""
    wall = statistics.median(r["wall_s"] for r in traced)
    untraced = statistics.median(r["wall_s"] for r in plain)
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    values["trace.self_gap_s"] = max(r["layers"]["trace.self_gap_s"] for r in traced)
    values.update({"trace.wall_s": wall, "trace.untraced_wall_s": untraced,
                   "trace.overhead_s": wall - untraced})
    metrics = {}
    for name, unit in tracing.UNITS.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name}: {values[name]:.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="'small' is the reduced size the self-test runs")
    ap.add_argument("--out", help="append results as JSON lines to this file")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args(argv)

    if args.compare:
        return compare.main(*args.compare, json.loads((ROOT / "BENCHMARK.json").read_text()))
    missing = [p for p in ("src/eseharnack/cli.py", "configs/gaussian_hamilton.ini",
                           "configs/constant_blowup.ini") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a checkout of eseharnack: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.pin:
        return pin()
    if not args.workload:
        ap.error("--workload is required")

    info = machine()
    print("machine: " + json.dumps(info, sort_keys=True))
    if args.workload == "all":
        results = {}
        for name in workloads.NAMES:
            results[name] = [_record(args, name, trace, info) for trace in (False, True)]
        print(json.dumps(results))
        return 0
    print(json.dumps(_record(args, args.workload, bool(args.trace), info)))
    return 0


def _record(args, name: str, trace: bool, info: dict) -> dict:
    result = measure(name, args.seed, args.seconds, trace, args.size)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": name, "seed": args.seed, "trace": int(trace),
                                 "size": args.size, "seconds": args.seconds,
                                 "finished": time.time(), "machine": info,
                                 **result}) + "\n")
    return result


def pin() -> int:
    """Write the reference summaries of every workload and size at seed 0."""
    for name in workloads.NAMES:
        for size in workloads.SIZES:
            work = WORK / f"pin-{os.getpid()}"
            work.mkdir(parents=True)
            try:
                config = workloads.write_config(name, size, ROOT, work)
                res = child("pin", "--workload", name, "--size", size, "--config",
                            str(config), "--rundir", str(work / "run"), timeout=600)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if res is None:
                return 1
            print(f"pinned {name} ({size})")
    WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
