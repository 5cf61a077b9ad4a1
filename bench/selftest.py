"""Self-test of the benchmark: every workload at its reduced size, untraced
and traced.

Asserts that each run is correct, that every metric BENCHMARK.json names is
emitted with the unit it declares, that the layer map in README.md names
only metrics BENCHMARK.json declares, and that the traced run's self times
sum to its wall time within the reported tracing overhead.

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, declared: list[dict], where: str) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: {result['failed']}/{result['attempted']} runs failed")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        errors.append(f"{where}: metric names differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: {m['name']} emitted as {got}, declared unit {m['unit']}")
    return errors


def main() -> int:
    errors = []
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    cited = set(re.findall(r"`([a-z]+\.[a-z0-9_.]+)`", (BENCH / "README.md").read_text()))
    cited = {c for c in cited if c.split(".")[0] in {n.split(".")[0] for n in layer_names}}
    errors += [f"README.md cites undeclared metric {c}" for c in sorted(cited - layer_names)]
    for w in SPEC["workloads"]:
        name = w["name"]
        errors += check_result(measure(name, 0), SPEC["end_to_end"], f"{name} untraced")
        traced = measure(name, 1)
        errors += check_result(traced, SPEC["per_layer"], f"{name} traced")
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        if not m["trace.self_gap_s"] <= abs(m["trace.overhead_s"]):
            errors.append(f"{name}: self times miss the traced wall time by "
                          f"{m['trace.self_gap_s']} s, more than the tracing overhead "
                          f"{m['trace.overhead_s']} s")
        if m["cli.summary_match"] != 1:
            errors.append(f"{name}: summary.json differs from the pinned reference")
        print(f"{name}: ok" if not errors else f"{name}: {len(errors)} errors so far")
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
