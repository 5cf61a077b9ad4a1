"""The benchmark's span tracer replaces package attributes by name
(bench/tracing.py, WRAPPED).  A refactor that renames or drops one of them,
or sends a replaced one to a worker process, would crash every traced
benchmark run, so check that each one resolves and that a traced run works."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import eseharnack

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for _, module, attr in tracing.WRAPPED
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert tracing.WRAPPED and not missing


# a run as bench/run.py traces it: Tracer().install(), then the CLI
_RUN_TRACED = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracing.Tracer().install()
from eseharnack import cli
sys.exit(cli.main(sys.argv[2:]))
"""


def test_traced_verify_with_the_rescale_worker_exits_zero(tmp_path):
    # the tracer replaces eseharnack.cli.solve with a wrapper that does not
    # pickle by reference, so a rescale worker handed cli.solve would fail
    # every traced run of the benchmark
    root = TRACING.parents[1]
    cfg = tmp_path / "g.ini"
    cfg.write_text((root / "configs" / "gaussian_hamilton.ini").read_text().replace(
        "extents = 256", "extents = 64").replace(
        "enabled = h0, residual, blowup, classical, rescale", "enabled = h0, rescale"))
    src = str(Path(eseharnack.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _RUN_TRACED, str(TRACING), "verify",
                           "--config", str(cfg), "--out", str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "run" / "summary.json").read_text())["checks"] == {
        "h0": True, "rescale": True}
