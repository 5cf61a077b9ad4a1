"""The three benchmark workloads: their configs, one run of each, and the
checks on a run's outputs.

Nothing here imports eseharnack at module level.  The parent process only
writes config files; every run imports the package in a fresh interpreter
(see child.py).
"""

from __future__ import annotations

import configparser
import json
from pathlib import Path

NAMES = ("gauss-1d-verify", "gauss-2d-verify", "const-blowup-io")
SIZES = ("full", "small")

# exact blowup time of f' = f^2, f(0) = 1, which configs/constant_blowup.ini solves
T_STAR = 1.0
T_STAR_TOL = 1e-2

# Criterion-3 geometry at 128^2.  The dim2 preset has beta = 0 and cannot run
# the localized H_R check, so the tuple is an explicit admissible one with
# beta > 0.
GAUSS_2D_INI = """\
[problem]
dim = 2
p = 2.0
box = -2:2
extents = 128
boundary = reflecting
initial = gaussian
amplitude = 1.0
width = 0.2
center = 0.0, 0.0
t_end = 0.4

[step]
sample_stride = 32

[constants]
alpha = 1.0
beta = 0.25
c = 0.7
a = 1.5

[checks]
enabled = h0, hr, residual, blowup, classical
"""

# Reduced sizes for the self-test, as (section, key, value) overrides.
SMALL = {
    "gauss-1d-verify": (("problem", "extents", "64"), ("problem", "t_end", "0.25")),
    "gauss-2d-verify": (("problem", "extents", "64"), ("problem", "t_end", "0.2"),
                        ("step", "sample_stride", "8")),
    "const-blowup-io": (("step", "reaction_safety", "0.1"),),
}


def write_config(name: str, size: str, root: Path, work: Path) -> Path:
    """The config file the workload's first command reads.

    Full-size 1-D runs read the shipped configs unchanged; the 2-D config and
    every reduced-size config are written into `work`.
    """
    if name == "gauss-2d-verify":
        text = GAUSS_2D_INI
    else:
        shipped = {"gauss-1d-verify": "gaussian_hamilton.ini",
                   "const-blowup-io": "constant_blowup.ini"}[name]
        path = root / "configs" / shipped
        if size == "full":
            return path
        text = path.read_text()
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(text)
    if size == "small":
        for section, key, value in SMALL[name]:
            cp.set(section, key, value)
    out = work / f"{name}-{size}.ini"
    with open(out, "w") as fh:
        cp.write(fh)
    return out


def prepare_run(name: str, config: Path, rundir: Path) -> None:
    """Inputs a run needs that are not timed: const-blowup-io's verify config,
    which points [verify] trace_dir at the trace its solve step writes."""
    rundir.mkdir(parents=True)
    if name == "const-blowup-io":
        trace_dir = rundir / "solve" / "trace"
        (rundir / "verify.ini").write_text(
            config.read_text() + f"\n[verify]\ntrace_dir = {trace_dir}\n")


def run(cli, name: str, config: Path, seed: int, rundir: Path) -> list[int]:
    """One complete workload run through the CLI entry point; returns the
    exit code of every command, in order."""
    verify_args = ["--out", str(rundir / "verify"), "--seed", str(seed)]
    if name == "const-blowup-io":
        return [cli.main(["solve", "--config", str(config), "--out", str(rundir / "solve")]),
                cli.main(["verify", "--config", str(rundir / "verify.ini")] + verify_args)]
    return [cli.main(["verify", "--config", str(config)] + verify_args)]


def reference_dir(bench_dir: Path, name: str, size: str) -> Path:
    return bench_dir / "reference" / name / size


def _reports(name: str) -> tuple[str, ...]:
    """Summary files a run writes, relative to its run directory."""
    if name == "const-blowup-io":
        return ("solve/summary.json", "verify/summary.json")
    return ("verify/summary.json",)


def pin(name: str, rundir: Path, refdir: Path, seed: int, codes: list[int]) -> None:
    """Store a passing run's summaries as the reference for later runs."""
    if seed != 0 or any(codes):
        raise ValueError(f"references are pinned from seed 0 runs that pass, "
                         f"got seed {seed} and exit codes {codes}")
    for rel in _reports(name):
        dest = refdir / rel.replace("/", "-")
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_bytes((rundir / rel).read_bytes())


def check(name: str, rundir: Path, refdir: Path, seed: int,
          codes: list[int]) -> tuple[list[str], dict]:
    """Output checks of one run.  Returns (problems, facts); the run failed
    when `problems` is not empty.  `facts` holds summary_match (1 when every
    summary is byte-identical to the reference pinned at seed 0, with only
    its seed field set to this run's seed) and t_estimate_err."""
    problems = [f"command {i} exited with {c}" for i, c in enumerate(codes) if c != 0]
    match = 1
    summaries = {}
    for rel in _reports(name):
        got = (rundir / rel).read_text()
        ref = (refdir / rel.replace("/", "-")).read_text()
        ref = ref.replace('"seed": 0,', f'"seed": {seed},')
        match &= int(got == ref)
        summaries[rel.split("/")[0]] = (json.loads(got), json.loads(ref))

    summary, ref = summaries["verify"]
    if set(summary["checks"]) != set(ref["checks"]):
        problems.append(f"checks run {sorted(summary['checks'])}, "
                        f"expected {sorted(ref['checks'])}")
    problems += [f"check {k} failed" for k, ok in summary["checks"].items() if not ok]
    tol = summary["h0"]["tol"]
    if not abs(summary["min_h0"] - ref["min_h0"]) <= tol:
        problems.append(f"min_h0 {summary['min_h0']!r} is not within {tol} "
                        f"of the pinned {ref['min_h0']!r}")

    t_err = 0.0
    if name == "const-blowup-io":
        solved, _ = summaries["solve"]
        if solved["status"] != "blowup" or solved.get("detection_criterion") != "f_cap":
            problems.append(f"solve ended {solved['status']!r} by "
                            f"{solved.get('detection_criterion')!r}, expected blowup by f_cap")
        t_est = summary.get("t_estimate")
        if t_est is not None:
            t_err = abs(t_est - T_STAR)
        if summary["status"] != "blowup" or t_est is None or not t_err <= T_STAR_TOL:
            problems.append(f"verify status {summary['status']!r}, t_estimate {t_est!r}; "
                            f"expected blowup within {T_STAR_TOL} of {T_STAR}")
    return problems, {"summary_match": match, "t_estimate_err": t_err}
