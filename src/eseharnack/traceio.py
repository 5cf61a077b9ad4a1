"""On-disk format: solve traces and initial data, all as .npy arrays.

A trace directory holds three files: metadata.json (grid, p, status and the
sample times), steps.npy (the full accepted-dt log) and samples.npy (every
sample stacked, float64 of shape (n_samples, *extents)).  Floats in the
metadata use repr, which round-trips exactly.  `[problem] initial = file`
reads one .npy array of the grid's extents.  Every array is read through
`load_array`: float64 of exactly the expected shape, finite and positive.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .field import Grid
from .integrate import SolveTrace, TraceStatus


def load_array(path, shape: tuple[int, ...]) -> np.ndarray:
    """The array stored in the .npy file at `path`; ConfigError naming the
    file unless it is float64 of exactly `shape`, every value finite and > 0."""
    try:
        a = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(a, np.ndarray):
        a.close()
        raise ConfigError(f"{path}: expected a .npy array, found an .npz archive")
    if a.dtype != np.float64 or a.shape != shape:
        raise ConfigError(f"{path}: expected float64 of shape {shape}, "
                          f"found {a.dtype} of shape {a.shape}")
    # NaN fails both comparisons; neither reduction makes a temporary
    if a.size and not (a.min() > 0 and a.max() < np.inf):
        raise ConfigError(f"{path}: values must be finite and positive, "
                          f"found min {a.min()} and max {a.max()}")
    return a


def save_trace(outdir, trace: SolveTrace) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "samples.npy", trace.samples)
    np.save(out / "steps.npy", trace.step_log)
    g = trace.grid
    meta = {
        "p": trace.p,
        "grid": {"box": [list(iv) for iv in g.box],
                 "extents": list(g.extents),
                 "boundary": g.boundary},
        "status": {"kind": trace.status.kind,
                   "t_detect": trace.status.t_detect,
                   "reason": trace.status.reason,
                   "criterion": trace.status.criterion},
        "sample_times": trace.times.tolist(),
        "n_steps": int(len(trace.step_log)),
    }
    (out / "metadata.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def load_trace(outdir) -> SolveTrace:
    out = Path(outdir)
    meta_path = out / "metadata.json"
    if not meta_path.exists():
        raise ConfigError(f"no trace at {out} (missing metadata.json)")
    try:
        meta = json.loads(meta_path.read_text())
        g = meta["grid"]
        grid = Grid(tuple(tuple(iv) for iv in g["box"]), tuple(g["extents"]), g["boundary"])
        times = np.array(meta["sample_times"], dtype=np.float64)
        st = meta["status"]
        status = TraceStatus(st["kind"], st["t_detect"], st["reason"], st["criterion"])
        p = float(meta["p"])
        n_steps = int(meta["n_steps"])
    except KeyError as exc:
        raise ConfigError(f"{meta_path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{meta_path}: {exc}") from None
    if times.ndim != 1 or not (len(times) and np.all(np.diff(times) > 0)):
        raise ConfigError(f"{meta_path}: sample_times must be a nonempty, "
                          f"strictly increasing list")
    samples = load_array(out / "samples.npy", (len(times), *grid.extents))
    steps = load_array(out / "steps.npy", (n_steps,))
    return SolveTrace(grid, p, times, samples, status, steps)
