"""On-disk format: solve traces and initial data, all as .npy arrays.

A trace directory holds three files: metadata.json (grid, p, whether the
reaction term was on, status and the sample times), steps.npy (the full
accepted-dt log) and samples.npy (every sample stacked, float64 of shape
(n_samples, *extents)).  Floats in the metadata use repr, which round-trips
exactly.  `[problem] initial = file` reads one .npy array of the grid's
extents.  Every array is read through `load_array`: float64 of exactly the
expected shape, finite and positive.  `load_trace` also checks the
metadata, naming the bad key.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .field import Grid
from .integrate import SolveTrace, TraceStatus


_KINDS = ("reached_t_end", "blowup", "aborted")
_CRITERIA = ("f_cap", "dt_floor")


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


@contextmanager
def writing(path):
    """A file that cannot be written, as a ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror}") from None


def save_trace(outdir, trace: SolveTrace) -> None:
    """`trace` as a trace directory at `outdir` (made if missing); a file
    that cannot be written is a ConfigError naming it."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, array in (("samples.npy", trace.samples), ("steps.npy", trace.step_log)):
        with writing(out / name):
            np.save(out / name, array)
    g = trace.grid
    meta = {
        "p": trace.p,
        "reaction": trace.reaction,
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
    with writing(out / "metadata.json"):
        (out / "metadata.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _too_large(node, key: str = "") -> str | None:
    """The dotted key of an integer in the metadata that no float holds, if any."""
    if type(node) is int:
        return key if abs(node) > sys.float_info.max else None
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    return next(filter(None, (_too_large(v, f"{key}.{k}".lstrip(".")) for k, v in items)), None)


def load_trace(outdir) -> SolveTrace:
    out = Path(outdir)
    meta_path = out / "metadata.json"
    if not meta_path.exists():
        raise ConfigError(f"no trace at {out} (missing metadata.json)")
    try:
        meta = json.loads(meta_path.read_text())
        if (key := _too_large(meta)) is not None:
            raise ValueError(f"{key} holds an integer too large for a float")
        g = meta["grid"]
        extents, n_steps = g["extents"], meta["n_steps"]
        # type(n) is int: neither a bool nor a float such as 16.5
        if not (isinstance(extents, list) and all(type(n) is int for n in extents)):
            raise ValueError(f"grid.extents must be a list of integers, got {extents!r}")
        if type(n_steps) is not int:
            raise ValueError(f"n_steps must be an integer, got {n_steps!r}")
        grid = Grid(tuple(tuple(iv) for iv in g["box"]), tuple(extents), g["boundary"])
        times = np.array(meta["sample_times"], dtype=np.float64)
        st = meta["status"]
        status = TraceStatus(st["kind"], st["t_detect"], st["reason"], st["criterion"])
        p = meta["p"]
        if type(p) not in (int, float):   # neither a string nor a bool
            raise ValueError(f"p must be a number, got {p!r}")
        reaction = meta["reaction"]
        if type(reaction) is not bool:
            raise ValueError(f"reaction must be true or false, got {reaction!r}")
    except KeyError as exc:
        raise ConfigError(f"{meta_path}: missing key {exc.args[0]!r}") from None
    except OSError as exc:   # unreadable, e.g. a directory
        raise ConfigError(f"{meta_path}: cannot read: {exc.strerror}") from None
    except (TypeError, ValueError, RecursionError) as exc:   # the last: nested too deep
        raise ConfigError(f"{meta_path}: {exc}") from None
    if status.kind not in _KINDS:
        raise ConfigError(f"{meta_path}: status.kind must be one of {', '.join(_KINDS)}, "
                          f"got {status.kind!r}")
    if status.kind != "reached_t_end" and not (
            type(status.t_detect) in (int, float) and math.isfinite(status.t_detect)):
        raise ConfigError(f"{meta_path}: status.t_detect of a {status.kind} trace must be "
                          f"a finite number, got {status.t_detect!r}")
    if status.kind == "blowup" and status.criterion not in _CRITERIA:
        raise ConfigError(f"{meta_path}: status.criterion of a blowup must be one of "
                          f"{', '.join(_CRITERIA)}, got {status.criterion!r}")
    if times.ndim != 1 or not (len(times) and np.all(np.diff(times) > 0)):
        raise ConfigError(f"{meta_path}: sample_times must be a nonempty, "
                          f"strictly increasing list")
    if not 0 <= times[0] <= times[-1] < math.inf:
        raise ConfigError(f"{meta_path}: sample_times must be finite and start at t >= 0, "
                          f"found {times[0]} to {times[-1]}")
    samples = load_array(out / "samples.npy", (len(times), *grid.extents))
    steps = load_array(out / "steps.npy", (n_steps,))
    return SolveTrace(grid, float(p), times, samples, status, steps, reaction)
