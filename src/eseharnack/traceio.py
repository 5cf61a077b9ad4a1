"""On-disk formats: field snapshots and solve traces.

A field snapshot is a small text header followed by the raw float64 values:

    ESEFIELD 1
    dim=1
    extents=256
    box=-4.0,4.0
    boundary=periodic
    time=0.125
    ---
    <extents-many little-endian float64, C order>

A trace directory holds three files: metadata.json (grid, p, status and the
sample times), steps.npy (the full accepted-dt log) and samples.npy (every
sample stacked, float64 of shape (n_samples, *extents)).  Floats in headers
and metadata use repr, which round-trips exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .field import Field, Grid
from .integrate import SolveTrace, TraceStatus

_MAGIC = "ESEFIELD 1"


def save_field(path, t: float, f: Field) -> None:
    g = f.grid
    box = ";".join(f"{repr(lo)},{repr(hi)}" for lo, hi in g.box)
    header = (f"{_MAGIC}\n"
              f"dim={g.dim}\n"
              f"extents={','.join(str(n) for n in g.extents)}\n"
              f"box={box}\n"
              f"boundary={g.boundary}\n"
              f"time={repr(float(t))}\n"
              f"---\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_field(path) -> tuple[float, Field]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot {path}: {exc}") from None
    sep = raw.find(b"---\n")
    if sep < 0:
        raise ConfigError(f"{path}: missing header terminator")
    try:
        head = raw[:sep].decode("ascii").splitlines()
        if not head or head[0] != _MAGIC:
            raise ConfigError(f"{path}: not a field snapshot")
        kv = dict(line.split("=", 1) for line in head[1:] if line)
        extents = tuple(int(s) for s in kv["extents"].split(","))
        box = tuple(tuple(float(v) for v in part.split(","))
                    for part in kv["box"].split(";"))
        grid = Grid(box, extents, kv["boundary"])
        t = float(kv["time"])
    except KeyError as exc:
        raise ConfigError(f"{path}: header is missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ConfigError(f"{path}: bad header: {exc}") from None
    body = raw[sep + 4:]
    if len(body) != 8 * grid.size:
        raise ConfigError(f"{path}: expected {8 * grid.size} bytes of float64 values "
                          f"for extents {extents}, found {len(body)}")
    return t, Field(grid, np.frombuffer(body, dtype="<f8").reshape(extents))


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


def _load_npy(path: Path) -> np.ndarray:
    try:
        return np.load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


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
    except KeyError as exc:
        raise ConfigError(f"{meta_path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{meta_path}: {exc}") from None
    samples_path = out / "samples.npy"
    samples = _load_npy(samples_path)
    expected = (len(times), *grid.extents)
    if samples.dtype != np.float64 or samples.shape != expected:
        raise ConfigError(f"{samples_path}: expected float64 of shape {expected} "
                          f"from metadata.json, found {samples.dtype} of shape {samples.shape}")
    if not np.all(np.diff(times) > 0):
        raise ConfigError(f"{meta_path}: sample_times must be strictly increasing")
    low = samples.min(initial=np.inf)
    if not low > 0:
        raise ConfigError(f"{samples_path}: samples must be positive, found min {low}")
    return SolveTrace(grid, p, times, samples, status, _load_npy(out / "steps.npy"))
