import concurrent.futures
import contextlib
import json
import math
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eseharnack import Grid, RescaleSpec, StepConfig, gaussian, rescale_problem, solve
from eseharnack import harnack as ha
from eseharnack import blowup as bl
from eseharnack import cli
from eseharnack.blowup import tail_fit
from eseharnack.cli import CheckSettings, load_config, main
from eseharnack.errors import ConfigError
from eseharnack.integrate import SolveTrace, TraceStatus, _Workspace
from eseharnack.traceio import load_trace, save_trace

from conftest import constant_problem, field_at, gaussian_problem, needs_split

GAUSS_INI = """
[problem]
dim = 1
p = 2.0
box = -4:4
extents = 128
boundary = reflecting
initial = gaussian
amplitude = 1.0
width = 0.2
center = 0.0
t_end = 0.5

[step]
sample_stride = 4

[constants]
preset = hamilton_1d

[checks]
enabled = h0, residual, blowup, classical, rescale
classical_pairs = 25
rescale_lambda = 2.0
"""

CONST_INI = """
[problem]
dim = 1
p = 2.0
box = 0:100
extents = 16
initial = constant
level = 1.0
t_end = 5.0

[step]
sample_stride = 1
reaction_safety = 0.02

[constants]
preset = hamilton_1d
"""


# bench/workloads.py's GAUSS_2D_INI at 16^2, H_R with its default rectangle
_GAUSS_2D_16 = """
[problem]
dim = 2
p = 2.0
box = -2:2
extents = 16
boundary = reflecting
initial = gaussian
amplitude = 1.0
width = 0.4
center = 0.0, 0.0
t_end = 0.2

[step]
sample_stride = 2

[constants]
alpha = 1.0
beta = 0.25
c = 0.7
a = 1.5

[checks]
enabled = h0, hr
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# trace I/O

def test_trace_roundtrip(tmp_path):
    tr = solve(constant_problem(t_end=2.0), StepConfig(sample_stride=1))
    save_trace(tmp_path / "trace", tr)
    back = load_trace(tmp_path / "trace")
    assert back.status == tr.status
    assert back.grid == tr.grid
    assert back.p == tr.p
    assert len(back.samples) == len(tr.samples)
    assert np.array_equal(back.step_log, tr.step_log)
    assert np.array_equal(back.times, tr.times)
    assert np.array_equal(back.samples, tr.samples)
    assert not (back.samples.flags.writeable or back.times.flags.writeable)
    assert sorted(p.name for p in (tmp_path / "trace").iterdir()) == [
        "metadata.json", "samples.npy", "steps.npy"]


def test_load_trace_missing_dir(tmp_path):
    with pytest.raises(ConfigError):
        load_trace(tmp_path / "nowhere")


def _initial_file_ini(path) -> str:
    return CONST_INI.replace("initial = constant\nlevel = 1.0",
                             f"initial = file\nfile = {path}")


def test_initial_file_matches_gaussian_initial(tmp_path):
    values = gaussian(Grid(((-4.0, 4.0),), (128,), "reflecting"), 1.0, 0.2, (0.0,))
    path = tmp_path / "f0.npy"
    np.save(path, values)
    tabulated = GAUSS_INI.replace(
        "initial = gaussian\namplitude = 1.0\nwidth = 0.2\ncenter = 0.0",
        f"initial = file\nfile = {path}")
    outs = []
    for name, ini in (("gauss", GAUSS_INI), ("file", tabulated)):
        outs.append(tmp_path / name)
        cfg = write(tmp_path, f"{name}.ini", ini)
        assert main(["verify", "--config", cfg, "--out", str(outs[-1])]) == 0
    for name in ("summary.json", "h0_curve.csv", "classical_pairs.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_truncated_initial_file_exits_two(tmp_path, capsys):
    path = tmp_path / "f0.npy"
    np.save(path, np.ones(16))
    path.write_bytes(path.read_bytes()[:-1])
    cfg = write(tmp_path, "c.ini", _initial_file_ini(path))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "f0.npy" in capsys.readouterr().err


def _save_npz(path):
    with open(path, "wb") as fh:
        np.savez(fh, np.ones(16))


def _one_bad(value):
    values = np.ones(16)
    values[5] = value
    return values


@pytest.mark.parametrize("write_bad, message", [
    (lambda path: path.write_text("1.0 " * 16), "f0.npy"),
    (lambda path: np.save(path, np.ones(16, dtype=np.float32)), "float64 of shape"),
    (lambda path: np.save(path, np.ones(15)), r"shape \(16,\).*shape \(15,\)"),
    (lambda path: np.save(path, _one_bad(np.nan)), "finite and positive"),
    (lambda path: np.save(path, _one_bad(np.inf)), "finite and positive"),
    (lambda path: np.save(path, _one_bad(0.0)), "finite and positive"),
    (lambda path: np.save(path, _one_bad(-1.0)), "finite and positive"),
    (_save_npz, r"\.npz archive"),
], ids=["text", "float32", "wrong-shape", "nan", "inf", "zero", "negative", "npz"])
def test_malformed_initial_file_exits_two(tmp_path, capsys, write_bad, message):
    path = tmp_path / "f0.npy"
    write_bad(path)
    cfg = write(tmp_path, "c.ini", _initial_file_ini(path))
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}" in err
    assert re.search(message, err)
    assert "Traceback" not in err and not out.exists()


# float64 of the grid's extents half the time, so that valid arrays reach the solver
_DTYPES = st.one_of(st.just(np.float64), st.sampled_from(
    [np.float32, np.int64, np.complex128, np.bool_, np.dtype(">f8")]))
_SHAPES = st.one_of(st.just((16,)), st.sampled_from(
    [(15,), (17,), (), (0,), (1, 16), (16, 1), (2, 16)]))
_VALUES = st.one_of(st.floats(min_value=5e-324, max_value=1e9),
                    st.floats(allow_nan=True, allow_infinity=True))


@given(dtype=_DTYPES, shape=_SHAPES, positive=st.booleans(), data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_initial_file_fuzz_never_exits_four(tmp_path, dtype, shape, positive, data):
    size = int(np.prod(shape))
    element = st.floats(min_value=5e-324, max_value=1e7) if positive else _VALUES
    values = data.draw(st.lists(element, min_size=size, max_size=size))
    with np.errstate(all="ignore"):     # a cast to a narrower dtype may overflow
        arr = np.array(values, dtype=np.float64).astype(dtype).reshape(shape)
    path = tmp_path / "f0.npy"
    np.save(path, arr)
    cfg = write(tmp_path, "c.ini", _initial_file_ini(path).replace(
        "t_end = 5.0", "t_end = 0.01"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) in (0, 2, 3)


# Every numeric [problem] key: a usable value most of the time, so that runs
# get past the config, and otherwise a value at or past the edge of its range.
_EDGE_VALUES = ("inf", "-inf", "nan", "0", "-1", "1e308")


def _problem_number(usable):
    return st.one_of(st.just(usable), st.sampled_from(_EDGE_VALUES))


@given(initial=st.sampled_from(["gaussian", "constant"]),
       amplitude=_problem_number("1.0"), width=_problem_number("0.5"),
       level=_problem_number("1.0"), t_end=_problem_number("0.3"),
       lo=_problem_number("-4"), hi=_problem_number("4"), p=_problem_number("2.0"))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_problem_number_fuzz_never_exits_four(tmp_path, initial, amplitude, width, level,
                                              t_end, lo, hi, p):
    data = (f"amplitude = {amplitude}\nwidth = {width}" if initial == "gaussian"
            else f"level = {level}")
    ini = f"""
[problem]
dim = 1
p = {p}
box = {lo}:{hi}
extents = 16
boundary = reflecting
initial = {initial}
{data}
t_end = {t_end}

[step]
sample_stride = 1

[constants]
alpha = 1.0
beta = 0.0
c = 0.5
a = 0.6666666666666666

[checks]
enabled = h0, residual, blowup, classical
classical_pairs = 10
"""
    cfg = write(tmp_path, "c.ini", ini)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run"),
                 "--allow-inadmissible"]) in (0, 1, 2, 3)


@pytest.mark.parametrize("change, key", [
    (("dim = 1", "dim = 99999999999999999999999"), "[problem] dim"),
    (("dim = 1", "dim = 100000000"), "[problem] dim"),
    (("extents = 128", "extents = 1099511627776"), "[problem] extents"),
    (("t_end = 0.5", "t_end = 1e308\nreaction = off"), "[problem] t_end"),
], ids=["dim-past-the-index-size", "dim-1e8", "extents-2e40", "heat-only-to-1e308"])
def test_bad_dim_extents_or_t_end_exit_two_naming_the_key(tmp_path, capsys, change, key):
    # each was found by the sweep --axis fuzz: repeating a one-interval box
    # dim times overflowed or ran out of memory, and so did the initial data
    # of 2^40 points (exit 4); a heat-only run to t = 1e308 steps at a fixed
    # dt until, some 2^53 steps on, t + dt == t stops it
    cfg = write(tmp_path, "g.ini", GAUSS_INI.replace(*change))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {key}" in err and "Traceback" not in err


# Every numeric [step] and [checks] key; the integer keys also take integers
# far past any count a run could use.  One key at a time goes through every
# edge value, then random sets of two or three keys do, the other keys
# keeping their defaults.
_STEP_AND_CHECK_KEYS = (
    ("step", "cfl_safety"), ("step", "reaction_safety"), ("step", "dt_min"),
    ("step", "f_cap"), ("step", "sample_stride"),
    ("checks", "t_min_frac"), ("checks", "t_max_frac"), ("checks", "h0_tol"),
    ("checks", "residual_tol"), ("checks", "classical_pairs"),
    ("checks", "classical_tol"), ("checks", "rescale_lambda"), ("checks", "rescale_tol"),
    ("checks", "blowup_c"))
_INTEGER_KEYS = ("sample_stride", "classical_pairs")
_HUGE_INTEGERS = ("99999999999999999999999", "100000000000")

_PROBLEMS = {
    "gaussian": "box = -4:4\nboundary = reflecting\ninitial = gaussian\namplitude = 1.0\n"
                "width = 0.5\nt_end = 0.3",
    "constant": "box = 0:100\nboundary = periodic\ninitial = constant\nlevel = 1.0\n"
                "t_end = 2.0",
}


def _verify_with(tmp_path, initial, changes) -> int:
    """Exit code of `verify` on a 16-point run of `initial` data with every
    check on and the (section, key, value) `changes` applied."""
    lines = {"step": {"sample_stride": "1"},
             "checks": {"enabled": "h0, hr, residual, blowup, classical, rescale",
                        "classical_pairs": "10"}}
    for section, key, value in changes:
        lines[section][key] = value
    ini = (f"[problem]\ndim = 1\np = 2.0\nextents = 16\n{_PROBLEMS[initial]}\n\n"
           f"[constants]\npreset = blowup(1,2,1)\n\n"
           + "\n".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in pairs.items())
                       for section, pairs in lines.items()))
    return main(["verify", "--config", write(tmp_path, "c.ini", ini),
                 "--out", str(tmp_path / "run"), "--allow-inadmissible"])


def _edge_values(key):
    return _EDGE_VALUES + (_HUGE_INTEGERS if key in _INTEGER_KEYS else ())


@pytest.mark.parametrize("initial", sorted(_PROBLEMS))
@pytest.mark.parametrize("section, key", _STEP_AND_CHECK_KEYS)
def test_each_step_and_checks_number_at_its_edges_never_exits_four(tmp_path, initial,
                                                                   section, key):
    # classical_pairs = 100000000000 used to run for minutes, and
    # classical_tol = 1e308 to exit 4 with "math domain error"
    for value in _edge_values(key):
        assert _verify_with(tmp_path, initial, [(section, key, value)]) in (0, 1, 2, 3), value


@given(initial=st.sampled_from(sorted(_PROBLEMS)), data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_step_and_checks_number_pairs_never_exit_four(tmp_path, initial, data):
    keys = data.draw(st.lists(st.sampled_from(_STEP_AND_CHECK_KEYS), min_size=2, max_size=3,
                              unique=True), label="keys")
    changes = [(section, key, data.draw(st.sampled_from(_edge_values(key)), label=key))
               for section, key in keys]
    assert _verify_with(tmp_path, initial, changes) in (0, 1, 2, 3)


# too few or too many intervals and an infinite bound used to exit 4 (an
# IndexError) or 0 (extra intervals ignored, an infinite wall accepted), and a
# rectangle far off the box 4, through an overflow in harnack.cutoff_parts
_BAD_HR_RECTS = ("-1:1", "-1:1, -1:1, -1:1", "0:inf, -1:1", "1e308:1.7e308, 0:1")


@pytest.mark.parametrize("rect", _BAD_HR_RECTS)
def test_bad_hr_rect_on_the_2d_bench_geometry_exits_two_naming_the_key(tmp_path, capsys,
                                                                       rect):
    # bench/workloads.py's GAUSS_2D_INI at 32^2 and a short horizon
    ini = f"""
[problem]
dim = 2
p = 2.0
box = -2:2
extents = 32
boundary = reflecting
initial = gaussian
amplitude = 1.0
width = 0.2
center = 0.0, 0.0
t_end = 0.05

[step]
sample_stride = 4

[constants]
alpha = 1.0
beta = 0.25
c = 0.7
a = 1.5

[checks]
enabled = h0, hr, residual, blowup, classical
hr_rect = {rect}
"""
    cfg = write(tmp_path, "c.ini", ini)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "config error: [checks] hr_rect" in err and "Traceback" not in err


_RECT_BOUNDS = ("-1", "1", "1.7e308") + _EDGE_VALUES


@given(initial=st.sampled_from(sorted(_PROBLEMS)),
       rect=st.lists(st.tuples(st.sampled_from(_RECT_BOUNDS), st.sampled_from(_RECT_BOUNDS)),
                     min_size=1, max_size=3))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_hr_rect_fuzz_never_exits_four(tmp_path, initial, rect):
    text = ", ".join(f"{lo}:{hi}" for lo, hi in rect)
    assert _verify_with(tmp_path, initial, [("checks", "hr_rect", text)]) in (0, 1, 2, 3)


def _drop(key):
    """Damage that drops metadata.json's top-level `key`."""
    def damage(path):
        meta = json.loads(path.read_text())
        del meta[key]
        path.write_text(json.dumps(meta))
    return damage


def _set_meta(key, value):
    """Damage that sets metadata.json's `key` (dotted for a nested one)."""
    def damage(path):
        meta = json.loads(path.read_text())
        *parents, last = key.split(".")
        node = meta
        for name in parents:
            node = node[name]
        node[last] = value if not callable(value) else value(node[last])
        path.write_text(json.dumps(meta))
    return damage


def _blowup_status(**fields):
    return _set_meta("status", {"kind": "blowup", "t_detect": 1.0, "reason": None,
                                "criterion": "f_cap", **fields})


def _reverse_sample_times(path):
    meta = json.loads(path.read_text())
    meta["sample_times"].reverse()
    path.write_text(json.dumps(meta))


@pytest.mark.parametrize("name, damage, message", [
    ("samples.npy", lambda path: np.save(path, np.load(path)[:-1]), r"samples\.npy.*shape"),
    ("samples.npy", lambda path: path.unlink(), r"samples\.npy"),
    ("metadata.json", _drop("sample_times"), r"metadata\.json.*missing key 'sample_times'"),
    ("samples.npy", lambda path: np.save(path, -np.load(path)), r"samples\.npy.*positive"),
    ("metadata.json", _reverse_sample_times, r"metadata\.json.*increasing"),
    ("steps.npy", lambda path: np.save(path, np.stack([np.load(path)] * 2)),
     r"steps\.npy.*shape"),
    ("steps.npy", lambda path: np.save(path, np.load(path)[:-1]), r"steps\.npy.*shape"),
    ("steps.npy", lambda path: np.save(path, np.load(path).astype(np.float32)),
     r"steps\.npy.*float64"),
    ("steps.npy", lambda path: np.save(path, -np.load(path)), r"steps\.npy.*positive"),
    ("steps.npy", lambda path: np.save(path, np.where(np.arange(len(np.load(path))) == 3,
                                                      np.inf, np.load(path))),
     r"steps\.npy.*finite"),
    ("steps.npy", lambda path: path.unlink(), r"steps\.npy"),
    ("metadata.json", _drop("n_steps"), r"metadata\.json.*missing key 'n_steps'"),
    ("samples.npy", lambda path: np.save(path, np.load(path) * np.inf), r"samples\.npy.*finite"),
    ("samples.npy", lambda path: np.save(path, np.load(path) * np.nan), r"samples\.npy.*finite"),
    ("metadata.json", _set_meta("sample_times", []), r"metadata\.json.*nonempty"),
    ("metadata.json", _set_meta("sample_times", 0.5), r"metadata\.json.*nonempty"),
    ("metadata.json", _set_meta("status.kind", "bogus"), r"metadata\.json.*status\.kind"),
    ("metadata.json", _blowup_status(t_detect="x"), r"metadata\.json.*status\.t_detect"),
    ("metadata.json", _blowup_status(t_detect=None), r"metadata\.json.*status\.t_detect"),
    ("metadata.json", _blowup_status(kind="aborted", t_detect=None, reason="r",
                                     criterion=None), r"metadata\.json.*status\.t_detect"),
    ("metadata.json", _blowup_status(criterion="bogus"),
     r"metadata\.json.*status\.criterion"),
    ("metadata.json", _blowup_status(criterion=None), r"metadata\.json.*status\.criterion"),
    ("metadata.json", _set_meta("grid.extents", [16.5]), r"metadata\.json.*grid\.extents"),
    ("metadata.json", _set_meta("n_steps", lambda n: n + 0.5), r"metadata\.json.*n_steps"),
    # a string p was taken through float() and verified with exit 0
    ("metadata.json", _set_meta("p", "2.0"), r"metadata\.json: p must be a number, got '2\.0'"),
    ("metadata.json", _set_meta("p", True), r"metadata\.json: p must be a number, got True"),
    ("metadata.json", _set_meta("reaction", 1), r"metadata\.json: reaction must be true or "
                                                r"false, got 1"),
    ("metadata.json", _set_meta("reaction", "true"), r"metadata\.json: reaction must be"),
    ("metadata.json", _set_meta("reaction", None), r"metadata\.json: reaction must be"),
    # a trace written before the key existed
    ("metadata.json", _drop("reaction"), r"metadata\.json.*missing key 'reaction'"),
    ("metadata.json", _set_meta("sample_times", lambda ts: [-0.5] + ts[1:]),
     r"metadata\.json.*sample_times.*t >= 0"),
    ("metadata.json", _set_meta("sample_times", lambda ts: ts[:-1] + [float("inf")]),
     r"metadata\.json.*sample_times.*finite"),
    # each of these four exited 4 with an OverflowError, found by the fuzz below
    ("metadata.json", _set_meta("p", 10 ** 400), r"metadata\.json: p holds an integer too large"),
    ("metadata.json", _set_meta("grid.box", [[0, 10 ** 400]]), r"grid\.box\.0\.1 holds"),
    ("metadata.json", _set_meta("sample_times", lambda ts: ts[:-1] + [10 ** 400]),
     r"sample_times\.\d+ holds"),
    ("metadata.json", _blowup_status(t_detect=10 ** 400), r"status\.t_detect holds"),
    # and this one with a RecursionError
    ("metadata.json", lambda path: path.write_text("[" * 100_000 + "]" * 100_000),
     r"metadata\.json: maximum recursion depth"),
    # exited 4 with an IsADirectoryError
    ("metadata.json", lambda path: (path.unlink(), path.mkdir()),
     r"metadata\.json: cannot read: Is a directory"),
])
def test_load_trace_damaged_file_is_config_error(tmp_path, name, damage, message):
    save_trace(tmp_path / "trace",
               solve(constant_problem(t_end=0.5), StepConfig(sample_stride=1)))
    damage(tmp_path / "trace" / name)
    with pytest.raises(ConfigError, match=message):
        load_trace(tmp_path / "trace")


# Damaged trace directories at random: one or two damages to a solve of
# constant_blowup.ini (16 points), then `verify` through [verify] trace_dir.
# A metadata key is dropped, set to a value of the wrong type, a huge or a
# non-finite number, or nested in lists (deeper than the JSON decoder's
# recursion limit too); an array file is truncated, rewritten with another
# dtype or shape or with one value changed, or removed.
_META_KEYS = ("p", "grid", "grid.box", "grid.box.0", "grid.box.0.0", "grid.box.0.1",
              "grid.extents", "grid.extents.0", "grid.boundary", "status", "status.kind",
              "status.t_detect", "status.reason", "status.criterion", "sample_times",
              "sample_times.0", "sample_times.1", "sample_times.-1", "n_steps", "reaction")
_META_VALUES = st.one_of(
    st.sampled_from([None, True, False, "x", "2.0", {}, [], [1.0], 0, 1, -1, 2 ** 63,
                     10 ** 400, -10 ** 400, 1e308, -1e308, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True), st.integers())
_NESTED = "\u0000nested\u0000"


@st.composite
def _trace_damage(draw):
    name = draw(st.sampled_from(["metadata.json", "samples.npy", "steps.npy"]))
    if name == "metadata.json":
        key = draw(st.sampled_from(_META_KEYS))
        how = draw(st.sampled_from(["drop", "set", "nest"]))
        arg = (draw(_META_VALUES) if how == "set"
               else draw(st.sampled_from([1, 2, 100_000])) if how == "nest" else None)
    else:
        how = draw(st.sampled_from(["truncate", "dtype", "shape", "value", "remove"]))
        arg = {"truncate": st.integers(0, 1 << 20),
               "dtype": st.sampled_from([np.float32, np.int64, np.complex128, np.bool_,
                                         np.dtype(">f8"), object]),
               "shape": st.sampled_from(["drop-row", "add-row", "flat", "lead-axis",
                                         "empty"]),
               "value": st.tuples(st.integers(0, 1 << 20),
                                  st.floats(allow_nan=True, allow_infinity=True)),
               "remove": st.none()}[how]
        key, arg = None, draw(arg)
    return name, key, how, arg


def _damage_meta(path, key, how, arg):
    meta = json.loads(path.read_text())
    *parents, last = key.split(".")
    node = meta
    for name in parents:
        node = node[int(name)] if isinstance(node, list) else node[name]
    last = int(last) if isinstance(node, list) else last
    if how == "drop":
        del node[last]
        text = json.dumps(meta)
    else:
        old, node[last] = node[last], arg if how == "set" else _NESTED
        text = json.dumps(meta)
        if how == "nest":
            text = text.replace(json.dumps(_NESTED), "[" * arg + json.dumps(old) + "]" * arg)
    path.write_text(text)


def _damage_array(path, how, arg):
    a = np.load(path)
    if how == "truncate":
        path.write_bytes(path.read_bytes()[:arg % (path.stat().st_size + 1)])
    elif how == "dtype":
        np.save(path, a.astype(arg), allow_pickle=True)
    elif how == "shape":
        np.save(path, {"drop-row": a[:-1], "add-row": np.concatenate([a, a[-1:]]),
                       "flat": a.reshape(-1), "lead-axis": a[None],
                       "empty": a[:0]}[arg])
    elif how == "value":
        flat = a.reshape(-1)
        if flat.size:
            flat[arg[0] % flat.size] = arg[1]
        np.save(path, a)
    else:
        path.unlink()


CONST_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "constant_blowup.ini"


@pytest.fixture(scope="module")
def const_trace(tmp_path_factory):
    """The saved trace of configs/constant_blowup.ini."""
    out = tmp_path_factory.mktemp("const") / "solve"
    assert main(["solve", "--config", str(CONST_CONFIG), "--out", str(out)]) == 0
    return out / "trace"


def _verify_trace(tmp_path, trace) -> int:
    """Exit code of `verify` on constant_blowup.ini from the trace at `trace`."""
    cfg = write(tmp_path, "c.ini", f"{CONST_CONFIG.read_text()}\n[verify]\ntrace_dir = {trace}\n")
    return main(["verify", "--config", cfg, "--out", str(tmp_path / "run")])


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@given(damages=st.lists(_trace_damage(), min_size=1, max_size=2))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_damaged_trace_fuzz_never_exits_four_and_leaves_no_process(tmp_path, const_trace,
                                                                   damages):
    trace = tmp_path / "trace"
    shutil.rmtree(trace, ignore_errors=True)
    shutil.copytree(const_trace, trace)
    for name, key, how, arg in damages:
        if not (trace / name).exists():
            continue
        try:
            with warnings.catch_warnings():   # a cast or a value that overflows warns
                warnings.simplefilter("ignore")
                if name == "metadata.json":
                    _damage_meta(trace / name, key, how, arg)
                else:
                    _damage_array(trace / name, how, arg)
        except (KeyError, IndexError, TypeError, ValueError, OverflowError, EOFError,
                RecursionError):
            # an earlier damage left no such key or no readable file, or the
            # array cannot hold the value
            continue
    before = _descendants(os.getpid())
    assert _verify_trace(tmp_path, trace) in (0, 1, 2, 3)
    assert _descendants(os.getpid()) <= before


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_verify_fails_the_residual_check_where_its_terms_overflow(tmp_path, const_trace):
    # found by the fuzz: a sample of 1.9e154 inside the window overflowed the
    # residual's (p-1) f^(p-1) (H - a/t) term, a RuntimeWarning and exit 4
    trace = tmp_path / "trace"
    shutil.copytree(const_trace, trace)
    samples = np.load(trace / "samples.npy")
    times = json.loads((trace / "metadata.json").read_text())["sample_times"]
    samples[np.searchsorted(times, 0.5 * times[-1]), 0] = 1e200
    np.save(trace / "samples.npy", samples)
    assert _verify_trace(tmp_path, trace) == 1
    # strict JSON: the bare NaN and Infinity tokens are refused
    summary = json.loads((tmp_path / "run" / "summary.json").read_text(),
                         parse_constant=_refuse_constant)
    assert summary["checks"] == {"h0": True, "residual": False, "blowup": True}
    assert summary["residual_stats"]["max_abs"] == "inf"


def test_write_summary_writes_each_non_finite_float_as_its_csv_string(tmp_path):
    path = tmp_path / "summary.json"
    cli.write_summary(path, {"a": [math.nan, 1.5, (-math.inf,)], "b": {"c": math.inf},
                             "d": None})
    assert json.loads(path.read_text(), parse_constant=_refuse_constant) == {
        "a": ["nan", 1.5, ["-inf"]], "b": {"c": "inf"}, "d": None}


# ---------------------------------------------------------------------------
# config parsing

def test_load_config_roundtrip(tmp_path):
    rc = load_config(write(tmp_path, "g.ini", GAUSS_INI))
    assert rc.problem.p == 2.0
    assert rc.problem.grid.extents == (128,)
    assert rc.constants_source == "hamilton_1d"
    assert rc.checks.enabled == ("h0", "residual", "blowup", "classical", "rescale")
    assert rc.checks.classical_pairs == 25


def test_config_missing_key(tmp_path):
    bad = GAUSS_INI.replace("width = 0.2\n", "")
    with pytest.raises(ConfigError, match="width"):
        load_config(write(tmp_path, "bad.ini", bad))


def test_config_rejects_p_of_one(tmp_path):
    bad = GAUSS_INI.replace("p = 2.0", "p = 1.0")
    with pytest.raises(ConfigError, match="p > 1"):
        load_config(write(tmp_path, "bad.ini", bad))


def test_config_rejects_unknown_check(tmp_path):
    bad = GAUSS_INI.replace("enabled = h0", "enabled = h9")
    with pytest.raises(ConfigError, match="unknown check"):
        load_config(write(tmp_path, "bad.ini", bad))


def test_config_rejects_preset_mismatch(tmp_path):
    bad = GAUSS_INI.replace("preset = hamilton_1d", "preset = dim2")
    with pytest.raises(ConfigError, match="preset"):
        load_config(write(tmp_path, "bad.ini", bad))


def test_config_parse_error_carries_line_number(tmp_path):
    with pytest.raises(ConfigError, match="line"):
        load_config(write(tmp_path, "bad.ini", "[problem]\n  broken line without key\n"))


@pytest.mark.parametrize("key", ["t_end", "dt_min", "f_cap", "cfl_safety",
                                 "reaction_safety"])
def test_config_rejects_nan(tmp_path, key):
    section = "problem" if key == "t_end" else "step"
    cfg = write(tmp_path, "c.ini", CONST_INI)
    with pytest.raises(ConfigError, match=key):
        load_config(cfg, overrides=[(section, key, "nan")])


@pytest.mark.parametrize("key, value", [("box", "0:inf"), ("box", "nan:100"),
                                        ("box", "-inf:0"), ("t_end", "inf")])
def test_config_rejects_non_finite_box_and_t_end(tmp_path, key, value):
    # t_end = inf with reaction = off would never end, so only load the config
    cfg = write(tmp_path, "c.ini", CONST_INI)
    with pytest.raises(ConfigError, match=rf"\[problem\].*{key}"):
        load_config(cfg, overrides=[("problem", key, value)])


@pytest.mark.parametrize("ini, message", [
    (CONST_INI.replace("level = 1.0", "level = 0"), "level > 0, got 0.0"),
    (CONST_INI.replace("level = 1.0", "level = nan"), "level > 0, got nan"),
    (GAUSS_INI.replace("amplitude = 1.0", "amplitude = -1"), "amplitude > 0, got -1.0"),
    (GAUSS_INI.replace("width = 0.2", "width = nan"), "width > 0, got nan"),
    (GAUSS_INI.replace("center = 0.0", "center = 0.0, 1.0"), "center [0.0, 1.0]"),
    # inf used to pass as positive and reach the f_cap comparison
    (CONST_INI.replace("level = 1.0", "level = inf"), "level > 0, got inf"),
    (GAUSS_INI.replace("amplitude = 1.0", "amplitude = inf"), "amplitude > 0, got inf"),
    (GAUSS_INI.replace("width = 0.2", "width = 1e200"), "width 1e+200 is too large"),
    # |x - center|^2 used to overflow with a RuntimeWarning, and a Gaussian
    # that underflowed to 0 was refused only as non-positive initial data
    (GAUSS_INI.replace("center = 0.0", "center = 1e200"), "center [1e+200] is so far"),
    (GAUSS_INI.replace("center = 0.0", "center = 1e150"), "center [1e+150] lies outside"),
    (GAUSS_INI.replace("width = 0.2", "width = 0.005"), "width 0.005 is so small"),
    # a non-finite centre used to be named as one so far from the box that
    # |x - center|^2 overflows
    (GAUSS_INI.replace("center = 0.0", "center = nan"), "finite center, got [nan]"),
    (GAUSS_INI.replace("center = 0.0", "center = inf"), "finite center, got [inf]"),
], ids=["level-zero", "level-nan", "amplitude", "width-nan", "center", "level-inf",
        "amplitude-inf", "width-too-large", "center-overflow", "center-underflow",
        "width-underflow", "center-nan", "center-inf"])
def test_initial_data_parameter_errors_name_their_key(tmp_path, capsys, ini, message):
    cfg = write(tmp_path, "c.ini", ini)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "[problem]" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("classical_pairs", "0"), ("rescale_lambda", "0"), ("rescale_lambda", "-2"),
    ("h0_tol", "nan"), ("residual_tol", "-1"),
    ("t_min_frac", "0"), ("t_max_frac", "1.5"), ("blowup_c", "inf"),
    # a pair passes when its slack is >= 1 - classical_tol, and log1p(-tol)
    # used to fail with "math domain error" (exit 4) at classical_tol >= 1
    ("classical_tol", "1.5"), ("classical_pairs", "100000000000"),
    ("preset", "blowup(1.5, 2, 0.5)"), ("preset", "blowup(x, 2, 0.5)"),
])
def test_malformed_check_setting_or_preset_exits_two(tmp_path, capsys, key, value):
    if key == "preset":
        ini = CONST_INI.replace("preset = hamilton_1d", f"preset = {value}")
    else:
        ini = CONST_INI + f"\n[checks]\nenabled = h0\n{key} = {value}\n"
    cfg = write(tmp_path, "c.ini", ini)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert key in err and value in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["0.5", "2", "1e308"])
def test_blowup_c_outside_its_range_exits_two_naming_the_key(tmp_path, capsys, value):
    # n(p-1) <= c < 2 is checked before the solve; the error used to come
    # after it, without the key's name
    cfg = write(tmp_path, "c.ini",
                CONST_INI + f"\n[checks]\nenabled = blowup\nblowup_c = {value}\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"[checks] blowup_c = {float(value)}: need n(p-1) <= c < 2" in err
    assert not (tmp_path / "run" / "summary.json").exists()


@pytest.mark.parametrize("blowup_c", [None, "1.99"])
def test_blowup_threshold_that_overflows_exits_two_before_the_solve(tmp_path, capsys,
                                                                    monkeypatch, blowup_c):
    # (4/0.01)^(1/0.001) overflows; it used to exit 4 after the solve
    ini = CONST_INI.replace("p = 2.0", "p = 1.001").replace(
        "preset = hamilton_1d", "alpha = 2.0\nbeta = 1.0\nc = 1.99\na = 2.0")
    ini += "\n[checks]\nenabled = blowup\n" + (f"blowup_c = {blowup_c}\n" if blowup_c else "")
    monkeypatch.setattr(cli, "solve", lambda *args: pytest.fail("solved before the check"))
    cfg = write(tmp_path, "c.ini", ini)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run"),
                 "--allow-inadmissible"]) == 2
    key = "[checks] blowup_c" if blowup_c else "[constants] c"
    assert f"{key} = 1.99: the threshold (4n/(2-c))^(1/(p-1)) overflows" in \
        capsys.readouterr().err


def test_config_rejects_center_of_wrong_length(tmp_path):
    bad = GAUSS_INI.replace("center = 0.0", "center = 0.0, 0.0")
    with pytest.raises(ConfigError, match="center"):
        load_config(write(tmp_path, "bad.ini", bad))


def test_config_defaults_are_the_dataclass_defaults(tmp_path):
    rc = load_config(write(tmp_path, "c.ini", CONST_INI.replace(
        "sample_stride = 1\nreaction_safety = 0.02\n", "")))
    assert rc.step == StepConfig()
    assert rc.checks == CheckSettings()
    assert rc.problem.reaction is True
    assert rc.problem.grid.boundary == "periodic"
    assert (rc.outdir, rc.trace_dir) == ("out", None)


@pytest.mark.parametrize("section, key", [
    ("problem", "levl"), ("step", "sample_strid"), ("constants", "alpah"),
    ("checks", "enabeld"), ("output", "dri"), ("verify", "trace_dri"),
    # a key no longer read: the localizer's b margin is a constant
    ("checks", "hr_b_margin"),
])
def test_config_typo_key_exits_two(tmp_path, capsys, section, key):
    head = f"[{section}]\n{key} = 1\n"
    ini = CONST_INI.replace(f"[{section}]\n", head) if f"[{section}]" in CONST_INI \
        else CONST_INI + "\n" + head
    cfg = write(tmp_path, "c.ini", ini)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert f"[{section}] {key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ini, named", [
    (GAUSS_INI.replace("width = 0.2", "width = 0.2\nlevel = 1.0"), "[problem] level"),
    (CONST_INI.replace("level = 1.0", "level = 1.0\nwidth = 0.2"), "[problem] width"),
    (GAUSS_INI.replace("preset = hamilton_1d", "preset = hamilton_1d\nalpha = 1.0"),
     "[constants] alpha"),
    (CONST_INI + "\n[check]\nenabled = h0\n", "unknown section [check]"),
    (CONST_INI + "\n[check]\n", "unknown section [check]"),
], ids=["level-under-gaussian", "width-under-constant", "alpha-next-to-preset",
        "unknown-section", "empty-unknown-section"])
def test_config_unused_key_or_unknown_section_exits_two(tmp_path, capsys, ini, named):
    cfg = write(tmp_path, "c.ini", ini)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert named in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve command

def test_cmd_solve_constant_blowup(tmp_path):
    cfg = write(tmp_path, "c.ini", CONST_INI)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "blowup"
    assert summary["t_estimate"] == pytest.approx(1.0, rel=1e-2)
    back = load_trace(out / "trace")
    assert back.status.kind == "blowup"


def test_cmd_solve_overflow_aborts_before_the_nonfinite_state(tmp_path):
    # p = 1.02 blows up at T* = 50; max f passes 1e307 about 3.5e-5 before
    # T*, where time is still resolved, and the next step's f^p overflows
    root = Path(__file__).resolve().parents[1]
    ini = (root / "configs" / "constant_blowup.ini").read_text()
    for old, new in (("p = 2.0", "p = 1.02"), ("t_end = 2.0", "t_end = 100.0"),
                     ("reaction_safety = 0.02", "reaction_safety = 0.2\nf_cap = 1e308"),
                     ("preset = hamilton_1d", "alpha = 1.0\nbeta = 0.0\nc = 0.5\na = 0.5")):
        ini = ini.replace(old, new)
    cfg = write(tmp_path, "c.ini", ini)
    out = tmp_path / "run"
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "aborted"
    assert "RK4 result is not finite" in summary["abort_reason"]
    back = load_trace(out / "trace")
    assert np.isfinite(back.samples).all() and back.samples.max() > 1e300
    assert back.t_final == back.status.t_detect
    assert len(back.step_log) == len(back.samples) - 1


def test_blowup_without_a_usable_tail_fit_has_no_estimate(tmp_path, capsys):
    # p = 3 from f0 = 1 blows up at T* = 0.5, where t stops advancing: the
    # last samples span a few float spacings of t, and numpy finds the tail
    # fit rank-deficient.  solve used to exit 2 calling that a config error.
    ini = CONST_CONFIG.read_text()
    for old, new in (("p = 2.0", "p = 3.0"),
                     ("reaction_safety = 0.02", "reaction_safety = 0.02\nf_cap = 1e300\n"
                                                "dt_min = 1e-300"),
                     ("preset = hamilton_1d", "alpha = 1.0\nbeta = 0.0\nc = 0.5\na = 0.5")):
        ini = ini.replace(old, new)
    cfg = write(tmp_path, "c.ini", ini)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "solve")]) == 0
    summary = json.loads((tmp_path / "solve" / "summary.json").read_text())
    assert summary["status"] == "blowup" and summary["detection_criterion"] == "dt_floor"
    assert summary["t_estimate"] is None and summary["fit_residual"] is None
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "verify")]) == 1
    summary = json.loads((tmp_path / "verify" / "summary.json").read_text())
    assert summary["checks"]["blowup"] is False and summary["blowup"]["t_estimate"] is None
    assert "Traceback" not in capsys.readouterr().err


def test_cmd_solve_short_gaussian_exits_zero(tmp_path):
    cfg = write(tmp_path, "g.ini", GAUSS_INI)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "reached_t_end"


def test_cmd_solve_bad_config_exits_two(tmp_path):
    cfg = write(tmp_path, "bad.ini", GAUSS_INI.replace("p = 2.0", "p = 1.0"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


# ---------------------------------------------------------------------------
# verify command

def test_cmd_verify_all_checks_pass(tmp_path):
    cfg = write(tmp_path, "g.ini", GAUSS_INI)
    out = tmp_path / "run"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "reached_t_end"
    assert all(summary["checks"].values())
    assert summary["classical_pass_fraction"] == 1.0
    assert summary["min_h0"] > -1e-2
    assert (out / "h0_curve.csv").exists()
    assert (out / "classical_pairs.csv").exists()


def test_cmd_verify_empty_checks_is_config_error(tmp_path):
    bad = GAUSS_INI.replace("enabled = h0, residual, blowup, classical, rescale",
                            "enabled =")
    cfg = write(tmp_path, "g.ini", bad)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_cmd_verify_inadmissible_without_override(tmp_path):
    bad = GAUSS_INI.replace("preset = hamilton_1d",
                            "alpha = 1.0\nbeta = 0.0\nc = 0.01\na = 0.01")
    cfg = write(tmp_path, "g.ini", bad)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_cmd_verify_inadmissible_with_override_fails_h0(tmp_path):
    bad = GAUSS_INI.replace("preset = hamilton_1d",
                            "alpha = 1.0\nbeta = 0.0\nc = 0.01\na = 0.01")
    bad = bad.replace("enabled = h0, residual, blowup, classical, rescale",
                      "enabled = h0")
    cfg = write(tmp_path, "g.ini", bad)
    out = tmp_path / "run"
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--allow-inadmissible"]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert not summary["admissible"]
    assert summary["violated"]           # names listed
    assert summary["checks"]["h0"] is False


def test_cmd_verify_hr_with_beta_zero_is_config_error(tmp_path):
    bad = GAUSS_INI.replace("enabled = h0, residual, blowup, classical, rescale",
                            "enabled = hr")
    cfg = write(tmp_path, "g.ini", bad)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_cmd_verify_hr_passes_with_blowup_preset(tmp_path):
    ini = """
[problem]
dim = 1
p = 2.0
box = -8:8
extents = 128
boundary = periodic
initial = gaussian
amplitude = 5.0
width = 1.0
center = 0.0
t_end = 0.05

[step]
sample_stride = 2

[constants]
preset = blowup(1,2,1)

[checks]
enabled = hr
hr_rect = -4:4
"""
    cfg = write(tmp_path, "b.ini", ini)
    out = tmp_path / "run"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["hr"] is True
    assert summary["hr"]["min"] >= 0


def test_cmd_verify_deterministic_reports(tmp_path):
    cfg = write(tmp_path, "g.ini", GAUSS_INI)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["verify", "--config", cfg, "--out", str(out1), "--seed", "7"]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2), "--seed", "7"]) == 0
    for name in ("summary.json", "h0_curve.csv", "classical_pairs.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cmd_verify_loads_saved_trace(tmp_path):
    cfg_path = write(tmp_path, "g.ini", GAUSS_INI)
    solve_out = tmp_path / "solved"
    assert main(["solve", "--config", cfg_path, "--out", str(solve_out)]) == 0
    reuse = GAUSS_INI + f"\n[verify]\ntrace_dir = {solve_out / 'trace'}\n"
    cfg2 = write(tmp_path, "g2.ini", reuse)
    out = tmp_path / "run"
    assert main(["verify", "--config", cfg2, "--out", str(out)]) == 0


@pytest.mark.parametrize("saved", [False, True])
def test_no_sample_in_the_window_exits_two_naming_the_keys(tmp_path, capsys, saved):
    # a stride past the run's step count keeps only the first and last
    # sample, so the h0 check finds no sample inside the window
    stride = "99999999999999999999999"
    ini = GAUSS_INI.replace("sample_stride = 4", f"sample_stride = {stride}")
    if saved:
        solved = tmp_path / "solved"
        assert main(["solve", "--config", write(tmp_path, "s.ini", ini),
                     "--out", str(solved)]) == 0
        ini += f"\n[verify]\ntrace_dir = {solved / 'trace'}\n"
    cfg = write(tmp_path, "c.ini", ini)
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "the window [0.025, 0.45] holds 0 of the trace's 2 samples, which span " \
           "[0.0, 0.5]; the check needs at least one" in err
    assert "[checks] t_min_frac = 0.05 to t_max_frac = 0.9" in err
    assert (f"[verify] trace_dir = {solved / 'trace'}" if saved
            else f"[step] sample_stride = {stride}") in err


@pytest.mark.parametrize("change", ["grid", "amplitude", "first-sample", "start-time",
                                    "longer-t_end", "shorter-t_end", "reaction"])
def test_cmd_verify_trace_of_another_problem_exits_two(tmp_path, capsys, change):
    # beside the grid and p, the trace must start at t = 0 from the configured
    # initial data: with other data, every check used to run on a problem the
    # config does not describe (rescale failed with 1.66).  It must also end
    # at the configured horizon and be a solve of the configured equation
    # (with the reaction off, the h0 check judged the heat trace as a solve
    # of f_t = lap(f) + f^p)
    ini = GAUSS_INI.replace("extents = 128", "extents = 64")
    solve_out = tmp_path / "solved"
    assert main(["solve", "--config", write(tmp_path, "g.ini", ini),
                 "--out", str(solve_out)]) == 0
    trace = solve_out / "trace"
    if change == "grid":
        ini = GAUSS_INI
    elif change == "amplitude":
        ini = ini.replace("amplitude = 1.0", "amplitude = 2.0")
    elif change.endswith("t_end"):
        ini = ini.replace("t_end = 0.5", "t_end = 1.0" if change == "longer-t_end"
                          else "t_end = 0.25")
    elif change == "reaction":
        ini = ini.replace("t_end = 0.5", "t_end = 0.5\nreaction = off")
    elif change == "first-sample":   # one ulp off at one point
        samples = np.load(trace / "samples.npy")
        samples[0, 5] = np.nextafter(samples[0, 5], 2.0)
        np.save(trace / "samples.npy", samples)
    else:
        meta = json.loads((trace / "metadata.json").read_text())
        meta["sample_times"] = [t + 0.1 for t in meta["sample_times"]]
        (trace / "metadata.json").write_text(json.dumps(meta))
    cfg = write(tmp_path, "g2.ini", ini + f"\n[verify]\ntrace_dir = {trace}\n")
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "loaded trace does not match the configured problem" in err
    assert not (tmp_path / "run" / "summary.json").exists()


@pytest.mark.parametrize("t_end, code", [("0.5", 2), ("5.0", 0)])
def test_verify_refuses_a_blowup_trace_past_the_horizon(tmp_path, capsys, const_trace,
                                                        t_end, code):
    # constant_blowup.ini's trace blows up near t = 1 under t_end = 2.  Under
    # t_end = 0.5 it runs past the horizon, and was verified with exit 0 and
    # a blowup at 0.99999999; under t_end = 5 it stops early, as a blowup may
    ini = CONST_CONFIG.read_text().replace("t_end = 2.0", f"t_end = {t_end}")
    cfg = write(tmp_path, "c.ini", f"{ini}\n[verify]\ntrace_dir = {const_trace}\n")
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run")]) == code
    assert ("loaded trace does not match the configured problem"
            in capsys.readouterr().err) == (code == 2)


def test_cmd_verify_missing_trace_dir(tmp_path):
    reuse = GAUSS_INI + "\n[verify]\ntrace_dir = /nonexistent/trace\n"
    cfg = write(tmp_path, "g.ini", reuse)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_cmd_verify_zero_width_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, "g.ini", GAUSS_INI.replace("width = 0.2", "width = 0"))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "width" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "solve"])
def test_f_cap_at_or_below_initial_maximum_exits_two(tmp_path, capsys, command):
    ini = CONST_INI.replace("[step]\n", "[step]\nf_cap = 0.5\n") + \
        "\n[checks]\nenabled = h0, blowup\n"
    cfg = write(tmp_path, "c.ini", ini)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "[step] f_cap = 0.5" in err and "initial maximum 1.0" in err


def test_cmd_verify_fits_the_blowup_tail_once(tmp_path, monkeypatch):
    fits = []

    def counted(*args, **kwargs):
        fits.append(args)
        return tail_fit(*args, **kwargs)

    monkeypatch.setattr(bl, "tail_fit", counted)
    cfg = write(tmp_path, "c.ini", CONST_INI + "\n[checks]\nenabled = blowup\n")
    out = tmp_path / "run"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["t_estimate"] == summary["blowup"]["t_estimate"]
    assert len(fits) == 1


# its max f falls from 9.88 to 7.60 by t = 0.06, then grows, and the run
# blows up at t = 0.29
_AMPLITUDE_10_INI = """
[problem]
dim = 1
p = 2.0
box = -4:4
extents = 128
boundary = reflecting
initial = gaussian
amplitude = 10.0
width = 0.2
t_end = 5.0

[constants]
preset = hamilton_1d

[checks]
enabled = blowup
blowup_c = 1.5
"""


def test_blowup_check_starts_where_t_f_meets_the_threshold(tmp_path):
    # the hypothesis at t0 is t0 f(x0, t0)^(p-1) >= 4n/(2-c) = 8; a raw
    # f >= 8 scan took t0 = 0, from where max f falls, and failed the check
    cfg = write(tmp_path, "a.ini", _AMPLITUDE_10_INI)
    out = tmp_path / "run"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"] == {"blowup": True}
    assert summary["t_detect"] == pytest.approx(0.2934, abs=1e-4)
    assert summary["blowup"]["threshold_value"] == 8.0
    x0, t0 = summary["blowup"]["threshold_met_at"]
    assert t0 == pytest.approx(0.2579, abs=1e-4)
    rc = load_config(cfg)
    ts, ms = solve(rc.problem, rc.step).max_curve()
    i = int(np.flatnonzero(ts * ms >= 8.0)[0])
    assert ts[i] == t0 and ms[0] > 8.0
    assert np.all(np.diff(ms[i:]) >= 0)


def test_blowup_check_passes_below_the_unit_time_threshold(tmp_path):
    # level 0.5 meets t f >= 8 at t0 = 1.7786 with max f = 4.52, under the
    # t = 1 threshold 8: the growth check starts there without testing f >= 8
    ini = CONST_CONFIG.read_text().replace("level = 1.0", "level = 0.5").replace(
        "t_end = 2.0", "t_end = 3").replace("enabled = h0, residual, blowup",
                                            "enabled = blowup\nblowup_c = 1.5")
    out = tmp_path / "run"
    assert main(["verify", "--config", write(tmp_path, "c.ini", ini), "--out", str(out)]) == 0
    blowup = json.loads((out / "summary.json").read_text())["blowup"]
    assert blowup["threshold_value"] == 8.0
    assert blowup["threshold_met_at"][1] == pytest.approx(1.7786, abs=1e-4)
    assert blowup["threshold_met_at"][1] * 4.52 == pytest.approx(8.03, abs=0.01)


def test_cmd_solve_abort_exits_three(tmp_path):
    # heat-only decay with an absurd dt floor: the step cap dives under it
    # without growth, which is an abort, not a blowup
    ini = GAUSS_INI.replace("[step]\nsample_stride = 4",
                            "[step]\ndt_min = 1.0\nsample_stride = 1")
    ini = ini.replace("t_end = 0.5", "t_end = 0.5\nreaction = off")
    cfg = write(tmp_path, "g.ini", ini)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "aborted"
    assert "abort_reason" in summary


# ---------------------------------------------------------------------------
# the rescale check's worker process

GAUSS_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "gaussian_hamilton.ini"
REPORTS = ("summary.json", "h0_curve.csv", "classical_pairs.csv")


@pytest.fixture
def private_tempdir(tmp_path, monkeypatch):
    """A directory that `tempfile` uses for this test only, so a test can see
    that a run writes nothing there."""
    path = tmp_path / "tempdir"
    path.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(path))
    return path


@pytest.fixture(scope="module")
def gauss_rescale_reference():
    """The rescale check of gaussian_hamilton.ini, all in this process: solve,
    then rescale_problem, then the discrepancy."""
    rc = load_config(GAUSS_CONFIG)
    spec = RescaleSpec(rc.checks.rescale_lambda, rc.problem.p)
    disc = cli.rescale_commutation_discrepancy(
        solve(rc.problem, rc.step), solve(rescale_problem(rc.problem, spec), rc.step), spec)
    return {"lambda": rc.checks.rescale_lambda, "max_rel_discrepancy": disc}, \
        disc <= rc.checks.rescale_tol


@pytest.mark.parametrize("seed", ["0", "3"])
def test_rescale_worker_reports_equal_the_in_process_reference(
        tmp_path, private_tempdir, gauss_rescale_reference, seed):
    out = tmp_path / "worker"
    assert main(["verify", "--config", str(GAUSS_CONFIG), "--out", str(out),
                 "--seed", seed]) == 0
    # the other checks, run without the rescale check and so without a worker
    ref = tmp_path / "reference"
    cfg = write(tmp_path, "g.ini", GAUSS_CONFIG.read_text().replace(
        "enabled = h0, residual, blowup, classical, rescale",
        "enabled = h0, residual, blowup, classical"))
    assert main(["verify", "--config", cfg, "--out", str(ref), "--seed", seed]) == 0
    summary = json.loads((ref / "summary.json").read_text())
    summary["rescale"], summary["checks"]["rescale"] = gauss_rescale_reference
    cli.write_summary(ref / "summary.json", summary)
    for name in REPORTS:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    assert list(private_tempdir.iterdir()) == []
    assert multiprocessing.active_children() == []


def _rescale_discrepancy_per_sample(trace, other, spec):
    """The rescale check as it was, one sample at a time."""
    lo = max(spec.lam ** 2 * trace.times[0], other.times[0])
    hi = min(spec.lam ** 2 * trace.t_final, other.t_final)
    worst = 0.0
    for i in ha.window_indices(spec.lam ** 2 * trace.times, (lo, hi)):
        # the symmetry: values times lam^delta, at time lam^2 t
        f = trace.samples[i] * spec.lam ** spec.delta
        g = field_at(other, spec.lam ** 2 * trace.times[i])
        denom = float(np.abs(f).max())
        worst = max(worst, float(np.abs(f - g).max()) / denom)
    return worst


@pytest.mark.parametrize("extents, n_samples", [((256,), 37), ((16, 16), 20), ((64, 64), 5)])
def test_rescale_discrepancy_on_blocks_equals_the_per_sample_check(extents, n_samples):
    # `other` has a sample at every third rescaled time, one more between
    # each pair of them, and starts after the first rescaled time, so blocks
    # mix exact hits with interpolated rows
    rng = np.random.default_rng(len(extents))
    grid = Grid(((-1.0, 1.0), (0.0, 2.0))[:len(extents)], extents, "reflecting")
    spec = RescaleSpec(1.5, 2.0)
    times = 0.1 + np.cumsum(rng.uniform(0.5, 1.5, n_samples)) / n_samples
    scaled = spec.lam ** 2 * times
    other_times = np.sort(np.concatenate((scaled[3::3], 0.5 * (scaled[2:-1] + scaled[3:]))))

    def trace(ts, g):
        samples = np.exp(0.2 * rng.standard_normal((len(ts), *extents)))
        return SolveTrace(g, 2.0, ts, samples, TraceStatus.reached(), np.zeros(0))

    a, b = trace(times, grid), trace(other_times, grid.scaled(spec.lam))
    disc = cli.rescale_commutation_discrepancy(a, b, spec)
    assert disc > 0
    assert disc == _rescale_discrepancy_per_sample(a, b, spec)


def test_rescale_worker_runs_under_spawn(tmp_path, monkeypatch):
    # the worker's callable and arguments must survive pickling into a fresh
    # interpreter, which forkserver (Python 3.14's default) also needs
    cfg = write(tmp_path, "g.ini", GAUSS_INI)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "default")]) == 0
    spawn = multiprocessing.get_context("spawn")
    started = []

    def spawn_process(**kwargs):
        started.append(spawn.Process(**kwargs))
        return started[-1]

    monkeypatch.setattr(multiprocessing, "Pipe", spawn.Pipe)
    monkeypatch.setattr(multiprocessing, "Process", spawn_process)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "spawn")]) == 0
    assert [type(proc).__name__ for proc in started] == ["SpawnProcess"]
    for name in REPORTS:
        assert ((tmp_path / "default" / name).read_bytes()
                == (tmp_path / "spawn" / name).read_bytes()), name


def _processes() -> dict[int, tuple[int, str]]:
    """pid -> (parent pid, state) of every process, read from /proc/*/stat."""
    found = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:   # the process ended meanwhile
            continue
        found[int(stat.parent.name)] = (int(fields[1]), fields[0])
    return found


def _descendants(pid: int) -> set[int]:
    procs, found = _processes(), set()
    frontier = {pid}
    while frontier:
        frontier = {p for p, (ppid, _) in procs.items() if ppid in frontier} - found
        found |= frontier
    return found


def _running(pids: set[int]) -> set[int]:
    # an exited process that its new parent has not reaped yet is a zombie
    procs = _processes()
    return {p for p in pids if p in procs and procs[p][1] not in "ZX"}


# a 2-D verify whose solve splits its rows with a forked partner: at 256^2 it
# takes minutes, with few samples kept
_GAUSS_2D_256 = _GAUSS_2D_16.replace("extents = 16", "extents = 256").replace(
    "sample_stride = 2", "sample_stride = 1000").replace("t_end = 0.2", "t_end = 0.4")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("dim, command, workers", [
    (1, ["verify"], 1),
    (1, ["sweep", "--jobs", "2", "--axis", "checks.rescale_lambda=2.0,1.5"], 4),
    pytest.param(2, ["verify"], 1, marks=needs_split),
], ids=["verify", "sweep", "verify-2d-partner"])
def test_worker_exits_when_its_parent_is_killed(tmp_path, dim, command, workers):
    # at 2048 points each solve takes tens of seconds, so every worker is still
    # running when its parent is killed: the rescale worker of a verify, and
    # in a sweep both point workers and each one's rescale worker.  None of
    # them writes anything under TMPDIR.  The 2-D verify has no rescale
    # check, and its one worker is the partner that steps half of the
    # solve's rows.
    cfg = write(tmp_path, "g.ini", _GAUSS_2D_256 if dim == 2 else GAUSS_CONFIG.read_text(
        ).replace("extents = 256", "extents = 2048"))
    src = str(Path(cli.__file__).parents[1])
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = {**os.environ, "TMPDIR": str(tmpdir),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "eseharnack.cli", command[0], "--config",
                             cfg, "--out", str(tmp_path / "run"), *command[1:]],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    found = set()
    try:
        deadline = time.monotonic() + 60
        while (len(found) < workers and proc.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.02)
            found = _running(_descendants(proc.pid))
        assert len(found) == workers, f"found workers {found}, exit code {proc.poll()}"
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 30
        while _running(found) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _running(found) == set()
        assert list(tmpdir.iterdir()) == []
    finally:
        proc.kill()
        proc.wait()
        for pid in _running(found):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)



@needs_split
def test_no_partner_starts_beside_another_solve(tmp_path, monkeypatch):
    # a partner forked anywhere, this process or a pool worker forked from
    # it, leaves a file behind.  Only the 2-D verify that solves alone
    # starts one: sweep --jobs 2 solves in pool workers, and the rescale
    # check solves in a worker alongside the main solve.
    fork = _Workspace._fork

    def spy_fork(self, per_step):
        (tmp_path / f"forked-by-{os.getpid()}").touch()
        return fork(self, per_step)

    monkeypatch.setattr(_Workspace, "_fork", spy_fork)
    ini = _GAUSS_2D_16.replace("extents = 16", "extents = 128").replace(
        "t_end = 0.2", "t_end = 0.01").replace("sample_stride = 2", "sample_stride = 40")
    alone = write(tmp_path, "alone.ini", ini)
    rescale = write(tmp_path, "rescale.ini", ini.replace("enabled = h0, hr",
                                                         "enabled = h0, rescale"))
    runs = [["verify", "--config", rescale],
            ["sweep", "--config", alone, "--jobs", "2", "--axis", "problem.amplitude=1.0,0.9"],
            ["verify", "--config", alone]]
    for i, args in enumerate(runs):
        assert main([*args, "--out", str(tmp_path / f"run{i}")]) == 0
        assert len(list(tmp_path.glob("forked-by-*"))) == (i == 2), args

def _solve_after_two_minutes(prob, cfg):
    time.sleep(120)
    return solve(prob, cfg)


def _abort_at_the_first_step(ini, monkeypatch):
    # heat-only decay with an absurd dt floor
    return ini.replace("[step]\nsample_stride = 4", "[step]\ndt_min = 1.0\nsample_stride = 4"
                       ).replace("t_end = 0.5", "t_end = 0.5\nreaction = off")


def _too_few_residual_samples(ini, monkeypatch):
    # a window too narrow for the residual's 3 samples is a config error that
    # needs the solved trace, so it comes after the main solve
    return ini.replace(
        "enabled = h0, residual, blowup, classical, rescale",
        "enabled = residual, rescale\nt_min_frac = 0.5\nt_max_frac = 0.501")


def _raise_in_the_h0_check(ini, monkeypatch):
    def h0_report(*args):
        raise RuntimeError("a bug in a check")
    monkeypatch.setattr(cli.ha.Checks, "h0_report", h0_report)
    return ini


@pytest.mark.parametrize("change, code", [
    (_abort_at_the_first_step, 3), (_too_few_residual_samples, 2),
    (_raise_in_the_h0_check, 4),
], ids=["aborted-solve", "check-config-error", "internal-error"])
def test_early_exit_stops_the_rescaled_solve(tmp_path, monkeypatch, private_tempdir,
                                            change, code):
    # the worker's solve; the main solve calls cli.solve
    monkeypatch.setattr(cli.integrate, "solve", _solve_after_two_minutes)
    cfg = write(tmp_path, "g.ini", change(GAUSS_INI, monkeypatch))
    start = time.monotonic()
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run")]) == code
    assert time.monotonic() - start < 60
    assert multiprocessing.active_children() == []
    assert list(private_tempdir.iterdir()) == []


# verify of the config argv[1] in a fresh interpreter, whose rescale worker
# fails as argv[3] says; argv[2] names a marker file.  The patches are made
# before the worker is forked, so it inherits them.
_WORKER_FAULT = """
import os, signal, sys, time
from multiprocessing import connection
from pathlib import Path
from eseharnack import cli

config, marker, fault = sys.argv[1:]
main_pid = os.getpid()


def wait_for_marker():
    deadline = time.monotonic() + 50
    while not Path(marker).exists() and time.monotonic() < deadline:
        time.sleep(0.01)


if fault == "stalls-mid-send":
    # the worker writes the first chunk of its result, then stalls; the H0
    # check, in this process, waits for that and fails
    send = connection.Connection._send

    def stalled_send(self, buf, *args):
        if os.getpid() == main_pid:
            return send(self, buf, *args)
        send(self, buf[:4], *args)
        Path(marker).write_text(str(os.getpid()))
        time.sleep(600)

    def h0_report(*args):
        wait_for_marker()
        raise RuntimeError("a bug in the H0 check")

    connection.Connection._send = stalled_send
    cli.ha.Checks.h0_report = h0_report
else:
    # the worker (which alone calls integrate.solve) is killed once the
    # classical check, the last before this process waits for it, is done
    check = cli.cl.PairCheck.verdicts

    def killed_solve(*args):
        wait_for_marker()
        time.sleep(0.2)
        os.kill(os.getpid(), signal.SIGKILL)

    def marking_check(self):
        verdicts = check(self)
        Path(marker).touch()
        return verdicts

    cli.integrate.solve = killed_solve
    cli.cl.PairCheck.verdicts = marking_check
sys.exit(cli.main(["verify", "--config", config, "--out", str(Path(marker).parent / "run")]))
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("fault, message", [
    ("stalls-mid-send", "RuntimeError: a bug in the H0 check"),
    ("killed", "\nEOFError"),
])
def test_verify_exits_four_when_the_rescale_worker_fails_mid_result(tmp_path, fault, message):
    # A worker stopped while it writes its result must not hang the run, as
    # a process pool's result thread does, waiting for good on the rest of
    # the message.  A worker killed while this process waits for its result
    # reads as the end of the pipe.
    cfg = write(tmp_path, "g.ini", GAUSS_INI)
    marker = tmp_path / "marker"
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _WORKER_FAULT, cfg, str(marker), fault],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 4, done.stderr
    assert message in done.stderr
    if fault == "stalls-mid-send":   # stopped and reaped before the run exits
        assert _running({int(marker.read_text())}) == set()


def test_verify_imports_neither_numpy_random_nor_concurrent_futures(tmp_path):
    # numpy 1.x imports numpy.random with numpy itself; numpy 2 leaves it out
    # until it is asked for, and then it adds some 6 MB to a run's peak
    bench = Path(__file__).resolve().parents[1] / "bench"
    script = f"""
import json, sys
import numpy
eager = "numpy.random" in sys.modules
sys.path.insert(0, {str(bench)!r})
from workloads import GAUSS_2D_INI
from eseharnack.cli import main
with open({str(tmp_path / "g2.ini")!r}, "w") as fh:
    fh.write(GAUSS_2D_INI)
for i, cfg in enumerate([{str(GAUSS_CONFIG)!r}, {str(tmp_path / "g2.ini")!r}]):
    assert main(["verify", "--config", cfg, "--out", {str(tmp_path)!r} + f"/run{{i}}"]) == 0
print(json.dumps([eager, "numpy.random" in sys.modules, "concurrent.futures" in sys.modules]))
"""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    eager, random_loaded, futures_loaded = json.loads(done.stdout.splitlines()[-1])
    assert random_loaded == eager
    assert not futures_loaded


def test_verify_builds_the_rescaled_problem_once(tmp_path, monkeypatch):
    # build_config builds it to validate rescale_lambda, and the worker solves it
    built = []

    def counted(prob, spec):
        built.append(spec)
        return rescale_problem(prob, spec)

    monkeypatch.setattr(cli, "rescale_problem", counted)
    cfg = write(tmp_path, "g.ini", GAUSS_INI)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert len(built) == 1


def _refuse_to_start(*args, **kwargs):
    pytest.fail("a solve ran or a process started")


def _refuse_solves_and_processes(monkeypatch):
    """Makes a solve, in this process or a worker, and the start of any
    process, the rescale check's worker or a sweep pool's, fail the test."""
    for target, name in ((cli, "solve"), (cli.integrate, "solve"),
                         (multiprocessing.process.BaseProcess, "start")):
        monkeypatch.setattr(target, name, _refuse_to_start)


def test_rescaled_solve_config_error_names_the_rescale_check(tmp_path, capsys, monkeypatch,
                                                             private_tempdir):
    # lambda = 0.25 scales the level-1 data to 16, above f_cap: refused with
    # the config, before either solve and before the worker starts
    _refuse_solves_and_processes(monkeypatch)
    ini = CONST_INI.replace("[step]\n", "[step]\nf_cap = 10\n") + \
        "\n[checks]\nenabled = rescale\nrescale_lambda = 0.25\n"
    cfg = write(tmp_path, "c.ini", ini)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert ("config error: [checks] rescale (rescale_lambda = 0.25): [step] f_cap = 10.0 "
            "must exceed the initial maximum 16.0") in err
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []
    assert list(private_tempdir.iterdir()) == []
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("change, key", [
    (("preset = hamilton_1d", "preset = blowup(1,2,1)\n\n[checks]\nenabled = hr\n"
      "hr_rect = 0.001:0.002"),
     "[checks] hr_rect: no grid point lies strictly inside"),
    (("[constants]", "[checks]\nenabled = hr\n\n[constants]"),
     "[checks] hr with (alpha, beta) = (1.0, 0.0)"),
    (("preset = hamilton_1d", "alpha = 1.0\nbeta = 1.0\nc = 0.5\na = 1.0\n\n"
      "[checks]\nenabled = hr"), "[checks] hr with (alpha, beta) = (1.0, 1.0): need alpha > beta"),
    (("[constants]", "[checks]\nenabled = blowup\nblowup_c = 0.5\n\n[constants]"),
     "[checks] blowup_c = 0.5: need n(p-1) <= c < 2"),
    (("[step]\n", "[step]\nf_cap = 0.5\n"),
     "[step] f_cap = 0.5 must exceed the initial maximum 1.0"),
    (("[step]\n", "[step]\nf_cap = 10\n\n[checks]\nenabled = h0, rescale\n"
      "rescale_lambda = 0.25\n"), "[checks] rescale (rescale_lambda = 0.25)"),
], ids=["empty-hr-rect", "hr-beta-zero", "hr-alpha-not-above-beta", "blowup-c",
        "f-cap-main", "f-cap-rescaled"])
def test_config_only_errors_exit_two_before_any_solve(tmp_path, capsys, monkeypatch,
                                                     change, key):
    # each needs only the config, so each is refused before anything is
    # solved or started; sweep refuses such a template before forking
    _refuse_solves_and_processes(monkeypatch)
    cfg = write(tmp_path, "c.ini", CONST_INI.replace(*change))
    for args in (["verify", "--allow-inadmissible"],
                 ["sweep", "--jobs", "2", "--axis", "step.sample_stride=1,2"]):
        out = tmp_path / args[0]
        assert main([*args, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}" in err and "Traceback" not in err
        assert not out.exists()
    assert multiprocessing.active_children() == []


def test_hr_check_fails_where_every_h_r_overflows(tmp_path, const_trace):
    # c f^(p-1) = 10 * 1e308 overflows on every sample after the initial one
    # (which the trace must keep, and which lies before the window), so no
    # H_R inside the rectangle is finite: a failed check, neither a pass nor
    # a config error
    trace = tmp_path / "trace"
    shutil.copytree(const_trace, trace)
    samples = np.load(trace / "samples.npy")
    samples[1:] = 1e308
    np.save(trace / "samples.npy", samples)
    ini = CONST_CONFIG.read_text().replace(
        "preset = hamilton_1d", "alpha = 2.0\nbeta = 1.0\nc = 10.0\na = 2.0").replace(
        "enabled = h0, residual, blowup", "enabled = hr")
    cfg = write(tmp_path, "c.ini", f"{ini}\n[verify]\ntrace_dir = {trace}\n")
    out = tmp_path / "run"
    assert main(["verify", "--config", cfg, "--out", str(out), "--allow-inadmissible"]) == 1
    summary = json.loads((out / "summary.json").read_text(), parse_constant=_refuse_constant)
    assert summary["checks"] == {"hr": False}
    assert summary["hr"]["min"] == "inf"


@pytest.mark.parametrize("lam", ["1e200", "1e-200", "1e154"])
def test_rescale_lambda_out_of_float_range_exits_two(tmp_path, capsys, lam):
    # lambda^2 overflows, lambda^delta overflows, lambda^2 * t_end overflows
    ini = CONST_INI + f"\n[checks]\nenabled = rescale\nrescale_lambda = {lam}\n"
    cfg = write(tmp_path, "c.ini", ini)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"[checks] rescale_lambda = {float(lam)}" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_rescaled_initial_data_overflow_exits_two_before_multiplying(tmp_path, capsys):
    # lambda^delta = 1e10 takes the 1e300 peak past the float range
    ini = GAUSS_CONFIG.read_text()
    for old, new in (("amplitude = 1.0", "amplitude = 1e300"), ("f_cap = 1e8", "f_cap = 1e305"),
                     ("rescale_lambda = 2.0", "rescale_lambda = 1e-5")):
        ini = ini.replace(old, new)
    cfg = write(tmp_path, "g.ini", ini)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "[checks] rescale_lambda = 1e-05" in err and "overflows" in err
    assert "Traceback" not in err and not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# region command

def test_cmd_region_feasible_map(tmp_path):
    out = tmp_path / "reg"
    assert main(["region", "--n", "1", "--p", "2.0",
                 "--alpha", "0.5:2.0:4", "--beta", "0.0:0.9:4",
                 "--out", str(out)]) == 0
    rows = (out / "region.csv").read_text().strip().splitlines()
    assert rows[0] == "n,p,alpha,beta,c_lo,c_hi,a_min,feasible"
    assert any(row.endswith("True") for row in rows[1:])


def test_cmd_region_n3_is_entirely_infeasible(tmp_path):
    out = tmp_path / "reg"
    assert main(["region", "--n", "3", "--p", "2.0",
                 "--alpha", "0.5:2.0:6", "--beta", "0.0:0.9:6",
                 "--out", str(out)]) == 0
    rows = (out / "region.csv").read_text().strip().splitlines()[1:]
    assert all(row.endswith("False") for row in rows)


def test_cmd_region_degenerate_grid_is_error(tmp_path):
    assert main(["region", "--n", "1", "--p", "2.0",
                 "--alpha", "1.0:1.0:1", "--beta", "1.0:1.0:1",
                 "--out", str(tmp_path / "reg")]) == 2


@pytest.mark.parametrize("change, message", [
    (("--alpha", "x:1:3"), "--alpha 'x:1:3'"),
    (("--alpha", "0:1:2.5"), "--alpha '0:1:2.5'"),
    (("--beta", "0:1"), "--beta '0:1'"),
    (("--beta", "0:inf:3"), "--beta '0:inf:3'"),
    (("--alpha", "0.5:2:0"), "--alpha '0.5:2:0'"),
    (("--n", "0"), "--n 0"),
    (("--p", "nan"), "--p nan"),
    (("--p", "1.0"), "--p 1.0"),
    # these exited 4 with a MemoryError, an IndexError and a ValueError
    (("--alpha", "0.5:2:1000000000000000"), "--alpha '0.5:2:1000000000000000'"),
    (("--beta", f"0:0.9:{2 ** 63}"), f"--beta '0:0.9:{2 ** 63}'"),
    (("--alpha", f"0.5:2:{10 ** 29}"), f"--alpha '0.5:2:{10 ** 29}'"),
])
def test_cmd_region_bad_argument_exits_two(tmp_path, capsys, change, message):
    args = {"--n": "1", "--p": "2.0", "--alpha": "0.5:2.0:4", "--beta": "0.0:0.9:4"}
    args[change[0]] = change[1]
    out = tmp_path / "reg"
    argv = ["region", "--out", str(out)] + [x for kv in args.items() for x in kv]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (out / "region.csv").exists()


# ---------------------------------------------------------------------------
# output directories

@pytest.mark.parametrize("command", ["solve", "verify", "verify-output-dir", "region",
                                     "sweep"])
def test_output_dir_that_cannot_be_made_exits_two(tmp_path, capsys, monkeypatch, command):
    # a path under a regular file exited 4 with a NotADirectoryError
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    ini = GAUSS_INI
    if command == "verify-output-dir":
        ini += f"\n[output]\ndir = {out}\n"
    cfg = write(tmp_path, "g.ini", ini)
    argv = {"solve": ["solve", "--config", cfg],
            "verify": ["verify", "--config", cfg],
            "verify-output-dir": ["verify", "--config", cfg],
            "region": ["region", "--n", "1", "--p", "2.0", "--alpha", "0.5:2.0:4",
                       "--beta", "0.0:0.9:4"],
            "sweep": ["sweep", "--config", cfg, "--axis", "problem.amplitude=1.0"],
            }[command]
    if command != "verify-output-dir":
        argv += ["--out", str(out)]
    _refuse_solves_and_processes(monkeypatch)
    assert main(argv) == 2
    err = capsys.readouterr().err
    source = "[output] dir" if command == "verify-output-dir" else "--out"
    assert f"{source} {str(out)!r}: cannot make the directory: Not a directory" in err
    assert "Traceback" not in err


def test_solve_refuses_a_file_where_its_trace_goes_before_the_solve(tmp_path, capsys,
                                                                    monkeypatch):
    # exited 4 with a FileExistsError, after the whole solve
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "trace").write_text("")
    _refuse_solves_and_processes(monkeypatch)
    cfg = write(tmp_path, "c.ini", CONST_INI)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert (f"--out {str(tmp_path / 'run' / 'trace')!r}: cannot make the directory: "
            f"File exists") in capsys.readouterr().err


# ---------------------------------------------------------------------------
# internal errors

def test_uncaught_exception_exits_four(monkeypatch, capsys):
    def broken(_args):
        raise RuntimeError("deliberate fault")

    monkeypatch.setattr(cli, "cmd_preset_list", broken)
    assert main(["preset-list"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "Traceback" in err and "RuntimeError: deliberate fault" in err


# ---------------------------------------------------------------------------
# sweep command

def test_cmd_sweep_amplitude_axis(tmp_path):
    cfg = write(tmp_path, "c.ini", CONST_INI)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", "2",
                 "--axis", "problem.level=0.25,0.5,1.0"]) == 0
    expected = {0: 4.0, 1: 2.0, 2: 1.0}      # T* = 1 / level for p = 2
    for i, t_star in expected.items():
        summary = json.loads((out / f"point_{i:03d}" / "summary.json").read_text())
        assert summary["status"] == "blowup"
        assert summary["t_estimate"] == pytest.approx(t_star, rel=1e-2)
    sweep_rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(sweep_rows) == 4


def test_cmd_sweep_rescale_axis(tmp_path):
    ini = GAUSS_INI.replace("enabled = h0, residual, blowup, classical, rescale",
                            "enabled = rescale")
    cfg = write(tmp_path, "g.ini", ini)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--axis", "checks.rescale_lambda=1.5,2.0"]) == 0
    for i in range(2):
        summary = json.loads((out / f"point_{i:03d}" / "summary.json").read_text())
        assert summary["checks"]["rescale"] is True


def test_cmd_sweep_points_in_worker_processes_start_their_own_rescale_worker(tmp_path):
    ini = GAUSS_INI.replace("enabled = h0, residual, blowup, classical, rescale",
                            "enabled = h0, rescale")
    cfg = write(tmp_path, "g.ini", ini)
    for jobs in ("1", "2"):
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / jobs), "--jobs", jobs,
                     "--axis", "checks.rescale_lambda=1.5,0.5"]) == 0
    for i in range(2):
        name = f"point_{i:03d}/summary.json"
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@pytest.mark.parametrize("ini, axis", [
    (GAUSS_INI, "problem.width=0.2,-0.1"),
    (CONST_INI, "problem.level=1.0,-1"),
], ids=["width", "level"])
def test_cmd_sweep_records_a_bad_point_and_runs_the_rest(tmp_path, ini, axis):
    cfg = write(tmp_path, "s.ini", ini.replace(
        "enabled = h0, residual, blowup, classical, rescale", "enabled = h0"))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", axis]) == 2
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert ",config_error," not in rows[1]
    assert ",config_error," in rows[2]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cmd_sweep_jobs_below_one_exits_two(tmp_path, capsys, jobs):
    cfg = write(tmp_path, "c.ini", CONST_INI)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs,
                 "--axis", "problem.level=0.5,1.0"]) == 2
    assert f"--jobs {jobs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["verify"], ["sweep", "--jobs", "2", "--axis", "problem.amplitude=1.0,2.0"]])
def test_negative_seed_exits_two_before_any_solve(tmp_path, capsys, monkeypatch, args):
    # numpy refused it only once the classical check drew its pairs, exit 4
    # after the solve; without that check it was written into summary.json
    _refuse_solves_and_processes(monkeypatch)
    cfg = write(tmp_path, "g.ini", GAUSS_INI)
    out = tmp_path / "run"
    assert main([*args, "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "config error: --seed -1 must be >= 0" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("levels, pools", [("0.5,1.0,2.0", [3]), ("1.0", [])])
def test_cmd_sweep_starts_no_more_workers_than_points(tmp_path, monkeypatch, levels, pools):
    # a stand-in pool that records its size and maps serially: a real pool
    # forks every worker at the first submit
    made = []

    class SerialPool:
        def __init__(self, max_workers, initializer):
            assert initializer is cli._exit_with_parent
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = write(tmp_path, "c.ini", CONST_INI)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep"),
                 "--jobs", "64", "--axis", f"problem.level={levels}"]) == 0
    assert made == pools


def test_cmd_sweep_without_axis_is_error(tmp_path):
    cfg = write(tmp_path, "c.ini", CONST_INI)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2


def test_cmd_sweep_empty_axis_values_is_error(tmp_path):
    cfg = write(tmp_path, "c.ini", CONST_INI)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                 "--axis", "problem.level="]) == 2



def test_cmd_sweep_splits_values_on_semicolons_when_there_is_one(tmp_path):
    cfg = write(tmp_path, "g.ini", _GAUSS_2D_16)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out),
                 "--axis", "checks.hr_rect=-1:1,-1:1;-0.5:0.5,-0.5:0.5"]) == 0
    rects = [json.loads((out / f"point_{i:03d}" / "summary.json").read_text())["hr"]["rect"]
             for i in range(2)]
    assert rects == [[[-1.0, 1.0], [-1.0, 1.0]], [[-0.5, 0.5], [-0.5, 0.5]]]
    assert not (out / "point_002").exists()


# The keys the config schema reads, each with a value that a 16-point 1-D
# Gaussian run accepts; the fuzz below also draws malformed, empty, comma
# and semicolon values, and axis specs that are malformed themselves.
_SWEEP_SCHEMA = {
    "problem": {"dim": "1", "p": "2.0", "box": "-4:4", "extents": "16",
                "boundary": "periodic", "initial": "gaussian", "amplitude": "1.0",
                "width": "0.5", "center": "0.5", "level": "1.0", "t_end": "0.05",
                "reaction": "off", "file": "nowhere.npy"},
    "step": {"cfl_safety": "0.2", "reaction_safety": "0.05", "dt_min": "1e-12",
             "f_cap": "1e8", "sample_stride": "2"},
    "constants": {"preset": "blowup(1,2,1)", "alpha": "1.0", "beta": "0.25", "c": "0.5",
                  "a": "0.7"},
    "checks": {"enabled": "h0, residual, rescale", "t_min_frac": "0.1", "t_max_frac": "0.8",
               "h0_tol": "0.01", "hr_rect": "-1:1",
               "residual_tol": "0.05", "classical_pairs": "5", "classical_tol": "0.001",
               "rescale_lambda": "2.0", "rescale_tol": "0.001", "blowup_c": "1.0"},
    "output": {"dir": "out"},
    "verify": {"trace_dir": "nowhere"},
}
_SWEEP_KEYS = [(section, key) for section, keys in _SWEEP_SCHEMA.items() for key in keys]
_MALFORMED = ("abc", "%", "%(dim)s", "1:2:3", ":", "nan", "inf", "-1", "0", "1e308",
              "99999999999999999999999", "on", "-1:1,-1:1", "")
_SWEEP_TEMPLATE = """
[problem]
dim = 1
p = 2.0
box = -4:4
extents = 16
boundary = reflecting
initial = gaussian
amplitude = 1.0
width = 0.5
t_end = 0.3

[step]
sample_stride = 2

[constants]
preset = blowup(1,2,1)

[checks]
enabled = h0, residual, classical
classical_pairs = 5
"""


@st.composite
def _sweep_axis(draw):
    if draw(st.integers(0, 9)) == 0:   # an axis spec that is malformed itself
        return draw(st.sampled_from(["problem.dim", "problem=1", "=1", ".dim=1", "dim.=1",
                                     "nosuch.key=1", "problem.nosuch=1,2", "problem.dim=",
                                     "problem.dim=;", "problem.dim=,;,"]))
    section, key = draw(st.sampled_from(_SWEEP_KEYS))
    valid = _SWEEP_SCHEMA[section][key]
    values = draw(st.lists(st.one_of(st.just(valid), st.sampled_from(_MALFORMED)),
                           min_size=1, max_size=3))
    return f"{section}.{key}=" + draw(st.sampled_from([";", ","])).join(values)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@given(axes=st.lists(_sweep_axis(), min_size=1, max_size=2), jobs=st.sampled_from(["1", "2"]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sweep_axis_fuzz_never_exits_four_and_leaves_no_process(tmp_path, axes, jobs):
    cfg = write(tmp_path, "c.ini", _SWEEP_TEMPLATE)
    before = _descendants(os.getpid())
    args = ["sweep", "--config", cfg, "--out", str(tmp_path / "sweep"), "--jobs", jobs,
            "--allow-inadmissible"]
    for axis in axes:
        args += ["--axis", axis]
    assert main(args) in (0, 1, 2, 3)
    assert _descendants(os.getpid()) <= before


# ---------------------------------------------------------------------------
# verify checks the samples as the solve records them

_REPORTS = ("summary.json", "h0_curve.csv", "classical_pairs.csv")
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_config(name, tmp_path):
    """The benchmark's config of workload `name` at its reduced size."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return str(workloads.write_config(name, "small", BENCH.parent, tmp_path))


def _streamed_configs(tmp_path):
    kept = GAUSS_CONFIG.read_text().replace("extents = 256", "extents = 64").replace(
        "t_end = 1.0", "t_end = 0.25")
    gauss = kept.replace(", rescale\n", "\n")
    const = CONST_CONFIG.read_text()
    return {
        "1d-reflecting": write(tmp_path, "g.ini", gauss),
        "1d-periodic": write(tmp_path, "gp.ini", gauss.replace("reflecting", "periodic")),
        "2d-hr": _bench_config("gauss-2d-verify", tmp_path),
        "constant-blowup": str(CONST_CONFIG),
        # one sample per step: 0.01, then the 0.005 to t_end
        "two-steps": write(tmp_path, "c.ini", const.replace("t_end = 2.0", "t_end = 0.015").replace(
            "enabled = h0, residual, blowup",
            "enabled = h0, blowup, classical\nt_min_frac = 0.3\nt_max_frac = 1.0")),
        # reaction-capped: its steps shrink from the first, off the plan, and
        # it reaches t_end, so it is solved a second time on its own times
        "off-plan": write(tmp_path, "s.ini", const.replace("t_end = 2.0", "t_end = 0.5")),
        # the rescale check keeps the trace, which the pass then replays
        "kept": write(tmp_path, "k.ini", kept),
        # it blows up before t_end, so it is solved a second time; its
        # summary's threshold_met_at holds the argmax of a sample
        "amplitude-10": write(tmp_path, "a.ini", _AMPLITUDE_10_INI),
    }


@pytest.mark.parametrize("name", ["1d-reflecting", "1d-periodic", "2d-hr", "constant-blowup",
                                  "two-steps", "off-plan", "kept", "amplitude-10"])
def test_verify_writes_the_same_reports_solving_loading_or_solving_again(
        tmp_path, monkeypatch, name):
    # checked while solving (or, with the rescale check, replayed from the
    # kept trace); from the saved trace; and solved a second time after a
    # plan of sample times that no run keeps
    cfg = _streamed_configs(tmp_path)[name]
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "solve")]) == 0
    saved = write(tmp_path, "saved.ini", Path(cfg).read_text()
                  + f"\n[verify]\ntrace_dir = {tmp_path / 'solve' / 'trace'}\n")
    runs = {"in-process": cfg, "trace_dir": saved}
    for run, path in runs.items():
        assert main(["verify", "--config", path, "--out", str(tmp_path / run)]) == 0
    monkeypatch.setattr(cli.integrate, "planned_times", lambda prob, step: np.zeros(1))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "again")]) == 0
    written = [r for r in _REPORTS if (tmp_path / "in-process" / r).exists()]
    if name == "amplitude-10":
        # its summary alone, which compares the argmax the solve recorded,
        # the one the loaded samples give and that of the second solve
        summary = json.loads((tmp_path / "in-process" / "summary.json").read_text())
        assert written == ["summary.json"] and summary["blowup"]["threshold_met_at"]
    else:
        assert "summary.json" in written and len(written) >= 2
    for run in ("trace_dir", "again"):
        for report in _REPORTS:
            assert ((tmp_path / run / report).exists()
                    == (tmp_path / "in-process" / report).exists())
        for report in written:
            assert (tmp_path / run / report).read_bytes() == \
                (tmp_path / "in-process" / report).read_bytes(), (run, report)


@pytest.mark.parametrize("name, n_samples", [("1d-reflecting", 33), ("2d-hr", 101)])
def test_a_diffusion_capped_run_keeps_its_plan_and_is_solved_once(
        tmp_path, monkeypatch, name, n_samples):
    # a plan that drifted from how solve steps would have every verify solve
    # twice, with the same reports
    cfg = _streamed_configs(tmp_path)[name]
    rc = load_config(cfg)
    times = solve(rc.problem, rc.step).times
    assert len(times) == n_samples
    assert cli.integrate.planned_times(rc.problem, rc.step).tobytes() == times.tobytes()
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(cli, "solve", counted)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == 1


def test_a_2d_verify_holds_no_trace(tmp_path):
    # the reduced 2-D benchmark config: 64^2 points, t_end 0.2, a sample every
    # 8 steps, some 3 MB of samples that a solve alone holds.  verify holds a
    # few samples in its checks and the ten arrays of the solver's workspace
    # (some 30 % of the trace, measured after a first run's imports).
    cfg = _bench_config("gauss-2d-verify", tmp_path)
    rc = load_config(cfg)
    trace_bytes = solve(rc.problem, rc.step).samples.nbytes
    assert trace_bytes > 3e6
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "first")]) == 0
    tracemalloc.start()
    try:
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < trace_bytes / 3, peak / trace_bytes


@pytest.mark.parametrize("report", _REPORTS)
def test_a_report_that_cannot_be_written_exits_two(tmp_path, capsys, report):
    ini = CONST_CONFIG.read_text().replace("enabled = h0, residual, blowup",
                                           "enabled = h0, residual, blowup, classical")
    out = tmp_path / "run"
    (out / report).mkdir(parents=True)
    assert main(["verify", "--config", write(tmp_path, "c.ini", ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write {str(out / report)!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["samples.npy", "steps.npy", "metadata.json"])
def test_a_trace_file_that_cannot_be_written_exits_two(tmp_path, capsys, name):
    out = tmp_path / "run"
    (out / "trace" / name).mkdir(parents=True)
    assert main(["solve", "--config", str(CONST_CONFIG), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot write {str(out / 'trace' / name)!r}" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# misc

def test_preset_list(capsys):
    assert main(["preset-list"]) == 0
    out = capsys.readouterr().out
    for name in ("hamilton_1d", "improved_1d", "dim2", "blowup"):
        assert name in out


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])            # --config is required
    assert exc.value.code == 2


@pytest.mark.parametrize("axis", ["step.sample_strid=1,2", "setp.sample_stride=1,2",
                                  "DEFAULT.level=1,2"])
def test_cmd_sweep_over_a_typo_key_is_a_config_error_at_every_point(tmp_path, capsys, axis):
    cfg = write(tmp_path, "c.ini", CONST_INI)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--axis", axis]) == 2
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 2 and all(",config_error," in row for row in rows)
    assert capsys.readouterr().out.count("config_error exit 2") == 2
