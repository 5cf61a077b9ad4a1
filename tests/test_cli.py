import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eseharnack import Field, Grid, StepConfig, solve
from eseharnack import blowup as bl
from eseharnack import cli
from eseharnack.blowup import tail_fit
from eseharnack.cli import CheckSettings, load_config, main
from eseharnack.errors import ConfigError
from eseharnack.traceio import load_trace, save_trace

from conftest import constant_problem, gaussian_problem

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
    values = Field.gaussian(Grid(((-4.0, 4.0),), (128,), "reflecting"),
                            1.0, 0.2, (0.0,)).values
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


def _drop_sample_times(path):
    meta = json.loads(path.read_text())
    del meta["sample_times"]
    path.write_text(json.dumps(meta))


def _drop_n_steps(path):
    meta = json.loads(path.read_text())
    del meta["n_steps"]
    path.write_text(json.dumps(meta))


def _set_sample_times(value):
    def damage(path):
        meta = json.loads(path.read_text())
        meta["sample_times"] = value
        path.write_text(json.dumps(meta))
    return damage


def _reverse_sample_times(path):
    meta = json.loads(path.read_text())
    meta["sample_times"].reverse()
    path.write_text(json.dumps(meta))


@pytest.mark.parametrize("name, damage, message", [
    ("samples.npy", lambda path: np.save(path, np.load(path)[:-1]), r"samples\.npy.*shape"),
    ("samples.npy", lambda path: path.unlink(), r"samples\.npy"),
    ("metadata.json", _drop_sample_times, r"metadata\.json.*missing key 'sample_times'"),
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
    ("metadata.json", _drop_n_steps, r"metadata\.json.*missing key 'n_steps'"),
    ("samples.npy", lambda path: np.save(path, np.load(path) * np.inf), r"samples\.npy.*finite"),
    ("samples.npy", lambda path: np.save(path, np.load(path) * np.nan), r"samples\.npy.*finite"),
    ("metadata.json", _set_sample_times([]), r"metadata\.json.*nonempty"),
    ("metadata.json", _set_sample_times(0.5), r"metadata\.json.*nonempty"),
])
def test_load_trace_damaged_file_is_config_error(tmp_path, name, damage, message):
    save_trace(tmp_path / "trace",
               solve(constant_problem(t_end=0.5), StepConfig(sample_stride=1)))
    damage(tmp_path / "trace" / name)
    with pytest.raises(ConfigError, match=message):
        load_trace(tmp_path / "trace")


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


def test_cmd_verify_trace_from_another_grid_exits_two(tmp_path, capsys):
    cfg_path = write(tmp_path, "g.ini", GAUSS_INI.replace("extents = 128", "extents = 64"))
    solve_out = tmp_path / "solved"
    assert main(["solve", "--config", cfg_path, "--out", str(solve_out)]) == 0
    reuse = GAUSS_INI + f"\n[verify]\ntrace_dir = {solve_out / 'trace'}\n"
    cfg2 = write(tmp_path, "g2.ini", reuse)
    assert main(["verify", "--config", cfg2, "--out", str(tmp_path / "run")]) == 2
    assert "does not match" in capsys.readouterr().err


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


def test_cmd_sweep_without_axis_is_error(tmp_path):
    cfg = write(tmp_path, "c.ini", CONST_INI)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2


def test_cmd_sweep_empty_axis_values_is_error(tmp_path):
    cfg = write(tmp_path, "c.ini", CONST_INI)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"),
                 "--axis", "problem.level="]) == 2


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
