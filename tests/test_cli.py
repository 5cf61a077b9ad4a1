import json

import numpy as np
import pytest

from eseharnack import Field, Grid, StepConfig, solve
from eseharnack import blowup as bl
from eseharnack.blowup import tail_fit
from eseharnack.cli import CheckSettings, load_config, main
from eseharnack.errors import ConfigError
from eseharnack.traceio import load_field, load_trace, save_field, save_trace

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

def test_field_snapshot_roundtrip(tmp_path):
    g = Grid(((-4.0, 4.0),), (64,), "reflecting")
    f = Field(g, np.linspace(0.5, 2.0, 64))
    path = tmp_path / "snap.fld"
    save_field(path, 0.125, f)
    t, back = load_field(path)
    assert t == 0.125
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


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


@pytest.mark.parametrize("damage, message", [
    (lambda raw: raw[:-8], r"snap\.fld.*expected 128 bytes.*found 120"),
    (lambda raw: raw.replace(b"boundary=periodic\n", b""), r"snap\.fld.*missing key 'boundary'"),
])
def test_load_field_malformed_names_file_and_fault(tmp_path, damage, message):
    path = tmp_path / "snap.fld"
    save_field(path, 0.0, Field.constant(Grid.line(0.0, 1.0, 16), 1.0))
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ConfigError, match=message):
        load_field(path)


def test_truncated_initial_file_exits_two(tmp_path, capsys):
    path = tmp_path / "snap.fld"
    save_field(path, 0.0, Field.constant(Grid.line(0.0, 100.0, 16), 1.0))
    path.write_bytes(path.read_bytes()[:-1])
    cfg = write(tmp_path, "c.ini", CONST_INI.replace(
        "initial = constant\nlevel = 1.0", f"initial = file\nfile = {path}"))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "snap.fld" in capsys.readouterr().err


def _drop_sample_times(path):
    meta = json.loads(path.read_text())
    del meta["sample_times"]
    path.write_text(json.dumps(meta))


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


def test_cmd_verify_missing_trace_dir(tmp_path):
    reuse = GAUSS_INI + "\n[verify]\ntrace_dir = /nonexistent/trace\n"
    cfg = write(tmp_path, "g.ini", reuse)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_cmd_verify_zero_width_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, "g.ini", GAUSS_INI.replace("width = 0.2", "width = 0"))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "width" in capsys.readouterr().err


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
    ini = GAUSS_INI.replace("[step]", "[problem2]") + """
[step]
dt_min = 1.0
sample_stride = 1
"""
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
