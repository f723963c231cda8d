import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oxsim
from oxsim.cli import _atomic_write, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

CONFIG_HEADLINE = """\
[chip]
rows = 128
cols = 128
cores = 2
batch = 32
sram_input_mb = 26.3
"""

GRID_SMALL = """\
[chip]
rows = 16
cols = 16
cores = 2
batch = 2

[grid]
rows = 8 16
cols = 8 16
"""

CONSTRAINTS_SMALL = """\
[chip]
rows = 16
cols = 8
cores = 2
batch = 2

[constraints]
area_cap_mm2 = 30
batch_candidates = 1 2 4
array_rows = 8 16
array_cols = 8
"""


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "chip.ini"
    p.write_text(CONFIG_HEADLINE)
    return p


def test_evaluate_writes_reports(tmp_path, cfg_file, capsys):
    out = tmp_path / "out"
    rc = main(["evaluate", "--config", str(cfg_file), "--topology", "resnet50_v15",
               "--profile", "paper-consistent", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "ips=" in printed and "power_w=" in printed
    payload = json.loads((out / "report.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["manifest"]["profile"] == "paper-consistent"
    e = payload["energy_breakdown_j"]
    assert sum(e.values()) == pytest.approx(payload["metrics"]["energy_total_j"], rel=1e-9)
    csv_text = (out / "report.csv").read_text()
    assert csv_text.startswith("#")
    header = [l for l in csv_text.splitlines() if not l.startswith("#")][0]
    assert header.split(",")[0] == "schema_version"
    assert not list(out.glob("*.tmp"))


def test_evaluate_headline_summary(tmp_path, capsys):
    rc = main(["evaluate", "--topology", "resnet50_v15", "--profile", "paper-consistent",
               "--config", str(_headline_cfg(tmp_path)), "--out", str(tmp_path / "o")])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    ips = float(line.split("ips=")[1].split()[0])
    assert ips == pytest.approx(36382, rel=0.20)


def _headline_cfg(tmp_path):
    p = tmp_path / "headline.ini"
    p.write_text(CONFIG_HEADLINE)
    return p


def test_evaluate_missing_topology_exits_2(tmp_path, cfg_file, capsys):
    rc = main(["evaluate", "--config", str(cfg_file),
               "--topology", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert rc == 2
    assert "nope" in capsys.readouterr().err


def test_evaluate_unknown_config_key_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[chip]\nrows = 8\nwarp_factor = 9\n")
    rc = main(["evaluate", "--config", str(p), "--topology", "toy3",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "warp_factor" in capsys.readouterr().err


def test_evaluate_unknown_section_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[chips]\nrows = 8\n")
    rc = main(["evaluate", "--config", str(p), "--topology", "toy3",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "chips" in capsys.readouterr().err


def test_evaluate_bad_chip_value_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[chip]\ncores = 3\n")
    rc = main(["evaluate", "--config", str(p), "--topology", "toy3",
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "cores" in capsys.readouterr().err


def test_unknown_profile_exits_1(tmp_path, capsys):
    rc = main(["evaluate", "--topology", "toy3", "--profile", "made-up",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "made-up" in capsys.readouterr().err


def test_profile_file_roundtrip(tmp_path, capsys):
    prof = tmp_path / "cal.ini"
    prof.write_text(
        "[profile]\nname = local-cal\n\n[overrides]\nloss_mmi_crossing_db = 0.018\n"
        "\n[notes]\nloss_mmi_crossing_db = trying the low-loss reading\n")
    rc = main(["evaluate", "--topology", "toy3", "--profile", str(prof),
               "--out", str(tmp_path / "o")])
    assert rc == 0
    payload = json.loads((tmp_path / "o" / "report.json").read_text())
    assert payload["manifest"]["profile"] == "local-cal"


def test_profile_file_bad_field_exits_1(tmp_path, capsys):
    prof = tmp_path / "cal.ini"
    prof.write_text("[overrides]\nnot_a_field = 1\n")
    rc = main(["evaluate", "--topology", "toy3", "--profile", str(prof),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "not_a_field" in capsys.readouterr().err


def test_tech_section_override(tmp_path):
    p = tmp_path / "chip.ini"
    p.write_text("[chip]\nrows = 8\ncols = 8\n\n[tech]\ne_dram_per_bit = 1e-11\n")
    rc = main(["evaluate", "--config", str(p), "--topology", "toy3",
               "--out", str(tmp_path / "o")])
    assert rc == 0


def test_sweep_grid_rows(tmp_path):
    grid = tmp_path / "grid.ini"
    grid.write_text(GRID_SMALL)
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--grid", str(grid), "--topology", "toy3", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 1 + 4  # header + 2x2 grid
    assert any(l.startswith("# topology_hash") for l in lines)


def test_sweep_reruns_byte_identical(tmp_path):
    grid = tmp_path / "grid.ini"
    grid.write_text(GRID_SMALL)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--grid", str(grid), "--topology", "toy3", "--out", str(a)]) == 0
    assert main(["sweep", "--grid", str(grid), "--topology", "toy3", "--out", str(b)]) == 0
    assert _sha(a) == _sha(b)


def test_sweep_batch_axis_shows_residency_step(tmp_path):
    grid = tmp_path / "grid.ini"
    grid.write_text(
        "[chip]\nrows = 128\ncols = 128\ncores = 2\nsram_input_mb = 26.3\n\n"
        "[grid]\nbatch = 16 32 64\n")
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--grid", str(grid), "--topology", "resnet50_v15",
               "--profile", "paper-consistent", "--out", str(out)])
    assert rc == 0
    rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
    header, data = rows[0], rows[1:]
    batch_i = header.index("batch")
    dram_i = header.index("energy_dram_j")
    per_inf = {int(r[batch_i]): float(r[dram_i]) / int(r[batch_i]) for r in data}
    assert per_inf[32] <= per_inf[16] * 1.001      # flat while resident
    assert per_inf[64] >= 2 * per_inf[32]          # cliff once spilled


def test_sweep_bad_axis_exits_1(tmp_path, capsys):
    grid = tmp_path / "grid.ini"
    grid.write_text("[grid]\nwavelengths = 1 2\n")
    rc = main(["sweep", "--grid", str(grid), "--topology", "toy3",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "wavelengths" in capsys.readouterr().err


def test_sweep_malformed_axis_value_exits_1(tmp_path, capsys):
    grid = tmp_path / "grid.ini"
    grid.write_text("[grid]\nrows = 8 sixteen\n")
    rc = main(["sweep", "--grid", str(grid), "--topology", "toy3",
               "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "grid" in capsys.readouterr().err


def test_config_path_is_directory_exits_1(tmp_path, capsys):
    rc = main(["evaluate", "--config", str(tmp_path), "--topology", "toy3",
               "--out", str(tmp_path / "o")])
    assert rc == 1


def test_topology_path_is_directory_exits_2(tmp_path, capsys):
    d = tmp_path / "topo.csv"
    d.mkdir()
    rc = main(["evaluate", "--topology", str(d), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_constraints_malformed_value_exits_1(tmp_path, capsys):
    cons = tmp_path / "cons.ini"
    cons.write_text("[constraints]\nbatch_candidates = one two\n")
    rc = main(["optimize", "--constraints", str(cons), "--topology", "toy3",
               "--out", str(tmp_path / "a.json")])
    assert rc == 1
    assert "batch_candidates" in capsys.readouterr().err


def test_optimize_writes_audit(tmp_path, capsys):
    cons = tmp_path / "cons.ini"
    cons.write_text(CONSTRAINTS_SMALL)
    out = tmp_path / "audit.json"
    rc = main(["optimize", "--constraints", str(cons), "--topology", "toy3",
               "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "chosen:" in printed
    audit = json.loads(out.read_text())
    assert [s["step"] for s in audit["steps"]][:3] == ["batch", "sram", "array"]
    assert all(s["candidates"] for s in audit["steps"])
    assert audit["chosen_config"]["rows"] in (8, 16)


def test_optimize_infeasible_exits_4(tmp_path, capsys):
    cons = tmp_path / "cons.ini"
    cons.write_text("[chip]\nrows = 128\ncols = 128\n\n[constraints]\narea_cap_mm2 = 2\n")
    rc = main(["optimize", "--constraints", str(cons), "--topology", "toy3",
               "--out", str(tmp_path / "audit.json")])
    assert rc == 4
    assert "sram" in capsys.readouterr().err
    assert not (tmp_path / "audit.json").exists()  # no partial output


def test_timestamp_honors_source_date_epoch(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    out = tmp_path / "o"
    assert main(["evaluate", "--topology", "toy3", "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["manifest"]["timestamp"] == "2023-11-14T22:13:20Z"


@pytest.mark.parametrize("command, flag, text, section, key", [
    ("evaluate", "--config", "[chip]\nrows = 32.7\n", "chip", "rows"),
    ("evaluate", "--config", "[chip]\nclock_hz = inf\n", "chip", "clock_hz"),
    ("evaluate", "--config", "[tech]\ne_dram_per_bit = nan\n", "tech", "e_dram_per_bit"),
    ("evaluate", "--profile", "[overrides]\nloss_mmi_crossing_db = nan\n",
     "overrides", "loss_mmi_crossing_db"),
    ("evaluate", "--profile", "[profile]\nname = x\ncolour = red\n", "profile", "colour"),
    ("sweep", "--grid", "[grid]\ninput_sram_mb = 1 -inf\n", "grid", "input_sram_mb"),
    ("optimize", "--constraints", "[constraints]\narea_cap_mm2 = nan\n",
     "constraints", "area_cap_mm2"),
    ("optimize", "--constraints", "[constraints]\ntemplate = x\n", "constraints", "template"),
    ("optimize", "--constraints", "[constraints]\nbatch_candidates = 4 2 1\n",
     "constraints", "batch_candidates"),
    ("optimize", "--constraints", "[constraints]\nbatch_candidates = 0 1\n",
     "constraints", "batch_candidates"),
    ("optimize", "--constraints", "[constraints]\nbatch_candidates =\n",
     "constraints", "batch_candidates"),
    ("optimize", "--constraints", "[constraints]\narray_rows =\n", "constraints", "array_rows"),
    ("optimize", "--constraints", "[constraints]\narray_cols =\n", "constraints", "array_cols"),
    ("optimize", "--constraints", "[constraints]\nsram_step_mb = 0\n",
     "constraints", "sram_step_mb"),
    ("optimize", "--constraints", "[constraints]\narea_cap_mm2 = -5\n",
     "constraints", "area_cap_mm2"),
    ("optimize", "--constraints", "[constraints]\nhiding_eps = 1\n", "constraints", "hiding_eps"),
    ("optimize", "--constraints", "[constraints]\ntie_tol = -0.1\n", "constraints", "tie_tol"),
    ("evaluate", "--profile", "[overrides]\np_tia = -1\n", "overrides", "p_tia"),
    ("sweep", "--grid", "[grid]\nrows = 32 0\n", "grid", "rows"),
    ("sweep", "--grid", "[grid]\ncores = 1 3\n", "grid", "cores"),
    ("sweep", "--grid", "[grid]\ninput_sram_mb = 0 1\n", "grid", "input_sram_mb"),
    ("sweep", "--grid", "[grid]\nrows =\ncols = 32 64\n", "grid", "rows"),
], ids=["fractional-int", "inf-chip", "nan-tech", "nan-profile-override",
        "unknown-profile-key", "inf-grid-axis", "nan-constraint", "template-key",
        "batch-descending", "batch-zero", "batch-empty", "rows-empty", "cols-empty",
        "sram-step-zero", "area-cap-negative", "hiding-eps-one", "tie-tol-negative",
        "profile-override-negative", "grid-rows-zero", "grid-cores-three",
        "grid-sram-zero", "grid-rows-empty"])
def test_loader_rejects_bad_key_or_value(tmp_path, capsys, command, flag, text, section, key):
    p = tmp_path / "input.ini"
    p.write_text(text)
    out = tmp_path / "out"
    rc = main([command, flag, str(p), "--topology", "toy3", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{p} [{section}]" in err and key in err
    assert not out.exists()


def test_atomic_write_failure_leaves_target_and_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("old")

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        _atomic_write(target, "new")
    assert target.read_text() == "old"
    assert not list(tmp_path.glob("*.tmp"))


def test_loss_budget_overflow_exits_3_naming_array_and_loss(tmp_path, capsys):
    p = tmp_path / "huge.ini"
    p.write_text("[chip]\nrows = 100000\ncols = 100000\n")
    out = tmp_path / "out"
    rc = main(["evaluate", "--config", str(p), "--topology", "toy3", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "100000x100000 array loses" in err and " dB" in err
    assert "Numerical result out of range" not in err
    assert not out.exists()


def _array_step_constraints(tmp_path, rows, cols):
    cons = tmp_path / "cons.ini"
    cons.write_text(f"[constraints]\narray_rows = {rows}\narray_cols = {cols}\n")
    return cons


def test_optimize_skips_unbuildable_array_candidates(tmp_path, capsys):
    # under paper-default a 1024x1024 array's worst path overflows the laser power
    cons = _array_step_constraints(tmp_path, "128 1024", "128 1024")
    out = tmp_path / "audit.json"
    rc = main(["optimize", "--constraints", str(cons), "--topology", "resnet50_v15",
               "--profile", "paper-default", "--out", str(out)])
    assert rc == 0
    audit = json.loads(out.read_text())
    arrays = [s for s in audit["steps"] if s["step"] == "array"]
    assert arrays
    for step in arrays:
        unbuildable = {(c["rows"], c["cols"]) for c in step["candidates"] if "infeasible" in c}
        assert unbuildable == {(1024, 1024)}
        assert all("1024x1024 array loses" in c["infeasible"]
                   for c in step["candidates"] if "infeasible" in c)
        assert (step["chosen"]["rows"], step["chosen"]["cols"]) not in unbuildable
    chosen = audit["chosen_config"]
    assert (chosen["rows"], chosen["cols"]) != (1024, 1024)


def test_optimize_with_no_buildable_array_exits_4(tmp_path, capsys):
    cons = _array_step_constraints(tmp_path, "1024", "1024 2048")
    out = tmp_path / "audit.json"
    rc = main(["optimize", "--constraints", str(cons), "--topology", "resnet50_v15",
               "--profile", "paper-default", "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "array step" in err and "1024x1024 array loses" in err
    assert not out.exists()


def test_cli_commands_do_not_import_numpy(tmp_path):
    src = Path(oxsim.__file__).resolve().parents[1]
    script = f"""
import sys
from oxsim.cli import main
out = {str(tmp_path)!r}
assert main(["evaluate", "--config", {str(CONFIGS / "headline.ini")!r},
             "--topology", "resnet50_v15", "--out", out + "/eval"]) == 0
assert main(["sweep", "--grid", {str(CONFIGS / "array_sweep.ini")!r},
             "--topology", "toy3", "--out", out + "/sweep.csv"]) == 0
assert main(["optimize", "--topology", "toy3", "--out", out + "/audit.json"]) == 0
assert "numpy" not in sys.modules, sorted(m for m in sys.modules if "numpy" in m)[:5]
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "audit.json").exists()


def test_package_exports_resolve_and_functional_model_loads_on_first_use():
    for name in oxsim.__all__:
        assert getattr(oxsim, name) is not None
    assert oxsim.crossbar_mvm is oxsim.photonics.crossbar_mvm
    assert oxsim.loss_budget is oxsim.perf.loss_budget
    with pytest.raises(AttributeError, match="no_such_name"):
        oxsim.no_such_name
