import argparse
import configparser
import gc
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oxsim
import oxsim.cli
from oxsim.cli import (_atomic_write, _over_chip, _parse_ini, _read_ini, _section,
                        load_run_inputs, main)
from oxsim.dse import MAX_SRAM_STEPS, Constraints
from oxsim.errors import ConfigError
from oxsim.grid import SweepGrid, sweep
from oxsim.reports import CSV_COLUMNS, RunManifest, flat_row
from oxsim.reports import csv_text as _csv_text
from oxsim.tech import CalibrationProfile, TechParams
from oxsim.workload import ChipConfig, bundled_topology_path, load_topology

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
    assert payload["schema_version"] == 2
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


def test_profile_with_a_percent_sign_evaluates(tmp_path, capsys):
    prof = tmp_path / "cal.ini"
    prof.write_text("[profile]\nname = tia-50%\n\n[overrides]\np_tia = 1e-3\n"
                    "\n[notes]\np_tia = 50% lower than the stock TIA\n")
    rc = main(["evaluate", "--topology", "toy3", "--profile", str(prof),
               "--out", str(tmp_path / "o")])
    assert rc == 0, capsys.readouterr().err
    payload = json.loads((tmp_path / "o" / "report.json").read_text())
    assert payload["manifest"]["profile"] == "tia-50%"


@pytest.mark.parametrize("command, flag, section", [
    ("evaluate", "--config", "chip"),
    ("evaluate", "--profile", "overrides"),
    ("sweep", "--grid", "grid"),
    ("optimize", "--constraints", "constraints"),
])
def test_a_default_section_exits_1_naming_the_file(tmp_path, capsys, command, flag, section):
    # configparser would otherwise merge [DEFAULT] into every section, or drop it
    p = tmp_path / "input.ini"
    p.write_text(f"[DEFAULT]\ne_dram_per_bit = 1e-12\n\n[{section}]\n")
    out = tmp_path / "out"
    rc = main([command, flag, str(p), "--topology", "toy3", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"{p}: unknown section [DEFAULT]" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("file_name, text", [
    ("paper-default.ini", "[overrides]\ne_dram_per_bit = 1e-12\n"),
    ("cal.ini", "[profile]\nname = paper-consistent\n"),
], ids=["file-stem", "name-key"])
def test_profile_file_named_as_a_builtin_exits_1_naming_it(tmp_path, capsys, file_name, text):
    # its manifest would read as the built-in's, with other constants behind it
    prof = tmp_path / file_name
    prof.write_text(text)
    out = tmp_path / "out"
    rc = main(["evaluate", "--topology", "toy3", "--profile", str(prof), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {prof} [profile]: name 'paper-")
    assert captured.out == ""
    assert not out.exists()


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


@pytest.mark.parametrize("tech", ["", "\n[tech]\ne_dram_per_bit = 1e-11\n"],
                         ids=["chip-only", "tech-section"])
@pytest.mark.parametrize("name", ["tab\there.ini", "new\nline.ini"], ids=["tab", "newline"])
def test_config_path_with_a_control_character_writes_what_a_plain_name_does(tmp_path, name,
                                                                             tech):
    # the path names the file in errors only, never a profile in the report
    outputs = {}
    for file_name in ("plain.ini", name):
        run_dir = tmp_path / f"run{len(outputs)}"
        run_dir.mkdir()
        path = run_dir / file_name
        path.write_text(CONFIG_HEADLINE + tech)
        out = run_dir / "out"
        assert main(["evaluate", "--config", str(path), "--topology", "toy3",
                     "--out", str(out)]) == 0
        outputs[file_name] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert list(outputs["plain.ini"]) == ["report.csv", "report.json"]
    assert outputs["plain.ini"] == outputs[name]


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


def test_sweep_csv_cells_round_trip_the_flat_rows(tmp_path):
    # a -0.0 energy constant makes -0.0 cells, which must keep their sign
    prof = tmp_path / "neg.ini"
    prof.write_text("[overrides]\ne_sram_per_bit = -0.0\n")
    grid = tmp_path / "grid.ini"
    grid.write_text(GRID_SMALL)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid", str(grid), "--topology", "toy3", "--profile", str(prof),
                 "--out", str(out)]) == 0
    header, *cells = [l.split(",") for l in out.read_text().splitlines()
                      if not l.startswith("#")]
    assert header == CSV_COLUMNS

    _, tech, _, _ = load_run_inputs(None, str(prof))
    results = sweep(_over_chip("--grid", str(grid), "grid", SweepGrid)[0],
                    load_topology("toy3")[0], tech)
    rows = [dict(zip(CSV_COLUMNS, flat_row(cfg, report))) for cfg, report in results]
    assert len(cells) == len(rows) == 4
    negative_zeros = 0
    for line, row in zip(cells, rows):
        for cell, col in zip(line, header, strict=True):
            value = row[col]
            assert cell == str(value), col
            if type(value) is float:
                assert float(cell) == value and math.copysign(1, float(cell)) == \
                    math.copysign(1, value), col
                negative_zeros += cell == "-0.0"
            else:
                assert type(value) is int and int(cell) == value, col
    assert negative_zeros == 2 * len(rows)  # energy_sram_j and power_sram_w


def _oracle_csv_text(rows, manifest):
    # `_csv_text` before it formatted each distinct float once, kept as the oracle
    lines = [f"# {k} = {v}" for k, v in sorted(manifest._asdict().items())]
    lines.append(",".join(CSV_COLUMNS))
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


# values that compare equal but print differently: 0.0 and -0.0, an int and
# the integral float it equals (also beyond 2**53, where floats skip ints)
_EQUAL_NOT_ALIKE = ((0.0, -0.0), (1, 1.0), (2**60, float(2**60)), (2**53 + 2, 2.0**53 + 2))


@st.composite
def _csv_rows(draw):
    pool = [*(v for pair in _EQUAL_NOT_ALIKE for v in pair), 2**53 + 1,
            *draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=6)),
            *draw(st.lists(st.integers(-2**70, 2**70), max_size=3))]
    n = draw(st.integers(2, 6))
    rows = [draw(st.lists(st.sampled_from(pool), min_size=len(CSV_COLUMNS),
                          max_size=len(CSV_COLUMNS))) for _ in range(n)]
    # each pair lands in one column, in drawn rows and order, so a memo keyed
    # by the value alone hands one of them the other's text
    columns = draw(st.permutations(range(len(CSV_COLUMNS))))
    for column, pair in zip(columns, _EQUAL_NOT_ALIKE):
        first, second = draw(st.permutations(range(n)))[:2]
        rows[first][column], rows[second][column] = draw(st.permutations(pair))
    return rows


@settings(max_examples=200, deadline=None)
@given(_csv_rows())
def test_csv_text_equals_str_of_every_cell(rows):
    manifest = RunManifest("0", "sweep", "c", "p", "t", "1970-01-01T00:00:00Z")
    assert _csv_text(rows, manifest) == _oracle_csv_text(rows, manifest)


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


@pytest.mark.parametrize("text", [
    "", "\n  \n", "name,ifmap_h,ifmap_w,channels,filter_h,filter_w,num_filters,stride\n",
], ids=["empty", "blank", "header-only"])
def test_topology_without_layers_exits_2_naming_it_once(tmp_path, text):
    topo = tmp_path / "topo.csv"
    topo.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(oxsim.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-m", "oxsim.cli", "evaluate", "--topology", str(topo),
                          "--out", str(tmp_path / "o")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2, run.stderr
    assert run.stderr == f"topology error: topology file {topo} contains no layers\n"
    assert "Traceback" not in run.stderr and "UserWarning" not in run.stderr


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


@pytest.mark.parametrize("flag, text, named", [
    # at 1e-6 mm2/MB the area cap leaves about 364 million SRAM steps on toy3
    ("--profile", "[profile]\nname = tiny-sram\n\n[overrides]\na_sram_per_mb = 1e-6\n",
     "a_sram_per_mb = 1e-06"),
    # about 2e302 steps, whose exact count would print 303 digits
    ("--constraints", "[constraints]\nsram_step_mb = 1e-300\n", "steps of 1e-300 MB"),
    # just over the limit the count prints in full, never as the limit itself (1e+05)
    ("--constraints", "[constraints]\nsram_step_mb = 0.0019987\n", "allows 100102 steps"),
], ids=["tiny-sram-area", "tiny-step", "near-limit"])
def test_optimize_sram_scan_too_long_exits_4(tmp_path, flag, text, named):
    path = tmp_path / "input.ini"
    path.write_text(text)
    out = tmp_path / "audit.json"
    env = {**os.environ, "PYTHONPATH": str(Path(oxsim.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-m", "oxsim.cli", "optimize", "--topology", "toy3",
                          flag, str(path), "--out", str(out)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 4, run.stderr
    assert f"more than the {MAX_SRAM_STEPS}" in run.stderr
    assert named in run.stderr
    # the error is one line that names the step, short enough to read
    line = run.stderr.splitlines()[-1]
    assert line.startswith("infeasible: sram step: ") and len(line) < 200, line
    assert not out.exists()


def test_timestamp_honors_source_date_epoch(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    out = tmp_path / "o"
    assert main(["evaluate", "--topology", "toy3", "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["manifest"]["timestamp"] == "2023-11-14T22:13:20Z"


@pytest.mark.parametrize("epoch", ["0", "-1", "1700000000", " 12 ", "+5", "1_000",
                                   "-62135596800", "253402300799"])
def test_timestamp_matches_datetime_over_its_whole_range(tmp_path, monkeypatch, epoch):
    # years 1 to 9999, stamped as datetime formats them on this platform
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    out = tmp_path / "o"
    assert main(["evaluate", "--topology", "toy3", "--out", str(out)]) == 0
    want = datetime.fromtimestamp(int(epoch), tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    assert json.loads((out / "report.json").read_text())["manifest"]["timestamp"] == want
    assert f"# timestamp = {want}\n" in (out / "report.csv").read_text()


@pytest.mark.parametrize("epoch", ["abc", "", "1.5", "99999999999999", "9" * 30,
                                   "-62135596801", "253402300800"])
def test_bad_source_date_epoch_exits_1_before_any_work(tmp_path, monkeypatch, capsys, epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    monkeypatch.setattr(oxsim.cli, "evaluate", lambda *a: pytest.fail("evaluated"))
    out = tmp_path / "o"
    assert main(["evaluate", "--topology", "toy3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "SOURCE_DATE_EPOCH" in err and repr(epoch) in err
    assert not out.exists()


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
    ("sweep", "--grid", "[grid]\nrows = 32 64 32\n", "grid", "rows"),
    ("evaluate", "--config", "[chip]\nserdes_ratio = 10\n", "chip", "serdes_ratio"),
    ("optimize", "--constraints", "[chip]\ncores = 1\n", "chip", "cores"),
    ("evaluate", "--profile", "[profile]\nname = local\n  cal\n", "profile", "name"),
    ("evaluate", "--config", "[chip]\ncols = 64\nrows = %(cols)s\n", "chip", "rows"),
], ids=["fractional-int", "inf-chip", "nan-tech", "nan-profile-override",
        "unknown-profile-key", "inf-grid-axis", "nan-constraint", "template-key",
        "batch-descending", "batch-zero", "batch-empty", "rows-empty", "cols-empty",
        "sram-step-zero", "area-cap-negative", "hiding-eps-one", "tie-tol-negative",
        "profile-override-negative", "grid-rows-zero", "grid-cores-three",
        "grid-sram-zero", "grid-rows-empty", "grid-rows-repeated", "serdes-ratio-removed",
        "template-single-core", "profile-name-two-lines", "interpolation-is-literal"])
def test_loader_rejects_bad_key_or_value(tmp_path, capsys, command, flag, text, section, key):
    p = tmp_path / "input.ini"
    p.write_text(text)
    out = tmp_path / "out"
    rc = main([command, flag, str(p), "--topology", "toy3", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{p} [{section}]" in err and key in err
    assert not out.exists()


# (command, input option, its exit code, a body holding a Latin-1 byte, which
# does not decode as UTF-8)
_INPUT_OPTIONS = [
    ("evaluate", "--topology", 2,
     b"name,ifmap_h,ifmap_w,channels,filter_h,filter_w,num_filters,stride\n"
     b"caf\xe9,8,8,3,3,3,16,1\n"),
    ("evaluate", "--config", 1, b"[chip]\n# caf\xe9\nrows = 32\n"),
    ("evaluate", "--profile", 1, b"[profile]\n# caf\xe9\nname = p\n"),
    ("sweep", "--grid", 1, b"[grid]\n# caf\xe9\nrows = 8 16\n"),
    ("optimize", "--constraints", 1, b"[constraints]\n# caf\xe9\narea_cap_mm2 = 30\n"),
]
# a path that cannot be read, as a file name next to input.txt -> its test id
_UNREADABLE = {"a" * 300: "long-name", "input.txt/x": "through-a-file", "missing.txt": "missing"}


@pytest.mark.parametrize("command, flag, code, body, name", [
    *[pytest.param(command, flag, code, body, "input.txt", id=flag[2:])
      for command, flag, code, body in _INPUT_OPTIONS],
    *[pytest.param(command, flag, code, body, name, id=f"{flag[2:]}-{kind}")
      for command, flag, code, body in _INPUT_OPTIONS for name, kind in _UNREADABLE.items()],
])
def test_input_file_that_is_not_utf8_exits_naming_it(tmp_path, command, flag, code, body, name):
    # the same for a path that cannot be read: too long, through a file, or
    # absent. An OSError's own text names the path too, so the message takes
    # only its reason and names the path once
    (tmp_path / "input.txt").write_bytes(body)
    path = tmp_path / name
    out = tmp_path / "out"
    argv = [command, flag, str(path), "--out", str(out)]
    if flag != "--topology":
        argv += ["--topology", "toy3"]
    src = Path(oxsim.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-m", "oxsim.cli", *argv], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == code, run.stderr
    assert run.stderr.count(str(path)) == 1, run.stderr
    assert "Traceback" not in run.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, flag, text", [
    ("evaluate", "--config", CONFIG_HEADLINE),
    ("evaluate", "--profile", "[profile]\nname = local\n\n[overrides]\np_tia = 1e-3\n"),
    ("sweep", "--grid", GRID_SMALL),
    ("optimize", "--constraints", CONSTRAINTS_SMALL),
], ids=["config", "profile", "grid", "constraints"])
def test_input_file_with_a_byte_order_mark_reads_as_without_it(tmp_path, command, flag, text):
    outputs = {}
    for bom in (b"", b"\xef\xbb\xbf"):
        run_dir = tmp_path / ("bom" if bom else "plain")
        run_dir.mkdir()
        path = run_dir / "input.ini"
        path.write_bytes(bom + text.encode())
        out = run_dir / "out"
        assert main([command, flag, str(path), "--topology", "toy3", "--out", str(out)]) == 0
        files = sorted(out.iterdir()) if out.is_dir() else [out]
        # the manifest hashes the input file's bytes, which differ by the mark
        outputs[bom] = {f.name: f.read_text().replace(_sha(path), "<input sha256>")
                        for f in files}
    assert outputs[b""] == outputs[b"\xef\xbb\xbf"]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_ini_file_reads_as_text_mode_reads_it_and_hashes_its_bytes(tmp_path, newline):
    # one read gives the sections, parsed with universal newlines, and the digest
    data = b"\xef\xbb\xbf" + GRID_SMALL.replace("\n", newline).encode()
    path = tmp_path / "grid.ini"
    path.write_bytes(data)
    sections, digest = _read_ini(path, {"grid", "chip"})
    assert sections == _parse_ini(path.read_text(encoding="utf-8-sig"), path)
    assert sections["grid"] == {"rows": "8 16", "cols": "8 16"}
    assert digest == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("cls, settable", [
    (ChipConfig, set(ChipConfig._fields)),
    (TechParams, set(TechParams._fields)),
    (CalibrationProfile, {"name"}),
    (SweepGrid, {key for key, _ in SweepGrid._AXES}),
    (Constraints, set(Constraints._fields) - {"template"}),
], ids=["chip", "tech", "profile", "grid", "constraints"])
def test_every_record_field_of_a_parsed_type_is_settable_from_a_file(cls, settable):
    # `_section` reads each field's type from its annotation; one that `_PARSERS`
    # stops recognising fails here, and not as an "unknown key" at run time
    with pytest.raises(ConfigError, match="unknown key 'no_such_key'; allowed: ") as info:
        _section({"s": {"no_such_key": "1"}}, "s", cls, "f.ini")
    assert set(str(info.value).split("allowed: ")[1].split(", ")) == settable
    assert set(_section({"s": dict.fromkeys(settable, "1")}, "s", cls, "f.ini")) == settable


# --- the INI reader, against configparser as the oracle ------------------------

def _configparser_sections(text):
    """configparser's reading of `text`, configured as the CLI configured it
    before it had its own reader; None if configparser rejects the text."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None, default_section="\n")
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error:
        return None
    return {name: dict(parser[name]) for name in parser.sections()}


def _comment_found_alike_before_313(line):
    """Whether configparser before Python 3.13 cuts `line`'s comment where the
    reader does.

    The reader, and configparser from 3.13, cut at the first `#` or `;` that
    starts the line or follows whitespace. Before 3.13 configparser looked at
    the first `#` and the first `;`, then the second of each, and so on, and
    cut at the first round that held a comment start, so `a;b ;c #d` read as
    `a;b ;c`. The two agree if the line holds one kind of prefix, or the first
    of each kind starts a comment.
    """
    firsts = [line.find(prefix) for prefix in "#;" if prefix in line]
    return len(firsts) < 2 or all(i == 0 or line[i - 1].isspace() for i in firsts)


_INI_SPACE = st.sampled_from(["", " ", "  ", "\t", "\x0c", "\r", " \x0b"])
# "\r", "\x0c" and "\x85" end a line for str.splitlines, but not for configparser
_INI_TEXT = st.text(alphabet="ab []=:#;%\t\x0c\x85\r\u00e9", max_size=8)


@st.composite
def _ini_lines(draw):
    kind = draw(st.sampled_from(["header", "option", "comment", "blank", "text"]))
    if kind == "header":
        body = "[" + draw(st.sampled_from(["chip", "grid", " chip", "a]b", "]", ""])) + "]"
    elif kind == "option":
        # few keys, so that a section often gives one twice
        body = (draw(st.sampled_from(["rows", "cols", "a b", "%(rows)s", "[x"]))
                + draw(_INI_SPACE) + draw(st.sampled_from("=:")) + draw(_INI_SPACE)
                + draw(_INI_TEXT))
    elif kind == "comment":
        body = draw(st.sampled_from("#;")) + draw(_INI_TEXT)
    else:
        body = "" if kind == "blank" else draw(_INI_TEXT)
    tail = draw(st.sampled_from(["", " ", " # note", "\t;note", "#glued", ";glued"]))
    # an indented line continues the value of a less indented key
    return draw(_INI_SPACE) + body + tail


_INI_TEXTS = st.builds(lambda head, lines, newline, end: head + newline.join(lines) + end,
                       st.sampled_from(["", "[chip]\n"]), st.lists(_ini_lines(), max_size=8),
                       st.sampled_from(["\n", "\r\n"]), st.sampled_from(["", "\n"]))


@settings(max_examples=600, deadline=None)
@given(text=_INI_TEXTS)
@example(text="[chip]\nrows = 8\n  16\n\n \x0c\n\t32 ;c\n\n")
@example(text="[chip]\r\nrows : 8 #c\r\n\x0ccols=a#b\r\n")
@example(text="[chip] trailing\n[a]b]\n[]\n")
@example(text="[chip]\nrows = 1\nrows = 2\n")
@example(text="[chip]\n[grid]\n[chip]\n")
@example(text="rows = 8\n[chip]\n")
@example(text="[chip]\nrows\n")
@example(text="[chip]\n = 8\n")
@example(text="[DEFAULT]\nrows = 8\n[chip]\ncols = %(rows)s\n")
def test_ini_reader_reads_every_text_as_configparser_does(text):
    if sys.version_info < (3, 13):
        assume(all(_comment_found_alike_before_313(line) for line in text.split("\n")))
    want = _configparser_sections(text)
    if want is None:
        with pytest.raises(ConfigError, match=r"^<drawn>, line \d+: "):
            _parse_ini(text, "<drawn>")
    else:
        assert _parse_ini(text, "<drawn>") == want


def test_ini_comment_starts_at_the_first_prefix_after_whitespace_on_every_python():
    # configparser before 3.13 reads `a;b ;c` here (see _comment_found_alike_before_313)
    assert _parse_ini("[s]\nk = a;b ;c #d\n", "f") == {"s": {"k": "a;b"}}


@pytest.mark.parametrize("text, line, fault", [
    ("rows = 8\n[chip]\n", 1, "'rows = 8' comes before any [section]"),
    ("[chip]\n\nrows 8\n", 3, "'rows 8' is not a key = value line"),
    ("[chip]\n: 8\n", 2, "': 8' is not a key = value line"),
    ("[chip]\nrows = 8\n[tech]\n[chip]\n", 4, "section [chip] is given twice"),
    ("[chip]\nrows = 8\n# rows = 16\nrows: 16\n", 4, "key 'rows' is given twice in [chip]"),
], ids=["before-section", "no-delimiter", "empty-key", "section-twice", "key-twice"])
def test_malformed_ini_line_exits_1_naming_file_and_line(tmp_path, capsys, text, line, fault):
    p = tmp_path / "input.ini"
    p.write_text(text)
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(p), "--topology", "toy3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {p}, line {line}: {fault}\n"
    assert not out.exists()


# --- the command line, against argparse as the oracle -------------------------

def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before it had its own: the oracle of
    `parse_args` on the command lines both accept."""
    parser = argparse.ArgumentParser(
        prog="oxsim",
        description="Coherent optical crossbar accelerator simulator",
    )
    parser.add_argument("--version", action="version", version=f"oxsim {oxsim.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="evaluate one configuration on a network")
    ev.add_argument("--config", help="chip config file ([chip]/[tech] sections)")
    ev.add_argument("--topology", required=True,
                    help="topology CSV path or bundled name (resnet50_v15, toy3)")
    ev.add_argument("--profile", help="calibration profile name or file")
    ev.add_argument("--out", help="output directory (default: .)")
    ev.set_defaults(func=oxsim.cli.cmd_evaluate)

    sw = sub.add_parser("sweep", help="evaluate a Cartesian grid of configurations")
    sw.add_argument("--grid", required=True, help="grid file ([grid]/[chip] sections)")
    sw.add_argument("--topology", required=True)
    sw.add_argument("--profile")
    sw.add_argument("--out", help="output CSV path (default: sweep.csv)")
    sw.set_defaults(func=oxsim.cli.cmd_sweep)

    op = sub.add_parser("optimize", help="run the batch -> SRAM -> array flow")
    op.add_argument("--constraints", help="constraints file ([constraints]/[chip])")
    op.add_argument("--topology", required=True)
    op.add_argument("--profile")
    op.add_argument("--out", help="audit JSON path (default: optimize_audit.json)")
    op.set_defaults(func=oxsim.cli.cmd_optimize)
    return parser


_OPTIONS = {
    "evaluate": (["--config", "--profile", "--out"], ["--topology"]),
    "sweep": (["--profile", "--out"], ["--grid", "--topology"]),
    "optimize": (["--constraints", "--profile", "--out"], ["--topology"]),
}
# values that argparse, too, reads as values: `=`, spaces, non-ASCII text and
# empty strings, but no leading `-`
_VALUES = st.text(max_size=12).filter(
    lambda value: not value.startswith("-")) | st.sampled_from(["", "=", "a=b", " -x", "café"])


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    optional, required = _OPTIONS[command]
    chosen = draw(st.permutations(required + draw(st.lists(st.sampled_from(optional),
                                                          unique=True))))
    argv = [command]
    for name in chosen:
        value = draw(_VALUES)
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=_command_lines())
@example(argv=["evaluate", "--topology=", "--out", ""])
@example(argv=["sweep", "--out=a=b", "--grid", "=", "--topology", "a b"])
@example(argv=["optimize", "--profile", "café", "--topology=toy3", "--constraints=c.ini"])
# a value that starts with `-` is read after `=`
@example(argv=["evaluate", "--topology=-toy3", "--out=--x"])
def test_parse_args_reads_every_command_line_as_argparse_does(argv):
    want = vars(build_parser().parse_args(argv))
    del want["command"]
    assert vars(oxsim.cli.parse_args(argv)) == want


_USAGE = """\
usage: oxsim {evaluate,sweep,optimize} --option value ...
       oxsim --version

Coherent optical crossbar accelerator simulator

commands:
  evaluate  evaluate one configuration on a network
  sweep     evaluate a Cartesian grid of configurations
  optimize  run the batch -> SRAM -> array flow

oxsim COMMAND --help lists a command's options.
"""

_EVALUATE_USAGE = """\
usage: oxsim evaluate --option value ...

evaluate one configuration on a network

options (each --opt value or --opt=value, at most once):
  --config       chip config file ([chip]/[tech] sections)
  --topology     topology CSV path or bundled name (resnet50_v15, toy3) (required)
  --profile      calibration profile name or file
  --out          output directory (default: .)
"""


@pytest.mark.parametrize("argv, printed", [
    (["--version"], f"oxsim {oxsim.__version__}\n"),
    (["--help"], _USAGE),
    (["-h"], _USAGE),
    (["evaluate", "--help"], _EVALUATE_USAGE),
    (["evaluate", "--topology", "toy3", "-h"], _EVALUATE_USAGE),
], ids=["version", "help", "h", "evaluate-help", "evaluate-h-after-an-option"])
def test_version_and_help_print_and_return_0(tmp_path, monkeypatch, capsys, argv, printed):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr() == (printed, "")
    assert not list(tmp_path.iterdir())


def test_every_command_has_a_help_text(capsys):
    for command in ("evaluate", "sweep", "optimize"):
        assert main([command, "--help"]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith(f"usage: oxsim {command} ")
        assert all(f"  {name} " in printed for name in sum(_OPTIONS[command], []))


@pytest.mark.parametrize("argv, named", [
    ([], "missing command"),
    (["evalute", "--topology", "toy3"], "'evalute'"),
    (["evaluate", "--topology", "toy3", "--bogus", "x"], "'--bogus'"),
    (["evaluate", "--topo", "toy3"], "'--topo'"),
    (["evaluate", "--topology=toy3", "toy3"], "'toy3'"),
    (["evaluate", "--topology"], "--topology needs a value"),
    (["evaluate", "--profile", "--topology", "toy3"], "--profile needs a value"),
    (["evaluate", "--topology", "-toy3"], "--topology needs a value"),
    (["evaluate", "--profile", "paper-default"], "--topology is required"),
    (["sweep", "--topology", "toy3"], "--grid is required"),
    (["evaluate", "--topology", "toy3", "--topology", "nope"], "--topology is given twice"),
    (["evaluate", "--topology", "toy3", "--out=b"], "--out is given twice"),
    (["--version", "evaluate"], "'--version'"),
], ids=["no-command", "unknown-command", "unknown-option", "abbreviated-option",
        "stray-value", "no-value-at-the-end", "no-value-before-an-option",
        "value-starts-with-a-dash", "missing-required", "missing-required-grid",
        "repeated-option", "repeated-option-both-spellings", "version-not-alone"])
def test_usage_error_exits_1_naming_the_argument(tmp_path, argv, named):
    out = tmp_path / "out"
    argv = [*argv[:1], "--out", str(out), *argv[1:]] if argv else argv
    src = Path(oxsim.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-m", "oxsim.cli", *argv], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 1, run.stderr
    assert run.stdout == ""
    assert run.stderr.startswith("config error: ") and run.stderr.count("\n") == 1, run.stderr
    assert named in run.stderr
    assert not out.exists() and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, option", [
    (["evaluate", "--topology", "toy3", "--config="], "--config"),
    (["evaluate", "--topology", "toy3", "--profile", ""], "--profile"),
    (["evaluate", "--topology", "toy3", "--out", ""], "--out"),
    (["evaluate", "--topology="], "--topology"),
    (["sweep", "--topology", "toy3", "--grid="], "--grid"),
    (["sweep", "--grid", str(CONFIGS / "array_sweep.ini"), "--topology", "toy3", "--out="],
     "--out"),
    (["optimize", "--topology", "toy3", "--constraints="], "--constraints"),
    (["optimize", "--topology", "toy3", "--out", ""], "--out"),
], ids=["config", "profile", "evaluate-out", "topology", "grid", "sweep-out", "constraints",
        "optimize-out"])
def test_empty_option_value_exits_1_naming_the_option(tmp_path, monkeypatch, capsys,
                                                      argv, option):
    # Path("") is the working directory: an empty value must not stand for a
    # default, a directory to read, or the directory to write into
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"config error: option {option} is empty\n"
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, printed", [
    (["--version"], f"oxsim {oxsim.__version__}\n"),
    (["evaluate", "--topology", "toy3", "--out", "ev"], "wrote ev/report.json and ev/report.csv\n"),
], ids=["version", "evaluate"])
def test_main_reads_sys_argv_as_the_console_script_calls_it(tmp_path, monkeypatch, capsys,
                                                            argv, printed):
    # the installed `oxsim` script calls run(), which calls main() with no argument
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["oxsim", *argv])
    assert main() == 0
    assert capsys.readouterr().out.endswith(printed)
    if argv[0] == "evaluate":
        assert sorted(p.name for p in (tmp_path / "ev").iterdir()) == ["report.csv",
                                                                       "report.json"]


@pytest.mark.parametrize("argv", [
    ["evaluate", "--topology", "toy3", "--out", "ev"],
    ["sweep", "--grid", str(CONFIGS / "array_sweep.ini"), "--topology", "toy3",
     "--out", "sweep.csv"],
    ["optimize", "--topology", "toy3", "--out", "audit.json"],
], ids=["evaluate", "sweep", "optimize"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_leaves_the_garbage_collector_as_it_found_it(tmp_path, monkeypatch, argv,
                                                          enabled):
    # only run(), the process entry, switches the collector off and freezes
    monkeypatch.chdir(tmp_path)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert main(argv) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


# `run()` as the console script calls it, on the arguments after the script;
# the atexit handler is registered before run() and reports on stderr
RUN_SCRIPT = """
import atexit, gc, sys
atexit.register(lambda: print(f"frozen at exit: {gc.get_freeze_count()}", file=sys.stderr))
sys.argv = ["oxsim", *sys.argv[1:]]
from oxsim.cli import run
run()
"""


@pytest.mark.parametrize("files, argv, code, printed", [
    ({}, ["evaluate", "--topology", "toy3", "--out", "ev"], 0,
     "wrote ev/report.json and ev/report.csv\n"),
    ({"bad.ini": "[chip]\nno_such_key = 1\n"},
     ["evaluate", "--config", "bad.ini", "--topology", "toy3", "--out", "ev"], 1,
     "config error: bad.ini [chip]: unknown key 'no_such_key'"),
    ({}, ["evaluate", "--topology", "no_such_net", "--out", "ev"], 2,
     "topology error: no bundled topology 'no_such_net'"),
    ({"huge.ini": "[chip]\nrows = 100000\ncols = 100000\n"},
     ["evaluate", "--config", "huge.ini", "--topology", "toy3", "--out", "ev"], 3,
     "evaluation error: loss budget: the worst path of a 100000x100000 array"),
    ({"cap.ini": "[chip]\nrows = 128\ncols = 128\n\n[constraints]\narea_cap_mm2 = 2\n"},
     ["optimize", "--constraints", "cap.ini", "--topology", "toy3", "--out", "audit.json"], 4,
     "infeasible: sram step: area cap 2.0 mm2"),
], ids=["ok", "config", "topology", "evaluation", "infeasible"])
def test_run_exits_with_mains_code_after_atexit_and_a_flushed_stdout(tmp_path, files, argv,
                                                                      code, printed):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(oxsim.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", RUN_SCRIPT, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    # the handler ran, after run() froze what main() left
    *_, frozen = proc.stderr.splitlines()
    assert frozen.startswith("frozen at exit: ") and int(frozen.split()[-1]) > 0
    if code == 0:
        # the summary, written to a pipe, is flushed at exit
        assert proc.stdout.startswith("ips=") and proc.stdout.endswith(printed)
        assert sorted(p.name for p in (tmp_path / "ev").iterdir()) == ["report.csv",
                                                                       "report.json"]
    else:
        assert printed in proc.stderr and proc.stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def test_sweep_cyclic_garbage_does_not_grow_with_its_points(tmp_path, capsys):
    # run() keeps the collector off for a whole process. That holds memory
    # only while a run's cyclic garbage is its one mapping memo (Network ->
    # RuntimeStats -> Network), shared by every point: a cycle made per point
    # would grow with the grid. The two grids share every mapping; the second
    # has six times the points (169 unreachable objects each on Python 3.11).
    def grid(name, sram, cores):
        path = tmp_path / name
        path.write_text(f"[chip]\nbatch = 32\n\n[grid]\nrows = 64 128\ncols = 64 128\n"
                        f"input_sram_mb = {sram}\ncores = {cores}\n")
        return path

    grids = [grid("small.ini", "26.3", "2"), grid("large.ini", "26.3 40 64", "1 2")]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        unreachable = []
        for path in grids:
            assert main(["sweep", "--grid", str(path), "--topology", "resnet50_v15",
                         "--out", str(tmp_path / "sweep.csv")]) == 0
            unreachable.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    assert [line.split()[1] for line in capsys.readouterr().out.splitlines()] == ["4", "24"]
    assert unreachable[0] == unreachable[1]


# --- manifest digests from the builtin SHA-256 -------------------------------

@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=2048))
def test_builtin_sha256_matches_hashlib(data):
    assert oxsim.cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_manifest_digests_match_hashlib_for_every_shipped_input(tmp_path):
    # the builtin module, not the hashlib fallback, on every CI Python
    assert oxsim.cli.sha256.__module__ in ("_sha2", "_sha256")
    topologies = {name: bundled_topology_path(name) for name in ("resnet50_v15", "toy3")}
    for name, path in topologies.items():
        out = tmp_path / name
        assert main(["evaluate", "--config", str(CONFIGS / "headline.ini"), "--topology", name,
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "report.json").read_text())["manifest"]
        assert manifest["config_hash"] == _sha(CONFIGS / "headline.ini")
        assert manifest["topology_hash"] == _sha(path)


def test_piped_topology_manifest_carries_the_digest_of_the_bytes_sent(tmp_path):
    # a pipe can be read only once, so the digest must come from the bytes parsed
    data = bundled_topology_path("toy3").read_bytes()
    src = Path(oxsim.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-m", "oxsim.cli", "evaluate", "--topology",
                          "/dev/stdin", "--out", str(tmp_path)], input=data,
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr.decode(errors="replace")
    digest = hashlib.sha256(data).hexdigest()
    manifest = json.loads((tmp_path / "report.json").read_text())["manifest"]
    assert manifest["topology_hash"] == digest
    assert f"# topology_hash = {digest}" in (tmp_path / "report.csv").read_text().splitlines()


# counts the `open` audit events of each path over one in-process run
OPEN_COUNT_SCRIPT = """
import json, os, sys
from collections import Counter
opened = Counter()

def count(event, args):
    if event == "open" and isinstance(args[0], (str, bytes, os.PathLike)):
        opened[os.path.abspath(os.fsdecode(args[0]))] += 1

sys.addaudithook(count)
from oxsim.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "opened": opened}))
"""


def test_each_input_file_is_opened_once(tmp_path):
    inputs = {"--config": tmp_path / "chip.ini", "--profile": tmp_path / "profile.ini",
              "--topology": tmp_path / "net.csv"}
    inputs["--config"].write_text(CONFIG_HEADLINE)
    inputs["--profile"].write_text("[profile]\nname = local\n\n[overrides]\np_tia = 1e-3\n")
    inputs["--topology"].write_bytes(bundled_topology_path("toy3").read_bytes())
    argv = ["evaluate", *[str(x) for pair in inputs.items() for x in pair],
            "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(Path(oxsim.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", OPEN_COUNT_SCRIPT, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert {flag: result["opened"].get(str(path.resolve()), 0)
            for flag, path in inputs.items()} == dict.fromkeys(inputs, 1)


ONE_LAYER_TOPOLOGY = ("name,ifmap_h,ifmap_w,channels,filter_h,filter_w,num_filters,stride\n"
                      "c,8,8,2,3,3,4,1\n")


@pytest.mark.parametrize("make, code, err", [
    (lambda p: p.write_text(ONE_LAYER_TOPOLOGY), 0, ""),
    (lambda p: p.mkdir(), 2, "topology error: toy3: "),
], ids=["file-wins", "directory"])
def test_topology_value_names_a_bundled_fixture_only_where_nothing_is_at_that_path(
        tmp_path, monkeypatch, capsys, make, code, err):
    monkeypatch.chdir(tmp_path)
    make(tmp_path / "toy3")
    assert main(["evaluate", "--topology", "toy3", "--out", "out"]) == code
    assert capsys.readouterr().err.startswith(err)
    if code == 0:
        manifest = json.loads((tmp_path / "out" / "report.json").read_text())["manifest"]
        assert manifest["topology_hash"] == hashlib.sha256(ONE_LAYER_TOPOLOGY.encode()).hexdigest()


def test_outputs_are_utf8_whatever_the_locale(tmp_path):
    # under the C locale, with locale coercion and UTF-8 mode off, Python's
    # default text encoding is ASCII, which cannot write the profile name
    profile = tmp_path / "cafe.ini"
    profile.write_text("[profile]\nname = caf\u00e9\n", encoding="utf-8")
    src = Path(oxsim.__file__).resolve().parents[1]
    runs = {}
    for name, locale in (("c", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}),
                         ("utf8", {"PYTHONUTF8": "1"})):
        run_dir = tmp_path / name
        run_dir.mkdir()
        run = subprocess.run(
            [sys.executable, "-m", "oxsim.cli", "evaluate", "--topology", "toy3",
             "--profile", str(profile)], cwd=run_dir, capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src), "SOURCE_DATE_EPOCH": "0", **locale})
        assert run.returncode == 0, run.stderr.decode(errors="replace")
        runs[name] = run.stdout, {f.name: f.read_bytes() for f in sorted(run_dir.iterdir())}
    assert "profile=caf\u00e9)" in runs["c"][0].decode("utf-8")
    assert list(runs["c"][1]) == ["report.csv", "report.json"]
    assert runs["c"] == runs["utf8"]


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


def test_atomic_write_skips_a_taken_temp_name_and_ends_0644_whatever_the_umask(tmp_path):
    target = tmp_path / "report.json"
    taken = tmp_path / f"report.json.{os.getpid()}.1.tmp"  # another write's temp file
    taken.write_text("theirs")
    umask = os.umask(0o077)
    try:
        _atomic_write(target, "new")
    finally:
        os.umask(umask)
    assert target.read_text() == "new"
    assert target.stat().st_mode & 0o777 == 0o644
    assert taken.read_text() == "theirs"
    assert {p.name for p in tmp_path.iterdir()} == {"report.json", taken.name}


@pytest.mark.parametrize("command, out", [
    ("sweep", "dir"), ("optimize", "dir"), ("evaluate", "file"), ("sweep", "file/x.csv"),
])
def test_unwritable_output_path_exits_1_naming_it(tmp_path, command, out):
    # an existing directory where a file goes, or an existing file where a
    # directory goes; checked in a subprocess, where a traceback would show
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept")
    grid = tmp_path / "grid.ini"
    grid.write_text(GRID_SMALL)
    inputs = ["--grid", str(grid)] if command == "sweep" else []
    env = {**os.environ, "PYTHONPATH": str(Path(oxsim.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-m", "oxsim.cli", command, *inputs,
                          "--topology", "toy3", "--out", str(tmp_path / out)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stderr
    assert f"config error: cannot write {tmp_path / out}" in run.stderr
    assert "Traceback" not in run.stderr
    assert not list(tmp_path.rglob("*.tmp"))
    assert (tmp_path / "file").read_text() == "kept"


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


def test_overflowing_total_exits_3_and_writes_no_report(tmp_path, capsys):
    # every input is finite and in range, but the SRAM area overflows to inf
    p = tmp_path / "huge_sram.ini"
    p.write_text("[chip]\nsram_input_mb = 1e308\n[tech]\na_sram_per_mb = 10\n")
    out = tmp_path / "out"
    rc = main(["evaluate", "--config", str(p), "--topology", "toy3", "--out", str(out)])
    assert rc == 3
    assert "area is inf" in capsys.readouterr().err
    assert not (out / "report.json").exists()


BIG = 10**320  # beyond the float range


@pytest.mark.parametrize("command, config", [
    ("evaluate", f"[chip]\nbatch = {BIG}\n"),
    ("optimize", f"[constraints]\nbatch_candidates = 1 {BIG}\narray_rows = 32\n"
                 f"array_cols = 32\n"),
], ids=["evaluate", "optimize"])
def test_count_too_large_for_a_float_exits_3_naming_it(tmp_path, capsys, command, config):
    p = tmp_path / "big.ini"
    p.write_text(config)
    flag = "--config" if command == "evaluate" else "--constraints"
    out = tmp_path / "out"
    rc = main([command, flag, str(p), "--topology", "toy3", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "compute time in cycles is a 1070-bit integer, too large for a float" in err
    assert not out.exists()


FREE_SRAM_PROFILE = "[profile]\nname = free-sram\n\n[overrides]\na_sram_per_mb = 0\n"


def test_free_sram_cannot_be_sized_by_the_area_cap(tmp_path, capsys):
    prof = tmp_path / "free.ini"
    prof.write_text(FREE_SRAM_PROFILE)
    out = tmp_path / "audit.json"
    rc = main(["optimize", "--topology", "toy3", "--profile", str(prof), "--out", str(out)])
    assert rc == 4
    assert "a_sram_per_mb is 0" in capsys.readouterr().err
    assert not out.exists()
    # evaluate and sweep still accept free SRAM
    grid = tmp_path / "grid.ini"
    grid.write_text(GRID_SMALL)
    assert main(["evaluate", "--topology", "toy3", "--profile", str(prof),
                 "--out", str(tmp_path / "eval")]) == 0
    assert main(["sweep", "--grid", str(grid), "--topology", "toy3", "--profile", str(prof),
                 "--out", str(tmp_path / "sweep.csv")]) == 0


def test_sram_too_cheap_to_count_exits_4_naming_it(tmp_path, capsys):
    # the headroom over a subnormal SRAM area is an infinite number of steps
    prof = tmp_path / "tiny.ini"
    prof.write_text("[overrides]\na_sram_per_mb = 5e-324\n")
    out = tmp_path / "audit.json"
    rc = main(["optimize", "--topology", "toy3", "--profile", str(prof), "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "a_sram_per_mb = 5e-324" in err and "not a finite number" in err
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


# the chosen 128x64 array breaks the cap the SRAM was sized against, and so
# does the 256x64 array chosen after the first re-run: two re-runs settle it
CONSTRAINTS_TWO_RERUNS = """\
[constraints]
area_cap_mm2 = 79.2
sram_step_mb = 1.5
batch_candidates = 16 256
array_rows = 128 256
array_cols = 64
"""


def test_optimize_reruns_sram_and_array_until_the_cap_holds(tmp_path):
    cons = tmp_path / "cons.ini"
    cons.write_text(CONSTRAINTS_TWO_RERUNS)
    out = tmp_path / "audit.json"
    rc = main(["optimize", "--constraints", str(cons), "--topology", "resnet50_v15",
               "--profile", "paper-consistent", "--out", str(out)])
    assert rc == 0
    audit = json.loads(out.read_text())
    chosen = audit["chosen_config"]
    assert (chosen["rows"], chosen["cols"]) == (256, 64)
    assert audit["metrics"]["area_mm2"] <= 79.2
    assert [s["step"] for s in audit["steps"]] == [
        "batch", "sram", "array", "sram", "array", "sram", "array"]


@pytest.mark.parametrize("profile, digest", [
    ("paper-consistent", "0185527e9e31010fd43770d8e9422d083b7cc7834f0e874394ee581ab0ac02cd"),
    ("paper-default", "f706c417f16a14fee04f982ef0b3de825353b1b673e638d4185a54101bf3f9f5"),
])
def test_shipped_optimize_audit_is_pinned(tmp_path, monkeypatch, profile, digest):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    out = tmp_path / "audit.json"
    rc = main(["optimize", "--constraints", str(CONFIGS / "optimize_default.ini"),
               "--topology", "resnet50_v15", "--profile", profile, "--out", str(out)])
    assert rc == 0
    assert _sha(out) == digest


def test_optimize_that_hides_nothing_writes_one_warning_line(tmp_path):
    # no toy3 batch hides programming, so the run ends at the largest batch
    # and says so in one line, not in a Python warning with its source path
    out = tmp_path / "audit.json"
    env = {**os.environ, "PYTHONPATH": str(Path(oxsim.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-m", "oxsim.cli", "optimize", "--topology", "toy3",
                          "--out", str(out)], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: batch 256 "), run.stderr
    assert "UserWarning" not in run.stderr and ".py:" not in run.stderr
    audit = json.loads(out.read_text())
    batch_steps = [s for s in audit["steps"] if s["step"] == "batch"]
    assert not any(row["hidden"] for s in batch_steps for row in s["candidates"])


@pytest.mark.parametrize("profile", ["paper-consistent", "paper-default"])
def test_shipped_optimize_writes_no_warning(tmp_path, capsys, profile):
    rc = main(["optimize", "--constraints", str(CONFIGS / "optimize_default.ini"),
               "--topology", "resnet50_v15", "--profile", profile,
               "--out", str(tmp_path / "audit.json")])
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_each_optimize_run_that_hides_nothing_warns(tmp_path, capsys):
    # a Python warning is shown once per process; this line once per run
    for _ in range(2):
        assert main(["optimize", "--topology", "toy3", "--out", str(tmp_path / "a.json")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and all(line.startswith("warning: batch 256 ") for line in lines)


@pytest.mark.parametrize("profile, digests", [
    ("paper-consistent", {
        "report.json": "f27607cb69f4f606d2a4edb932e7caf77c285d612dd6ecf228622cd1274eb5f0",
        "report.csv": "88e8123b900759f2aef631f35ee3206e63bb79d43200f1d3c3ad483232f82a0d",
        "array_sweep.csv": "130bd1fbcdeaed300e26864ca098c578e4379c45140fd4aca633a1c8367af92c",
        "batch_sweep.csv": "fbe5968e286896bfc56562512ce6f9f3cfe4634dcd3d88b4dd3f0f564fd5e521",
    }),
    ("paper-default", {
        "report.json": "26c9bbc8dad5dae7af33d5843b3b8f40b77cc60772750dfcb1f372a09ce895b4",
        "report.csv": "aae3fd12d3814022f878f73eb062b7b8f53473ca3592ebfdd95be0ce82c4ddcb",
        "array_sweep.csv": "30fdb5e9c5603ad2962230798f77bc0767832c49336fc65b76992decb60a3630",
        "batch_sweep.csv": "fa9ad54ee68458734a537d79a8d8cfbc22befbfe4aa899abfd3ac806fa060f1b",
    }),
])
def test_shipped_evaluate_and_sweep_outputs_are_pinned(tmp_path, monkeypatch, profile,
                                                       digests):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    common = ["--topology", "resnet50_v15", "--profile", profile]
    assert main(["evaluate", "--config", str(CONFIGS / "headline.ini"), *common,
                 "--out", str(tmp_path)]) == 0
    for grid in ("array_sweep", "batch_sweep"):
        assert main(["sweep", "--grid", str(CONFIGS / f"{grid}.ini"), *common,
                     "--out", str(tmp_path / f"{grid}.csv")]) == 0
    assert {name: _sha(tmp_path / name) for name in digests} == digests


ZERO_POWER_PROFILE = "[profile]\nname = zero-power\n\n[overrides]\n" + "".join(
    f"{name} = 0\n" for name in (
        "e_odac_driver", "p_thermal_per_ring", "p_tia", "p_adc", "e_serdes_per_bit",
        "e_clock_per_lane_cycle", "e_sram_per_bit", "e_dram_per_bit",
        "e_pcm_program_per_cell", "p_rx_min_per_column"))


def test_zero_power_evaluate_exits_3_naming_power(tmp_path, capsys):
    prof = tmp_path / "zero.ini"
    prof.write_text(ZERO_POWER_PROFILE)
    out = tmp_path / "out"
    rc = main(["evaluate", "--topology", "toy3", "--profile", str(prof), "--out", str(out)])
    assert rc == 3
    assert "power is 0.0 W, not > 0" in capsys.readouterr().err
    assert not out.exists()


def test_zero_power_optimize_exits_4(tmp_path, capsys):
    prof = tmp_path / "zero.ini"
    prof.write_text(ZERO_POWER_PROFILE)
    out = tmp_path / "audit.json"
    rc = main(["optimize", "--topology", "toy3", "--profile", str(prof), "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "array step" in err and "power is 0.0 W" in err
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


def test_commands_run_without_numpy_and_the_functional_model_names_its_extra(tmp_path):
    # numpy is the optional `functional` extra: with it made unimportable, as
    # where it is not installed, every command writes the same outputs
    src = Path(oxsim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    commands = [
        ["--version"],
        ["evaluate", "--config", str(CONFIGS / "headline.ini"), "--topology", "toy3",
         "--out", "eval"],
        ["sweep", "--grid", str(CONFIGS / "array_sweep.ini"), "--topology", "toy3",
         "--out", "sweep.csv"],
        ["optimize", "--topology", "toy3", "--out", "audit.json"],
    ]
    outputs = []
    for block in ("", "sys.modules['numpy'] = None; "):
        prelude = f"import sys; {block}from oxsim.cli import main; sys.exit(main(sys.argv[1:]))"
        cwd = tmp_path / str(len(outputs))
        cwd.mkdir()
        printed = []
        for argv in commands:
            run = subprocess.run([sys.executable, "-c", prelude, *argv], cwd=cwd, env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            printed.append(run.stdout)
        files = {p.relative_to(cwd): p.read_bytes() for p in sorted(cwd.rglob("*"))
                 if p.is_file()}
        assert len(files) == 4  # report.json, report.csv, sweep.csv, audit.json
        outputs.append((printed, files))
    assert outputs[1] == outputs[0]

    script = """
import sys
sys.modules["numpy"] = None
import oxsim
assert oxsim.evaluate and oxsim.sweep and oxsim.optimize
try:
    oxsim.crossbar_mvm
except ImportError as exc:
    print(exc)
else:
    raise AssertionError("crossbar_mvm resolved without numpy")
"""
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "needs numpy" in run.stdout and "oxsim[functional]" in run.stdout


_DEFAULT_CHIP_REPR = (
    "ChipConfig(rows=32, cols=32, clock_hz=10000000000.0, cores=2, batch=32, b_in=6, "
    "b_w=6, b_out=6, b_acc=24, sram_input_mb=26.3, sram_filter_mb=0.75, "
    "sram_output_mb=0.75, sram_acc_mb=0.75)")


def test_default_config_and_constraints_hash_pinned_strings():
    # runs without --config or --constraints hash these reprs into config_hash
    assert repr(ChipConfig()) == _DEFAULT_CHIP_REPR
    assert repr(Constraints()) == (
        "Constraints(area_cap_mm2=100.0, batch_candidates=(1, 2, 4, 8, 16, 32, 64, 128, "
        "256), array_rows=(32, 64, 128, 256, 512), array_cols=(32, 64, 128, 256, 512), "
        f"sram_step_mb=0.25, hiding_eps=0.01, tie_tol=0.02, template={_DEFAULT_CHIP_REPR})")
    config_hash = load_run_inputs(None, None)[3]
    assert config_hash == hashlib.sha256(_DEFAULT_CHIP_REPR.encode()).hexdigest()


def test_cli_commands_do_not_import_dataclasses_or_inspect(tmp_path):
    # each takes ~10 ms of start-up; the snapshot lets a site hook preload them
    src = Path(oxsim.__file__).resolve().parents[1]
    script = f"""
import sys
before = set(sys.modules)
from oxsim.cli import main
out = {str(tmp_path)!r}
assert main(["evaluate", "--config", {str(CONFIGS / "headline.ini")!r},
             "--topology", "resnet50_v15", "--out", out + "/eval"]) == 0
assert main(["sweep", "--grid", {str(CONFIGS / "array_sweep.ini")!r},
             "--topology", "toy3", "--out", out + "/sweep.csv"]) == 0
assert main(["optimize", "--topology", "toy3", "--out", out + "/audit.json"]) == 0
loaded = {{"dataclasses", "inspect"}} & (set(sys.modules) - before)
assert not loaded, sorted(loaded)
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
    for name in ("Constraints", "OptimizationResult", "find_min_hiding_batch", "size_sram",
                 "pick_array_size", "optimize"):
        assert name in oxsim.__all__
        assert getattr(oxsim, name) is getattr(oxsim.dse, name)
    for name in ("SweepGrid", "sweep"):
        assert name in oxsim.__all__
        assert getattr(oxsim, name) is getattr(oxsim.grid, name)
    # cli resolves these from their modules on first use (see
    # test_each_command_imports_only_its_oxsim_modules)
    assert oxsim.cli.sweep is oxsim.grid.sweep
    assert oxsim.cli.SweepGrid is oxsim.grid.SweepGrid
    assert oxsim.cli.optimize is oxsim.dse.optimize
    assert oxsim.cli.Constraints is oxsim.dse.Constraints
    for module in (oxsim, oxsim.cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def test_package_name_table_lists_each_name_once_under_its_defining_module():
    listed = [name for names in oxsim._NAMES.values() for name in names]
    assert len(listed) == len(set(listed))
    assert oxsim.__all__ == ["__version__", *listed]
    for module_name, names in oxsim._NAMES.items():
        module = importlib.import_module(f"oxsim.{module_name}")
        for name in names:
            assert getattr(oxsim, name) is getattr(module, name), name
            assert getattr(module, name).__module__ == module.__name__, name
    assert set(oxsim.__all__) | set(oxsim._NAMES) <= set(dir(oxsim))


def test_bare_package_import_loads_no_module_until_one_is_used():
    src = Path(oxsim.__file__).resolve().parents[1]
    script = """
import sys
import oxsim
assert [m for m in sys.modules if m.startswith("oxsim.")] == []
for name in oxsim._NAMES:
    assert getattr(oxsim, name) is sys.modules["oxsim." + name], name
assert oxsim.ChipConfig is oxsim.workload.ChipConfig
"""
    run = subprocess.run([sys.executable, "-c", script],
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_every_perfbench_trace_boundary_resolves():
    # `perfbench/run.py --trace 1` replaces each (module, attr) of BOUNDARIES
    # and fails with an AttributeError on a name the package no longer binds
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attr, _, _ in tracing.BOUNDARIES:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_sweep_does_not_import_json(tmp_path):
    # json takes ~2 ms to import; only the commands that write JSON load it
    src = Path(oxsim.__file__).resolve().parents[1]
    script = f"""
import sys
before = set(sys.modules)
from oxsim.cli import main
assert main(["sweep", "--grid", {str(CONFIGS / "array_sweep.ini")!r},
             "--topology", "toy3", "--out", {str(tmp_path / "sweep.csv")!r}]) == 0
assert "json" not in set(sys.modules) - before
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["evaluate", "--config", str(CONFIGS / "headline.ini"), "--topology", "toy3"],
    ["sweep", "--grid", str(CONFIGS / "array_sweep.ini"), "--topology", "toy3"],
    ["optimize", "--constraints", str(CONFIGS / "optimize_default.ini"), "--topology", "toy3"],
], ids=["version", "evaluate", "sweep", "optimize"])
def test_cli_commands_do_not_import_unused_standard_modules(tmp_path, argv):
    # hashlib loads OpenSSL (~4 ms) and configparser compiles its regexes (~3 ms)
    # at import; argparse imports gettext, and building its parser loads locale
    # (~4.5 ms together); the json package loads its decoder and compiles its
    # regexes (~3 ms), and jsontext builds its encoder from `_json` on every
    # Python; csv (~1 ms), the utf_8_sig codec and __future__ (whose
    # `annotations` would turn the record field types that `cli._section` reads
    # into strings) are not needed at all; the snapshot lets a site hook
    # preload any of them
    src = Path(oxsim.__file__).resolve().parents[1]
    script = f"""
import sys
before = set(sys.modules)
from oxsim.cli import main
assert main({argv!r}) == 0
unused = {{"hashlib", "_hashlib", "configparser", "argparse", "gettext", "locale",
           "csv", "_csv", "__future__", "encodings.utf_8_sig", "json", "json.decoder"}}
loaded = unused & (set(sys.modules) - before)
assert not loaded, sorted(loaded)
"""
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_no_command_imports_importlib_resources_typing_zipfile_or_tempfile(tmp_path):
    # a site hook may preload these, so the interpreter runs without one (-S);
    # bundled topologies are listed from the package directory, which is all
    # `importlib.resources` gave a package installed as a directory, and
    # `_atomic_write` creates its temp file with os.open, not tempfile
    src = Path(oxsim.__file__).resolve().parents[1]
    script = f"""
import sys
from oxsim.cli import main
for argv in (["--version"],
             ["evaluate", "--config", {str(CONFIGS / "headline.ini")!r}, "--topology", "toy3"],
             ["sweep", "--grid", {str(CONFIGS / "array_sweep.ini")!r}, "--topology", "toy3"],
             ["optimize", "--constraints", {str(CONFIGS / "optimize_default.ini")!r},
              "--topology", "toy3"]):
    assert main(argv) == 0, argv
loaded = {{"importlib.resources", "typing", "zipfile", "tempfile"}} & set(sys.modules)
assert not loaded, sorted(loaded)
"""
    run = subprocess.run([sys.executable, "-S", "-W", "ignore", "-c", script], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert {p.name for p in tmp_path.iterdir()} >= {"report.json", "sweep.csv",
                                                    "optimize_audit.json"}


def test_no_command_compiles_generated_code(tmp_path):
    # every record shares one __new__; a typing.NamedTuple compiled one of its
    # own at import, a `<string>` compile event. Module source compiles from
    # its .py file. A first run loads the standard modules the commands use
    # (some define namedtuples at import), so the count is what oxsim's own
    # modules compile when imported again. Printing a warning compiles too.
    src = Path(oxsim.__file__).resolve().parents[1]
    script = f"""
import sys
out = {str(tmp_path)!r}
commands = (["evaluate", "--topology", "toy3", "--out", out + "/ev"],
            ["sweep", "--grid", {str(CONFIGS / "array_sweep.ini")!r}, "--topology", "toy3",
             "--out", out + "/sweep.csv"],
            ["optimize", "--topology", "toy3", "--out", out + "/audit.json"])
from oxsim.cli import main
for argv in commands:
    assert main(argv) == 0
for name in [m for m in sys.modules if m.split(".")[0] == "oxsim"]:
    del sys.modules[name]
compiled = []
sys.addaudithook(lambda event, args: event == "compile"
                 and not str(args[1]).endswith(".py") and compiled.append(args[1]))
from oxsim.cli import main
counts = [len(compiled)]
for argv in commands:
    assert main(argv) == 0
    counts.append(len(compiled))
print(counts, compiled)
"""
    run = subprocess.run([sys.executable, "-W", "ignore", "-c", script], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"
    assert (tmp_path / "audit.json").exists()


def test_builtin_sha256_module_is_chosen_by_python_version():
    # `_sha2` is the module from Python 3.12, `_sha256` before it; a search
    # for the other one would scan sys.path in every process and fail
    src = Path(oxsim.__file__).resolve().parents[1]
    script = """
import sys
searched = []

class Spy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        searched.append(name)

sys.meta_path.insert(0, Spy)
import oxsim.cli
print("_sha2" in searched, oxsim.cli.sha256.__module__)
"""
    run = subprocess.run([sys.executable, "-c", script],
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    searched, module = run.stdout.split()
    if sys.version_info < (3, 12):
        assert searched == "False"
    assert module == ("_sha2" if sys.version_info >= (3, 12) else "_sha256")


# the oxsim modules each process loads, keyed by its command: `import oxsim`
# loads the package alone, a process that runs no command (--version, --help,
# a usage error) only the dispatcher's `errors`, every command the CLI's own
# set, sweep adds grid, optimize adds dse, and the commands that write JSON
# add jsontext
_DISPATCH_IMPORTS = {"oxsim", "oxsim.errors"}
_CLI_IMPORTS = _DISPATCH_IMPORTS | {"oxsim.tech", "oxsim.workload", "oxsim.perf",
                                    "oxsim.reports"}
_IMPORTS = {
    "import oxsim": {"oxsim"},
    "--version": _DISPATCH_IMPORTS,
    "--help": _DISPATCH_IMPORTS,
    "no_such_command": _DISPATCH_IMPORTS,
    "evaluate": _CLI_IMPORTS | {"oxsim.jsontext"},
    "sweep": _CLI_IMPORTS | {"oxsim.grid"},
    "optimize": _CLI_IMPORTS | {"oxsim.dse", "oxsim.jsontext"},
}


@pytest.mark.parametrize("argv, loads_dse", [
    (["-c", "import oxsim"], False),
    (["-m", "oxsim.cli", "--version"], False),
    (["-m", "oxsim.cli", "evaluate", "--topology", "toy3"], False),
    (["-m", "oxsim.cli", "sweep", "--grid", str(CONFIGS / "array_sweep.ini"),
      "--topology", "toy3"], False),
    (["-m", "oxsim.cli", "optimize", "--topology", "toy3"], True),
    (["-m", "oxsim.cli", "--help"], False),
    (["-m", "oxsim.cli", "no_such_command"], False),
])
def test_each_command_imports_only_its_oxsim_modules(tmp_path, argv, loads_dse):
    # compiling a module costs every process that imports it; evaluate calls
    # neither grid nor dse, and sweep never runs the optimizer in dse
    src = Path(oxsim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-X", "importtime", *argv],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    command = argv[1] if argv[0] == "-c" else argv[2]
    assert run.returncode == (1 if command == "no_such_command" else 0), run.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")}
    assert "oxsim" in imported  # the trace was read
    assert ("oxsim.dse" in imported) is loads_dse
    assert {m for m in imported if m.split(".")[0] == "oxsim"} == _IMPORTS[command]
    # the numpy functional model is never on a command's import path
    assert "numpy" not in imported and "oxsim.photonics" not in imported


def _perfbench_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_perfbench_tracer_records_every_sweep_mapping_and_timeline(tmp_path):
    # cli resolves sweep on its module object and the stage memo looks up
    # its mapping and timeline on perf, so the tracer's wrappers are what run
    # and --trace 1 counts every mapping of a sweep
    tracer = _perfbench_tracer()
    grid_path = CONFIGS / "array_sweep.ini"
    with tracer.installed():
        assert main(["sweep", "--grid", str(grid_path), "--topology", "toy3",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("dse.sweep") == 1
    configs = _over_chip("--grid", str(grid_path), "grid", SweepGrid)[0].configs()
    timelines = {(c.rows, c.cols, c.batch, c.cores, c.clock_hz) for c in configs}
    # each point maps once for its report, and each distinct timeline once more
    assert names.count("workload.network_runtime") == len(configs) + len(timelines)
    assert names.count("perf.timeline") == len(timelines) > 0
    # the tracer counts the layers each mapping covers as len(stats.layers): toy3 has 3
    assert {span[4] for span in tracer.spans if span[0] == "workload.network_runtime"} == {3}


def test_perfbench_tracer_records_the_optimize_spans(tmp_path):
    tracer = _perfbench_tracer()
    audit = tmp_path / "audit.json"
    with tracer.installed():
        assert main(["optimize", "--topology", "toy3", "--out", str(audit)]) == 0
    spans = {span[0]: span for span in tracer.spans}
    rows = sum(len(step["candidates"]) for step in json.loads(audit.read_text())["steps"])
    assert spans["dse.optimize"][4] == rows > 0
    assert "dse.size_sram" in spans and "perf.timeline" in spans
    assert {span[4] for span in tracer.spans if span[0] == "workload.network_runtime"} == {3}



def test_perfbench_tracer_installed_before_the_first_command_sees_every_cli_boundary(
        tmp_path):
    # cli resolves the names it takes from the simulator modules on first
    # use; a tracer installed in a fresh process, before any command ran,
    # must still be what those commands call
    src = Path(oxsim.__file__).resolve().parents[1]
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    script = f"""
import importlib.util, json
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(tracing)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from oxsim.cli import main
tracer = tracing.Tracer()
with tracer.installed():
    assert main(["evaluate", "--topology", "toy3", "--out", "ev"]) == 0
    assert main(["optimize", "--topology", "toy3", "--out", "audit.json"]) == 0
print(json.dumps(sorted({{span[0] for span in tracer.spans if span[2] > span[1]}})))
"""
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    names = set(json.loads(run.stdout.splitlines()[-1]))
    assert names >= {"cli.load_run_inputs", "tech.params", "perf.evaluate",
                     "reports.json_payload", "reports.dump_json", "reports.flat_row",
                     "dse.optimize"}
