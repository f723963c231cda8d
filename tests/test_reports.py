import json

import pytest

from oxsim import ChipConfig, evaluate
from oxsim.perf import AREA_CATEGORIES, ENERGY_CATEGORIES
from oxsim.reports import (
    CONFIG_COLUMNS,
    CSV_COLUMNS,
    SCHEMA_VERSION,
    dump_json,
    flat_row,
    json_payload,
)


def _report(toy_layers, tech_calibrated):
    cfg = ChipConfig(rows=16, cols=8, cores=2, batch=2)
    return cfg, evaluate(toy_layers, cfg, tech_calibrated)


def test_flat_row_fills_every_column(toy_layers, tech_calibrated):
    cfg, report = _report(toy_layers, tech_calibrated)
    assert len(flat_row(cfg, report)) == len(CSV_COLUMNS)
    row = dict(zip(CSV_COLUMNS, flat_row(cfg, report)))
    assert list(row) == CSV_COLUMNS  # same names, same order, nothing blank
    assert all(row[c] is not None for c in CSV_COLUMNS)
    assert row["schema_version"] == SCHEMA_VERSION


def test_flat_row_puts_each_value_under_its_column(toy_layers, tech_calibrated):
    # flat_row lists its values by position; each must land under its own name
    cfg, report = _report(toy_layers, tech_calibrated)
    c, tl, budget = report.stats.total, report.timeline, report.budget
    want = {"schema_version": SCHEMA_VERSION,
            **{name: getattr(cfg, name) for name in CONFIG_COLUMNS},
            "ips": report.ips, "ips_per_w": report.ips_per_w, "power_w": report.power_w,
            "area_mm2": report.area_mm2, "energy_total_j": report.energy_total_j,
            "t_total_s": tl.t_total, "t_compute_s": tl.t_compute,
            "t_program_exposed_s": tl.t_program_exposed,
            **{name: getattr(c, name) for name in (
                "compute_cycles", "programming_events", "cells_programmed", "sram_read_bits",
                "sram_write_bits", "dram_read_bits", "dram_write_bits")},
            "laser_wallplug_power_w": budget.laser_wallplug_power_w,
            "worst_path_db": budget.worst_path_db,
            **{f"energy_{k}_j": report.energy_j[k] for k in ENERGY_CATEGORIES},
            **{f"power_{k}_w": report.power_by_w[k] for k in ENERGY_CATEGORIES},
            **{f"area_{k}_mm2": report.area_by_mm2[k] for k in AREA_CATEGORIES}}
    row = dict(zip(CSV_COLUMNS, flat_row(cfg, report)))
    assert list(row) == list(want)
    for name, value in want.items():
        assert row[name] == value and type(row[name]) is type(value), name


def test_json_payload_round_trips(toy_layers, tech_calibrated):
    cfg, report = _report(toy_layers, tech_calibrated)
    manifest = {"tool_version": "x", "command": "evaluate", "config_hash": "h",
                "profile": "paper-consistent", "topology_hash": "t",
                "timestamp": "1970-01-01T00:00:00Z"}
    payload = json_payload(cfg, report, manifest)
    text = dump_json(payload)
    back = json.loads(text)
    assert back["schema_version"] == SCHEMA_VERSION
    assert back["config"]["rows"] == 16
    assert len(back["per_layer"]) == len(toy_layers)
    assert set(back["energy_breakdown_j"]) == set(report.energy_j)
    # serialization is stable: same payload, same bytes
    assert dump_json(json.loads(text)) == text


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_dump_json_rejects_non_finite_numbers(value):
    # json.dumps would write Infinity/NaN, which is not JSON
    with pytest.raises(ValueError):
        dump_json({"metrics": {"area_mm2": value}})
