import json

import pytest

from oxsim import ChipConfig, evaluate
from oxsim.reports import CSV_COLUMNS, SCHEMA_VERSION, dump_json, flat_row, json_payload


def _report(toy_layers, tech_calibrated):
    cfg = ChipConfig(rows=16, cols=8, cores=2, batch=2)
    return cfg, evaluate(toy_layers, cfg, tech_calibrated)


def test_flat_row_fills_every_column(toy_layers, tech_calibrated):
    cfg, report = _report(toy_layers, tech_calibrated)
    row = flat_row(cfg, report)
    assert list(row) == CSV_COLUMNS  # same names, same order, nothing blank
    assert all(row[c] is not None for c in CSV_COLUMNS)
    assert row["schema_version"] == SCHEMA_VERSION


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
