import gc
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oxsim import (
    ChipConfig,
    apply_profile,
    default_tech_params,
    evaluate,
    get_profile,
    load_topology,
)
from oxsim.perf import AREA_CATEGORIES, ENERGY_CATEGORIES, area_model, energy_model
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


# drawn through a lambda, so that the fields not named keep their defaults
_CONFIGS = st.builds(lambda **fields: ChipConfig(**fields),
                     rows=st.integers(1, 512), cols=st.integers(1, 512),
                     cores=st.sampled_from([1, 2]), batch=st.integers(1, 512),
                     b_in=st.integers(1, 16), b_out=st.integers(1, 16),
                     sram_input_mb=st.floats(1e-3, 1e4))


@pytest.mark.parametrize("profile", ["paper-default", "paper-consistent"])
@settings(max_examples=50, deadline=None)
@given(topology=st.sampled_from(["toy3", "resnet50_v15"]), cfg=_CONFIGS)
def test_breakdowns_are_keyed_in_category_order(profile, topology, cfg):
    # flat_row reads the breakdowns' values in their own order, under columns
    # named in category order
    tech = apply_profile(default_tech_params(), get_profile(profile))
    report = evaluate(load_topology(topology), cfg, tech)
    energy = energy_model(report.stats, report.timeline, cfg, tech, report.budget)
    assert tuple(energy) == tuple(report.energy_j) == ENERGY_CATEGORIES
    assert tuple(report.power_by_w) == ENERGY_CATEGORIES
    assert tuple(area_model(cfg, tech)) == tuple(report.area_by_mm2) == AREA_CATEGORIES


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


@pytest.mark.parametrize("payload", [
    {"a": {1, 2}},
    {"a": {"b": 1, "c": b"x"}},
    {"rows": [{"a": 1}, {"b": object()}]},
    {"a": [{"b": [1, frozenset()]}, 2]},
], ids=["set", "bytes-in-a-flat-dict", "object-in-a-row", "frozenset-deep"])
def test_dump_json_raises_the_type_error_of_json_dumps(payload):
    # the C encoder gets a `default` that raises what `json.JSONEncoder.default` raises
    with pytest.raises(TypeError) as want:
        _reference(payload)
    with pytest.raises(TypeError) as got:
        dump_json(payload)
    assert str(got.value) == str(want.value)


def test_dump_json_writes_a_payload_mended_after_a_failed_write():
    # the encoders outlive a call; a failed one must not leave the payload's
    # containers marked as being encoded, which would read as a cycle
    row = {"b": object()}
    payload = {"rows": [{"a": 1}, row], "nested": {"c": [row]}}
    with pytest.raises(TypeError):
        dump_json(payload)
    row["b"] = 2
    assert dump_json(payload) == _reference(payload)


def test_dump_json_leaves_no_cyclic_garbage():
    # a CLI process runs with the collector off, so garbage that only a
    # collection frees would stay until exit
    payload = {"rows": [{"a": 1.5, "b": "x"}, {"a": 2, "b": None}],
               "nested": {"c": [1, [2, {"d": True}]], "e": {}}}
    dump_json(payload)  # builds the encoders of every depth it needs
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        counts = []
        for _ in range(3):
            for _ in range(50):
                dump_json(payload)
            counts.append(len(gc.get_objects()))
        assert counts == [counts[0]] * 3
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def _reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# str keys and values with escapes, non-ASCII and the text that ends a row of a
# list of flat dicts; scalars at the float and int extremes
_TEXT = st.text() | st.sampled_from(["", "caf\u00e9", "\u2603\U0001f600", "\"\\\n\t\x00",
                                      "},\n    {", "}, {"])
_SCALARS = (st.none() | st.booleans() | _TEXT
            | st.integers(-2**100, 2**100)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]))
_FLAT_DICTS = st.dictionaries(_TEXT, _SCALARS, max_size=4)
_ROWS = st.lists(st.dictionaries(_TEXT, _SCALARS, min_size=1, max_size=4), max_size=4)
_VALUES = st.recursive(
    _SCALARS | _FLAT_DICTS | _ROWS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=20)
_PAYLOADS = st.dictionaries(_TEXT, _VALUES, max_size=5)


@settings(max_examples=200, deadline=None)
@given(_PAYLOADS)
def test_dump_json_writes_the_bytes_of_indented_json_dumps(payload):
    assert dump_json(payload) == _reference(payload)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_dump_json_rejects_a_non_finite_float_anywhere(data, bad):
    # put `bad` at a drawn place in a drawn payload: as a dict value, or a list item
    value = bad
    for _ in range(data.draw(st.integers(0, 3))):
        if data.draw(st.booleans()):
            value = {**data.draw(_FLAT_DICTS), data.draw(_TEXT): value}
        else:
            items = data.draw(st.lists(_SCALARS | _FLAT_DICTS, max_size=3))
            items.insert(data.draw(st.integers(0, len(items))), value)
            value = items
    payload = {**data.draw(_PAYLOADS), data.draw(_TEXT): value}
    with pytest.raises(ValueError):
        _reference(payload)
    with pytest.raises(ValueError):
        dump_json(payload)
