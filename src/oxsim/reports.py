"""Stable machine-readable report schemas (JSON + flat CSV).

Column names and key layout are versioned via SCHEMA_VERSION; any change to
them must bump it.
"""
from __future__ import annotations

import json
from dataclasses import asdict

from .perf import AREA_CATEGORIES, ENERGY_CATEGORIES, PerfReport
from .workload import ChipConfig

SCHEMA_VERSION = 2

CONFIG_COLUMNS = [
    "rows", "cols", "clock_hz", "cores", "batch",
    "b_in", "b_w", "b_out", "b_acc",
    "sram_input_mb", "sram_filter_mb", "sram_output_mb", "sram_acc_mb",
]

METRIC_COLUMNS = [
    "ips", "ips_per_w", "power_w", "area_mm2", "energy_total_j",
    "t_total_s", "t_compute_s", "t_program_exposed_s",
    "compute_cycles", "programming_events", "cells_programmed",
    "sram_read_bits", "sram_write_bits", "dram_read_bits", "dram_write_bits",
    "laser_wallplug_power_w", "worst_path_db",
]

CSV_COLUMNS = (
    ["schema_version"]
    + CONFIG_COLUMNS
    + METRIC_COLUMNS
    + [f"energy_{c}_j" for c in ENERGY_CATEGORIES]
    + [f"power_{c}_w" for c in ENERGY_CATEGORIES]
    + [f"area_{c}_mm2" for c in AREA_CATEGORIES]
)


def flat_row(cfg: ChipConfig, report: PerfReport) -> dict:
    """One CSV row: config axes plus every scalar the report carries."""
    c = report.stats.total
    row = {"schema_version": SCHEMA_VERSION}
    for name in CONFIG_COLUMNS:
        row[name] = getattr(cfg, name)
    row.update({
        "ips": report.ips,
        "ips_per_w": report.ips_per_w,
        "power_w": report.power_w,
        "area_mm2": report.area_mm2,
        "energy_total_j": report.energy_total_j,
        "t_total_s": report.timeline.t_total,
        "t_compute_s": report.timeline.t_compute,
        "t_program_exposed_s": report.timeline.t_program_exposed,
        "compute_cycles": c.compute_cycles,
        "programming_events": c.programming_events,
        "cells_programmed": c.cells_programmed,
        "sram_read_bits": c.sram_read_bits,
        "sram_write_bits": c.sram_write_bits,
        "dram_read_bits": c.dram_read_bits,
        "dram_write_bits": c.dram_write_bits,
        "laser_wallplug_power_w": report.budget.laser_wallplug_power_w,
        "worst_path_db": report.budget.worst_path_db,
    })
    for cat in ENERGY_CATEGORIES:
        row[f"energy_{cat}_j"] = report.energy_j[cat]
    for cat in ENERGY_CATEGORIES:
        row[f"power_{cat}_w"] = report.power_by_w[cat]
    for cat in AREA_CATEGORIES:
        row[f"area_{cat}_mm2"] = report.area_by_mm2[cat]
    return row


def json_payload(cfg: ChipConfig, report: PerfReport, manifest: dict) -> dict:
    """Full nested report for report.json."""
    tl = report.timeline
    return {
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest,
        "config": asdict(cfg),
        "metrics": {
            "ips": report.ips,
            "ips_per_w": report.ips_per_w,
            "power_w": report.power_w,
            "area_mm2": report.area_mm2,
            "energy_total_j": report.energy_total_j,
            "ips_definition": "batch / full-network batch latency",
        },
        "timeline": {
            "t_total_s": tl.t_total,
            "t_compute_s": tl.t_compute,
            "t_program_exposed_s": tl.t_program_exposed,
            "prog_cycles_per_event": tl.prog_cycles_per_event,
            "total_cycles": tl.total_cycles,
        },
        "energy_breakdown_j": dict(report.energy_j),
        "power_breakdown_w": dict(report.power_by_w),
        "area_breakdown_mm2": dict(report.area_by_mm2),
        "loss_budget": {
            "worst_path_db": report.budget.worst_path_db,
            "crossings_on_path": report.budget.crossings_on_path,
            "waveguide_len_cm": report.budget.waveguide_len_cm,
            "laser_optical_power_w": report.budget.laser_optical_power_w,
            "laser_wallplug_power_w": report.budget.laser_wallplug_power_w,
        },
        "runtime_totals": {
            "compute_cycles": report.stats.total.compute_cycles,
            "programming_events": report.stats.total.programming_events,
            "cells_programmed": report.stats.total.cells_programmed,
            "sram_read_bits": report.stats.total.sram_read_bits,
            "sram_write_bits": report.stats.total.sram_write_bits,
            "dram_read_bits": report.stats.total.dram_read_bits,
            "dram_write_bits": report.stats.total.dram_write_bits,
        },
        "per_layer": [
            {
                "name": lr.layer.name,
                "row_tiles": lr.tiles.row_tiles,
                "col_tiles": lr.tiles.col_tiles,
                "programming_events": lr.tiles.programming_events,
                "compute_cycles": lr.counts.compute_cycles,
                "ifmap_resident": lr.ifmap_resident,
                "output_forwarded": lr.output_forwarded,
                "dram_read_bits": lr.counts.dram_read_bits,
                "dram_write_bits": lr.counts.dram_write_bits,
            }
            for lr in report.stats.layers
        ],
    }


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
