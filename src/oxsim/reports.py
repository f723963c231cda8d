"""Every output layout: report.json, the flat CSV, the optimize audit, RunManifest.

Keys, columns and manifest fields are versioned via SCHEMA_VERSION; any change
to them must bump it.
"""
from .errors import Record
from .perf import AREA_CATEGORIES, ENERGY_CATEGORIES, PerfReport
from .workload import ChipConfig

SCHEMA_VERSION = 2

CONFIG_COLUMNS = list(ChipConfig._fields)

METRIC_COLUMNS = [
    "ips", "ips_per_w", "power_w", "area_mm2", "energy_total_j",
    "t_total_s", "t_compute_s", "t_program_exposed_s",
    "compute_cycles", "programming_events", "cells_programmed",
    "sram_read_bits", "sram_write_bits", "dram_read_bits", "dram_write_bits",
    "laser_wallplug_power_w", "worst_path_db",
]

# the RuntimeStats columns each report.json `per_layer` entry carries, besides its name
PER_LAYER_COLUMNS = ("row_tiles", "col_tiles", "programming_events", "compute_cycles",
                     "ifmap_resident", "output_forwarded", "dram_read_bits", "dram_write_bits")


class RunManifest(Record):
    tool_version: str
    command: str
    config_hash: str
    profile: str
    topology_hash: str
    timestamp: str


CSV_COLUMNS = (
    ["schema_version"]
    + CONFIG_COLUMNS
    + METRIC_COLUMNS
    + [f"energy_{c}_j" for c in ENERGY_CATEGORIES]
    + [f"power_{c}_w" for c in ENERGY_CATEGORIES]
    + [f"area_{c}_mm2" for c in AREA_CATEGORIES]
)


def flat_row(cfg: ChipConfig, report: PerfReport) -> list:
    """One CSV row in `CSV_COLUMNS` order: the config, every scalar of the report, and
    the breakdowns' values, which `energy_model`, `area_model` and `roll_up` key in order."""
    c, tl, budget = report.stats.total, report.timeline, report.budget
    return [SCHEMA_VERSION, *cfg,
            report.ips, report.ips_per_w, report.power_w, report.area_mm2,
            report.energy_total_j, tl.t_total, tl.t_compute, tl.t_program_exposed,
            c.compute_cycles, c.programming_events, c.cells_programmed,
            c.sram_read_bits, c.sram_write_bits, c.dram_read_bits, c.dram_write_bits,
            budget.laser_wallplug_power_w, budget.worst_path_db,
            *report.energy_j.values(), *report.power_by_w.values(),
            *report.area_by_mm2.values()]


def csv_text(rows: list[list], manifest: RunManifest) -> str:
    """The manifest as `# key = value` lines, the header, then `rows` (flat_rows)."""
    lines = [f"# {k} = {v}" for k, v in sorted(manifest._asdict().items())]
    lines.append(",".join(CSV_COLUMNS))
    # Each distinct non-zero float is formatted once; zeros and ints are not
    # memoised, as 0.0 == -0.0 and 1 == 1.0 compare equal but print differently.
    texts = {}
    lines.extend(",".join([texts.get(v) or texts.setdefault(v, str(v))
                           if type(v) is float and v else str(v) for v in row])
                 for row in rows)
    return "\n".join(lines) + "\n"


def json_payload(cfg: ChipConfig, report: PerfReport, manifest: dict) -> dict:
    """Full nested report for report.json."""
    tl, stats = report.timeline, report.stats
    return {
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest,
        "config": cfg._asdict(),
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
        "loss_budget": report.budget._asdict(),
        "runtime_totals": {
            "compute_cycles": report.stats.total.compute_cycles,
            "programming_events": report.stats.total.programming_events,
            "cells_programmed": report.stats.total.cells_programmed,
            "sram_read_bits": report.stats.total.sram_read_bits,
            "sram_write_bits": report.stats.total.sram_write_bits,
            "dram_read_bits": report.stats.total.dram_read_bits,
            "dram_write_bits": report.stats.total.dram_write_bits,
        },
        "per_layer": [dict(zip(("name", *PER_LAYER_COLUMNS), row))
                      for row in zip(stats.layers.names,
                                     *[getattr(stats, name) for name in PER_LAYER_COLUMNS])],
    }


def audit_payload(result, manifest: RunManifest) -> dict:
    """The optimize audit of an `OptimizationResult`; reads its config, report, steps."""
    return {
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest._asdict(),
        "chosen_config": result.config._asdict(),
        "metrics": {
            "ips": result.report.ips,
            "ips_per_w": result.report.ips_per_w,
            "power_w": result.report.power_w,
            "area_mm2": result.report.area_mm2,
        },
        "steps": [
            {"step": s.step, "candidates": list(s.candidates), "chosen": s.chosen}
            for s in result.steps
        ],
    }


def dump_json(payload: dict) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\\n"`, written
    without loading `json` (`oxsim.jsontext`)."""
    from .jsontext import dumps  # here, so that a sweep never compiles it

    return dumps(payload)
