"""Seeded inputs, CLI invocations and output checks for each workload.

A workload pass is a fixed list of `oxsim` CLI invocations (`Op`s) that run
one at a time. `build` writes every input file a pass needs from the seed,
so the same seed always gives the same files and the same argv lists. The
program only sees those generated files; the seed never reaches it.

Every `Op.check` parses the files its invocation wrote, raises `CheckError`
when they are malformed or the simulated result is implausible, and returns
the number of design points the invocation evaluated plus any simulated
figures worth printing.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("sweep-grid", "optimize-flow", "evaluate-cli")

PROFILE = "paper-consistent"

# Published headline point (128x128, dual core, batch 32).
PUBLISHED_IPS = 36382.0
PUBLISHED_POWER_W = 30.0
HEADLINE_TOLERANCE = 0.20

# Copies of configs/headline.ini and configs/optimize_default.ini, so the
# benchmark's inputs stay fixed when the shipped configs change.
HEADLINE_INI = """\
# Published optimal operating point: 128x128 dual core, batch 32,
# 26.3 MB input SRAM + 0.75 MB output/filter/accumulator banks.
[chip]
rows = 128
cols = 128
cores = 2
batch = 32
sram_input_mb = 26.3
sram_filter_mb = 0.75
sram_output_mb = 0.75
sram_acc_mb = 0.75
"""

OPTIMIZE_INI = """\
# Default optimization constraints: ~1 cm^2 chip, power-of-two grids.
[chip]
cores = 2

[constraints]
area_cap_mm2 = {cap}
batch_candidates = 1 2 4 8 16 32 64 128 256
array_rows = 32 64 128 256 512
array_cols = 32 64 128 256 512
sram_step_mb = {step}
hiding_eps = 0.01
tie_tol = 0.02
"""

# Sweep axis pools. Low SRAM sizes with large batches force the ResNet-50
# refetch path (conv2 ifmap alone is 0.14 MB per image); high sizes with
# small batches keep every ifmap resident, so each grid runs both paths.
ARRAY_POOL = (16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512)
SMALL_BATCH_POOL = (1, 2, 4, 8, 16)
LARGE_BATCH_POOL = (32, 64, 128, 256)
LOW_SRAM_POOL = (0.5, 1.0, 2.0, 4.0)
HIGH_SRAM_POOL = (18.5, 26.3, 40.0, 64.0)

EVALUATE_CALLS = 8
GENERATED_TOPOLOGIES = 2
GENERATED_LAYERS = 16


class CheckError(Exception):
    """An invocation's outputs are missing, malformed or implausible."""


@dataclass
class Outcome:
    points: int
    simulated: dict[str, float] = field(default_factory=dict)


@dataclass
class Op:
    """One `python -m oxsim.cli` invocation and what its outputs must hold."""

    argv: list[str]
    outputs: list[Path]
    check: Callable[[list[bytes]], Outcome]


def build(name: str, seed: int, inputs: Path, outputs: Path) -> list[Op]:
    """Write the seeded input files for workload `name`; return one pass."""
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep-grid":
        return _sweep_grid(rng, inputs, outputs)
    if name == "optimize-flow":
        return _optimize_flow(seed, rng, inputs, outputs)
    if name == "evaluate-cli":
        return _evaluate_cli(rng, inputs, outputs)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def _sweep_grid(rng: random.Random, inputs: Path, outputs: Path) -> list[Op]:
    axes = {
        "rows": sorted(rng.sample(ARRAY_POOL, 5)),
        "cols": sorted(rng.sample(ARRAY_POOL, 5)),
        "batch": sorted(rng.sample(SMALL_BATCH_POOL, 2) + rng.sample(LARGE_BATCH_POOL, 2)),
        "input_sram_mb": sorted(rng.sample(LOW_SRAM_POOL, 2) + rng.sample(HIGH_SRAM_POOL, 2)),
        "cores": [1, 2],
    }
    grid = inputs / "grid.ini"
    grid.write_text("[grid]\n" + "".join(
        f"{k} = {' '.join(str(v) for v in vals)}\n" for k, vals in axes.items()))
    expected = set(itertools.product(*(
        [float(v) for v in vals] for vals in axes.values())))
    out = outputs / "sweep.csv"

    def check(blobs: list[bytes]) -> Outcome:
        rows = _csv_rows(blobs[0])
        seen = set()
        for row in rows:
            seen.add(tuple(float(row[k]) for k in
                           ("rows", "cols", "batch", "sram_input_mb", "cores")))
            _positive(row, "ips", "power_w", "area_mm2")
        if len(rows) != len(expected) or seen != expected:
            raise CheckError(f"sweep CSV has {len(rows)} rows; they do not match "
                             f"the {len(expected)}-point grid")
        return Outcome(points=len(rows))

    return [Op(["sweep", "--grid", str(grid), "--topology", "resnet50_v15",
                "--profile", PROFILE, "--out", str(out)], [out], check)]


def _optimize_flow(seed: int, rng: random.Random, inputs: Path, outputs: Path) -> list[Op]:
    # Seed 0 is the shipped configs/optimize_default.ini. Other seeds move the
    # area cap within 80-120 mm^2 and scale the SRAM step with it, so the
    # linear SRAM scan visits about the same number of candidates on every
    # seed and host time per pass compares across seeds.
    if seed == 0:
        cap, step = "100", "0.25"
    else:
        cap_value = round(rng.uniform(80.0, 120.0), 1)
        cap, step = str(cap_value), str(round(0.25 * cap_value / 100.0, 6))
    cons = inputs / "constraints.ini"
    cons.write_text(OPTIMIZE_INI.format(cap=cap, step=step))
    out = outputs / "optimize_audit.json"
    cap_mm2 = float(cap)

    def check(blobs: list[bytes]) -> Outcome:
        audit = _json(blobs[0])
        metrics = audit["metrics"]
        _positive(metrics, "ips", "ips_per_w", "power_w", "area_mm2")
        if metrics["area_mm2"] > cap_mm2 + 1e-9:
            raise CheckError(f"optimize chose {metrics['area_mm2']} mm2, over its "
                             f"{cap_mm2} mm2 cap")
        chosen = audit["chosen_config"]
        if chosen["rows"] not in (32, 64, 128, 256, 512) or chosen["cols"] not in (
                32, 64, 128, 256, 512):
            raise CheckError(f"optimize chose an array outside the candidates: {chosen}")
        points = sum(len(step["candidates"]) for step in audit["steps"])
        return Outcome(points=points, simulated={"opt_ips_per_w": metrics["ips_per_w"]})

    return [Op(["optimize", "--constraints", str(cons), "--topology", "resnet50_v15",
                "--profile", PROFILE, "--out", str(out)], [out], check)]


def _evaluate_cli(rng: random.Random, inputs: Path, outputs: Path) -> list[Op]:
    topologies = ["toy3", "resnet50_v15"]
    for i in range(GENERATED_TOPOLOGIES):
        path = inputs / f"generated_{i}.csv"
        path.write_text(_random_topology(rng))
        topologies.append(str(path))

    configs = [(HEADLINE_INI, "resnet50_v15")]
    for i in range(1, EVALUATE_CALLS):
        chip = {
            "rows": rng.choice(ARRAY_POOL),
            "cols": rng.choice(ARRAY_POOL),
            "cores": 1 + i % 2,
            "batch": rng.choice(SMALL_BATCH_POOL + LARGE_BATCH_POOL),
            "sram_input_mb": rng.choice(LOW_SRAM_POOL + HIGH_SRAM_POOL),
        }
        text = "[chip]\n" + "".join(f"{k} = {v}\n" for k, v in chip.items())
        if i % 2 == 0:
            text += (f"\n[tech]\ne_dram_per_bit = {rng.uniform(20e-12, 120e-12):.4e}\n"
                     f"loss_mmi_crossing_db = {rng.uniform(0.1, 0.4):.3f}\n")
        configs.append((text, topologies[i % len(topologies)]))

    ops = []
    for i, (text, topology) in enumerate(configs):
        cfg = inputs / f"config_{i}.ini"
        cfg.write_text(text)
        out_dir = outputs / f"evaluate_{i}"
        ops.append(Op(
            ["evaluate", "--config", str(cfg), "--topology", topology,
             "--profile", PROFILE, "--out", str(out_dir)],
            [out_dir / "report.json", out_dir / "report.csv"],
            _check_headline if i == 0 else _check_report,
        ))
    return ops


def _random_topology(rng: random.Random) -> str:
    lines = ["name,ifmap_h,ifmap_w,channels,filter_h,filter_w,num_filters,stride"]
    channels = rng.choice((3, 16, 32))
    size = rng.choice((56, 112))
    for i in range(GENERATED_LAYERS):
        filt = rng.choice((1, 3, 3, 5))
        stride = 2 if size > 7 and rng.random() < 0.25 else 1
        filters = rng.choice((16, 32, 64, 128, 256, 512))
        padded = size + filt - 1
        lines.append(f"g{i},{padded},{padded},{channels},{filt},{filt},{filters},{stride}")
        size = (padded - filt) // stride + 1
        channels = filters
    return "\n".join(lines) + "\n"


def _check_report(blobs: list[bytes]) -> Outcome:
    payload = _json(blobs[0])
    metrics = payload["metrics"]
    _positive(metrics, "ips", "ips_per_w", "power_w", "area_mm2", "energy_total_j")
    rows = _csv_rows(blobs[1])
    if len(rows) != 1 or float(rows[0]["ips"]) != metrics["ips"]:
        raise CheckError("report.csv does not hold exactly the report.json point")
    return Outcome(points=1)


def _check_headline(blobs: list[bytes]) -> Outcome:
    outcome = _check_report(blobs)
    metrics = _json(blobs[0])["metrics"]
    ips_err = abs(metrics["ips"] / PUBLISHED_IPS - 1.0)
    power_err = abs(metrics["power_w"] / PUBLISHED_POWER_W - 1.0)
    if ips_err > HEADLINE_TOLERANCE or power_err > HEADLINE_TOLERANCE:
        raise CheckError(
            f"headline point {metrics['ips']:.1f} IPS / {metrics['power_w']:.3f} W is "
            f"more than {HEADLINE_TOLERANCE:.0%} from the published "
            f"{PUBLISHED_IPS:.0f} IPS / {PUBLISHED_POWER_W:.0f} W")
    outcome.simulated = {"ips_err_pct": 100.0 * ips_err, "power_err_pct": 100.0 * power_err}
    return outcome


def _json(blob: bytes) -> dict:
    try:
        return json.loads(blob)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from exc


def _csv_rows(blob: bytes) -> list[dict]:
    text = blob.decode()
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _positive(record: dict, *keys: str) -> None:
    for key in keys:
        try:
            value = float(record[key])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckError(f"output field {key!r} is missing or not a number") from exc
        if not (math.isfinite(value) and value > 0):
            raise CheckError(f"output field {key!r} = {value} is not a positive finite number")
