"""Spans around oxsim's public functions, recorded from outside the package.

`Tracer.installed()` replaces each function in `BOUNDARIES` with a wrapper
in the namespace of the module that calls it (oxsim modules import names
with `from .x import y`, so the caller's binding is the one to replace) and
restores the originals on exit. Nothing under `src/` is edited.

A span is (name, start, end, parent index, observation). Spans stay in
memory; `layer_metrics` folds one traced pass into the per-layer figures.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable


def _layers_mapped(stats) -> int:
    return len(stats.layers)


def _sram_plan(plan) -> tuple[int, int]:
    return len({c["dram_bits"] for c in plan.candidates}), len(plan.candidates)


def _candidates(result) -> int:
    return result.total_candidates


# (module whose global is replaced, attribute, span name, observer of the result)
BOUNDARIES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("oxsim.cli", "load_run_inputs", "cli.load_run_inputs", None),
    ("oxsim.cli", "default_tech_params", "tech.params", None),
    ("oxsim.cli", "get_profile", "tech.params", None),
    ("oxsim.cli", "apply_profile", "tech.params", None),
    ("oxsim.cli", "apply_overrides", "tech.params", None),
    # cli imports parse_topology inside the function, from the module.
    ("oxsim.workload", "parse_topology", "workload.parse_topology", None),
    ("oxsim.cli", "evaluate", "perf.evaluate", None),
    ("oxsim.cli", "sweep", "dse.sweep", None),
    ("oxsim.cli", "optimize", "dse.optimize", _candidates),
    ("oxsim.cli", "flat_row", "reports.flat_row", None),
    ("oxsim.cli", "json_payload", "reports.json_payload", None),
    ("oxsim.cli", "dump_json", "reports.dump_json", None),
    ("oxsim.dse", "evaluate", "perf.evaluate", None),
    ("oxsim.dse", "find_min_hiding_batch", "dse.find_min_hiding_batch", None),
    ("oxsim.dse", "size_sram", "dse.size_sram", _sram_plan),
    ("oxsim.dse", "pick_array_size", "dse.pick_array_size", None),
    ("oxsim.dse", "network_runtime", "workload.network_runtime", _layers_mapped),
    ("oxsim.dse", "timeline_dual_core", "perf.timeline", None),
    ("oxsim.dse", "area_model", "perf.energy_area", None),
    ("oxsim.perf", "network_runtime", "workload.network_runtime", _layers_mapped),
    ("oxsim.perf", "make_timeline", "perf.timeline", None),
    ("oxsim.perf", "loss_budget", "photonics.loss_budget", None),
    ("oxsim.perf", "energy_model", "perf.energy_area", None),
    ("oxsim.perf", "area_model", "perf.energy_area", None),
)

# Per-layer metric -> unit. Every name is reported on every workload.
LAYER_METRICS: dict[str, str] = {
    "workload.network_runtime_s": "s",
    "workload.network_runtime_calls": "count",
    "workload.us_per_layer_mapped": "us",
    "workload.parse_topology_s": "s",
    "perf.evaluate_self_s": "s",
    "perf.timeline_s": "s",
    "perf.energy_area_s": "s",
    "photonics.loss_budget_s": "s",
    "dse.size_sram_s": "s",
    "dse.size_sram_runtime_calls": "count",
    "dse.size_sram_useful_ratio": "ratio",
    "dse.find_min_hiding_batch_s": "s",
    "dse.pick_array_size_s": "s",
    "dse.candidates_evaluated": "count",
    "dse.sweep_self_s": "s",
    "reports.flat_row_s": "s",
    "reports.json_payload_s": "s",
    "reports.dump_json_s": "s",
    "cli.load_run_inputs_s": "s",
    "tech.params_s": "s",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Records nested spans of the wrapped calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if observe is not None:
                span[4] = observe(result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for module_name, attr, span_name, observe in BOUNDARIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, observe))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)


def self_times(spans: list[list[Any]]) -> tuple[dict[str, float], dict[str, float], Counter]:
    """Inclusive time, self time (minus direct child spans) and calls, by span name."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        inclusive[name] += end - start
        own[name] += end - start - covered[i]
        calls[name] += 1
    return inclusive, own, calls


def layer_metrics(spans: list[list[Any]]) -> dict[str, float]:
    """Per-layer figures for one traced pass (all but the cli/trace totals)."""
    inclusive, own, calls = self_times(spans)
    runtime = [s for s in spans if s[0] == "workload.network_runtime"]
    layers_mapped = sum(s[4] for s in runtime)
    plans = [s[4] for s in spans if s[0] == "dse.size_sram"]
    levels = sum(p[0] for p in plans)
    scanned = sum(p[1] for p in plans)
    in_sram = sum(1 for s in runtime if s[3] >= 0 and spans[s[3]][0] == "dse.size_sram")
    runtime_s = inclusive["workload.network_runtime"]
    return {
        "workload.network_runtime_s": runtime_s,
        "workload.network_runtime_calls": calls["workload.network_runtime"],
        "workload.us_per_layer_mapped": 1e6 * runtime_s / layers_mapped if layers_mapped else 0.0,
        "workload.parse_topology_s": inclusive["workload.parse_topology"],
        "perf.evaluate_self_s": own["perf.evaluate"],
        "perf.timeline_s": inclusive["perf.timeline"],
        "perf.energy_area_s": inclusive["perf.energy_area"],
        "photonics.loss_budget_s": inclusive["photonics.loss_budget"],
        "dse.size_sram_s": inclusive["dse.size_sram"],
        "dse.size_sram_runtime_calls": in_sram,
        "dse.size_sram_useful_ratio": levels / scanned if scanned else 0.0,
        "dse.find_min_hiding_batch_s": inclusive["dse.find_min_hiding_batch"],
        "dse.pick_array_size_s": inclusive["dse.pick_array_size"],
        "dse.candidates_evaluated": sum(s[4] for s in spans if s[0] == "dse.optimize"),
        "dse.sweep_self_s": own["dse.sweep"],
        "reports.flat_row_s": inclusive["reports.flat_row"],
        "reports.json_payload_s": inclusive["reports.json_payload"],
        "reports.dump_json_s": inclusive["reports.dump_json"],
        "cli.load_run_inputs_s": inclusive["cli.load_run_inputs"],
        "tech.params_s": inclusive["tech.params"],
        "cli.self_s": own["cli.main"],
    }
