"""Design-space sweeps and the three-step configuration optimizer.

The optimizer follows the observed trends: (1) smallest batch whose
dual-core timeline leaves essentially no programming time exposed, (2) as
much input SRAM as the chip-area cap allows, (3) the array size with the
best IPS/W, preferring the largest array among near-ties. Because a larger
array shortens per-tile compute, batch hiding is re-checked once after the
array is chosen.

`sweep` and `size_sram` score many configs that differ in a few fields and
run each stage once per distinct input (`_runtime_memo` for the mapping);
their results equal evaluating every point on its own.
"""
from __future__ import annotations

import itertools
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field

from . import perf
from .errors import ConfigError, EvaluationError, InfeasibleError
from .perf import PerfReport, Timeline, area_model, evaluate, roll_up, timeline_dual_core
from .workload import (
    MB_BITS,
    ChipConfig,
    RuntimeStats,
    network_runtime,
    residency_breakpoints,
)


@dataclass(frozen=True)
class SweepGrid:
    """Axis candidates swept against a fixed template config.

    An axis left as None is not swept; one given must list at least one value.
    """

    template: ChipConfig
    rows: tuple[int, ...] | None = None
    cols: tuple[int, ...] | None = None
    batch: tuple[int, ...] | None = None
    input_sram_mb: tuple[float, ...] | None = None
    cores: tuple[int, ...] | None = None

    # (axis field, the ChipConfig field its values set)
    _AXES = (("rows", "rows"), ("cols", "cols"), ("batch", "batch"),
             ("input_sram_mb", "sram_input_mb"), ("cores", "cores"))

    def __post_init__(self) -> None:
        # Every ChipConfig check reads one field, so a value that passes on
        # the template passes at every grid point.
        for key, name in self._AXES:
            values = getattr(self, key)
            if values is None:
                continue
            if not values:
                raise ConfigError(f"{key} is given but lists no values")
            for v in values:
                try:
                    self.template.with_(**{name: v})
                except ConfigError as exc:
                    raise ConfigError(f"{key} = {v}: {exc}") from exc

    def axes(self) -> list[tuple[str, tuple]]:
        return [(name, getattr(self, key)) for key, name in self._AXES
                if getattr(self, key) is not None]

    def configs(self) -> list[ChipConfig]:
        axes = self.axes()
        if not axes:
            return [self.template]
        names = [name for name, _ in axes]
        out = []
        for combo in itertools.product(*(vals for _, vals in axes)):
            out.append(self.template.with_(**dict(zip(names, combo))))
        return out


def _runtime_memo(layers):
    """`runtime(cfg, input_sram_mb)`: `network_runtime` of `cfg` with
    `input_sram_mb` of input SRAM, mapped once per distinct mapping input.

    Besides input SRAM, the mapping reads the array, the batch and the bit
    widths. Capacity enters it only through the residency tests against the
    layers' batched ifmap and output sizes (`residency_breakpoints`), so
    configs that agree on those fields and on `bisect_right(breakpoints,
    capacity)` get identical counts. The first such config is mapped (its
    ChipConfig is built only then) and the rest share its `RuntimeStats`.
    """
    breakpoints: dict[tuple[int, int, int], list[int]] = {}
    memo: dict[tuple, RuntimeStats] = {}

    def runtime(cfg: ChipConfig, input_sram_mb: float) -> RuntimeStats:
        io = (cfg.batch, cfg.b_in, cfg.b_out)
        if io not in breakpoints:
            breakpoints[io] = residency_breakpoints(layers, cfg)
        key = (cfg.rows, cfg.cols, cfg.b_w, cfg.b_acc, *io,
               bisect_right(breakpoints[io], input_sram_mb * MB_BITS))
        if key not in memo:
            memo[key] = network_runtime(layers, cfg.with_(sram_input_mb=input_sram_mb))
        return memo[key]

    return runtime


def sweep(grid: SweepGrid, layers, tech) -> list[tuple[ChipConfig, PerfReport]]:
    """Evaluate the full Cartesian grid in deterministic (lexicographic) order.

    Every report equals `evaluate(layers, cfg, tech)` at its point, but the
    network is mapped once per (array, batch, residency pattern) through
    `_runtime_memo`, and the timeline, which reads the tile streams, the core
    count and the sweep's fixed clock and technology, once per (array, batch,
    cores). Points share those objects; only `roll_up` runs per point.
    """
    runtime = _runtime_memo(layers)
    timelines: dict[tuple[int, int, int, int], Timeline] = {}
    results = []
    for cfg in grid.configs():
        try:
            stats = runtime(cfg, cfg.sram_input_mb)
            shape = (cfg.rows, cfg.cols, cfg.batch, cfg.cores)
            if shape not in timelines:
                # looked up on the module, so a wrapper installed on
                # perf.make_timeline (a tracer) sees the sweep's timelines too
                timelines[shape] = perf.make_timeline(stats, cfg, tech)
            results.append((cfg, roll_up(stats, timelines[shape], cfg, tech)))
        except Exception as exc:
            raise EvaluationError(
                f"sweep evaluation failed at rows={cfg.rows} cols={cfg.cols} "
                f"batch={cfg.batch} input_sram_mb={cfg.sram_input_mb} "
                f"cores={cfg.cores}: {exc}"
            ) from exc
    return results


def find_min_hiding_batch(layers, cfg_template: ChipConfig, tech,
                          batch_candidates, hiding_eps: float = 0.01,
                          _audit: list | None = None) -> int:
    """Smallest batch whose dual-core exposed programming time is <= eps of total."""
    candidates = list(batch_candidates)
    if not candidates:
        raise ValueError("batch candidate list is empty")
    if sorted(candidates) != candidates:
        raise ValueError("batch candidates must be ascending")
    best = None
    for b in candidates:
        cfg = cfg_template.with_(batch=b, cores=2)
        tl = timeline_dual_core(network_runtime(layers, cfg), cfg, tech)
        hidden = tl.t_program_exposed <= hiding_eps * tl.t_total
        if _audit is not None:
            _audit.append({
                "batch": b,
                "t_total_s": tl.t_total,
                "t_program_exposed_s": tl.t_program_exposed,
                "hidden": hidden,
            })
        if hidden and best is None:
            best = b
    if best is None:
        warnings.warn(
            f"no candidate batch hides programming within {hiding_eps:.0%} of "
            f"total time; falling back to the largest ({candidates[-1]})"
        )
        best = candidates[-1]
    return best


@dataclass(frozen=True)
class SramPlan:
    """Outcome of input-SRAM sizing under an area cap."""

    input_mb: float
    critical_mb: float | None
    candidates: tuple[dict, ...]


def size_sram(layers, cfg_template: ChipConfig, tech, area_cap_mm2: float,
              step_mb: float = 0.25) -> SramPlan:
    """Largest input SRAM (on a step grid) that keeps total area under the cap.

    Also reports the critical input SRAM size: the smallest grid size at
    which total DRAM traffic bottoms out (growing SRAM further buys nothing).

    Every grid size is a candidate with its area and DRAM traffic, but the
    network is mapped only once per residency pattern (`_runtime_memo`): the
    first candidate with each pattern is mapped and the rest reuse its
    `dram_bits`. The result equals a scan that maps every candidate.
    """
    if step_mb <= 0:
        raise ValueError("step_mb must be > 0")
    first = area_model(cfg_template.with_(sram_input_mb=step_mb), tech)
    fixed = sum(first.values()) - step_mb * tech.a_sram_per_mb
    headroom = area_cap_mm2 - fixed
    if headroom < step_mb * tech.a_sram_per_mb - 1e-9:
        raise InfeasibleError(
            f"sram step: area cap {area_cap_mm2} mm2 leaves {headroom:.3f} mm2 for "
            f"input SRAM; even {step_mb} MB does not fit"
        )
    max_units = int((headroom / tech.a_sram_per_mb + 1e-9) / step_mb)

    # Only the SRAM term of `area_model` changes between candidates. Adding
    # the banks in `total_sram_mb`'s order and summing the same six terms in
    # the same order keeps each area equal to sum(area_model(cfg, tech).values())
    # without building a ChipConfig.
    _, *other_areas = first.values()
    t = cfg_template
    runtime = _runtime_memo(layers)
    floor_bits = runtime(t, 1e9).total.dram_bits
    candidates = []
    critical: float | None = None
    chosen = step_mb
    for unit in range(1, max_units + 1):
        mb = unit * step_mb
        sram_area = (mb + t.sram_filter_mb + t.sram_output_mb + t.sram_acc_mb) * tech.a_sram_per_mb
        area = sum((sram_area, *other_areas))
        traffic = runtime(t, mb).total.dram_bits
        candidates.append({"input_sram_mb": mb, "area_mm2": area, "dram_bits": traffic})
        chosen = mb
        if critical is None and traffic <= floor_bits:
            critical = mb
    return SramPlan(input_mb=chosen, critical_mb=critical, candidates=tuple(candidates))


def pick_array_size(layers, cfg_template: ChipConfig, tech, size_candidates,
                    tie_tol: float = 0.02,
                    _audit: list | None = None) -> tuple[int, int]:
    """Array size maximizing IPS/W; near-ties resolve to the largest array.

    A candidate whose evaluation fails (e.g. a loss budget that overflows) is
    unbuildable: its audit row carries the reason under "infeasible" and it
    is not scored. Only when no candidate is buildable does the step fail.
    """
    candidates = sorted(set((int(r), int(c)) for r, c in size_candidates))
    if not candidates:
        raise ValueError("array size candidate list is empty")
    scored = []
    failures = []
    for r, c in candidates:
        cfg = cfg_template.with_(rows=r, cols=c)
        try:
            report = evaluate(layers, cfg, tech)
        except EvaluationError as exc:
            failures.append(str(exc))
            if _audit is not None:
                _audit.append({"rows": r, "cols": c, "infeasible": str(exc)})
            continue
        scored.append(((r, c), report.ips_per_w, report.ips))
        if _audit is not None:
            _audit.append({"rows": r, "cols": c, "ips_per_w": report.ips_per_w,
                           "ips": report.ips})
    if not scored:
        raise InfeasibleError(f"array step: none of the {len(candidates)} candidate "
                              f"arrays is buildable; the first fails with: {failures[0]}")
    best_ipsw = max(s[1] for s in scored)
    tied = [s for s in scored if s[1] >= best_ipsw * (1.0 - tie_tol)]
    tied.sort(key=lambda s: (s[0][0] * s[0][1], s[0][0], s[0][1]), reverse=True)
    return tied[0][0]


@dataclass(frozen=True)
class Constraints:
    """Inputs to the optimizer; defaults mirror the published sweep axes."""

    area_cap_mm2: float = 100.0
    batch_candidates: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    array_rows: tuple[int, ...] = (32, 64, 128, 256, 512)
    array_cols: tuple[int, ...] = (32, 64, 128, 256, 512)
    sram_step_mb: float = 0.25
    hiding_eps: float = 0.01
    tie_tol: float = 0.02
    template: ChipConfig = field(default_factory=ChipConfig)

    def __post_init__(self) -> None:
        b = self.batch_candidates
        if not b or b[0] < 1 or any(x >= y for x, y in zip(b, b[1:])):
            raise ConfigError(f"batch_candidates must be non-empty, >= 1 and strictly "
                              f"ascending, got {list(b)}")
        for name in ("array_rows", "array_cols"):
            sizes = getattr(self, name)
            if not sizes or min(sizes) < 1:
                raise ConfigError(f"{name} must list at least one size, all >= 1, "
                                  f"got {list(sizes)}")
        for name in ("area_cap_mm2", "sram_step_mb"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("hiding_eps", "tie_tol"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")

    def array_candidates(self) -> list[tuple[int, int]]:
        return [(r, c) for r in self.array_rows for c in self.array_cols]


@dataclass(frozen=True)
class StepRecord:
    step: str
    candidates: tuple[dict, ...]
    chosen: dict


@dataclass(frozen=True)
class OptimizationResult:
    config: ChipConfig
    report: PerfReport
    steps: tuple[StepRecord, ...]

    @property
    def total_candidates(self) -> int:
        return sum(len(s.candidates) for s in self.steps)


def optimize(layers, tech, constraints: Constraints) -> OptimizationResult:
    """Batch -> SRAM -> array size, with one hiding re-check after the array step."""
    cons = constraints
    cfg = cons.template
    steps: list[StepRecord] = []

    def batch_step(template: ChipConfig) -> int:
        audit: list[dict] = []
        b = find_min_hiding_batch(layers, template, tech, cons.batch_candidates,
                                  cons.hiding_eps, _audit=audit)
        steps.append(StepRecord("batch", tuple(audit), {"batch": b}))
        return b

    batch = batch_step(cfg)
    cfg = cfg.with_(batch=batch, cores=2)

    plan = size_sram(layers, cfg, tech, cons.area_cap_mm2, cons.sram_step_mb)
    steps.append(StepRecord("sram", plan.candidates,
                            {"input_sram_mb": plan.input_mb,
                             "critical_input_sram_mb": plan.critical_mb}))
    cfg = cfg.with_(sram_input_mb=plan.input_mb)

    def array_step(template: ChipConfig) -> tuple[int, int]:
        audit: list[dict] = []
        rows, cols = pick_array_size(layers, template, tech, cons.array_candidates(),
                                     cons.tie_tol, _audit=audit)
        steps.append(StepRecord("array", tuple(audit), {"rows": rows, "cols": cols}))
        return rows, cols

    rows, cols = array_step(cfg)
    cfg = cfg.with_(rows=rows, cols=cols)

    # The array step changes the premises of the first two: a bigger array
    # shrinks per-tile compute (can re-expose programming) and adds
    # peripheral area (can blow the cap the SRAM was sized against).
    # Re-run the offended step once against the final array.
    tl = timeline_dual_core(network_runtime(layers, cfg), cfg, tech)
    if tl.t_program_exposed > cons.hiding_eps * tl.t_total:
        batch = batch_step(cfg)
        cfg = cfg.with_(batch=batch)
    if sum(area_model(cfg, tech).values()) > cons.area_cap_mm2 + 1e-9:
        plan = size_sram(layers, cfg, tech, cons.area_cap_mm2, cons.sram_step_mb)
        steps.append(StepRecord("sram", plan.candidates,
                                {"input_sram_mb": plan.input_mb,
                                 "critical_input_sram_mb": plan.critical_mb}))
        cfg = cfg.with_(sram_input_mb=plan.input_mb)
        rows, cols = array_step(cfg)
        cfg = cfg.with_(rows=rows, cols=cols)

    report = evaluate(layers, cfg, tech)
    if report.area_mm2 > cons.area_cap_mm2 + 1e-9:
        raise InfeasibleError(
            f"array step: chosen config measures {report.area_mm2:.2f} mm2, over "
            f"the {cons.area_cap_mm2} mm2 cap"
        )
    return OptimizationResult(config=cfg, report=report, steps=tuple(steps))
