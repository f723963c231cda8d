"""The three-step configuration optimizer.

The optimizer follows the observed trends: (1) smallest batch whose
dual-core timeline leaves essentially no programming time exposed, (2) as
much input SRAM as the chip-area cap allows, (3) the array size with the
best IPS/W, preferring the largest array among near-ties. Each step is
`step(stages, template, cons) -> StepRecord`; `optimize` re-runs a step
while the chosen array breaks its premise, for at most `MAX_PASSES` passes.

`optimize` builds one `perf.Stages` memo, the pipeline `evaluate` and `sweep`
run, and every step scores its configs through it, so every score equals
evaluating its point on its own. A batch step that hides nothing chooses the
largest batch, and its rows all read `"hidden": false`. Only an `oxsim
optimize` process loads this module.
"""
import math
from bisect import bisect_right

from .errors import ConfigError, EvaluationError, InfeasibleError, Record
from .perf import PerfReport, Stages, Timeline, area_model, float_sum
# unused here; perfbench/tracing.py's BOUNDARIES wraps these dse names (--trace 1)
from .perf import evaluate, timeline_dual_core  # noqa: F401
from .workload import MB_BITS, ChipConfig, network_runtime


class Constraints(Record):
    """Inputs to the optimizer, validated only here; defaults mirror the published axes."""

    area_cap_mm2: float = 100.0
    batch_candidates: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    array_rows: tuple[int, ...] = (32, 64, 128, 256, 512)
    array_cols: tuple[int, ...] = (32, 64, 128, 256, 512)
    sram_step_mb: float = 0.25
    hiding_eps: float = 0.01
    tie_tol: float = 0.02
    template: ChipConfig = ChipConfig()

    def _check(self) -> None:
        if not isinstance(self.template, ChipConfig):
            raise ConfigError(f"template must be a ChipConfig, got {type(self.template).__name__}")
        if self.template.cores != 2:
            raise ConfigError(f"template cores must be 2: the optimizer designs a "
                              f"dual-core chip, got cores = {self.template.cores}")
        for name in ("batch_candidates", "array_rows", "array_cols"):
            if not all(isinstance(v, int) and not isinstance(v, bool)
                       for v in getattr(self, name)):
                raise ConfigError(f"{name} must list integers, got {list(getattr(self, name))}")
        b = self.batch_candidates
        if not b or b[0] < 1 or any(x >= y for x, y in zip(b, b[1:])):
            raise ConfigError(f"batch_candidates must be non-empty, >= 1 and strictly "
                              f"ascending, got {list(b)}")
        for name in ("array_rows", "array_cols"):
            sizes = getattr(self, name)
            if not sizes or min(sizes) < 1:
                raise ConfigError(f"{name} must list at least one size, all >= 1, "
                                  f"got {list(sizes)}")
        # NaN fails each range check below; a bool would pass it as 0 or 1
        for name in ("area_cap_mm2", "sram_step_mb"):
            if isinstance(getattr(self, name), bool) or not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("hiding_eps", "tie_tol"):
            if isinstance(getattr(self, name), bool) or not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")

    def array_candidates(self) -> list[tuple[int, int]]:
        return sorted({(r, c) for r in self.array_rows for c in self.array_cols})

    def hides(self, timeline: Timeline) -> bool:
        """Whether `timeline` exposes at most `hiding_eps` of its total as programming."""
        return timeline.t_program_exposed <= self.hiding_eps * timeline.t_total


class StepRecord(Record):
    """One optimizer step: its audit rows, its choice, and the template with it applied."""

    step: str
    candidates: tuple[dict, ...]
    chosen: dict
    config: ChipConfig


def find_min_hiding_batch(stages: Stages, template: ChipConfig, cons: Constraints) -> StepRecord:
    """Smallest batch whose dual-core timeline `cons` hides; the largest if none does."""
    audit = []
    for b in cons.batch_candidates:
        tl = stages.timeline(template.with_(batch=b, cores=2))
        audit.append({
            "batch": b,
            "t_total_s": tl.t_total,
            "t_program_exposed_s": tl.t_program_exposed,
            "hidden": cons.hides(tl),
        })
    best = next((row["batch"] for row in audit if row["hidden"]), cons.batch_candidates[-1])
    return StepRecord("batch", tuple(audit), {"batch": best}, template.with_(batch=best))


MAX_SRAM_STEPS = 100_000  # bound of size_sram's grid scan; the shipped scan has 841 steps


def size_sram(stages: Stages, template: ChipConfig, cons: Constraints) -> StepRecord:
    """Largest input SRAM (on a step grid) that keeps total area under the cap.

    Also reports the critical input SRAM size: the smallest grid size at
    which total DRAM traffic bottoms out at the all-resident mapping's
    (growing SRAM further buys nothing), or None if no grid size reaches it.

    Every grid size is a candidate with its area and DRAM traffic, but the
    network is mapped only where the residency pattern
    (`Network.breakpoints`) changes along the grid: the rest reuse the
    last mapped `dram_bits`. The result equals a scan that maps every
    candidate.
    """
    net, tech = stages.layers, stages.tech
    if tech.a_sram_per_mb == 0:
        raise InfeasibleError("sram step: a_sram_per_mb is 0, so input SRAM takes no area "
                              "and the area cap cannot size it")
    step_mb = cons.sram_step_mb
    first = area_model(template.with_(sram_input_mb=step_mb), tech)
    headroom = cons.area_cap_mm2 - (float_sum(first.values()) - step_mb * tech.a_sram_per_mb)
    units = (headroom / tech.a_sram_per_mb + 1e-9) / step_mb
    if not math.isfinite(units):
        raise InfeasibleError(f"sram step: {headroom:.6g} mm2 of headroom at a_sram_per_mb = "
                              f"{tech.a_sram_per_mb} mm2/MB is not a finite number of "
                              f"{step_mb} MB steps")
    max_units = int(units)
    if max_units < 1:
        raise InfeasibleError(
            f"sram step: area cap {cons.area_cap_mm2} mm2 leaves {headroom:.6g} mm2 for "
            f"input SRAM; even {step_mb} MB does not fit"
        )
    if max_units > MAX_SRAM_STEPS:
        raise InfeasibleError(f"sram step: the area cap allows {max_units:.6g} steps of "
                              f"{step_mb} MB at a_sram_per_mb = {tech.a_sram_per_mb} mm2/MB, "
                              f"more than the {MAX_SRAM_STEPS} the scan visits")

    # Only the SRAM term of `area_model` changes between candidates. Adding
    # the banks in `total_sram_mb`'s order and summing the same six terms in
    # the same order keeps each area equal to
    # float_sum(area_model(cfg, tech).values()) without building a ChipConfig.
    _, *other_areas = first.values()
    t = template
    breakpoints = net.breakpoints(t)
    floor_bits = network_runtime(net, t.with_(sram_input_mb=math.inf)).total.dram_bits
    candidates = []
    critical: float | None = None
    pattern = None
    for unit in range(1, max_units + 1):
        mb = unit * step_mb
        sram_area = (mb + t.sram_filter_mb + t.sram_output_mb + t.sram_acc_mb) * tech.a_sram_per_mb
        level = bisect_right(breakpoints, mb * MB_BITS)
        if level != pattern:
            pattern = level
            traffic = network_runtime(net, t.with_(sram_input_mb=mb)).total.dram_bits
        candidates.append({"input_sram_mb": mb, "area_mm2": float_sum((sram_area, *other_areas)),
                           "dram_bits": traffic})
        if critical is None and traffic <= floor_bits:
            critical = mb
    chosen = max_units * step_mb
    return StepRecord("sram", tuple(candidates),
                      {"input_sram_mb": chosen, "critical_input_sram_mb": critical},
                      template.with_(sram_input_mb=chosen))


def pick_array_size(stages: Stages, template: ChipConfig, cons: Constraints) -> StepRecord:
    """Array size maximizing IPS/W; near-ties resolve to the largest array.

    A candidate whose evaluation fails (e.g. a loss budget that overflows) is
    unbuildable: its audit row carries the reason under "infeasible" and it
    is not scored. Only when no candidate is buildable does the step fail.
    """
    audit, scored = [], []
    for r, c in cons.array_candidates():
        try:
            report = stages.report(template.with_(rows=r, cols=c))
        except EvaluationError as exc:
            audit.append({"rows": r, "cols": c, "infeasible": str(exc)})
            continue
        scored.append(((r, c), report.ips_per_w))
        audit.append({"rows": r, "cols": c, "ips_per_w": report.ips_per_w, "ips": report.ips})
    if not scored:
        raise InfeasibleError(f"array step: none of the {len(audit)} candidate arrays is "
                              f"buildable; the first fails with: {audit[0]['infeasible']}")
    best_ipsw = max(ipsw for _, ipsw in scored)
    tied = [size for size, ipsw in scored if ipsw >= best_ipsw * (1.0 - cons.tie_tol)]
    rows, cols = max(tied, key=lambda s: (s[0] * s[1], s[0], s[1]))
    return StepRecord("array", tuple(audit), {"rows": rows, "cols": cols},
                      template.with_(rows=rows, cols=cols))


class OptimizationResult(Record):
    config: ChipConfig
    report: PerfReport
    steps: tuple[StepRecord, ...]

    @property
    def total_candidates(self) -> int:
        return sum(len(s.candidates) for s in self.steps)


MAX_PASSES = 4  # bound of optimize's re-run loop; the shipped constraints settle in two


def optimize(layers, tech, constraints: Constraints) -> OptimizationResult:
    """Batch -> SRAM -> array size, re-run until the choice meets its premises.

    The array step changes the premises of the first two: a bigger array
    shrinks per-tile compute (can re-expose programming) and adds peripheral
    area (can break the cap the SRAM was sized against). Each pass ends with
    the report of its config: the batch step is queued if that report's
    timeline exposes programming beyond `hiding_eps`, and the SRAM and array
    steps if its area is over the cap. The loop stops when nothing is queued,
    when a pass leaves the config unchanged, or after `MAX_PASSES` passes;
    the last pass's report is the result, and a config still over the cap
    fails.

    Every step and every pass's report read one `Stages` memo.
    """
    cons = constraints
    stages = Stages(layers, tech)
    steps: list[StepRecord] = []
    cfg = cons.template
    # looked up on the module at call time, so a tracer's wrappers see every step
    queue = [find_min_hiding_batch, size_sram, pick_array_size]
    for _ in range(MAX_PASSES):
        start = cfg
        for step in queue:
            steps.append(step(stages, cfg, cons))
            cfg = steps[-1].config
        report = stages.report(cfg)
        over_cap = report.area_mm2 > cons.area_cap_mm2 + 1e-9
        queue = []
        if not cons.hides(report.timeline):
            queue.append(find_min_hiding_batch)
        if over_cap:
            queue += [size_sram, pick_array_size]
        if not queue or cfg == start:
            break

    if over_cap:
        raise InfeasibleError(
            f"array step: chosen config measures {report.area_mm2:.2f} mm2, over "
            f"the {cons.area_cap_mm2} mm2 cap"
        )
    return OptimizationResult(config=cfg, report=report, steps=tuple(steps))
