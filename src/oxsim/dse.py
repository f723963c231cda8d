"""Design-space sweeps and the three-step configuration optimizer.

The optimizer follows the observed trends: (1) smallest batch whose
dual-core timeline leaves essentially no programming time exposed, (2) as
much input SRAM as the chip-area cap allows, (3) the array size with the
best IPS/W, preferring the largest array among near-ties. The three steps
share one signature and return one `StepRecord`; `optimize` re-runs a step
while the chosen array breaks its premise, for at most `MAX_PASSES` passes.

`sweep` and `optimize` score many configs that differ in a few fields. Each
call keeps one `_Stages` memo that computes the mapping (kept on its
`Network`), timeline, loss budget, energy breakdown and area breakdown once
per distinct value of the fields each one reads; every score equals
evaluating its point on its own.
"""
import itertools
import math
import warnings
from bisect import bisect_right
from typing import NamedTuple

from . import perf
from .errors import Checked, ConfigError, EvaluationError, InfeasibleError
from .perf import PerfReport, Timeline, area_model, float_sum, roll_up
# unused here; perfbench/tracing.py's BOUNDARIES wraps these dse names (--trace 1)
from .perf import evaluate, timeline_dual_core  # noqa: F401
from .workload import MB_BITS, ChipConfig, Network, network_runtime


class _SweepGridFields(NamedTuple):
    template: ChipConfig
    rows: tuple[int, ...] | None = None
    cols: tuple[int, ...] | None = None
    batch: tuple[int, ...] | None = None
    input_sram_mb: tuple[float, ...] | None = None
    cores: tuple[int, ...] | None = None


class SweepGrid(Checked, _SweepGridFields):
    """Axis candidates swept against a fixed template config.

    An axis left as None is not swept; one given must list at least one value,
    and no value twice.
    """

    __slots__ = ()

    # (axis field, the ChipConfig field its values set)
    _AXES = (("rows", "rows"), ("cols", "cols"), ("batch", "batch"),
             ("input_sram_mb", "sram_input_mb"), ("cores", "cores"))

    def _check(self) -> None:
        if not isinstance(self.template, ChipConfig):
            raise ConfigError(f"template must be a ChipConfig, got {type(self.template).__name__}")
        # Every ChipConfig check reads one field, so a value that passes on
        # the template passes at every grid point.
        for key, name in self._AXES:
            values = getattr(self, key)
            if values is None:
                continue
            if not values:
                raise ConfigError(f"{key} is given but lists no values")
            for i, v in enumerate(values):
                if v in values[:i]:  # it would give a second, identical grid point
                    raise ConfigError(f"{key} lists {v} more than once")
                try:
                    self.template.with_(**{name: v})
                except ConfigError as exc:
                    raise ConfigError(f"{key} = {v}: {exc}") from exc

    def configs(self) -> list[ChipConfig]:
        """Every grid point, in lexicographic order; with no axis swept, the template.

        Points skip `ChipConfig`'s check, which reads one field at a time: the
        template passed it, and `_check` ran it on each axis value over the template.
        """
        axes = [(ChipConfig._fields.index(name), values) for key, name in self._AXES
                if (values := getattr(self, key)) is not None]
        point, points = list(self.template), []
        for combo in itertools.product(*[values for _, values in axes]):
            for (i, _), value in zip(axes, combo):
                point[i] = value
            points.append(tuple.__new__(ChipConfig, point))
        return points


class _Stages:
    """Memo of the evaluation stages of one run, for fixed layers and tech.

    The layers are lifted into one `Network`, which keeps each mapping
    (`network_runtime`) per mapping key. On top of it, `timeline(cfg)` reads
    the tile streams, cores and clock: one per (array, batch, cores, clock).
    `report(cfg)` equals `evaluate`: it builds the loss budget once per
    array, the energy breakdown once per (mapping totals, array, b_in, b_out,
    clock), the inputs `energy_model` reads, and the area breakdown once per
    (array, cores, total SRAM), and passes them to `roll_up`, so only the
    energy and area totals, power, IPS and their checks run per point.
    """

    def __init__(self, layers, tech) -> None:
        self.layers, self.tech = Network.of(layers), tech
        self._timelines: dict[tuple, Timeline] = {}
        self._budgets: dict[tuple[int, int], perf.LossBudget] = {}
        self._energies: dict[tuple, dict[str, float]] = {}
        self._areas: dict[tuple, dict[str, float]] = {}

    def timeline(self, cfg: ChipConfig) -> Timeline:
        key = (cfg.rows, cfg.cols, cfg.batch, cfg.cores, cfg.clock_hz)
        if key not in self._timelines:
            stats = network_runtime(self.layers, cfg)
            # looked up on the module, so a tracer's wrapper on it sees every call
            self._timelines[key] = perf.make_timeline(stats, cfg, self.tech)
        return self._timelines[key]

    def report(self, cfg: ChipConfig) -> PerfReport:
        stats = network_runtime(self.layers, cfg)
        timeline, tech = self.timeline(cfg), self.tech
        # perf's functions are looked up on the module, as in `timeline`
        array = (cfg.rows, cfg.cols)
        if array not in self._budgets:
            self._budgets[array] = perf.loss_budget(cfg, tech)
        budget = self._budgets[array]
        key = (stats.total, cfg.rows, cfg.cols, cfg.b_in, cfg.b_out, cfg.clock_hz)
        if key not in self._energies:
            self._energies[key] = perf.energy_model(stats, timeline, cfg, tech, budget)
        # area reads the SRAM banks only through their total
        area_key = (cfg.rows, cfg.cols, cfg.cores, cfg.total_sram_mb)
        if area_key not in self._areas:
            self._areas[area_key] = perf.area_model(cfg, tech)
        return roll_up(stats, timeline, cfg, budget, self._energies[key], self._areas[area_key])


def sweep(grid: SweepGrid, layers, tech) -> list[tuple[ChipConfig, PerfReport]]:
    """Evaluate the full Cartesian grid in deterministic (lexicographic) order.

    Every report equals `evaluate(layers, cfg, tech)` at its point; one
    `_Stages` memo lets points share each stage, so only `roll_up` (energy
    and area totals, power, IPS and their checks) runs per point.
    """
    stages = _Stages(layers, tech)
    results = []
    for cfg in grid.configs():
        try:
            results.append((cfg, stages.report(cfg)))
        except Exception as exc:
            raise EvaluationError(
                f"sweep evaluation failed at rows={cfg.rows} cols={cfg.cols} "
                f"batch={cfg.batch} input_sram_mb={cfg.sram_input_mb} "
                f"cores={cfg.cores}: {exc}"
            ) from exc
    return results


class _ConstraintsFields(NamedTuple):
    area_cap_mm2: float = 100.0
    batch_candidates: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)
    array_rows: tuple[int, ...] = (32, 64, 128, 256, 512)
    array_cols: tuple[int, ...] = (32, 64, 128, 256, 512)
    sram_step_mb: float = 0.25
    hiding_eps: float = 0.01
    tie_tol: float = 0.02
    template: ChipConfig = ChipConfig()


class Constraints(Checked, _ConstraintsFields):
    """Inputs to the optimizer, validated only here; defaults mirror the published axes."""

    __slots__ = ()

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


class StepRecord(NamedTuple):
    """One optimizer step: its audit rows, its choice, and the template with it applied."""

    step: str
    candidates: tuple[dict, ...]
    chosen: dict
    config: ChipConfig


def find_min_hiding_batch(layers, template: ChipConfig, tech, cons: Constraints,
                          _stages: _Stages | None = None) -> StepRecord:
    """Smallest batch whose dual-core exposed programming time is <= eps of total."""
    stages = _stages or _Stages(layers, tech)
    audit = []
    for b in cons.batch_candidates:
        tl = stages.timeline(template.with_(batch=b, cores=2))
        audit.append({
            "batch": b,
            "t_total_s": tl.t_total,
            "t_program_exposed_s": tl.t_program_exposed,
            "hidden": tl.t_program_exposed <= cons.hiding_eps * tl.t_total,
        })
    best = next((row["batch"] for row in audit if row["hidden"]), None)
    if best is None:
        best = cons.batch_candidates[-1]
        warnings.warn(
            f"no candidate batch hides programming within {cons.hiding_eps:.0%} of "
            f"total time; falling back to the largest ({best})"
        )
    return StepRecord("batch", tuple(audit), {"batch": best}, template.with_(batch=best))


MAX_SRAM_STEPS = 100_000  # bound of size_sram's grid scan; the shipped scan has 841 steps


def size_sram(layers, template: ChipConfig, tech, cons: Constraints,
              _stages: _Stages | None = None) -> StepRecord:
    """Largest input SRAM (on a step grid) that keeps total area under the cap.

    Also reports the critical input SRAM size: the smallest grid size at
    which total DRAM traffic bottoms out (growing SRAM further buys nothing).

    Every grid size is a candidate with its area and DRAM traffic, but the
    network is mapped only where the residency pattern
    (`Network.breakpoints`) changes along the grid: the rest reuse the
    last mapped `dram_bits`. The result equals a scan that maps every
    candidate.
    """
    if tech.a_sram_per_mb == 0:
        raise InfeasibleError("sram step: a_sram_per_mb is 0, so input SRAM takes no area "
                              "and the area cap cannot size it")
    step_mb = cons.sram_step_mb
    first = area_model(template.with_(sram_input_mb=step_mb), tech)
    headroom = cons.area_cap_mm2 - (float_sum(first.values()) - step_mb * tech.a_sram_per_mb)
    units = (headroom / tech.a_sram_per_mb + 1e-9) / step_mb
    if not math.isfinite(units):
        raise InfeasibleError(f"sram step: {headroom:.3f} mm2 of headroom at a_sram_per_mb = "
                              f"{tech.a_sram_per_mb} mm2/MB is not a finite number of "
                              f"{step_mb} MB steps")
    max_units = int(units)
    if max_units < 1:
        raise InfeasibleError(
            f"sram step: area cap {cons.area_cap_mm2} mm2 leaves {headroom:.3f} mm2 for "
            f"input SRAM; even {step_mb} MB does not fit"
        )
    if max_units > MAX_SRAM_STEPS:
        raise InfeasibleError(f"sram step: the area cap allows {max_units} steps of {step_mb} MB "
                              f"at a_sram_per_mb = {tech.a_sram_per_mb} mm2/MB, more than "
                              f"the {MAX_SRAM_STEPS} the scan visits")

    # Only the SRAM term of `area_model` changes between candidates. Adding
    # the banks in `total_sram_mb`'s order and summing the same six terms in
    # the same order keeps each area equal to
    # float_sum(area_model(cfg, tech).values()) without building a ChipConfig.
    _, *other_areas = first.values()
    t = template
    net = _stages.layers if _stages else Network.of(layers)
    breakpoints = net.breakpoints(t)
    floor_bits = network_runtime(net, t.with_(sram_input_mb=1e9)).total.dram_bits
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


def pick_array_size(layers, template: ChipConfig, tech, cons: Constraints,
                    _stages: _Stages | None = None) -> StepRecord:
    """Array size maximizing IPS/W; near-ties resolve to the largest array.

    A candidate whose evaluation fails (e.g. a loss budget that overflows) is
    unbuildable: its audit row carries the reason under "infeasible" and it
    is not scored. Only when no candidate is buildable does the step fail.
    """
    stages = _stages or _Stages(layers, tech)
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


class OptimizationResult(NamedTuple):
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

    Every step and every pass's report read one `_Stages` memo.
    """
    cons = constraints
    stages = _Stages(layers, tech)
    steps: list[StepRecord] = []
    cfg = cons.template
    # looked up on the module at call time, so a tracer's wrappers see every step
    queue = [find_min_hiding_batch, size_sram, pick_array_size]
    for _ in range(MAX_PASSES):
        start = cfg
        for step in queue:
            steps.append(step(layers, cfg, tech, cons, stages))
            cfg = steps[-1].config
        report = stages.report(cfg)
        over_cap = report.area_mm2 > cons.area_cap_mm2 + 1e-9
        queue = []
        if report.timeline.t_program_exposed > cons.hiding_eps * report.timeline.t_total:
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
