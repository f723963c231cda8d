"""Design-space sweeps: a Cartesian grid of configs and the stage memo that scores them.

`sweep` evaluates every point of a `SweepGrid`. One `_Stages` memo computes
the mapping (kept on its `Network`), timeline, loss budget, energy breakdown
and area breakdown once per distinct value of the fields each one reads, so
every report equals evaluating its point on its own. `dse`'s optimizer
scores its candidates through the same memo. An `oxsim sweep` process loads
this module and not `dse`.
"""
import itertools

from . import perf
from .errors import ConfigError, EvaluationError, Record
from .perf import PerfReport, Timeline, roll_up
from .workload import ChipConfig, Network


class SweepGrid(Record):
    """Axis candidates swept against a fixed template config.

    An axis left as None is not swept; one given must list at least one value,
    and no value twice.
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

    Every stage, the mapping included, is looked up on `perf` at call time,
    so a wrapper set on that module (a tracer's) sees every call.
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
            stats = perf.network_runtime(self.layers, cfg)
            self._timelines[key] = perf.make_timeline(stats, cfg, self.tech)
        return self._timelines[key]

    def report(self, cfg: ChipConfig) -> PerfReport:
        stats = perf.network_runtime(self.layers, cfg)
        timeline, tech = self.timeline(cfg), self.tech
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
