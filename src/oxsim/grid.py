"""Design-space sweeps: a Cartesian grid of configs, scored through `perf`'s stage memo.

`sweep` evaluates every point of a `SweepGrid` through one `perf.Stages`,
which computes the mapping, timeline, loss budget, energy breakdown and area
breakdown once per distinct value of the fields each one reads, so every
report equals evaluating its point on its own. Only an `oxsim sweep` process
loads this module.
"""
import itertools

from .errors import ConfigError, EvaluationError, Record
from .perf import PerfReport, Stages
from .workload import ChipConfig


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


def sweep(grid: SweepGrid, layers, tech) -> list[tuple[ChipConfig, PerfReport]]:
    """Evaluate the full Cartesian grid in deterministic (lexicographic) order.

    Every report equals `evaluate(layers, cfg, tech)` at its point; one
    `Stages` memo lets points share each stage, so only `roll_up` (energy
    and area totals, power, IPS and their checks) runs per point.
    """
    stages = Stages(layers, tech)
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
