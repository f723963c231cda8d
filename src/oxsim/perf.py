"""Runtime counters -> time, energy, power, area, IPS, IPS/W.

The worst-case optical loss budget of the array, which sizes the laser, is
computed here too, as an input of `energy_model`. `Stages` runs the stages
in order (map, time, budget the laser, price energy and area, roll up), each
memoised on the config fields it reads: `evaluate` is a one-point memo, and
`grid.sweep` and the `dse` steps score every point of a run through one.

Timelines are computed in integer MAC cycles (programming time is rounded
to whole cycles once, p) and converted to seconds at the end, so single- vs
dual-core comparisons and replay checks are exact. They are closed forms
over the `RuntimeStats` columns: layer i has e_i tiles (programming events)
of v_i cycles each, and compute is sum(e_i * v_i).

    single core  total = compute + p * sum(e_i)
    dual core    total = p + sum(e_i * max(v_i, p)) - max(v_n, p) + v_n

with v_n the last layer's tile; a network with no tiles takes 0 cycles.
Exposed programming is total - compute; `make_timeline` takes the dual-core
form when `cores == 2`. Breakdowns sum to their totals by construction: each
total is its parts' sum, and each power part is its energy over the latency.

Rate-specified electronics (ADC, TIA, thermal tuning, laser) are charged
only while a core is actively computing: per-inference energy is then
independent of core count, and the dual core buys latency, not efficiency.
"""
import math
import operator
from functools import reduce

from .errors import EvaluationError, Record
from .workload import ChipConfig, Network, RuntimeStats, network_runtime

ENERGY_CATEGORIES = (
    "dram",
    "sram",
    "odac",
    "adc",
    "tia",
    "serdes",
    "clocking",
    "laser",
    "pcm_programming",
    "thermal_tuning",
)

AREA_CATEGORIES = (
    "sram",
    "adc",
    "odac",
    "clocking",
    "photonic_array",
    "digital_overhead",
)


class Timeline(Record):
    """Where the wall-clock time of one batched network pass goes."""

    t_compute: float
    t_program_exposed: float
    t_total: float
    compute_cycles: int
    exposed_prog_cycles: int
    total_cycles: int
    prog_cycles_per_event: int


def _as_float(count: int, what: str) -> float:
    """`count` as a float; a count beyond the float range fails naming `what`."""
    try:
        return float(count)
    except OverflowError:
        raise EvaluationError(f"{what} is a {count.bit_length()}-bit integer, too large "
                              f"for a float: an input is too large for the model") from None


def _prog_cycles(cfg: ChipConfig, tech) -> int:
    cycles = tech.t_pcm_program * cfg.clock_hz
    if not math.isfinite(cycles):
        raise EvaluationError(f"PCM programming takes {cycles} clock cycles "
                              f"({tech.t_pcm_program} s at {cfg.clock_hz} Hz), "
                              f"not a finite number")
    return round(cycles)


def timeline_dual_core(stats: RuntimeStats, cfg: ChipConfig, tech) -> Timeline:
    """Two arrays ping-pong: tile i computes while tile i+1 is programmed.

    t_total = t_prog(first tile) + sum_i max(t_compute(i), t_prog(i+1)),
    with no programming after the last tile. Programming is fully hidden
    exactly when every tile computes for at least one programming time.
    """
    if cfg.cores != 2:
        raise EvaluationError(f"dual-core timeline asked for a {cfg.cores}-core config")
    return make_timeline(stats, cfg, tech)


def make_timeline(stats: RuntimeStats, cfg: ChipConfig, tech) -> Timeline:
    """`cfg`'s timeline: the dual-core closed form if `cores == 2`, else single core,
    where every reprogramming stalls compute."""
    p = _prog_cycles(cfg, tech)
    compute_total = stats.total.compute_cycles
    vectors = stats.vectors_per_tile
    if cfg.cores != 2:
        total = compute_total + stats.total.programming_events * p
    elif vectors:
        # every tile but the last overlaps the next tile's programming;
        # `v if v > p else p` is max(v, p) without a call per layer
        events, last = stats.programming_events, vectors[-1]
        overlapped = sum([e * (v if v > p else p) for e, v in zip(events, vectors)])
        total = p + overlapped - max(last, p) + last
    else:
        total = 0

    exposed_total = total - compute_total
    clk = cfg.clock_hz
    return Timeline(_as_float(compute_total, "compute time in cycles") / clk,
                    _as_float(exposed_total, "exposed programming time in cycles") / clk,
                    _as_float(total, "batch latency in cycles") / clk,
                    compute_total, exposed_total, total, p)


class LossBudget(Record):
    """Worst-case optical path budget and the laser power it implies."""

    worst_path_db: float
    crossings_on_path: int
    waveguide_len_cm: float
    laser_optical_power_w: float
    laser_wallplug_power_w: float


def loss_budget(cfg, tech) -> LossBudget:
    """Budget the worst-case laser-facet-to-detector path of an N x M array.

    Fixed insertion losses (grating, splitter tree, modulator OMA) add to
    the crossing loss of the farthest cell ((M-1) row junctions plus (N-1)
    column hops) and the propagation loss over (N+M) unit-cell pitches.
    A single cell's product is charged 10*log10(N*M), an equal 1/(N*M) share
    of the laser power: the minimum level the receiver must still resolve,
    which the coherent sum across a column only adds to. The column bus's
    1/sqrt(N) collection weight is not charged (the functional model's field
    prefactor 1/(N*sqrt(M)) is a power fraction of 1/(N^2*M)). The laser is
    sized so all M columns clear the receiver floor at that worst case.
    """
    n, m = cfg.rows, cfg.cols
    # n + m bounds every other array count below, so those convert too
    waveguide_len_cm = _as_float(n + m, "array rows + columns") * tech.unit_cell_pitch_um / 1e4
    crossings = (m - 1) + (n - 1)
    worst_path_db = (
        tech.loss_grating_coupler_db
        + tech.loss_splitter_tree_db
        + tech.loss_odac_oma_db
        + crossings * tech.loss_mmi_crossing_db
        + waveguide_len_cm * tech.loss_waveguide_db_per_cm
        + 10.0 * math.log10(n * m)
    )
    try:
        path_gain = 10.0 ** (worst_path_db / 10.0)
    except OverflowError as exc:
        raise EvaluationError(
            f"loss budget: the worst path of a {n}x{m} array loses {worst_path_db:.1f} dB; "
            f"the laser power needed to overcome it overflows a float"
        ) from exc
    optical = m * tech.p_rx_min_per_column * path_gain
    return LossBudget(worst_path_db, crossings, waveguide_len_cm, optical,
                      optical / tech.laser_wallplug_eff)


def energy_model(stats: RuntimeStats, timeline: Timeline, cfg: ChipConfig, tech,
                 budget: LossBudget) -> dict[str, float]:
    """Per-category energy (J) for one batched network pass; `budget` sizes the laser."""
    c = stats.total
    cycles = c.compute_cycles
    clk = cfg.clock_hz
    column_cycles = _as_float(cycles * cfg.cols, "ADC and TIA samples")
    serdes_bits = cycles * (cfg.rows * cfg.b_in + cfg.cols * cfg.b_out)
    ring_cycles = cycles * cfg.rows * tech.rings_per_row_tx
    return {
        "dram": _as_float(c.dram_bits, "DRAM bits") * tech.e_dram_per_bit,
        "sram": _as_float(c.sram_bits, "SRAM bits") * tech.e_sram_per_bit,
        "odac": _as_float(cycles * cfg.rows, "ODAC drive events") * tech.e_odac_driver,
        "adc": column_cycles * (tech.p_adc / clk),
        "tia": column_cycles * (tech.p_tia / clk),
        "serdes": _as_float(serdes_bits, "SerDes bits") * tech.e_serdes_per_bit,
        "clocking": _as_float(cycles * (cfg.rows + cfg.cols), "clock lane-cycles")
                    * tech.e_clock_per_lane_cycle,
        "laser": timeline.t_compute * budget.laser_wallplug_power_w,
        "pcm_programming": _as_float(c.cells_programmed, "PCM cells programmed")
                           * tech.e_pcm_program_per_cell,
        "thermal_tuning": _as_float(ring_cycles, "thermal ring-cycles")
                          * (tech.p_thermal_per_ring / clk),
    }


def area_model(cfg: ChipConfig, tech) -> dict[str, float]:
    """Per-category chip area (mm^2)."""
    pitch_mm = tech.unit_cell_pitch_um / 1e3
    # the clock lanes bound the rows and columns of the photonic array term
    return {
        "sram": cfg.total_sram_mb * tech.a_sram_per_mb,
        "adc": _as_float(cfg.cores * cfg.cols, "ADC count") * tech.a_adc,
        "odac": _as_float(cfg.cores * cfg.rows * tech.rings_per_row_tx, "ODAC ring count")
                * tech.a_odac,
        "clocking": _as_float(cfg.cores * (cfg.rows + cfg.cols), "clock lanes")
                    * tech.a_clock_per_lane,
        "photonic_array": cfg.cores * (cfg.rows * pitch_mm) * (cfg.cols * pitch_mm),
        "digital_overhead": tech.a_digital_overhead,
    }


class PerfReport(Record):
    """Headline metrics plus the breakdowns they are built from."""

    ips: float
    ips_per_w: float
    power_w: float
    area_mm2: float
    energy_total_j: float
    energy_j: dict[str, float]
    power_by_w: dict[str, float]
    area_by_mm2: dict[str, float]
    timeline: Timeline
    stats: RuntimeStats
    budget: LossBudget


def float_sum(values) -> float:
    """`values` added left to right from int 0, as `sum` did before Python 3.12
    compensated its rounding, so totals print the same on every Python."""
    return reduce(operator.add, values, 0)


class Stages:
    """Memo of the evaluation stages of one run, for fixed layers and tech.

    The layers are lifted into one `Network`, which keeps each mapping
    (`network_runtime`) per mapping key. On top of it, `timeline(cfg)` reads
    the tile streams, cores and clock: one per (array, batch, cores, clock).
    `report(cfg)` builds the loss budget once per array, the energy breakdown
    once per (mapping totals, array, b_in, b_out, clock), the inputs
    `energy_model` reads, and the area breakdown once per (array, cores,
    total SRAM), and passes them to `roll_up`, so only the energy and area
    totals, power, IPS and their checks run per point.

    Every stage, the mapping included, is looked up on this module at call
    time, so a wrapper set on it (a tracer's) sees every call.
    """

    def __init__(self, layers, tech) -> None:
        self.layers, self.tech = Network.of(layers), tech
        self._timelines: dict[tuple, Timeline] = {}
        self._budgets: dict[tuple[int, int], LossBudget] = {}
        self._energies: dict[tuple, dict[str, float]] = {}
        self._areas: dict[tuple, dict[str, float]] = {}

    def timeline(self, cfg: ChipConfig) -> Timeline:
        key = (cfg.rows, cfg.cols, cfg.batch, cfg.cores, cfg.clock_hz)
        if key not in self._timelines:
            stats = network_runtime(self.layers, cfg)
            self._timelines[key] = make_timeline(stats, cfg, self.tech)
        return self._timelines[key]

    def report(self, cfg: ChipConfig) -> PerfReport:
        stats = network_runtime(self.layers, cfg)
        timeline, tech = self.timeline(cfg), self.tech
        array = (cfg.rows, cfg.cols)
        if array not in self._budgets:
            self._budgets[array] = loss_budget(cfg, tech)
        budget = self._budgets[array]
        key = (stats.total, cfg.rows, cfg.cols, cfg.b_in, cfg.b_out, cfg.clock_hz)
        if key not in self._energies:
            self._energies[key] = energy_model(stats, timeline, cfg, tech, budget)
        # area reads the SRAM banks only through their total
        area_key = (cfg.rows, cfg.cols, cfg.cores, cfg.total_sram_mb)
        if area_key not in self._areas:
            self._areas[area_key] = area_model(cfg, tech)
        return roll_up(stats, timeline, cfg, budget, self._energies[key], self._areas[area_key])


def evaluate(layers, cfg: ChipConfig, tech) -> PerfReport:
    """Full pipeline: map, time, budget the laser, price energy and area, roll up."""
    return Stages(layers, tech).report(cfg)


def roll_up(stats: RuntimeStats, timeline: Timeline, cfg: ChipConfig, budget: LossBudget,
            energy: dict[str, float], area: dict[str, float]) -> PerfReport:
    """Energy and area totals, power and IPS of a mapped, timed and priced config.

    `stats`, `timeline`, `budget`, `energy` (an `energy_model` breakdown) and
    `area` (an `area_model` breakdown) must be those `Stages` computes for
    `cfg`; the report keeps references to all of them, so reports may share
    them.
    """
    energy_total = float_sum(energy.values())

    t_total = timeline.t_total
    if t_total <= 0:
        raise EvaluationError("network produced a zero-length timeline")
    power = energy_total / t_total
    ips = cfg.batch / t_total
    area_total = float_sum(area.values())
    power_by = {k: v / t_total for k, v in energy.items()}

    for what, value in (("IPS", ips), ("power", power), ("area", area_total),
                        ("total energy", energy_total)):
        if not math.isfinite(value):
            raise EvaluationError(f"{what} is {value}, not a finite number: an input "
                                  f"is too large for the model")
    if not power > 0:
        raise EvaluationError(f"power is {power} W, not > 0: IPS/W is undefined when "
                              f"every energy and power term is 0")
    ips_per_w = ips / power
    if not math.isfinite(ips_per_w):
        raise EvaluationError(f"IPS/W is {ips_per_w}, not a finite number: power "
                              f"({power} W) is too small for the model")

    return PerfReport(ips, ips_per_w, power, area_total, energy_total, energy, power_by, area,
                      timeline, stats, budget)
