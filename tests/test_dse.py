import itertools
import math
import warnings
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oxsim import (
    ChipConfig,
    ConfigError,
    Constraints,
    EvaluationError,
    InfeasibleError,
    LayerSpec,
    Stages,
    SweepGrid,
    TechParams,
    apply_profile,
    default_tech_params,
    evaluate,
    find_min_hiding_batch,
    get_profile,
    load_topology,
    network_runtime,
    optimize,
    pick_array_size,
    size_sram,
    sweep,
)
from oxsim import dse, perf, workload
from oxsim.perf import area_model, float_sum
from oxsim.reports import flat_row
from oxsim.workload import Network


def test_sweep_single_point_equals_evaluate(toy_layers, tech_default):
    tpl = ChipConfig(rows=16, cols=8, cores=2, batch=2)
    results = sweep(SweepGrid(template=tpl), toy_layers, tech_default)
    assert len(results) == 1
    cfg, report = results[0]
    assert cfg == tpl
    direct = evaluate(toy_layers, tpl, tech_default)
    assert report.ips == direct.ips and report.power_w == direct.power_w


def test_sweep_rows_axis_ordering(resnet_layers, tech_calibrated):
    tpl = ChipConfig(rows=32, cols=32, cores=2, batch=8)
    results = sweep(SweepGrid(template=tpl, rows=(32, 64)), resnet_layers, tech_calibrated)
    assert [cfg.rows for cfg, _ in results] == [32, 64]
    assert results[1][1].ips > results[0][1].ips


def test_sweep_order_is_lexicographic(toy_layers, tech_default):
    tpl = ChipConfig(rows=8, cols=8, cores=2, batch=1)
    grid = SweepGrid(template=tpl, rows=(8, 16), batch=(1, 2), cores=(1, 2))
    combos = [(c.rows, c.batch, c.cores) for c, _ in sweep(grid, toy_layers, tech_default)]
    assert combos == [(r, b, k) for r in (8, 16) for b in (1, 2) for k in (1, 2)]


def test_sweep_names_the_point_that_fails(toy_layers, tech_default):
    # under paper-default a 1024x1024 array's loss budget overflows
    grid = SweepGrid(template=ChipConfig(), rows=(32, 1024), cols=(1024,))
    with pytest.raises(EvaluationError, match=r"at rows=1024 cols=1024 .*1024x1024 array loses"):
        sweep(grid, toy_layers, tech_default)


def _axis(pool):
    return st.none() | st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True)


@pytest.mark.parametrize("topology", ["toy3", "resnet50_v15"])
@settings(max_examples=20, deadline=None)
@given(rows=_axis([8, 16, 32, 128, 512]), cols=_axis([8, 16, 32, 128, 512]),
       batch=_axis([1, 2, 8, 32, 256]), cores=_axis([1, 2]),
       # sizes from 2**-24 MB (half a bit) to 2**13 MB: with batches up to
       # 256 a grid takes the refetch path and the fully resident path on
       # toy3 and on ResNet-50 alike
       sram=st.lists(st.builds(lambda e, m: m * 2.0 ** e, st.integers(-24, 12),
                               st.floats(1.0, 2.0, exclude_max=True)),
                     min_size=1, max_size=4, unique=True),
       b_in=st.integers(1, 12), b_out=st.integers(1, 12),
       profile=st.sampled_from(["paper-default", "paper-consistent"]))
def test_sweep_memo_equals_evaluate_at_every_point(topology, rows, cols, batch, cores, sram,
                                                   b_in, b_out, profile):
    layers = load_topology(topology)[0]
    tech = apply_profile(default_tech_params(), get_profile(profile))
    grid = SweepGrid(template=ChipConfig(b_in=b_in, b_out=b_out), rows=rows, cols=cols,
                     batch=batch, input_sram_mb=tuple(sram), cores=cores)
    mapped, timed = [], []

    def counting_runtime(layers_, cfg):
        stats = network_runtime(layers_, cfg)
        mapped.append((cfg, stats))
        return stats

    def counting_timeline(stats, cfg, tech_):
        timed.append(cfg)
        return make_timeline(stats, cfg, tech_)

    make_timeline = perf.make_timeline
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perf, "network_runtime", counting_runtime)
        mp.setattr(perf, "make_timeline", counting_timeline)
        results = sweep(grid, layers, tech)

    configs = grid.configs()
    assert [cfg for cfg, _ in results] == configs
    for cfg, report in results:
        direct = evaluate(layers, cfg, tech)
        assert flat_row(cfg, report) == flat_row(cfg, direct)
        assert report.stats == direct.stats and report.timeline == direct.timeline

    def key(c):
        return (c.rows, c.cols, c.batch,
                bisect_right(Network.of(layers).breakpoints(c), c.input_sram_bits))

    # the Network keeps each mapping, so repeat lookups return the object
    # built first: one build per distinct key
    assert _builds(mapped, key) == len({key(c) for c in configs})
    assert len(timed) == len({(c.rows, c.cols, c.batch, c.cores) for c in configs})


def _builds(mapped, key):
    """The number of RuntimeStats objects in `mapped`, a list of (config, stats),
    checked to be one per distinct `key(config)`."""
    built = {(key(cfg), id(stats)) for cfg, stats in mapped}
    assert len(built) == len({k for k, _ in built}) == len({i for _, i in built})
    return len(built)


def test_sweep_builds_each_loss_budget_and_energy_breakdown_once(resnet_layers,
                                                                 tech_calibrated):
    grid = SweepGrid(template=ChipConfig(), rows=(32, 128), cols=(64, 128),
                     batch=(8, 64), input_sram_mb=(0.5, 64.0), cores=(1, 2))
    budgets, energies = [], []

    def counting_budget(cfg, tech):
        budgets.append((cfg.rows, cfg.cols))
        return loss_budget(cfg, tech)

    def counting_energy(stats, timeline, cfg, tech, budget=None):
        # the inputs energy_model reads
        energies.append((stats.total, cfg.rows, cfg.cols, cfg.b_in, cfg.b_out, cfg.clock_hz))
        return energy_model(stats, timeline, cfg, tech, budget)

    loss_budget, energy_model = perf.loss_budget, perf.energy_model
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perf, "loss_budget", counting_budget)
        mp.setattr(perf, "energy_model", counting_energy)
        results = sweep(grid, resnet_layers, tech_calibrated)

    assert len(budgets) == len(set(budgets)) == 4
    # one batch (64) refetches at 0.5 MB, so the SRAM axis splits some mappings
    assert len(energies) == len(set(energies)) > 8
    assert len(results) == 32
    for cfg, report in results:
        assert flat_row(cfg, report) == flat_row(cfg, evaluate(resnet_layers, cfg,
                                                               tech_calibrated))


def test_sweep_builds_each_residency_column_set_and_area_once(resnet_layers, tech_calibrated):
    grid = SweepGrid(template=ChipConfig(), rows=(32, 128), cols=(64, 128),
                     batch=(8, 64), input_sram_mb=(0.5, 2.0, 64.0), cores=(1, 2))
    mapped, columns, areas = [], [], []

    def counting_runtime(layers, cfg):
        mapped.append(cfg)
        return network_runtime(layers, cfg)

    def counting_residency(fixed, ifmap_bits, fits):
        # the config being mapped when the columns are built
        cfg = mapped[-1]
        columns.append((cfg.cols, cfg.b_w, cfg.batch, cfg.b_in, cfg.b_out,
                        bisect_right(Network.of(resnet_layers).breakpoints(cfg),
                                     cfg.input_sram_bits)))
        return residency(fixed, ifmap_bits, fits)

    def counting_area(cfg, tech):
        areas.append((cfg.rows, cfg.cols, cfg.cores, cfg.sram_input_mb))
        return area_model(cfg, tech)

    residency = workload._residency
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perf, "network_runtime", counting_runtime)
        mp.setattr(workload, "_residency", counting_residency)
        mp.setattr(perf, "area_model", counting_area)
        results = sweep(grid, resnet_layers, tech_calibrated)

    configs = grid.configs()
    assert len(columns) == len(set(columns)) < len(mapped)
    assert set(columns) == {
        (c.cols, c.b_w, c.batch, c.b_in, c.b_out,
         bisect_right(Network.of(resnet_layers).breakpoints(c), c.input_sram_bits))
        for c in configs}
    assert len(areas) == len(set(areas)) == len(
        {(c.rows, c.cols, c.cores, c.sram_input_mb) for c in configs}) < len(configs)
    assert [cfg for cfg, _ in results] == configs
    for cfg, report in results:
        assert flat_row(cfg, report) == flat_row(cfg, evaluate(resnet_layers, cfg,
                                                               tech_calibrated))


def test_sweep_builds_each_array_tiling_once(resnet_layers, tech_calibrated):
    # the batch-free tiling columns are built once per (rows, cols, b_w) and
    # the batch-scaled ones once per tiling key
    grid = SweepGrid(template=ChipConfig(), rows=(32, 128), cols=(64, 128),
                     batch=(8, 64), input_sram_mb=(0.5, 64.0), cores=(1, 2))
    arrays, tilings = [], []

    def counting_array_tiling(net, cfg):
        arrays.append((cfg.rows, cfg.cols, cfg.b_w))
        return array_tiling(net, cfg)

    def counting_tiling(net, cfg):
        tilings.append((cfg.rows, cfg.cols, cfg.batch, cfg.b_in, cfg.b_w, cfg.b_out, cfg.b_acc))
        return tiling(net, cfg)

    array_tiling, tiling = workload._array_tiling, workload._tiling
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workload, "_array_tiling", counting_array_tiling)
        mp.setattr(workload, "_tiling", counting_tiling)
        results = sweep(grid, resnet_layers, tech_calibrated)

    configs = grid.configs()
    assert len(arrays) == len(set(arrays)) == len(
        {(c.rows, c.cols, c.b_w) for c in configs}) == 4
    assert len(tilings) == len(set(tilings)) == len(
        {(c.rows, c.cols, c.batch, c.b_in, c.b_w, c.b_out, c.b_acc) for c in configs}) == 8
    assert [cfg for cfg, _ in results] == configs
    for cfg, report in results:
        assert flat_row(cfg, report) == flat_row(cfg, evaluate(resnet_layers, cfg,
                                                               tech_calibrated))


def test_stages_key_each_energy_breakdown_by_the_clock(toy_layers, tech_default):
    # no grid axis sets the clock, so one memo is given both clocks directly
    stages = dse.Stages(toy_layers, tech_default)
    for clock_hz in (1e10, 5e9, 1e10):
        cfg = ChipConfig(rows=8, cols=8, batch=2, clock_hz=clock_hz)
        assert flat_row(cfg, stages.report(cfg)) == flat_row(
            cfg, evaluate(toy_layers, cfg, tech_default))


def _boundary_values(field, default):
    """The values of a boundary pool that a tech field of `default`'s type accepts."""
    pool = (0, 5e-324, 1e-300, 1, 1e300, 1.7e308)
    values = [v if isinstance(default, float) else int(v) for v in pool
              if isinstance(default, float) or float(v).is_integer()]
    accepted = []
    for v in values:
        try:
            TechParams(**{field: v})
        except ConfigError:
            continue
        accepted.append(v)
    return accepted


_TECH_BOUNDARY = {field: _boundary_values(field, default)
                  for field, default in TechParams()._asdict().items()}


@st.composite
def _tech_overrides(draw):
    fields = draw(st.lists(st.sampled_from(sorted(_TECH_BOUNDARY)), max_size=6, unique=True))
    return {field: draw(st.sampled_from(_TECH_BOUNDARY[field])) for field in fields}


def _stage_sequence(layers, cfg, tech):
    """The evaluation stages called in order with nothing memoised: the oracle
    of how `perf.Stages` wires each stage's output into the next."""
    stats = network_runtime(layers, cfg)
    timeline = perf.make_timeline(stats, cfg, tech)
    budget = perf.loss_budget(cfg, tech)
    energy = perf.energy_model(stats, timeline, cfg, tech, budget)
    area = perf.area_model(cfg, tech)
    return perf.roll_up(stats, timeline, cfg, budget, energy, area)


def _report_or_error(run, cfg):
    try:
        return flat_row(cfg, run())
    except Exception as exc:  # both paths must fail alike, whatever the type
        return type(exc), str(exc)


_CHIP_FIELDS = dict(
    rows=st.integers(1, 1024), cols=st.integers(1, 1024), cores=st.sampled_from([1, 2]),
    batch=st.integers(1, 10**300), clock_hz=st.floats(1e-300, 1e300),
    sram_input_mb=st.floats(1e-300, 1e308),
    **{b: st.integers(1, 64) for b in ("b_in", "b_w", "b_out", "b_acc")},
    **{bank: st.floats(1e-300, 1e308)
       for bank in ("sram_filter_mb", "sram_output_mb", "sram_acc_mb")})


@st.composite
def _chip_sequences(draw):
    """A config, then up to three more, each one field away from an earlier one."""
    configs = [ChipConfig(**{f: draw(s) for f, s in _CHIP_FIELDS.items()})]
    for _ in range(draw(st.integers(0, 3))):
        field = draw(st.sampled_from(sorted(_CHIP_FIELDS)))
        configs.append(draw(st.sampled_from(configs)).with_(
            **{field: draw(_CHIP_FIELDS[field])}))
    return configs


@pytest.mark.parametrize("topology", ["toy3", "resnet50_v15"])
@settings(max_examples=150, deadline=None)
@given(configs=_chip_sequences(),
       profile=st.sampled_from(["paper-default", "paper-consistent"]),
       overrides=_tech_overrides())
def test_stages_report_and_evaluate_agree_or_fail_alike(topology, configs, profile, overrides):
    # the memo builds the loss budget and energy breakdown apart from roll_up,
    # so its checks must still fail in the plain sequence's order, with its
    # message; one memo reports the whole sequence, so later configs hit its
    # entries, and `evaluate` is a fresh one-point memo
    layers = load_topology(topology)[0]
    tech = apply_profile(default_tech_params(), get_profile(profile))._replace(**overrides)
    stages = dse.Stages(layers, tech)
    for cfg in configs:
        direct = _report_or_error(lambda: _stage_sequence(layers, cfg, tech), cfg)
        assert _report_or_error(lambda: evaluate(layers, cfg, tech), cfg) == direct
        assert _report_or_error(lambda: stages.report(cfg), cfg) == direct


def _configs_by_with(grid):
    """`grid`'s points, each built through the checked `ChipConfig.with_`: the
    oracle of `SweepGrid.configs`, which builds them positionally."""
    axes = [(name, getattr(grid, key)) for key, name in grid._AXES
            if getattr(grid, key) is not None]
    names = [name for name, _ in axes]
    return [grid.template.with_(**dict(zip(names, combo)))
            for combo in itertools.product(*(vals for _, vals in axes))]


def _drawn_axis(strategy):
    return st.none() | st.lists(strategy, min_size=1, max_size=3, unique=True)


@settings(max_examples=200, deadline=None)
@given(template=st.builds(ChipConfig, **_CHIP_FIELDS),
       rows=_drawn_axis(_CHIP_FIELDS["rows"]), cols=_drawn_axis(_CHIP_FIELDS["cols"]),
       batch=_drawn_axis(_CHIP_FIELDS["batch"]), cores=_drawn_axis(_CHIP_FIELDS["cores"]),
       sram=_drawn_axis(_CHIP_FIELDS["sram_input_mb"] | st.integers(1, 10**6)))
def test_grid_points_equal_checked_copies_of_the_template(template, rows, cols, batch, cores,
                                                          sram):
    # every axis may be left out, so grids with no axis swept are drawn too
    grid = SweepGrid(template=template, rows=rows, cols=cols, batch=batch,
                     input_sram_mb=sram, cores=cores)
    points = grid.configs()
    assert points == _configs_by_with(grid)
    for p in points:
        assert type(p) is ChipConfig
        assert p == ChipConfig(*p)  # each point passes the checked constructor


# --- batch hiding -------------------------------------------------------------

def _stream_layer(cycles_per_tile_at_b1, tiles):
    # one tile per filter on a 1-column array; out_w sets per-tile cycles
    return LayerSpec("s", 1, cycles_per_tile_at_b1, 1, 1, 1, tiles, 1)


def test_min_batch_when_already_hidden(tech_default):
    # 160 ns/tile at batch 1, long enough that the head programming is noise
    layers = [_stream_layer(1600, 200)]
    tpl = ChipConfig(rows=1, cols=1, cores=2, batch=1)
    cons = Constraints(batch_candidates=(1, 2, 4))
    assert find_min_hiding_batch(Stages(layers, tech_default), tpl, cons).chosen == {"batch": 1}


def test_min_batch_crosses_programming_time(tech_default):
    # 500 cycles/tile at batch 1 -> 50 ns < 100 ns; batch 2 reaches 100 ns
    layers = [_stream_layer(500, 400)]
    tpl = ChipConfig(rows=1, cols=1, cores=2, batch=1)
    record = find_min_hiding_batch(Stages(layers, tech_default), tpl,
                                   Constraints(batch_candidates=(1, 2, 4, 8)))
    assert record.chosen == {"batch": 2}
    assert record.config == tpl.with_(batch=2)
    # oracle: every candidate >= picked also hides (monotone predicate)
    from oxsim import timeline_dual_core
    for b in (2, 4, 8):
        cfg = tpl.with_(batch=b)
        tl = timeline_dual_core(network_runtime(layers, cfg), cfg, tech_default)
        assert tl.t_program_exposed <= 0.01 * tl.t_total


def test_min_batch_falls_back_to_the_largest_as_data(tech_default):
    layers = [_stream_layer(8, 40)]  # hopeless: 0.8 ns/tile
    tpl = ChipConfig(rows=1, cols=1, cores=2, batch=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = find_min_hiding_batch(Stages(layers, tech_default), tpl,
                                       Constraints(batch_candidates=(1, 2)))
    # the audit rows record the fallback: no batch hides, so the largest is chosen
    assert [row["hidden"] for row in record.candidates] == [False, False]
    assert record.chosen == {"batch": 2}


def test_resnet_hiding_batch_is_32(resnet_layers, tech_calibrated, headline_config):
    # the default candidates are the published batch axis, 1 to 256
    record = find_min_hiding_batch(Stages(resnet_layers, tech_calibrated), headline_config,
                                   Constraints())
    assert record.chosen == {"batch": 32}


# --- SRAM sizing ----------------------------------------------------------------

def test_size_sram_one_unit_fits(toy_layers, tech_default):
    tpl = ChipConfig(rows=8, cols=8, cores=2, batch=1)
    fixed = sum(area_model(tpl.with_(sram_input_mb=1.0), tech_default).values()) \
        - 1.0 * tech_default.a_sram_per_mb
    plan = size_sram(Stages(toy_layers, tech_default), tpl, Constraints(area_cap_mm2=fixed + 0.45))
    assert plan.chosen["input_sram_mb"] == 1.0
    assert plan.config == tpl.with_(sram_input_mb=1.0)


def test_size_sram_cap_below_fixed_area(toy_layers, tech_default):
    tpl = ChipConfig(rows=128, cols=128, cores=2, batch=1)
    with pytest.raises(InfeasibleError, match="sram"):
        size_sram(Stages(toy_layers, tech_default), tpl, Constraints(area_cap_mm2=1.0))


def test_size_sram_respects_cap(resnet_layers, tech_calibrated):
    tpl = ChipConfig(rows=128, cols=128, cores=2, batch=32)
    cap = 100.0
    plan = size_sram(Stages(resnet_layers, tech_calibrated), tpl, Constraints(area_cap_mm2=cap))
    chosen = plan.chosen["input_sram_mb"]
    area = sum(area_model(tpl.with_(sram_input_mb=chosen), tech_calibrated).values())
    assert area <= cap + 1e-9
    one_more = tpl.with_(sram_input_mb=chosen + 0.25)
    assert sum(area_model(one_more, tech_calibrated).values()) > cap


def test_size_sram_critical_size_matches_traffic_scan(resnet_layers, tech_calibrated):
    tpl = ChipConfig(rows=128, cols=128, cores=2, batch=4)
    plan = size_sram(Stages(resnet_layers, tech_calibrated), tpl,
                     Constraints(area_cap_mm2=60.0))
    # oracle: scan the step grid for where DRAM traffic bottoms out
    floor = network_runtime(resnet_layers, tpl.with_(sram_input_mb=4096)).total.dram_bits
    critical = None
    mb = 0.25
    while critical is None:
        if network_runtime(resnet_layers, tpl.with_(sram_input_mb=mb)).total.dram_bits == floor:
            critical = mb
        mb += 0.25
    assert plan.chosen["critical_input_sram_mb"] == critical
    # traffic at every candidate is recorded and non-increasing
    traffics = [c["dram_bits"] for c in plan.candidates]
    assert all(a >= b for a, b in zip(traffics, traffics[1:]))


def _scan_every_candidate(layers, tpl, tech, n_candidates, step_mb):
    """Reference for size_sram: map the network once per candidate; the floor
    is the all-resident mapping."""
    floor = network_runtime(layers, tpl.with_(sram_input_mb=math.inf)).total.dram_bits
    candidates, critical = [], None
    for unit in range(1, n_candidates + 1):
        mb = unit * step_mb
        cfg = tpl.with_(sram_input_mb=mb)
        traffic = network_runtime(layers, cfg).total.dram_bits
        area = float_sum(area_model(cfg, tech).values())
        candidates.append({"input_sram_mb": mb, "area_mm2": area, "dram_bits": traffic})
        if critical is None and traffic <= floor:
            critical = mb
    return tuple(candidates), critical


# layer a's ifmap at b_in = 10**6 is 1e16 bits, about 1.19e9 MB: above any
# finite probe of 1e9 MB, and far above every size the grid reaches
_IFMAP_ABOVE_1E9_MB = [LayerSpec("a", 100000, 100000, 1, 1, 1, 64, 100000),
                       LayerSpec("b", 1, 1, 64, 1, 1, 10, 1)]


@pytest.mark.parametrize("topology", ["toy3", "resnet50_v15", "ifmap-above-1e9-mb"])
@settings(max_examples=25, deadline=None)
@given(batch=st.integers(1, 64), b_in=st.integers(1, 12), b_out=st.integers(1, 12),
       side=st.sampled_from([8, 32, 128, 512]),
       # binary steps from 2**-22 MB (a few bits) to 4 MB, so that the grid
       # straddles the residency breakpoints of toy3 and of ResNet-50 alike
       step_mb=st.builds(lambda e, m: m * 2.0 ** e, st.integers(-22, 1),
                         st.one_of(st.just(1.0), st.floats(1.0, 2.0, exclude_max=True))),
       units=st.integers(1, 150), slack=st.floats(0.0, 0.99))
# test_size_sram_floor_is_the_all_resident_mapping's case on its network
@example(batch=1, b_in=10**6, b_out=1, side=32, step_mb=0.25, units=4, slack=0.0)
def test_size_sram_memo_equals_scan_of_every_candidate(
        tech_calibrated, topology, batch, b_in, b_out, side, step_mb, units, slack):
    layers = (_IFMAP_ABOVE_1E9_MB if topology == "ifmap-above-1e9-mb"
              else load_topology(topology)[0])
    tpl = ChipConfig(rows=side, cols=side, cores=2, batch=batch, b_in=b_in, b_out=b_out)
    fixed = sum(area_model(tpl.with_(sram_input_mb=step_mb), tech_calibrated).values()) \
        - step_mb * tech_calibrated.a_sram_per_mb
    cap = fixed + (units + slack) * step_mb * tech_calibrated.a_sram_per_mb

    built = []

    def counting_runtime(layers_, cfg):
        built.append(network_runtime(layers_, cfg))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dse, "network_runtime", counting_runtime)
        plan = size_sram(Stages(layers, tech_calibrated), tpl,
                         Constraints(area_cap_mm2=cap, sram_step_mb=step_mb))

    candidates, critical = _scan_every_candidate(
        layers, tpl, tech_calibrated, len(plan.candidates), step_mb)
    assert plan.candidates == candidates
    assert plan.chosen == {"input_sram_mb": candidates[-1]["input_sram_mb"],
                           "critical_input_sram_mb": critical}
    traffics = [c["dram_bits"] for c in plan.candidates]
    assert all(a >= b for a, b in zip(traffics, traffics[1:]))
    assert len({id(stats) for stats in built}) <= len(Network.of(layers).breakpoints(tpl)) + 1


def test_size_sram_memo_counts_a_capacity_equal_to_a_breakpoint_as_resident(tech_default):
    # the ifmap is exactly 1 MB and the 0.5 MB grid lands on it; with two
    # column tiles a non-resident ifmap is fetched twice
    layers = [LayerSpec("mb", 1024, 1024, 1, 1, 1, 2, 1)]
    tpl = ChipConfig(rows=1, cols=1, cores=2, batch=1, b_in=8, b_out=8)
    assert Network.of(layers).breakpoints(tpl) == [8 * 2**20, 16 * 2**20]
    cap = sum(area_model(tpl.with_(sram_input_mb=2.0), tech_default).values())
    plan = size_sram(Stages(layers, tech_default), tpl,
                     Constraints(area_cap_mm2=cap, sram_step_mb=0.5))
    assert plan.candidates == _scan_every_candidate(layers, tpl, tech_default, 4, 0.5)[0]
    assert plan.chosen["critical_input_sram_mb"] == 1.0


def test_size_sram_floor_is_the_all_resident_mapping(tech_calibrated):
    layers = _IFMAP_ABOVE_1E9_MB
    tpl = ChipConfig(b_in=10**6, b_out=1, batch=1)
    assert Network.of(layers).breakpoints(tpl)[-1] == 10**16
    plan = size_sram(Stages(layers, tech_calibrated), tpl, Constraints())
    resident = network_runtime(layers, tpl.with_(sram_input_mb=math.inf)).total.dram_bits
    assert resident < min(c["dram_bits"] for c in plan.candidates)
    assert plan.chosen["critical_input_sram_mb"] is None


# --- array selection ------------------------------------------------------------

def test_pick_array_single_candidate(toy_layers, tech_default):
    tpl = ChipConfig(rows=8, cols=8, cores=2, batch=2)
    cons = Constraints(array_rows=(16,), array_cols=(8,))
    record = pick_array_size(Stages(toy_layers, tech_default), tpl, cons)
    assert record.chosen == {"rows": 16, "cols": 8}
    assert record.config == tpl.with_(rows=16, cols=8)


def test_pick_array_tie_resolves_to_largest(toy_layers, tech_default):
    tpl = ChipConfig(rows=8, cols=8, cores=2, batch=2)
    # with a 99.9% tolerance everything ties; the largest array must win
    cons = Constraints(array_rows=(8, 16), array_cols=(8, 16), tie_tol=0.999)
    stages = Stages(toy_layers, tech_default)
    assert pick_array_size(stages, tpl, cons).chosen == {"rows": 16, "cols": 16}


def test_pick_array_resnet_calibrated(resnet_layers, tech_calibrated, headline_config):
    record = pick_array_size(Stages(resnet_layers, tech_calibrated), headline_config,
                             Constraints())
    assert record.chosen == {"rows": 128, "cols": 128}


# --- full flow -------------------------------------------------------------------

def test_optimize_degenerate_single_point(toy_layers, tech_default):
    tpl = ChipConfig(rows=16, cols=8, cores=2, batch=4)
    cons = Constraints(area_cap_mm2=50.0, batch_candidates=(4,),
                       array_rows=(16,), array_cols=(8,), sram_step_mb=0.25,
                       template=tpl)
    res = optimize(toy_layers, tech_default, cons)
    assert (res.config.rows, res.config.cols, res.config.batch) == (16, 8, 4)
    direct = evaluate(toy_layers, res.config, tech_default)
    assert res.report.ips == direct.ips


def test_optimize_audit_counts_all_candidates(toy_layers, tech_default):
    tpl = ChipConfig(rows=16, cols=8, cores=2, batch=4)
    cons = Constraints(area_cap_mm2=20.0, batch_candidates=(2, 4),
                       array_rows=(8, 16), array_cols=(8,), template=tpl)
    res = optimize(toy_layers, tech_default, cons)
    steps = [s.step for s in res.steps]
    assert steps[:3] == ["batch", "sram", "array"]
    by_name = {}
    for s in res.steps:
        by_name.setdefault(s.step, []).append(s)
    assert len(by_name["batch"][0].candidates) == 2
    assert len(by_name["array"][0].candidates) == 2
    n_sram = len(by_name["sram"][0].candidates)
    assert res.total_candidates == sum(len(s.candidates) for s in res.steps)
    assert res.total_candidates >= 2 + 2 + n_sram


def test_optimize_infeasible_cap_names_step(toy_layers, tech_default):
    tpl = ChipConfig(rows=128, cols=128, cores=2, batch=1)
    cons = Constraints(area_cap_mm2=5.0, batch_candidates=(1,),
                       array_rows=(128,), array_cols=(128,), template=tpl)
    with pytest.raises(InfeasibleError, match="sram"):
        optimize(toy_layers, tech_default, cons)


def test_optimize_resnet_reaches_published_design(resnet_layers, tech_calibrated):
    res = optimize(resnet_layers, tech_calibrated, Constraints())
    assert (res.config.rows, res.config.cols) == (128, 128)
    assert res.config.batch <= 32
    assert res.report.area_mm2 <= 100.0 + 1e-9
    assert [s.step for s in res.steps][:3] == ["batch", "sram", "array"]


def test_optimize_reproducible(toy_layers, tech_calibrated):
    tpl = ChipConfig(rows=16, cols=8, cores=2, batch=4)
    cons = Constraints(area_cap_mm2=30.0, batch_candidates=(1, 2, 4),
                       array_rows=(8, 16), array_cols=(8, 16), template=tpl)
    a = optimize(toy_layers, tech_calibrated, cons)
    b = optimize(toy_layers, tech_calibrated, cons)
    assert a.config == b.config
    assert a.report.ips == b.report.ips
    assert a.report.energy_j == b.report.energy_j


def test_optimize_maps_and_times_each_distinct_input_once(resnet_layers, tech_calibrated):
    mapped, evaluated, timed = [], [], []

    def counting_runtime(layers_, cfg):
        stats = network_runtime(layers_, cfg)
        mapped.append((cfg, stats))
        return stats

    def counting_evaluate(layers_, cfg, tech_):
        evaluated.append(cfg)
        return evaluate(layers_, cfg, tech_)

    def counting(timeline_fn):
        def timeline(stats, cfg, tech_):
            timed.append(cfg)
            return timeline_fn(stats, cfg, tech_)
        return timeline

    with pytest.MonkeyPatch.context() as mp:
        # size_sram maps through dse's name, the stage memo through perf's
        mp.setattr(dse, "network_runtime", counting_runtime)
        mp.setattr(perf, "network_runtime", counting_runtime)
        mp.setattr(perf, "evaluate", counting_evaluate)
        mp.setattr(perf, "make_timeline", counting(perf.make_timeline))
        res = optimize(resnet_layers, tech_calibrated, Constraints())

    # every score comes from the stage memo, none from a whole evaluation
    assert evaluated == []

    def key(c):
        return (c.rows, c.cols, c.b_w, c.b_acc, c.batch, c.b_in, c.b_out,
                bisect_right(Network.of(resnet_layers).breakpoints(c), c.input_sram_bits))

    # new keys per step: batch 9, sram 14, array 24 (32x32 is the sram step's
    # pick), sram again 14, array again 0 (it shares every key)
    assert _builds(mapped, key) == 61
    shapes = [(c.rows, c.cols, c.batch, c.cores) for c in timed]
    assert len(shapes) == len(set(shapes))
    direct = evaluate(resnet_layers, res.config, tech_calibrated)
    assert flat_row(res.config, res.report) == flat_row(res.config, direct)


def test_optimize_over_the_cap_after_the_last_pass_is_infeasible(
        resnet_layers, tech_calibrated, monkeypatch):
    # these constraints settle in three passes; two leave the array step's
    # 128x64 pick over the cap the SRAM was sized against
    cons = Constraints(area_cap_mm2=79.2, sram_step_mb=1.5, batch_candidates=(16, 256),
                       array_rows=(128, 256), array_cols=(64,))
    assert len(optimize(resnet_layers, tech_calibrated, cons).steps) == 7
    monkeypatch.setattr(dse, "MAX_PASSES", 2)
    with pytest.raises(InfeasibleError, match=r"measures 84\.37 mm2, over the 79\.2 mm2 cap"):
        optimize(resnet_layers, tech_calibrated, cons)


def test_optimize_judges_each_pass_on_one_report_and_returns_the_last(
        resnet_layers, tech_calibrated, monkeypatch):
    # the shipped constraints settle in two passes: the array step scores its
    # candidates, each pass then ends with one report of its config, and
    # nothing is evaluated after the loop
    reports = []
    real_report = dse.Stages.report

    def recording(self, cfg):
        reports.append(real_report(self, cfg))
        return reports[-1]

    monkeypatch.setattr(dse.Stages, "report", recording)
    res = optimize(resnet_layers, tech_calibrated, Constraints())
    assert [s.step for s in res.steps] == ["batch", "sram", "array", "sram", "array"]
    scored = sum("ips" in row for s in res.steps if s.step == "array" for row in s.candidates)
    assert len(reports) == scored + 2
    assert res.report is reports[-1]


@settings(max_examples=40, deadline=None)
@given(cap=st.floats(5.0, 150.0), step=st.floats(0.1, 2.0),
       batches=st.lists(st.integers(1, 256), min_size=1, max_size=5, unique=True).map(sorted),
       rows=st.lists(st.integers(8, 256), min_size=1, max_size=3),
       cols=st.lists(st.integers(8, 256), min_size=1, max_size=3),
       profile=st.sampled_from(["paper-default", "paper-consistent"]))
def test_optimize_result_meets_its_own_constraints(toy_layers, cap, step, batches, rows,
                                                   cols, profile):
    tech = apply_profile(default_tech_params(), get_profile(profile))
    cons = Constraints(area_cap_mm2=cap, batch_candidates=tuple(batches),
                       array_rows=tuple(rows), array_cols=tuple(cols), sram_step_mb=step)
    try:
        res = optimize(toy_layers, tech, cons)
    except InfeasibleError:
        return
    cfg = res.config
    assert res.report.area_mm2 <= cap + 1e-9
    assert cfg.rows in rows and cfg.cols in cols and cfg.batch in batches
    last = {s.step: s.chosen for s in res.steps}
    assert last["batch"]["batch"] == cfg.batch
    assert last["sram"]["input_sram_mb"] == cfg.sram_input_mb
    assert (last["array"]["rows"], last["array"]["cols"]) == (cfg.rows, cfg.cols)
    # programming is hidden, or the last batch step found no batch that hides it
    batch_rows = [s.candidates for s in res.steps if s.step == "batch"][-1]
    assert cons.hides(res.report.timeline) or not any(row["hidden"] for row in batch_rows)


_SIZES = st.lists(st.sampled_from([8, 32, 128, 1024]), min_size=1, max_size=3,
                  unique=True).map(tuple)


@st.composite
def _step_inputs(draw):
    """Constraints over a drawn template, from small pools, so that two draws
    share many configs (and so memo entries)."""
    template = ChipConfig(rows=draw(st.sampled_from([8, 128, 512])),
                          cols=draw(st.sampled_from([8, 128, 512])), cores=2,
                          batch=draw(st.sampled_from([1, 8, 32])),
                          b_in=draw(st.sampled_from([4, 6])), b_w=draw(st.sampled_from([4, 6])),
                          b_out=draw(st.sampled_from([6, 8])),
                          sram_input_mb=draw(st.sampled_from([0.5, 4.0, 32.0])))
    batches = draw(st.lists(st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128, 256]), min_size=1,
                            max_size=4, unique=True))
    return Constraints(area_cap_mm2=draw(st.floats(1.0, 150.0)),
                       batch_candidates=tuple(sorted(batches)),
                       array_rows=draw(_SIZES), array_cols=draw(_SIZES),
                       sram_step_mb=draw(st.sampled_from([0.25, 0.5, 1.5])),
                       hiding_eps=draw(st.sampled_from([0.0, 0.01, 0.1])),
                       tie_tol=draw(st.sampled_from([0.0, 0.02, 0.5])), template=template)


def _step_or_error(step, stages, cons):
    try:
        return step(stages, cons.template, cons)
    except Exception as exc:  # a step must fail alike through either memo
        return type(exc), str(exc)


@pytest.mark.parametrize("topology", ["toy3", "resnet50_v15"])
@settings(max_examples=40, deadline=None)
@given(first=_step_inputs(), second=_step_inputs(),
       profile=st.sampled_from(["paper-default", "paper-consistent"]))
def test_a_warm_stages_memo_gives_each_step_the_answer_of_a_fresh_one(topology, first, second,
                                                                     profile):
    layers = load_topology(topology)[0]
    tech = apply_profile(default_tech_params(), get_profile(profile))
    steps = (find_min_hiding_batch, size_sram, pick_array_size)
    warm = Stages(layers, tech)
    for step in steps:
        _step_or_error(step, warm, first)
    for step in steps:
        assert _step_or_error(step, warm, second) == _step_or_error(step, Stages(layers, tech),
                                                                    second)
