from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oxsim import (
    ChipConfig,
    Constraints,
    EvaluationError,
    InfeasibleError,
    LayerSpec,
    SweepGrid,
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
from oxsim import dse, perf
from oxsim.perf import area_model
from oxsim.reports import flat_row
from oxsim.workload import residency_breakpoints


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
    layers = load_topology(topology)
    tech = apply_profile(default_tech_params(), get_profile(profile))
    grid = SweepGrid(template=ChipConfig(b_in=b_in, b_out=b_out), rows=rows, cols=cols,
                     batch=batch, input_sram_mb=tuple(sram), cores=cores)
    mapped, timed = [], []

    def counting_runtime(layers_, cfg):
        mapped.append(cfg)
        return network_runtime(layers_, cfg)

    def counting_timeline(stats, cfg, tech_):
        timed.append(cfg)
        return make_timeline(stats, cfg, tech_)

    make_timeline = perf.make_timeline
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dse, "network_runtime", counting_runtime)
        mp.setattr(perf, "make_timeline", counting_timeline)
        results = sweep(grid, layers, tech)

    configs = grid.configs()
    assert [cfg for cfg, _ in results] == configs
    for cfg, report in results:
        direct = evaluate(layers, cfg, tech)
        assert flat_row(cfg, report) == flat_row(cfg, direct)
        assert report.stats == direct.stats and report.timeline == direct.timeline
    assert len(mapped) == len({
        (c.rows, c.cols, c.batch,
         bisect_right(residency_breakpoints(layers, c), c.input_sram_bits))
        for c in configs})
    assert len(timed) == len({(c.rows, c.cols, c.batch, c.cores) for c in configs})


# --- batch hiding -------------------------------------------------------------

def _stream_layer(cycles_per_tile_at_b1, tiles):
    # one tile per filter on a 1-column array; out_w sets per-tile cycles
    return LayerSpec("s", 1, cycles_per_tile_at_b1, 1, 1, 1, tiles, 1)


def test_min_batch_when_already_hidden(tech_default):
    # 160 ns/tile at batch 1, long enough that the head programming is noise
    layers = [_stream_layer(1600, 200)]
    tpl = ChipConfig(rows=1, cols=1, cores=2, batch=1)
    cons = Constraints(batch_candidates=(1, 2, 4))
    assert find_min_hiding_batch(layers, tpl, tech_default, cons).chosen == {"batch": 1}


def test_min_batch_crosses_programming_time(tech_default):
    # 500 cycles/tile at batch 1 -> 50 ns < 100 ns; batch 2 reaches 100 ns
    layers = [_stream_layer(500, 400)]
    tpl = ChipConfig(rows=1, cols=1, cores=2, batch=1)
    record = find_min_hiding_batch(layers, tpl, tech_default,
                                   Constraints(batch_candidates=(1, 2, 4, 8)))
    assert record.chosen == {"batch": 2}
    assert record.config == tpl.with_(batch=2)
    # oracle: every candidate >= picked also hides (monotone predicate)
    from oxsim import timeline_dual_core
    for b in (2, 4, 8):
        cfg = tpl.with_(batch=b)
        tl = timeline_dual_core(network_runtime(layers, cfg), cfg, tech_default)
        assert tl.t_program_exposed <= 0.01 * tl.t_total


def test_min_batch_falls_back_with_warning(tech_default):
    layers = [_stream_layer(8, 40)]  # hopeless: 0.8 ns/tile
    tpl = ChipConfig(rows=1, cols=1, cores=2, batch=1)
    with pytest.warns(UserWarning, match="falling back"):
        record = find_min_hiding_batch(layers, tpl, tech_default,
                                       Constraints(batch_candidates=(1, 2)))
    assert record.chosen == {"batch": 2}


def test_resnet_hiding_batch_is_32(resnet_layers, tech_calibrated, headline_config):
    # the default candidates are the published batch axis, 1 to 256
    record = find_min_hiding_batch(resnet_layers, headline_config, tech_calibrated, Constraints())
    assert record.chosen == {"batch": 32}


# --- SRAM sizing ----------------------------------------------------------------

def test_size_sram_one_unit_fits(toy_layers, tech_default):
    tpl = ChipConfig(rows=8, cols=8, cores=2, batch=1)
    fixed = sum(area_model(tpl.with_(sram_input_mb=1.0), tech_default).values()) \
        - 1.0 * tech_default.a_sram_per_mb
    plan = size_sram(toy_layers, tpl, tech_default, Constraints(area_cap_mm2=fixed + 0.45))
    assert plan.chosen["input_sram_mb"] == 1.0
    assert plan.config == tpl.with_(sram_input_mb=1.0)


def test_size_sram_cap_below_fixed_area(toy_layers, tech_default):
    tpl = ChipConfig(rows=128, cols=128, cores=2, batch=1)
    with pytest.raises(InfeasibleError, match="sram"):
        size_sram(toy_layers, tpl, tech_default, Constraints(area_cap_mm2=1.0))


def test_size_sram_respects_cap(resnet_layers, tech_calibrated):
    tpl = ChipConfig(rows=128, cols=128, cores=2, batch=32)
    cap = 100.0
    plan = size_sram(resnet_layers, tpl, tech_calibrated, Constraints(area_cap_mm2=cap))
    chosen = plan.chosen["input_sram_mb"]
    area = sum(area_model(tpl.with_(sram_input_mb=chosen), tech_calibrated).values())
    assert area <= cap + 1e-9
    one_more = tpl.with_(sram_input_mb=chosen + 0.25)
    assert sum(area_model(one_more, tech_calibrated).values()) > cap


def test_size_sram_critical_size_matches_traffic_scan(resnet_layers, tech_calibrated):
    tpl = ChipConfig(rows=128, cols=128, cores=2, batch=4)
    plan = size_sram(resnet_layers, tpl, tech_calibrated, Constraints(area_cap_mm2=60.0))
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
    """Reference for size_sram: map the network once per candidate."""
    floor = network_runtime(layers, tpl.with_(sram_input_mb=1e9)).total.dram_bits
    candidates, critical = [], None
    for unit in range(1, n_candidates + 1):
        mb = unit * step_mb
        cfg = tpl.with_(sram_input_mb=mb)
        traffic = network_runtime(layers, cfg).total.dram_bits
        candidates.append({"input_sram_mb": mb, "area_mm2": sum(area_model(cfg, tech).values()),
                           "dram_bits": traffic})
        if critical is None and traffic <= floor:
            critical = mb
    return tuple(candidates), critical


@pytest.mark.parametrize("topology", ["toy3", "resnet50_v15"])
@settings(max_examples=25, deadline=None)
@given(batch=st.integers(1, 64), b_in=st.integers(1, 12), b_out=st.integers(1, 12),
       side=st.sampled_from([8, 32, 128, 512]),
       # binary steps from 2**-22 MB (a few bits) to 4 MB, so that the grid
       # straddles the residency breakpoints of toy3 and of ResNet-50 alike
       step_mb=st.builds(lambda e, m: m * 2.0 ** e, st.integers(-22, 1),
                         st.one_of(st.just(1.0), st.floats(1.0, 2.0, exclude_max=True))),
       units=st.integers(1, 150), slack=st.floats(0.0, 0.99))
def test_size_sram_memo_equals_scan_of_every_candidate(
        tech_calibrated, topology, batch, b_in, b_out, side, step_mb, units, slack):
    layers = load_topology(topology)
    tpl = ChipConfig(rows=side, cols=side, cores=2, batch=batch, b_in=b_in, b_out=b_out)
    fixed = sum(area_model(tpl.with_(sram_input_mb=step_mb), tech_calibrated).values()) \
        - step_mb * tech_calibrated.a_sram_per_mb
    cap = fixed + (units + slack) * step_mb * tech_calibrated.a_sram_per_mb

    calls = []

    def counting_runtime(layers_, cfg):
        calls.append(cfg.sram_input_mb)
        return network_runtime(layers_, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dse, "network_runtime", counting_runtime)
        plan = size_sram(layers, tpl, tech_calibrated,
                         Constraints(area_cap_mm2=cap, sram_step_mb=step_mb))

    candidates, critical = _scan_every_candidate(
        layers, tpl, tech_calibrated, len(plan.candidates), step_mb)
    assert plan.candidates == candidates
    assert plan.chosen == {"input_sram_mb": candidates[-1]["input_sram_mb"],
                           "critical_input_sram_mb": critical}
    traffics = [c["dram_bits"] for c in plan.candidates]
    assert all(a >= b for a, b in zip(traffics, traffics[1:]))
    assert len(calls) <= len(residency_breakpoints(layers, tpl)) + 1


def test_size_sram_memo_counts_a_capacity_equal_to_a_breakpoint_as_resident(tech_default):
    # the ifmap is exactly 1 MB and the 0.5 MB grid lands on it; with two
    # column tiles a non-resident ifmap is fetched twice
    layers = [LayerSpec("mb", 1024, 1024, 1, 1, 1, 2, 1)]
    tpl = ChipConfig(rows=1, cols=1, cores=2, batch=1, b_in=8, b_out=8)
    assert residency_breakpoints(layers, tpl) == [8 * 2**20, 16 * 2**20]
    cap = sum(area_model(tpl.with_(sram_input_mb=2.0), tech_default).values())
    plan = size_sram(layers, tpl, tech_default, Constraints(area_cap_mm2=cap, sram_step_mb=0.5))
    assert plan.candidates == _scan_every_candidate(layers, tpl, tech_default, 4, 0.5)[0]
    assert plan.chosen["critical_input_sram_mb"] == 1.0


# --- array selection ------------------------------------------------------------

def test_pick_array_single_candidate(toy_layers, tech_default):
    tpl = ChipConfig(rows=8, cols=8, cores=2, batch=2)
    cons = Constraints(array_rows=(16,), array_cols=(8,))
    record = pick_array_size(toy_layers, tpl, tech_default, cons)
    assert record.chosen == {"rows": 16, "cols": 8}
    assert record.config == tpl.with_(rows=16, cols=8)


def test_pick_array_tie_resolves_to_largest(toy_layers, tech_default):
    tpl = ChipConfig(rows=8, cols=8, cores=2, batch=2)
    # with a 99.9% tolerance everything ties; the largest array must win
    cons = Constraints(array_rows=(8, 16), array_cols=(8, 16), tie_tol=0.999)
    assert pick_array_size(toy_layers, tpl, tech_default, cons).chosen == {"rows": 16, "cols": 16}


def test_pick_array_resnet_calibrated(resnet_layers, tech_calibrated, headline_config):
    record = pick_array_size(resnet_layers, headline_config, tech_calibrated, Constraints())
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
    mapped, mapped_outside, timed = [], [], []

    def counting_runtime(layers_, cfg):
        mapped.append(cfg)
        return network_runtime(layers_, cfg)

    def counting_perf_runtime(layers_, cfg):
        mapped_outside.append(cfg)
        return network_runtime(layers_, cfg)

    def counting(timeline_fn):
        def timeline(stats, cfg, tech_):
            timed.append(cfg)
            return timeline_fn(stats, cfg, tech_)
        return timeline

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dse, "network_runtime", counting_runtime)
        mp.setattr(perf, "network_runtime", counting_perf_runtime)
        mp.setattr(perf, "make_timeline", counting(perf.make_timeline))
        mp.setattr(dse, "timeline_dual_core", counting(dse.timeline_dual_core))
        res = optimize(resnet_layers, tech_calibrated, Constraints())

    assert mapped_outside == []
    keys = [(c.rows, c.cols, c.b_w, c.b_acc, c.batch, c.b_in, c.b_out,
             bisect_right(residency_breakpoints(resnet_layers, c), c.input_sram_bits))
            for c in mapped]
    # new keys per step: batch 9, sram 14, array 24 (32x32 is the sram step's
    # pick), sram again 14, array again 0 (it shares every key)
    assert len(keys) == len(set(keys)) == 61
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


@pytest.mark.filterwarnings("ignore:no candidate batch hides programming")
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
