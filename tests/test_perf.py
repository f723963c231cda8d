import dataclasses
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oxsim import (
    ChipConfig,
    EvaluationError,
    LayerSpec,
    TechParams,
    apply_profile,
    default_tech_params,
    evaluate,
    get_profile,
    load_topology,
    network_runtime,
    timeline_dual_core,
    timeline_single_core,
)
from oxsim.perf import area_model, energy_model
from oxsim.reports import flat_row, json_payload
from oxsim.workload import Counts, Network, RuntimeStats


def replay_single(stream, p):
    """Oracle: strictly serialize program -> compute per tile."""
    t = 0
    for cycles, count in stream:
        t += count * (p + cycles)
    return t


def replay_dual(stream, p):
    """Oracle: two arrays ping-pong behind one programming port.

    Array parity alternates per tile. Programming tile i needs the port free
    and that array done computing its previous tile; compute needs its own
    programming done and the shared readout path free (in-order results).
    """
    tiles = [cycles for cycles, count in stream for _ in range(count)]
    port_free = 0
    array_free = [0, 0]
    compute_end = 0
    for i, c in enumerate(tiles):
        a = i % 2
        prog_end = max(port_free, array_free[a]) + p
        port_free = prog_end
        compute_end = max(prog_end, compute_end) + c
        array_free[a] = compute_end
    return compute_end


def _stream_of(stats):
    return [(lr.tiles.vectors_per_tile, lr.tiles.programming_events)
            for lr in stats.layers]


def _uniform_stream_stats(cycles_per_tile, tiles):
    """Synthetic one-layer network with a constant tile stream."""
    layer = LayerSpec("s", 1, cycles_per_tile, 1, 1, 1, tiles, 1)
    cfg = ChipConfig(rows=1, cols=1, cores=2, batch=1)
    return network_runtime([layer], cfg), cfg


# --- single core --------------------------------------------------------------

def test_single_core_stalls_per_tile():
    # one tile of 1000 cycles at 10 GHz plus one 100 ns programming = 200 ns
    stats, cfg = _uniform_stream_stats(1000, 1)
    tl = timeline_single_core(stats, cfg.with_(cores=1), default_tech_params())
    assert tl.total_cycles == 2000
    assert tl.t_total == pytest.approx(200e-9, rel=1e-12)
    assert tl.t_program_exposed == pytest.approx(100e-9, rel=1e-12)


def test_zero_programming_time_leaves_pure_compute():
    stats, cfg = _uniform_stream_stats(500, 4)
    tech = dataclasses.replace(default_tech_params(), t_pcm_program=0.0)
    tl = timeline_single_core(stats, cfg.with_(cores=1), tech)
    assert tl.t_total == tl.t_compute
    assert tl.t_program_exposed == 0.0


def test_single_core_matches_replay_on_resnet(resnet_layers, headline_config):
    cfg = headline_config.with_(cores=1)
    stats = network_runtime(resnet_layers, cfg)
    tl = timeline_single_core(stats, cfg, default_tech_params())
    assert tl.total_cycles == replay_single(_stream_of(stats), 1000)


# --- dual core ----------------------------------------------------------------

def test_dual_core_hides_programming_when_tiles_are_long():
    stats, cfg = _uniform_stream_stats(1500, 7)  # 150 ns compute >= 100 ns prog
    tl = timeline_dual_core(stats, cfg, default_tech_params())
    assert tl.exposed_prog_cycles == 1000  # exactly one unhidden programming
    assert tl.total_cycles == 1000 + 7 * 1500


def test_dual_core_programming_bound_rate():
    p = 1000
    for tiles in (1, 2, 5, 9):
        stats, cfg = _uniform_stream_stats(500, tiles)
        tl = timeline_dual_core(stats, cfg, default_tech_params())
        # marginal cost of every extra tile is exactly one programming time
        assert tl.total_cycles == p * tiles + 500
        assert tl.total_cycles == replay_dual(_stream_of(stats), p)


def test_dual_core_mixed_streams_match_replay():
    rng = random.Random(123)
    tech = default_tech_params()
    for _ in range(60):
        layers = []
        for i in range(rng.randint(1, 5)):
            width = rng.randint(1, 2500)
            filters = rng.randint(1, 6)
            layers.append(LayerSpec(f"l{i}", 1, width, 1, 1, 1, filters, 1))
        cfg = ChipConfig(rows=1, cols=1, cores=2, batch=rng.choice((1, 2, 3)))
        stats = network_runtime(layers, cfg)
        tl = timeline_dual_core(stats, cfg, tech)
        assert tl.total_cycles == replay_dual(_stream_of(stats), 1000)
        single = timeline_single_core(stats, cfg.with_(cores=1), tech)
        assert tl.total_cycles <= single.total_cycles
        assert tl.t_program_exposed <= single.t_program_exposed + 1e-15


def test_dual_core_matches_replay_on_resnet(resnet_layers, headline_config):
    stats = network_runtime(resnet_layers, headline_config)
    tl = timeline_dual_core(stats, headline_config, default_tech_params())
    assert tl.total_cycles == replay_dual(_stream_of(stats), 1000)
    # at batch 32 every tile computes >= 1568 cycles, so only the first
    # programming is exposed
    assert tl.exposed_prog_cycles == 1000


def oracle_timeline(stream, p, dual):
    """Oracle: the per-layer loop `perf._timeline` ran before its closed form.

    `stream` is (layer name, tile count, cycles per tile) in execution order;
    returns (compute, exposed programming, total) cycles. The loop is kept as
    it was, without its per-layer segment records.
    """
    n_tiles = sum(count for _, count, _ in stream)

    compute_total = 0
    total = 0
    if not dual:
        for name, count, cycles in stream:
            layer_compute = count * cycles
            compute_total += layer_compute
            total += count * (p + cycles)
    else:
        # Tile i overlaps with programming of tile i+1: each non-final tile
        # contributes max(c, p); the stream's final tile has nothing left to
        # hide and contributes bare compute. The head programming is never
        # hidden. Runs of identical tiles are collapsed.
        total = p if n_tiles else 0
        seen = 0
        for name, count, cycles in stream:
            layer_compute = count * cycles
            compute_total += layer_compute
            holds_final_tile = seen + count == n_tiles
            paired = count - 1 if holds_final_tile else count
            total += paired * max(cycles, p) + (cycles if holds_final_tile else 0)
            seen += count

    exposed_total = total - compute_total
    return compute_total, exposed_total, total


@st.composite
def _tile_streams(draw):
    """1-8 layers of (tiles, cycles per tile) and a programming time p that is
    0, below every tile, above every tile, equal to one, or in between."""
    tiles = draw(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 5000)),
                          min_size=1, max_size=8))
    cycles = sorted(c for _, c in tiles)
    p = draw(st.one_of(
        st.just(0),
        st.integers(0, cycles[0] - 1),
        st.integers(cycles[-1] + 1, 2 * cycles[-1] + 1),
        st.sampled_from(cycles),
        st.integers(cycles[0], cycles[-1]),
    ))
    return tiles, p


@settings(max_examples=300, deadline=None)
@given(case=_tile_streams())
def test_timeline_equals_the_per_layer_oracle(case):
    tiles, p = case
    # on a 1x1 array a 1 x w ifmap with f 1x1 filters maps to f tiles of w cycles
    layers = [LayerSpec(f"l{i}", 1, cycles, 1, 1, 1, count, 1)
              for i, (count, cycles) in enumerate(tiles)]
    cfg = ChipConfig(rows=1, cols=1, batch=1, clock_hz=1.0)  # one cycle per second
    stats = network_runtime(layers, cfg)
    tech = dataclasses.replace(default_tech_params(), t_pcm_program=float(p))
    stream = [(layer.name, count, cycles) for layer, (count, cycles) in zip(layers, tiles)]
    for cores, timeline in ((1, timeline_single_core), (2, timeline_dual_core)):
        tl = timeline(stats, cfg.with_(cores=cores), tech)
        assert tl.prog_cycles_per_event == p
        assert (tl.compute_cycles, tl.exposed_prog_cycles, tl.total_cycles) == \
            oracle_timeline(stream, p, dual=cores == 2)


def test_timeline_core_count_must_match():
    stats, cfg = _uniform_stream_stats(10, 1)
    from oxsim.errors import EvaluationError
    with pytest.raises(EvaluationError):
        timeline_single_core(stats, cfg, default_tech_params())
    with pytest.raises(EvaluationError):
        timeline_dual_core(stats, cfg.with_(cores=1), default_tech_params())


# --- energy -------------------------------------------------------------------

def test_energy_zero_activity_is_all_zero():
    # a network with no layers: every column empty, every total 0
    columns = dict.fromkeys(RuntimeStats._fields, [])
    stats = RuntimeStats(**{**columns, "network": Network(), "total": Counts()})
    cfg = ChipConfig(rows=4, cols=4, cores=1, batch=1)
    tl = timeline_single_core(stats, cfg, default_tech_params())
    energy = energy_model(stats, tl, cfg, default_tech_params())
    assert all(v == 0.0 for v in energy.values())


def test_energy_single_cycle_unit_cell():
    layer = LayerSpec("unit", 1, 1, 1, 1, 1, 1, 1)
    cfg = ChipConfig(rows=1, cols=1, cores=1, batch=1)
    tech = default_tech_params()
    stats = network_runtime([layer], cfg)
    assert stats.total.compute_cycles == 1
    tl = timeline_single_core(stats, cfg, tech)
    energy = energy_model(stats, tl, cfg, tech)
    assert energy["adc"] == pytest.approx(25e-3 / 1e10, rel=1e-12)   # 2.5 pJ
    assert energy["tia"] == pytest.approx(2.25e-3 / 1e10, rel=1e-12)  # 0.225 pJ
    assert energy["odac"] == pytest.approx(168e-15, rel=1e-12)
    assert energy["serdes"] == pytest.approx((6 + 6) * 100e-15, rel=1e-12)
    assert energy["clocking"] == pytest.approx(2 * 200e-15, rel=1e-12)
    assert energy["thermal_tuning"] == pytest.approx(2 * 0.72e-3 / 1e10, rel=1e-12)
    assert energy["pcm_programming"] == pytest.approx(100e-12, rel=1e-12)


def test_dram_dominates_on_calibrated_resnet(resnet_layers, headline_config, tech_calibrated):
    report = evaluate(resnet_layers, headline_config, tech_calibrated)
    assert report.largest_energy_category() == "dram"


def test_headline_regression_pins(resnet_layers, headline_config, tech_calibrated):
    # frozen from the model at calibration time; catches accidental drift
    report = evaluate(resnet_layers, headline_config, tech_calibrated)
    assert report.timeline.total_cycles == 10_060_288 + 1000
    assert report.ips == pytest.approx(31805.073, rel=1e-6)
    assert report.power_w == pytest.approx(30.0027, rel=1e-4)
    assert report.area_mm2 == pytest.approx(35.5547, rel=1e-6)


def test_only_dram_energized_sanity(resnet_layers, headline_config):
    tech = dataclasses.replace(
        default_tech_params(),
        e_odac_driver=0.0, p_thermal_per_ring=0.0, p_tia=0.0, p_adc=0.0,
        e_serdes_per_bit=0.0, e_clock_per_lane_cycle=0.0, e_sram_per_bit=0.0,
        e_pcm_program_per_cell=0.0, p_rx_min_per_column=0.0)
    report = evaluate(resnet_layers, headline_config, tech)
    dram_bits = report.stats.total.dram_bits
    assert report.power_w == dram_bits * tech.e_dram_per_bit / report.timeline.t_total


# --- area ---------------------------------------------------------------------

def test_area_sram_block(headline_config):
    area = area_model(headline_config, default_tech_params())
    assert headline_config.total_sram_mb == pytest.approx(28.55)
    assert area["sram"] == pytest.approx(12.8475, rel=1e-12)


def test_area_adc_per_core_column(headline_config):
    area = area_model(headline_config, default_tech_params())
    assert area["adc"] == pytest.approx(2 * 128 * 0.0475, rel=1e-12)  # 12.16
    assert area["odac"] == pytest.approx(2 * 128 * 2 * 0.0012, rel=1e-12)
    assert area["clocking"] == pytest.approx(2 * 256 * 0.005, rel=1e-12)


def test_area_unit_photonic_cell():
    cfg = ChipConfig(rows=1, cols=1, cores=1, batch=1)
    area = area_model(cfg, default_tech_params())
    assert area["photonic_array"] == pytest.approx(0.0025, rel=1e-12)


def test_area_scales_with_cores(headline_config):
    tech = default_tech_params()
    dual = area_model(headline_config, tech)
    single = area_model(headline_config.with_(cores=1), tech)
    for cat in ("adc", "odac", "clocking", "photonic_array"):
        assert dual[cat] == pytest.approx(2 * single[cat], rel=1e-12)
    assert dual["sram"] == single["sram"]


# sizes from 2**-20 to 2**13 MB, spread evenly in log scale
_MB = st.builds(lambda e, m: m * 2.0 ** e, st.integers(-20, 12),
                st.floats(1.0, 2.0, exclude_max=True))


@pytest.mark.parametrize("axis", ["rows", "cols", "cores", "sram_input_mb", "sram_filter_mb",
                                  "sram_output_mb", "sram_acc_mb"])
@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 4096), cols=st.integers(1, 4096), banks=st.lists(_MB, min_size=4,
       max_size=4), int_step=st.integers(1, 4096), mb_step=_MB,
       profile=st.sampled_from(["paper-default", "paper-consistent"]))
def test_area_does_not_decrease_as_the_chip_grows(axis, rows, cols, banks, int_step, mb_step,
                                                  profile):
    tech = apply_profile(default_tech_params(), get_profile(profile))
    cfg = ChipConfig(rows=rows, cols=cols, cores=1, sram_input_mb=banks[0],
                     sram_filter_mb=banks[1], sram_output_mb=banks[2], sram_acc_mb=banks[3])
    step = {"cores": 1, "rows": int_step, "cols": int_step}.get(axis, mb_step)
    grown = cfg.with_(**{axis: getattr(cfg, axis) + step})
    assert sum(area_model(grown, tech).values()) >= sum(area_model(cfg, tech).values())


# --- evaluate -----------------------------------------------------------------

def test_evaluate_toy_matches_hand_replay(toy_layers, tech_default):
    cfg = ChipConfig(rows=16, cols=8, cores=2, batch=2)
    # by hand: conv_a 2 tiles x 128 cycles, conv_b 10 x 18, conv_c 18 x 2
    # dual core: 1000 + 2*max(128,1000) + 10*max(18,1000) + 17*max(2,1000) + 2
    hand_total_cycles = 1000 + 2 * 1000 + 10 * 1000 + 17 * 1000 + 2
    hand_t_total = hand_total_cycles / 1e10
    report = evaluate(toy_layers, cfg, tech_default)
    assert report.timeline.total_cycles == hand_total_cycles
    assert report.ips == pytest.approx(2 / hand_t_total, rel=1e-12)


def test_evaluate_core_count_invariance(toy_layers, tech_default):
    dual = evaluate(toy_layers, ChipConfig(rows=16, cols=8, cores=2, batch=4), tech_default)
    single = evaluate(toy_layers, ChipConfig(rows=16, cols=8, cores=1, batch=4), tech_default)
    assert dual.energy_total_j == pytest.approx(single.energy_total_j, rel=1e-12)
    assert dual.ips_per_w == pytest.approx(single.ips_per_w, rel=1e-6)
    assert dual.ips >= single.ips


@pytest.mark.parametrize("topology", ["toy3", "resnet50_v15"])
@settings(max_examples=30, deadline=None)
@given(rows=st.integers(8, 256), cols=st.integers(8, 256), batch=st.integers(1, 64),
       sram_mb=st.floats(0.01, 64.0), b_in=st.integers(1, 12), b_out=st.integers(1, 12),
       profile=st.sampled_from(["paper-default", "paper-consistent"]))
def test_second_core_cuts_time_not_energy(topology, rows, cols, batch, sram_mb, b_in, b_out,
                                          profile):
    # every energy category is charged on compute cycles or t_compute, never
    # on t_total, so the energy per pass is the same to the last bit
    layers = load_topology(topology)
    tech = apply_profile(default_tech_params(), get_profile(profile))
    cfg = ChipConfig(rows=rows, cols=cols, cores=1, batch=batch, sram_input_mb=sram_mb,
                     b_in=b_in, b_out=b_out)
    single = evaluate(layers, cfg, tech)
    dual = evaluate(layers, cfg.with_(cores=2), tech)
    assert dual.energy_j == single.energy_j
    assert dual.timeline.t_total <= single.timeline.t_total


@pytest.mark.parametrize("topology", ["toy3", "resnet50_v15"])
@settings(max_examples=30, deadline=None)
@given(rows=st.integers(8, 256), cols=st.integers(8, 256),
       batches=st.lists(st.integers(1, 256), min_size=2, max_size=2, unique=True).map(sorted),
       # 2**-24 to 2**13 MB: both sizes may refetch, both be resident, or straddle
       srams=st.lists(st.builds(lambda e, m: m * 2.0 ** e, st.integers(-24, 12),
                                st.floats(1.0, 2.0, exclude_max=True)),
                      min_size=2, max_size=2, unique=True).map(sorted),
       b_in=st.integers(1, 12), b_out=st.integers(1, 12),
       profile=st.sampled_from(["paper-default", "paper-consistent"]))
def test_input_sram_buys_energy_not_speed_and_batch_hides_programming(
        topology, rows, cols, batches, srams, b_in, b_out, profile):
    layers = load_topology(topology)
    tech = apply_profile(default_tech_params(), get_profile(profile))
    cfg = ChipConfig(rows=rows, cols=cols, cores=2, batch=batches[0], b_in=b_in, b_out=b_out)
    small, large = (evaluate(layers, cfg.with_(sram_input_mb=mb), tech) for mb in srams)
    assert large.ips == small.ips
    assert large.energy_total_j <= small.energy_total_j
    # the dual-core exposed-programming share does not grow with batch (the
    # premise of find_min_hiding_batch), compared exactly in whole cycles
    lo, hi = (evaluate(layers, cfg.with_(batch=b), tech).timeline for b in batches)
    assert hi.exposed_prog_cycles * lo.total_cycles <= lo.exposed_prog_cycles * hi.total_cycles


def test_evaluate_breakdowns_sum(resnet_layers, headline_config, tech_calibrated):
    r = evaluate(resnet_layers, headline_config, tech_calibrated)
    assert sum(r.energy_j.values()) == pytest.approx(r.energy_total_j, rel=1e-9)
    assert sum(r.power_by_w.values()) == pytest.approx(r.power_w, rel=1e-9)
    assert sum(r.area_by_mm2.values()) == pytest.approx(r.area_mm2, rel=1e-9)
    assert r.ips_per_w == pytest.approx(r.ips / r.power_w, rel=1e-12)


def test_evaluate_deterministic(toy_layers, tech_calibrated):
    cfg = ChipConfig(rows=16, cols=8, cores=2, batch=2)
    a = evaluate(toy_layers, cfg, tech_calibrated)
    b = evaluate(toy_layers, cfg, tech_calibrated)
    assert a.ips == b.ips
    assert a.power_w == b.power_w
    assert a.energy_j == b.energy_j
    assert a.area_by_mm2 == b.area_by_mm2


def test_ips_nondecreasing_in_rows_and_cols(toy_layers, tech_default):
    base = ChipConfig(rows=8, cols=8, cores=2, batch=2)
    ips = evaluate(toy_layers, base, tech_default).ips
    assert evaluate(toy_layers, base.with_(rows=16), tech_default).ips >= ips
    assert evaluate(toy_layers, base.with_(cols=16), tech_default).ips >= ips


# --- finite results or a clean failure --------------------------------------

_BIG_INT = st.integers(1, 10**400)
_FLOAT = st.floats(0.0, sys.float_info.max)
_POSITIVE_FLOAT = st.floats(0.0, sys.float_info.max, exclude_min=True)
_CHIP_RANGES = {
    **dict.fromkeys(("rows", "cols", "batch", "b_in", "b_w", "b_out", "b_acc"), _BIG_INT),
    **dict.fromkeys(("clock_hz", "sram_input_mb", "sram_filter_mb", "sram_output_mb",
                     "sram_acc_mb"), _POSITIVE_FLOAT),
    "cores": st.sampled_from([1, 2]),
}
_TECH_RANGES = {
    **dict.fromkeys((f.name for f in dataclasses.fields(TechParams)), _FLOAT),
    "laser_wallplug_eff": st.floats(0.0, 1.0, exclude_min=True),
    "rings_per_row_tx": _BIG_INT,
}


def _draw_some_fields(draw, base, ranges):
    """`base` with up to four of its fields drawn over their whole accepted range."""
    names = sorted(draw(st.sets(st.sampled_from(sorted(ranges)), max_size=4)))
    return dataclasses.replace(base, **{name: draw(ranges[name]) for name in names})


@st.composite
def _configs_and_tech(draw):
    profile = get_profile(draw(st.sampled_from(["paper-default", "paper-consistent"])))
    return (_draw_some_fields(draw, ChipConfig(rows=128, cols=128), _CHIP_RANGES),
            _draw_some_fields(draw, apply_profile(default_tech_params(), profile), _TECH_RANGES))


def _floats(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _floats(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _floats(v)


@pytest.mark.parametrize("topology", ["toy3", "resnet50_v15"])
@settings(max_examples=150, deadline=None)
@given(case=_configs_and_tech())
def test_evaluate_is_finite_or_fails_cleanly(topology, case):
    cfg, tech = case
    try:
        report = evaluate(load_topology(topology), cfg, tech)
    except EvaluationError:
        return
    for out in (json_payload(cfg, report, {}), flat_row(cfg, report)):
        assert all(math.isfinite(x) for x in _floats(out))


def test_power_too_small_for_a_finite_ips_per_w_fails_naming_it(toy_layers, tech_default):
    # one subnormal energy term: power is > 0 but IPS / power overflows
    zero = {f.name: 0.0 for f in dataclasses.fields(TechParams)
            if f.name.startswith(("e_", "p_"))}
    tech = dataclasses.replace(tech_default, **{**zero, "e_dram_per_bit": 5e-324})
    with pytest.raises(EvaluationError, match="IPS/W is inf"):
        evaluate(toy_layers, ChipConfig(), tech)
