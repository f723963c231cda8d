"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""
import contextlib
import hashlib
import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from oxsim import (
    ChipConfig,
    CouplerPlan,
    crossbar_mvm,
    evaluate,
    network_runtime,
    quantize,
    timeline_dual_core,
)
from oxsim.cli import main
from oxsim.workload import LayerSpec


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {num}] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE {num}] {name}: PASS")


def test_criterion_1_mvm_fidelity():
    with criterion(1, "functional MVM fidelity vs dense oracle"):
        t0 = time.monotonic()
        rng = np.random.default_rng(2024)
        sizes = [1, 2, 4, 8, 16]
        cases = 0
        for n, m in itertools.product(sizes, sizes):
            plan = CouplerPlan.for_array(n, m)
            for _ in range(40):
                v = quantize(rng.random(n), 6)
                w = quantize(rng.random((n, m)), 6)
                e_laser = float(rng.uniform(0.1, 4.0))
                got = crossbar_mvm(v, w, plan, e_laser=e_laser)
                want = (e_laser / (n * math.sqrt(m))) * (w.T @ v)
                err = np.abs(got - want)
                tol = 1e-9 * np.maximum(np.abs(want), 1e-12 * e_laser)
                assert np.all(err <= tol)
                cases += 1
        assert cases == 1000
        assert time.monotonic() - t0 < 5.0


def test_criterion_2_coupler_equalization():
    with criterion(2, "coupler plans equalize 1/sqrt(M) and 1/sqrt(N) up to 512"):
        t0 = time.monotonic()
        for m in range(1, 513):
            delivered = CouplerPlan.for_array(1, m).delivered_input_fields()
            target = 1.0 / math.sqrt(m)
            assert np.max(np.abs(delivered - target)) <= 1e-12 * target
        for n in range(1, 513):
            collected = CouplerPlan.for_array(n, 1).collection_weights()
            target = 1.0 / math.sqrt(n)
            assert np.max(np.abs(collected - target)) <= 1e-12 * target
        assert time.monotonic() - t0 < 10.0


def test_criterion_3_core_count_invariance(toy_layers, tech_default):
    with criterion(3, "IPS/W is core-count invariant; dual IPS never lower"):
        rng = random.Random(99)
        for _ in range(20):
            cfg = ChipConfig(
                rows=rng.choice((4, 8, 16, 32, 64, 128, 256, 512)),
                cols=rng.choice((4, 8, 16, 32, 64, 128, 256, 512)),
                batch=rng.choice((1, 2, 4, 8, 16, 32)),
                cores=2,
            )
            dual = evaluate(toy_layers, cfg, tech_default)
            single = evaluate(toy_layers, cfg.with_(cores=1), tech_default)
            rel = abs(dual.ips_per_w - single.ips_per_w) / single.ips_per_w
            assert rel <= 1e-6
            assert dual.ips >= single.ips


def _replay_dual_cycles(tiles, p):
    port_free, compute_end = 0, 0
    array_free = [0, 0]
    for i, c in enumerate(tiles):
        a = i % 2
        prog_end = max(port_free, array_free[a]) + p
        port_free = prog_end
        compute_end = max(prog_end, compute_end) + c
        array_free[a] = compute_end
    return compute_end


def _uniform_stream(cycles_per_tile, tiles):
    layer = LayerSpec("s", 1, cycles_per_tile, 1, 1, 1, tiles, 1)
    cfg = ChipConfig(rows=1, cols=1, cores=2, batch=1)
    return network_runtime([layer], cfg), cfg


def test_criterion_4_programming_hiding(tech_default):
    with criterion(4, "dual core hides programming exactly as the replay oracle"):
        p = 1000  # cycles: 100 ns at 10 GHz
        # every tile long enough: exactly one exposed programming
        for cycles, tiles in ((1000, 5), (1500, 7), (40000, 3)):
            stats, cfg = _uniform_stream(cycles, tiles)
            tl = timeline_dual_core(stats, cfg, tech_default)
            assert tl.exposed_prog_cycles == p
            assert tl.total_cycles == _replay_dual_cycles([cycles] * tiles, p)
        # every tile short: programming-bound, marginal cost exactly p per tile
        prev = None
        for tiles in (1, 2, 3, 8, 21):
            stats, cfg = _uniform_stream(500, tiles)
            tl = timeline_dual_core(stats, cfg, tech_default)
            assert tl.total_cycles == _replay_dual_cycles([500] * tiles, p)
            assert tl.total_cycles == p * tiles + 500
            if prev is not None:
                prev_tiles, prev_total = prev
                assert tl.total_cycles - prev_total == p * (tiles - prev_tiles)
            prev = (tiles, tl.total_cycles)
        # mixed streams: exact equality with the event-driven replay
        rng = random.Random(4)
        for _ in range(100):
            spec = [(rng.randint(1, 3000), rng.randint(1, 6)) for _ in range(rng.randint(1, 5))]
            layers = [LayerSpec(f"l{i}", 1, c, 1, 1, 1, t, 1) for i, (c, t) in enumerate(spec)]
            cfg = ChipConfig(rows=1, cols=1, cores=2, batch=1)
            stats = network_runtime(layers, cfg)
            tiles = [c for c, t in spec for _ in range(t)]
            assert timeline_dual_core(stats, cfg, tech_default).total_cycles == \
                _replay_dual_cycles(tiles, p)


def test_criterion_5_residency_cliff(resnet_layers, headline_config, tech_calibrated):
    with criterion(5, "DRAM energy cliff between batch 32 and 64; monotone in SRAM"):
        r32 = evaluate(resnet_layers, headline_config.with_(batch=32), tech_calibrated)
        r64 = evaluate(resnet_layers, headline_config.with_(batch=64), tech_calibrated)
        per_inf_32 = r32.energy_j["dram"] / 32
        per_inf_64 = r64.energy_j["dram"] / 64
        assert per_inf_64 >= 2.0 * per_inf_32
        sizes = [0.5, 1, 2, 4, 8, 12, 16, 18.5, 26.3, 40, 64, 128, 512]
        traffic = [
            network_runtime(resnet_layers, headline_config.with_(sram_input_mb=s)).total.dram_bits
            for s in sizes
        ]
        assert all(a >= b for a, b in zip(traffic, traffic[1:]))


def test_criterion_6_array_size_trend(resnet_layers, headline_config, tech_calibrated):
    with criterion(6, "IPS/W peaks at 128-256 rows x 64-128 cols; IPS grows with array"):
        axes = (32, 64, 128, 256, 512)
        ipsw, ips = {}, {}
        for r, c in itertools.product(axes, axes):
            rep = evaluate(resnet_layers, headline_config.with_(rows=r, cols=c), tech_calibrated)
            ipsw[(r, c)] = rep.ips_per_w
            ips[(r, c)] = rep.ips
        best = max(ipsw, key=ipsw.get)
        assert 128 <= best[0] <= 256
        assert 64 <= best[1] <= 128
        # growing the array (component-wise, hence in N*M) never loses IPS
        for a, b in itertools.product(ips, ips):
            if a[0] <= b[0] and a[1] <= b[1] and a[0] * a[1] < b[0] * b[1]:
                assert ips[a] <= ips[b] + 1e-9


def test_criterion_7_headline_reproduction(resnet_layers, headline_config, tech_calibrated):
    with criterion(7, "calibrated profile reproduces published IPS/power/split"):
        t0 = time.monotonic()
        report = evaluate(resnet_layers, headline_config, tech_calibrated)
        assert report.ips == pytest.approx(36382, rel=0.20)
        assert report.power_w == pytest.approx(30.0, rel=0.30)
        assert max(report.energy_j, key=report.energy_j.get) == "dram"
        assert max(report.area_by_mm2, key=report.area_by_mm2.get) == "sram"
        assert time.monotonic() - t0 < 60.0


def test_criterion_8_optimizer_flow(tmp_path):
    with criterion(8, "optimizer lands on 128x128, batch <= 32, under 1 cm^2"):
        out = tmp_path / "audit.json"
        rc = main(["optimize", "--topology", "resnet50_v15",
                   "--profile", "paper-consistent", "--out", str(out)])
        assert rc == 0
        audit = json.loads(out.read_text())
        chosen = audit["chosen_config"]
        assert (chosen["rows"], chosen["cols"]) == (128, 128)
        assert chosen["batch"] <= 32
        assert audit["metrics"]["area_mm2"] <= 100.0 + 1e-9
        steps = [s["step"] for s in audit["steps"]]
        assert steps[:3] == ["batch", "sram", "array"]


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "evaluate/sweep/optimize outputs are byte-identical on rerun"):
        def digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        cfg = tmp_path / "chip.ini"
        cfg.write_text("[chip]\nrows = 16\ncols = 16\ncores = 2\nbatch = 4\n")
        grid = tmp_path / "grid.ini"
        grid.write_text("[chip]\nrows = 16\ncols = 16\n\n[grid]\nrows = 8 16\nbatch = 1 2\n")
        cons = tmp_path / "cons.ini"
        cons.write_text("[chip]\nrows = 16\ncols = 8\n\n[constraints]\n"
                        "area_cap_mm2 = 30\nbatch_candidates = 1 2 4\n"
                        "array_rows = 8 16\narray_cols = 8\n")

        hashes = []
        for run in ("a", "b"):
            ev = tmp_path / f"ev_{run}"
            assert main(["evaluate", "--config", str(cfg), "--topology", "toy3",
                         "--out", str(ev)]) == 0
            sw = tmp_path / f"sweep_{run}.csv"
            assert main(["sweep", "--grid", str(grid), "--topology", "toy3",
                         "--out", str(sw)]) == 0
            op = tmp_path / f"audit_{run}.json"
            assert main(["optimize", "--constraints", str(cons), "--topology", "toy3",
                         "--out", str(op)]) == 0
            hashes.append((digest(ev / "report.json"), digest(ev / "report.csv"),
                           digest(sw), digest(op)))
        assert hashes[0] == hashes[1]
