import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oxsim import (
    ChipConfig,
    CouplerPlan,
    InputVector,
    WeightMatrix,
    coherent_detect,
    crossbar_mvm,
    default_tech_params,
    loss_budget,
    quantize,
    synth_input_couplers,
    synth_output_couplers,
)


# --- coupler synthesis -------------------------------------------------------

def test_input_couplers_single_tap():
    assert synth_input_couplers(1).tolist() == [1.0]


def test_input_couplers_known_ladders():
    np.testing.assert_allclose(synth_input_couplers(2), [0.70710678, 1.0], atol=1e-8)
    np.testing.assert_allclose(
        synth_input_couplers(3), [0.57735027, 0.70710678, 1.0], atol=1e-8)


def test_input_couplers_equal_power_recurrence():
    # oracle: walk the power ledger; every tap must peel off exactly 1/M
    for m in (2, 3, 7, 16, 100, 257):
        k = synth_input_couplers(m)
        remaining = 1.0
        for j in range(m):
            delivered = remaining * k[j] ** 2
            assert delivered == pytest.approx(1.0 / m, rel=1e-12)
            remaining *= 1.0 - k[j] ** 2
        assert k[-1] == pytest.approx(1.0, abs=1e-15)


def test_output_couplers_single_tap():
    assert synth_output_couplers(1).tolist() == [1.0]


def test_output_couplers_equalize_contributions():
    # oracle: push a unit product from each row through the downstream taps
    for n in (2, 4, 9, 33, 128):
        k = synth_output_couplers(n)
        assert k[0] == pytest.approx(1.0, abs=1e-15)
        for i in range(n):
            weight = k[i]
            for m in range(i + 1, n):
                weight *= math.sqrt(1.0 - k[m] ** 2)
            assert weight == pytest.approx(1.0 / math.sqrt(n), rel=1e-12)


def test_coupler_plan_helpers_match_targets():
    plan = CouplerPlan.for_array(rows=48, cols=96)
    np.testing.assert_allclose(
        plan.delivered_input_fields(), 1.0 / math.sqrt(96), rtol=1e-12)
    np.testing.assert_allclose(
        plan.collection_weights(), 1.0 / math.sqrt(48), rtol=1e-12)


def test_coupler_degenerate_counts_rejected():
    with pytest.raises(ValueError):
        synth_input_couplers(0)
    with pytest.raises(ValueError):
        synth_output_couplers(0)


# --- quantization ------------------------------------------------------------

def test_quantize_endpoints():
    assert quantize(1.0, 6) == 1.0
    assert quantize(0.0, 6) == 0.0


def test_quantize_midpoint_rounds_away_from_zero():
    assert quantize(0.5, 6) == pytest.approx(32 / 63, abs=1e-15)
    assert quantize(0.5, 1) == 1.0


def test_quantize_idempotent():
    rng = random.Random(42)
    for bits in range(1, 13):
        xs = np.array([rng.random() for _ in range(200)])
        once = quantize(xs, bits)
        np.testing.assert_array_equal(quantize(once, bits), once)


def test_quantize_domain_errors():
    with pytest.raises(ValueError):
        quantize(-0.1, 6)
    with pytest.raises(ValueError):
        quantize(1.1, 6)
    with pytest.raises(ValueError):
        quantize(0.5, 0)


def test_weight_and_input_types_enforce_grid():
    w = WeightMatrix.from_real([[0.3, 0.7], [0.1, 1.0]], bits=6)
    assert np.all(np.abs(w.values * 63 - np.round(w.values * 63)) < 1e-9)
    with pytest.raises(ValueError):
        WeightMatrix(values=np.array([[0.3001, 0.5]]), bits=6)
    v = InputVector.from_real([0.2, 0.9], bits=6)
    assert len(v.values) == 2
    with pytest.raises(ValueError):
        InputVector(values=np.array([0.1234]), bits=6)


# --- crossbar propagation ----------------------------------------------------

def test_mvm_unit_cell_passes_laser_through():
    plan = CouplerPlan.for_array(1, 1)
    out = crossbar_mvm([1.0], [[1.0]], plan, e_laser=2.5)
    assert out[0] == pytest.approx(2.5, rel=1e-12)


def test_mvm_two_rows_coherent_sum():
    plan = CouplerPlan.for_array(2, 1)
    out = crossbar_mvm([1.0, 1.0], [[1.0], [1.0]], plan, e_laser=1.0)
    # 1/(N*sqrt(M)) * (1 + 1) with N=2, M=1
    assert out[0] == pytest.approx(1.0, rel=1e-12)


def test_mvm_matches_dense_matvec_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        v = quantize(rng.random(8), 6)
        w = quantize(rng.random((8, 8)), 6)
        plan = CouplerPlan.for_array(8, 8)
        got = crossbar_mvm(v, w, plan, e_laser=1.7)
        want = (1.7 / (8 * math.sqrt(8))) * (w.T @ v)
        np.testing.assert_allclose(got, want, rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 64), m=st.integers(1, 64), bits=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), e_laser=st.floats(0.1, 10.0), phased=st.booleans())
def test_tap_by_tap_propagation_equals_closed_form(n, m, bits, seed, e_laser, phased):
    rng = np.random.default_rng(seed)
    levels = 2**bits - 1
    v = InputVector(rng.integers(0, levels, n, endpoint=True) / levels, bits=bits)
    w = WeightMatrix(rng.integers(0, levels, (n, m), endpoint=True) / levels, bits=bits)
    phi = rng.uniform(-math.pi, math.pi, (n, m)) if phased else None
    # crossbar_mvm raises ArithmeticError if its propagation leaves the closed form
    got = crossbar_mvm(v, w, CouplerPlan.for_array(n, m), e_laser=e_laser, phase_offsets=phi)
    effective = w.values if phi is None else w.values * np.cos(phi)
    want = (e_laser / (n * math.sqrt(m))) * (effective.T @ v.values)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * e_laser)


def test_mvm_weight_scaling_is_linear():
    rng = np.random.default_rng(11)
    base = np.floor(rng.random((4, 4)) * 4) / 63.0  # levels 0..3 of 63
    v = quantize(rng.random(4), 6)
    plan = CouplerPlan.for_array(4, 4)
    a = crossbar_mvm(v, base, plan)
    b = crossbar_mvm(v, base * 21.0, plan)  # still on the 64-level grid
    np.testing.assert_allclose(b, 21.0 * a, rtol=1e-12)


def test_mvm_dimension_mismatch_rejected():
    plan = CouplerPlan.for_array(2, 2)
    with pytest.raises(ValueError):
        crossbar_mvm([1.0, 0.5, 0.5], np.ones((2, 2)) , plan)
    with pytest.raises(ValueError):
        crossbar_mvm([1.0, 0.5], np.ones((3, 2)), plan)


def test_mvm_phase_offsets_scale_by_cosine():
    plan = CouplerPlan.for_array(2, 2)
    v = np.array([1.0, 1.0])
    w = np.ones((2, 2))
    phi = np.full((2, 2), math.pi / 3)
    out = crossbar_mvm(v, w, plan, phase_offsets=phi)
    ref = crossbar_mvm(v, w, plan)
    np.testing.assert_allclose(out, 0.5 * ref, rtol=1e-12)


def test_mvm_cell_field_trace():
    n, m = 3, 5
    plan = CouplerPlan.for_array(n, m)
    v = quantize(np.linspace(0, 1, n), 6)
    w = quantize(np.random.default_rng(3).random((n, m)), 6)
    _, cells = crossbar_mvm(v, w, plan, e_laser=1.0, return_cell_fields=True)
    want = np.outer(v, np.ones(m)) * w / math.sqrt(n * m)
    np.testing.assert_allclose(cells, want, rtol=1e-12)


# --- detection ---------------------------------------------------------------

def test_detect_zero_field_gives_zero_current():
    np.testing.assert_array_equal(coherent_detect(np.zeros(4), e_lo=1.0), np.zeros(4))


def test_detect_linear_in_lo():
    e = np.array([0.1, 0.2, 0.3])
    np.testing.assert_allclose(coherent_detect(e, 2.0), 2.0 * coherent_detect(e, 1.0))


def test_detect_composition_with_diagonal_crossbar():
    n = 4
    plan = CouplerPlan.for_array(n, n)
    v = quantize(np.array([0.25, 0.5, 0.75, 1.0]), 6)
    w = np.eye(n)
    currents = coherent_detect(crossbar_mvm(v, w, plan), e_lo=1.0, responsivity=1.0)
    np.testing.assert_allclose(currents, v / (n * math.sqrt(n)), rtol=1e-9)


def test_detect_requires_positive_lo():
    with pytest.raises(ValueError):
        coherent_detect(np.ones(2), e_lo=0.0)


# --- loss budget --------------------------------------------------------------

def _lossless_tech(p_rx=1e-3):
    return default_tech_params()._replace(
        loss_grating_coupler_db=0.0, loss_splitter_tree_db=0.0,
        loss_mmi_crossing_db=0.0, loss_waveguide_db_per_cm=0.0,
        loss_odac_oma_db=0.0, laser_wallplug_eff=1.0,
        unit_cell_pitch_um=0.0, p_rx_min_per_column=p_rx)


def test_budget_degenerate_chain():
    cfg = ChipConfig(rows=1, cols=1, cores=1, batch=1)
    b = loss_budget(cfg, _lossless_tech())
    assert b.worst_path_db == 0.0
    assert b.laser_wallplug_power_w == pytest.approx(cfg.cols * 1e-3, rel=1e-12)


def test_budget_fixed_losses_add():
    cfg = ChipConfig(rows=2, cols=2, cores=1, batch=1)
    tech = default_tech_params()
    b = loss_budget(cfg, tech)
    assert b.crossings_on_path == 2
    wg = b.waveguide_len_cm * tech.loss_waveguide_db_per_cm
    distribution = 10 * math.log10(4)
    fixed = b.worst_path_db - wg - distribution
    assert fixed == pytest.approx(2.0 + 0.8 + 4.0 + 2 * 1.8, rel=1e-12)
    assert b.waveguide_len_cm == pytest.approx(4 * 50.0 / 1e4)


def test_budget_monotone_in_array_size():
    tech = default_tech_params()
    small = loss_budget(ChipConfig(rows=128, cols=128, cores=1, batch=1), tech)
    large = loss_budget(ChipConfig(rows=256, cols=256, cores=1, batch=1), tech)
    assert large.worst_path_db > small.worst_path_db
    assert large.worst_path_db >= 2.0 + 0.8 + 4.0  # never below fixed insertion loss


def test_budget_crossing_term_is_additive():
    # worst path minus the array-distribution term must be affine in the
    # crossing count with slope = per-junction loss
    tech = default_tech_params()._replace(unit_cell_pitch_um=0.0)

    def f(m):
        cfg = ChipConfig(rows=1, cols=m, cores=1, batch=1)
        return loss_budget(cfg, tech).worst_path_db - 10 * math.log10(m)

    for m1, m2 in ((2, 4), (10, 20), (33, 66), (100, 200)):
        added = (m2 - m1) * tech.loss_mmi_crossing_db
        assert f(m2) - f(m1) == pytest.approx(added, rel=1e-9)


def test_budget_wallplug_scales_with_efficiency():
    cfg = ChipConfig(rows=8, cols=8, cores=1, batch=1)
    tech = default_tech_params()
    b = loss_budget(cfg, tech)
    assert b.laser_wallplug_power_w == pytest.approx(
        b.laser_optical_power_w / tech.laser_wallplug_eff, rel=1e-12)

