
import pytest

from oxsim import (
    CalibrationProfile,
    ChipConfig,
    ConfigError,
    apply_profile,
    default_tech_params,
    get_profile,
)
from oxsim.perf import area_model, energy_model, loss_budget, make_timeline
from oxsim.tech import FIELD_UNITS, TechParams
from oxsim.workload import network_runtime

# stock constants, straight from the measured-component sources
EXPECTED_DEFAULTS = {
    "loss_grating_coupler_db": 2.0,
    "loss_splitter_tree_db": 0.8,
    "loss_mmi_crossing_db": 1.8,
    "loss_waveguide_db_per_cm": 3.0,
    "loss_odac_oma_db": 4.0,
    "laser_wallplug_eff": 0.15,
    "e_odac_driver": 168e-15,
    "p_thermal_per_ring": 0.72e-3,
    "rings_per_row_tx": 2,
    "a_odac": 0.0012,
    "p_tia": 2.25e-3,
    "p_adc": 25e-3,
    "a_adc": 0.0475,
    "e_serdes_per_bit": 100e-15,
    "e_clock_per_lane_cycle": 200e-15,
    "a_clock_per_lane": 0.005,
    "e_sram_per_bit": 50e-15,
    "e_dram_per_bit": 3.9e-12,
    "a_sram_per_mb": 0.45,
    "e_pcm_program_per_cell": 100e-12,
    "t_pcm_program": 100e-9,
}


def test_defaults_match_stated_constants():
    tech = default_tech_params()
    for field, expected in EXPECTED_DEFAULTS.items():
        assert getattr(tech, field) == expected, field


def test_defaults_are_pure():
    assert default_tech_params() == default_tech_params()


def test_every_field_has_a_unit():
    names = set(TechParams._fields)
    assert names == set(FIELD_UNITS)


def test_apply_profile_identity():
    base = default_tech_params()
    assert apply_profile(base, CalibrationProfile(name="empty")) == base


def test_apply_profile_overrides_only_named_field():
    base = default_tech_params()
    out = apply_profile(base, CalibrationProfile(
        name="t", overrides={"loss_mmi_crossing_db": 0.018}))
    for name in TechParams._fields:
        if name == "loss_mmi_crossing_db":
            assert getattr(out, name) == 0.018
        else:
            assert getattr(out, name) == getattr(base, name), name
    assert base.loss_mmi_crossing_db == 1.8  # input untouched


def test_apply_profile_is_idempotent():
    base = default_tech_params()
    profile = get_profile("paper-consistent")
    once = apply_profile(base, profile)
    assert apply_profile(once, profile) == once


def test_unknown_override_field_rejected():
    with pytest.raises(ConfigError, match="bogus_field"):
        CalibrationProfile(name="t", overrides={"bogus_field": 1.0})


def test_builtin_profiles():
    assert get_profile("paper-default").overrides == {}
    cal = get_profile("paper-consistent")
    assert cal.overrides
    assert set(cal.notes) == set(cal.overrides)
    with pytest.raises(ConfigError, match="unknown profile"):
        get_profile("nope")


def test_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        TechParams(loss_grating_coupler_db=-1.0)
    with pytest.raises(ConfigError):
        TechParams(laser_wallplug_eff=0.0)
    with pytest.raises(ConfigError):
        TechParams(laser_wallplug_eff=1.5)


# --- formula coverage -------------------------------------------------------
#
# Each constant must feed exactly one energy category and/or exactly one area
# category (two count-like fields legitimately have one of each); t_pcm_program
# only moves the timeline. A constant affecting nothing would be dead weight;
# one affecting two energy categories would double-count.

ENERGY_CATEGORY_OF = {
    "loss_grating_coupler_db": "laser",
    "loss_splitter_tree_db": "laser",
    "loss_mmi_crossing_db": "laser",
    "loss_waveguide_db_per_cm": "laser",
    "loss_odac_oma_db": "laser",
    "laser_wallplug_eff": "laser",
    "p_rx_min_per_column": "laser",
    "e_odac_driver": "odac",
    "p_thermal_per_ring": "thermal_tuning",
    "p_tia": "tia",
    "p_adc": "adc",
    "e_serdes_per_bit": "serdes",
    "e_clock_per_lane_cycle": "clocking",
    "e_sram_per_bit": "sram",
    "e_dram_per_bit": "dram",
    "e_pcm_program_per_cell": "pcm_programming",
    "rings_per_row_tx": "thermal_tuning",
    "unit_cell_pitch_um": "laser",
}

AREA_CATEGORY_OF = {
    "a_adc": "adc",
    "a_odac": "odac",
    "a_clock_per_lane": "clocking",
    "a_sram_per_mb": "sram",
    "a_digital_overhead": "digital_overhead",
    "rings_per_row_tx": "odac",
    "unit_cell_pitch_um": "photonic_array",
}


def _breakdowns(tech, layers):
    cfg = ChipConfig(rows=8, cols=8, cores=2, batch=2)
    stats = network_runtime(layers, cfg)
    tl = make_timeline(stats, cfg, tech)
    return energy_model(stats, tl, cfg, tech, loss_budget(cfg, tech)), area_model(cfg, tech), tl


def test_each_constant_feeds_exactly_one_category(toy_layers):
    base = default_tech_params()
    e0, a0, tl0 = _breakdowns(base, toy_layers)
    assert all(v > 0 for v in e0.values())

    for name in TechParams._fields:
        value = getattr(base, name)
        if name == "rings_per_row_tx":
            bumped = value + 1
        elif name == "laser_wallplug_eff":
            bumped = value * 0.5
        elif value == 0.0:
            bumped = 0.5
        else:
            bumped = value * 1.25
        tech = base._replace(**{name: bumped})
        e1, a1, tl1 = _breakdowns(tech, toy_layers)
        e_changed = {k for k in e0 if e0[k] != e1[k]}
        a_changed = {k for k in a0 if a0[k] != a1[k]}

        if name == "t_pcm_program":
            # programming time is a timeline cost, not an energy or area one
            assert tl1.t_total != tl0.t_total
            assert not e_changed and not a_changed
            continue
        want_e = ENERGY_CATEGORY_OF.get(name)
        want_a = AREA_CATEGORY_OF.get(name)
        assert e_changed == ({want_e} if want_e else set()), name
        assert a_changed == ({want_a} if want_a else set()), name
