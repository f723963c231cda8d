
import pytest

from oxsim import (
    CalibrationProfile,
    ChipConfig,
    ConfigError,
    apply_profile,
    default_tech_params,
    get_profile,
)
from oxsim.perf import (area_model, energy_model, evaluate, float_sum, loss_budget,
                        make_timeline)
from oxsim.tech import FIELD_UNITS, PAPER_CONSISTENT_NOTES, TechParams
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


def test_note_on_no_override_rejected():
    with pytest.raises(ConfigError, match="note on 'p_tia'"):
        CalibrationProfile(name="t", overrides={"p_adc": 1e-3}, notes={"p_tia": "why"})


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


def test_crossing_loss_note_states_what_the_stated_loss_gives():
    # paper-default keeps the stated 1.8 dB per junction
    note = PAPER_CONSISTENT_NOTES["loss_mmi_crossing_db"]
    tech = default_tech_params()
    assert tech.loss_mmi_crossing_db == 1.8 and "1.8 dB/junction" in note
    small, large = (loss_budget(ChipConfig(rows=n, cols=n), tech) for n in (16, 32))
    figures = [f"{large.worst_path_db:.1f} dB", f"{large.laser_wallplug_power_w:,.0f} W",
               f"{small.worst_path_db:.1f} dB", f"{small.laser_wallplug_power_w * 1e3:.2f} mW"]
    assert figures == ["149.5 dB", "1,885 W", "85.4 dB", "0.37 mW"]
    assert all(figure in note for figure in figures)


def test_pitch_note_states_the_photonic_array_share_of_area(headline_config):
    note = PAPER_CONSISTENT_NOTES["unit_cell_pitch_um"]
    consistent = apply_profile(default_tech_params(), get_profile("paper-consistent"))
    assert (consistent.unit_cell_pitch_um, TechParams().unit_cell_pitch_um) == (15.0, 50.0)

    def shares(tech):
        area = area_model(headline_config, tech)
        assert max(area, key=area.get) == ("sram" if tech is consistent else "photonic_array")
        return {k: f"{100 * v / float_sum(area.values()):.1f}%" for k, v in area.items()}

    at_15, at_50 = shares(consistent), shares(default_tech_params())
    figures = [at_15["photonic_array"], at_15["sram"], at_15["adc"], at_50["photonic_array"]]
    assert figures == ["20.7%", "36.1%", "34.2%", "74.4%"]
    assert all(figure in note for figure in figures)


def test_receiver_floor_and_dram_notes_state_their_energy_shares(resnet_layers,
                                                                 headline_config,
                                                                 tech_calibrated):
    # "a minor power term" and "DRAM-dominated", each with its figure
    report = evaluate(resnet_layers, headline_config, tech_calibrated)
    total = float_sum(report.energy_j.values())
    shares = {k: f"{100 * v / total:.2f}%" for k, v in report.energy_j.items()}
    assert max(report.energy_j, key=report.energy_j.get) == "dram"
    assert (shares["laser"], shares["dram"]) == ("1.13%", "59.94%")
    assert "minor power term, 1.13% of the energy" in PAPER_CONSISTENT_NOTES["p_rx_min_per_column"]
    assert "DRAM 59.94% of the energy" in PAPER_CONSISTENT_NOTES["e_dram_per_bit"]


def test_headline_power_is_fitted_through_the_dram_energy_per_bit(resnet_layers,
                                                                 headline_config,
                                                                 tech_calibrated):
    # Power is linear in e_dram_per_bit. Solving the headline's 30 W for it,
    # with every other term fixed, gives the fit that paper-consistent ships
    # rounded, so a change to any energy term fails here as a recalibration.
    report = evaluate(resnet_layers, headline_config, tech_calibrated)
    others = float_sum(joules for name, joules in report.energy_j.items() if name != "dram")
    fitted = (30.0 * report.timeline.t_total - others) / report.stats.total.dram_bits
    assert f"{fitted:.4e}" == "9.4986e-11"
    assert tech_calibrated.e_dram_per_bit == 95e-12
    assert f"{report.power_w:.4f}" == "30.0027"
    refit = evaluate(resnet_layers, headline_config,
                     tech_calibrated._replace(e_dram_per_bit=fitted))
    assert refit.power_w == pytest.approx(30.0, rel=1e-12)
