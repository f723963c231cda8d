"""Technology constants for a 45nm-class monolithic silicon photonic process.

All device-level numbers the models consume live in one immutable record,
TechParams, so that every energy/power/area formula pulls from a single
audited source. Named CalibrationProfile overlays adjust the handful of
constants that are under-specified or mutually inconsistent at the system
level; the stock constants are never edited in place.
"""
from .errors import ConfigError, Record

# Unit of every TechParams field, keyed by field name. Checked by tests so
# no constant can be added without declaring its unit.
FIELD_UNITS: dict[str, str] = {
    "loss_grating_coupler_db": "dB",
    "loss_splitter_tree_db": "dB",
    "loss_mmi_crossing_db": "dB/junction",
    "loss_waveguide_db_per_cm": "dB/cm",
    "loss_odac_oma_db": "dB",
    "laser_wallplug_eff": "fraction",
    "e_odac_driver": "J/row/cycle",
    "p_thermal_per_ring": "W/ring",
    "rings_per_row_tx": "count/row",
    "p_tia": "W/column",
    "p_adc": "W/column",
    "a_adc": "mm2/column",
    "a_odac": "mm2/driver",
    "e_serdes_per_bit": "J/bit",
    "e_clock_per_lane_cycle": "J/lane/cycle",
    "a_clock_per_lane": "mm2/lane",
    "e_sram_per_bit": "J/bit",
    "e_dram_per_bit": "J/bit",
    "a_sram_per_mb": "mm2/MB",
    "e_pcm_program_per_cell": "J/cell",
    "t_pcm_program": "s",
    "p_rx_min_per_column": "W",
    "unit_cell_pitch_um": "um",
    "a_digital_overhead": "mm2",
}


class TechParams(Record):
    """Device constants. Field names carry the unit (see FIELD_UNITS).

    Defaults are the published 45nm measurement-backed values; the two
    fields that no measurement pins down (p_rx_min_per_column,
    unit_cell_pitch_um) default to documented engineering estimates and
    are flagged calibration-sensitive.
    """

    # optical losses, laser facet to detector
    loss_grating_coupler_db: float = 2.0
    loss_splitter_tree_db: float = 0.8
    loss_mmi_crossing_db: float = 1.8
    loss_waveguide_db_per_cm: float = 3.0
    loss_odac_oma_db: float = 4.0
    laser_wallplug_eff: float = 0.15

    # transmitter: ring-assisted MZI with one ring DAC per arm
    e_odac_driver: float = 168e-15
    p_thermal_per_ring: float = 0.72e-3
    rings_per_row_tx: int = 2
    a_odac: float = 0.0012

    # receiver: TIA + ADC per column at the MAC sample rate
    p_tia: float = 2.25e-3
    p_adc: float = 25e-3
    a_adc: float = 0.0475

    # serdes + clock distribution per row/column lane
    e_serdes_per_bit: float = 100e-15
    e_clock_per_lane_cycle: float = 200e-15
    a_clock_per_lane: float = 0.005

    # memory hierarchy
    e_sram_per_bit: float = 50e-15
    e_dram_per_bit: float = 3.9e-12
    a_sram_per_mb: float = 0.45

    # non-volatile weight cells
    e_pcm_program_per_cell: float = 100e-12
    t_pcm_program: float = 100e-9

    # calibration-sensitive estimates (no published value)
    p_rx_min_per_column: float = 1e-14
    unit_cell_pitch_um: float = 50.0
    a_digital_overhead: float = 0.0

    def _check(self) -> None:
        for name, v in zip(self._fields, self):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ConfigError(f"tech parameter {name} must be numeric, got {v!r}")
            # NaN fails too; laser_wallplug_eff's own range check below rejects it
            if v < 0 or v != v and name != "laser_wallplug_eff":
                raise ConfigError(f"tech parameter {name} must be >= 0, got {v}")
        if not 0.0 < self.laser_wallplug_eff <= 1.0:
            raise ConfigError(
                f"laser_wallplug_eff must be in (0, 1], got {self.laser_wallplug_eff}"
            )
        if self.rings_per_row_tx < 1:
            raise ConfigError("rings_per_row_tx must be >= 1")
        if not isinstance(self.rings_per_row_tx, int):
            raise ConfigError(f"rings_per_row_tx must be an integer, "
                              f"got {self.rings_per_row_tx!r}")


class CalibrationProfile(Record):
    """Sparse named overlay on TechParams.

    `overrides` maps field name -> value; `notes` documents why each
    override exists, so each of its keys must be an override. The stock
    profile has no overrides at all. Each value must pass the same check as
    the TechParams field it replaces.
    """

    name: str
    overrides: dict[str, float]
    notes: dict[str, str]

    def __new__(cls, name: str, overrides: dict[str, float] | None = None,
                notes: dict[str, str] | None = None) -> "CalibrationProfile":
        # each profile gets its own empty dicts, never one shared default
        return super().__new__(cls, name, {} if overrides is None else overrides,
                               {} if notes is None else notes)

    def _check(self) -> None:
        if not self.name.isprintable():  # it goes on one report header line
            raise ConfigError(f"profile name {self.name!r} is not one printable line")
        for key in self.overrides:
            if key not in TechParams._fields:
                raise ConfigError(f"profile {self.name!r} overrides unknown tech parameter {key!r}")
        TechParams(**self.overrides)
        for key in self.notes:
            if key not in self.overrides:
                raise ConfigError(f"profile {self.name!r} has a note on {key!r}, which it does "
                                  f"not override")


def default_tech_params() -> TechParams:
    """Stock technology constants, unmodified."""
    return TechParams()


def apply_profile(base: TechParams, profile: CalibrationProfile) -> TechParams:
    """Return a copy of `base` with the profile's overrides applied."""
    return base._replace(**profile.overrides)


def apply_overrides(base: TechParams, overrides: dict[str, float]) -> TechParams:
    """Apply loose key=value overrides (e.g. from a config file section)."""
    return apply_profile(base, CalibrationProfile(name="config", overrides=dict(overrides)))


# The stated per-junction crossing loss makes a 128-column path lose >200 dB,
# which no laser budget survives; the system-level totals in the same source
# are only reachable with a low-loss crossing of the class its own citation
# reports. The consistent profile therefore reduces the crossing loss, pins
# the receiver sensitivity and cell pitch estimates, and carries an effective
# DRAM energy per bit (interface + controller included) that reconciles the
# published total-power split. Derivations: docs section of README.md.
PAPER_CONSISTENT_OVERRIDES: dict[str, float] = {
    "loss_mmi_crossing_db": 0.22,
    "unit_cell_pitch_um": 15.0,
    "p_rx_min_per_column": 1e-14,
    "e_dram_per_bit": 95e-12,
}

PAPER_CONSISTENT_NOTES: dict[str, str] = {
    "loss_mmi_crossing_db": "at the stated 1.8 dB/junction a 32x32 array's worst "
    "path loses 149.5 dB and needs 1,885 W of laser wall-plug power (16x16: "
    "85.4 dB, 0.37 mW); set to a conventional-crossing figure that also "
    "reproduces the published array-size optimum",
    "unit_cell_pitch_um": "at 15 um the photonic array is 20.7% of the area at "
    "the headline point (SRAM 36.1%, ADC 34.2%), against 74.4% at the 50 um "
    "estimate, so SRAM leads the area split as published",
    "p_rx_min_per_column": "model-level receiver floor sized so laser "
    "wall-plug power is a minor power term, 1.13% of the energy at the "
    "headline point (deterministic model, no noise physics behind this number)",
    "e_dram_per_bit": "folds the source's unreported DRAM traffic accounting "
    "into the per-bit energy so the DRAM-dominated 30 W power split (DRAM "
    "59.94% of the energy at the headline point) is reproduced at 3.9 "
    "pJ/bit-equivalent traffic volumes",
}


def builtin_profiles() -> dict[str, CalibrationProfile]:
    """Profiles shipped with the tool, keyed by name."""
    return {
        "paper-default": CalibrationProfile(name="paper-default"),
        "paper-consistent": CalibrationProfile(
            name="paper-consistent",
            overrides=dict(PAPER_CONSISTENT_OVERRIDES),
            notes=dict(PAPER_CONSISTENT_NOTES),
        ),
    }


def get_profile(name: str) -> CalibrationProfile:
    profiles = builtin_profiles()
    if name not in profiles:
        raise ConfigError(
            f"unknown profile {name!r}; built-ins: {', '.join(sorted(profiles))}"
        )
    return profiles[name]
