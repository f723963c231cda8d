"""Functional model of the coherent crossbar optical core.

The model works on real, non-negative E-field magnitudes: thermal trimmers
in every unit cell are assumed to null residual phase error, so coherent
summation along a column is plain addition of field amplitudes. An optional
per-cell phase offset (contribution scaled by cos(phi)) is available for
sensitivity studies and defaults to off.

Light path: a splitter tree feeds each of N rows with the modulated field
v_i * E_laser / sqrt(N). Along a row, a ladder of directional couplers taps
an equal share of the remaining power into each of M unit cells, so a cell
sees v_i * E_laser / sqrt(N*M). The cell's stored transmission w_ij scales
the field, and a mirrored coupler ladder collects every cell product onto
the column bus with an equal 1/sqrt(N) weight. The end-of-column field is
therefore (E_laser / (N*sqrt(M))) * sum_i v_i * w_ij.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError

__all__ = [
    "CouplerPlan",
    "WeightMatrix",
    "InputVector",
    "LossBudget",
    "synth_input_couplers",
    "synth_output_couplers",
    "quantize",
    "crossbar_mvm",
    "coherent_detect",
    "loss_budget",
]


def synth_input_couplers(m: int) -> np.ndarray:
    """Field cross-coupling ratios that split one row's power M equal ways.

    Tap j must take 1/(M-j) of the power still on the bus, so the ladder is
    k_j = sqrt(1/(M-j)); the final tap extracts everything (k = 1).
    """
    if m < 1:
        raise ValueError(f"column count must be >= 1, got {m}")
    return np.sqrt(1.0 / (m - np.arange(m, dtype=float)))


def synth_output_couplers(n: int) -> np.ndarray:
    """Mirror ladder for the column bus: every cell product reaches the
    column end scaled by exactly 1/sqrt(N).

    Row 0 injects into an empty bus (k = 1); each later row couples in
    k_i = sqrt(1/(i+1)) so that its injection matches the attenuated sum
    already on the bus.
    """
    if n < 1:
        raise ValueError(f"row count must be >= 1, got {n}")
    return np.sqrt(1.0 / (np.arange(n, dtype=float) + 1.0))


@dataclass(frozen=True)
class CouplerPlan:
    """Directional-coupler ratios for an N x M crossbar (field domain)."""

    k_in: np.ndarray   # length M, row bus taps in propagation order
    k_out: np.ndarray  # length N, column bus injectors in propagation order

    @property
    def rows(self) -> int:
        return len(self.k_out)

    @property
    def cols(self) -> int:
        return len(self.k_in)

    @classmethod
    def for_array(cls, rows: int, cols: int) -> "CouplerPlan":
        return cls(k_in=synth_input_couplers(cols), k_out=synth_output_couplers(rows))

    def delivered_input_fields(self, row_field: float = 1.0) -> np.ndarray:
        """Field delivered into each cell of a row, by tap-by-tap propagation."""
        delivered = np.empty(self.cols)
        remaining = row_field
        for j, k in enumerate(self.k_in):
            delivered[j] = remaining * k
            remaining *= math.sqrt(max(0.0, 1.0 - k * k))
        return delivered

    def collection_weights(self) -> np.ndarray:
        """End-of-column weight each row's product picks up on the bus."""
        weights = np.empty(self.rows)
        trailing = 1.0
        for i in range(self.rows - 1, -1, -1):
            k = self.k_out[i]
            weights[i] = k * trailing
            trailing *= math.sqrt(max(0.0, 1.0 - k * k))
        return weights


def quantize(x, bits: int):
    """Snap values in [0, 1] onto the 2**bits level grid.

    Rounds half away from zero; the grid is l / (2**bits - 1).
    """
    if bits < 1:
        raise ValueError(f"bit width must be >= 1, got {bits}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("values to quantize must lie in [0, 1]")
    levels = float(2**bits - 1)
    snapped = np.floor(arr * levels + 0.5) / levels
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(snapped)
    return snapped


def _on_grid(values: np.ndarray, bits: int) -> bool:
    levels = float(2**bits - 1)
    scaled = values * levels
    return bool(np.all(np.abs(scaled - np.round(scaled)) < 1e-9))


@dataclass(frozen=True)
class WeightMatrix:
    """N x M stored field transmissions, quantized to 2**bits levels."""

    values: np.ndarray
    bits: int = 6

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 2:
            raise ValueError("weight matrix must be 2-D")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if not _on_grid(v, self.bits):
            raise ValueError(f"weights must sit on the {2**self.bits}-level grid")

    @classmethod
    def from_real(cls, values, bits: int = 6) -> "WeightMatrix":
        return cls(values=quantize(np.asarray(values, dtype=float), bits), bits=bits)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class InputVector:
    """Length-N field amplitudes, quantized to 2**bits levels."""

    values: np.ndarray
    bits: int = 6

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1:
            raise ValueError("input vector must be 1-D")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("inputs must lie in [0, 1]")
        if not _on_grid(v, self.bits):
            raise ValueError(f"inputs must sit on the {2**self.bits}-level grid")

    @classmethod
    def from_real(cls, values, bits: int = 6) -> "InputVector":
        return cls(values=quantize(np.asarray(values, dtype=float), bits), bits=bits)


def crossbar_mvm(
    v,
    w,
    plan: CouplerPlan,
    e_laser: float = 1.0,
    phase_offsets: np.ndarray | None = None,
    return_cell_fields: bool = False,
):
    """End-of-column fields for one crossbar pass, by tap-by-tap propagation.

    `v` is an InputVector (or plain length-N array), `w` a WeightMatrix (or
    N x M array). The result is checked against the closed form
    (e_laser / (N*sqrt(M))) * w^T v before returning; a mismatch indicates
    a broken coupler plan.
    """
    vv = np.asarray(v.values if isinstance(v, InputVector) else v, dtype=float)
    ww = np.asarray(w.values if isinstance(w, WeightMatrix) else w, dtype=float)
    if vv.ndim != 1 or ww.ndim != 2:
        raise ValueError("need a 1-D input vector and a 2-D weight matrix")
    n, m = ww.shape
    if vv.shape[0] != n:
        raise ValueError(f"input length {vv.shape[0]} does not match {n} weight rows")
    if plan.rows != n or plan.cols != m:
        raise ValueError(
            f"coupler plan is for {plan.rows}x{plan.cols}, weights are {n}x{m}"
        )

    row_fields = vv * (e_laser / math.sqrt(n))

    # row buses: walk the tap ladder, peeling off each cell's share
    delivered = np.empty((n, m))
    remaining = row_fields.copy()
    for j in range(m):
        k = plan.k_in[j]
        delivered[:, j] = remaining * k
        remaining *= math.sqrt(max(0.0, 1.0 - k * k))

    cell_fields = delivered * ww
    if phase_offsets is not None:
        phi = np.asarray(phase_offsets, dtype=float)
        if phi.shape != (n, m):
            raise ValueError(f"phase offsets must be shaped {n}x{m}")
        cell_fields = cell_fields * np.cos(phi)

    # column buses: each row's injector couples in while attenuating what
    # is already on the bus
    bus = np.zeros(m)
    for i in range(n):
        k = plan.k_out[i]
        bus = bus * math.sqrt(max(0.0, 1.0 - k * k)) + k * cell_fields[i]

    effective = ww if phase_offsets is None else ww * np.cos(phi)
    closed_form = (e_laser / (n * math.sqrt(m))) * (effective.T @ vv)
    scale = max(abs(e_laser), 1e-300)
    if not np.allclose(bus, closed_form, rtol=1e-9, atol=1e-9 * scale):
        raise ArithmeticError("propagated column fields diverged from the closed form")

    if return_cell_fields:
        return bus, cell_fields
    return bus


def coherent_detect(e_cols, e_lo: float, responsivity: float = 1.0) -> np.ndarray:
    """Balanced-detector photocurrents: I_j = R * E_lo * E_col_j."""
    if e_lo <= 0.0:
        raise ValueError(f"local-oscillator field must be > 0, got {e_lo}")
    return responsivity * e_lo * np.asarray(e_cols, dtype=float)


@dataclass(frozen=True)
class LossBudget:
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
    The equal-split field prefactor 1/(N*sqrt(M)) costs 10*log10(N*M) in
    power for a single-cell contribution, which is the minimum level the
    receiver must still resolve; the coherent sum across a column only adds
    signal on top of it. The laser is sized so all M columns clear the
    receiver floor at that worst case.
    """
    n, m = cfg.rows, cfg.cols
    waveguide_len_cm = (n + m) * tech.unit_cell_pitch_um / 1e4
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
    return LossBudget(
        worst_path_db=worst_path_db,
        crossings_on_path=crossings,
        waveguide_len_cm=waveguide_len_cm,
        laser_optical_power_w=optical,
        laser_wallplug_power_w=optical / tech.laser_wallplug_eff,
    )

