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

This is the only module that needs numpy. No CLI command calls it, and the
package imports it on first use of one of its names, so `oxsim` runs without
loading numpy. The worst-path loss budget that sizes the laser is scalar
arithmetic and lives in perf.py, next to the energy model that uses it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CouplerPlan",
    "WeightMatrix",
    "InputVector",
    "synth_input_couplers",
    "synth_output_couplers",
    "quantize",
    "crossbar_mvm",
    "coherent_detect",
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

    def delivered_input_fields(self) -> np.ndarray:
        """Field delivered into each cell of a unit-field row, by tap-by-tap propagation."""
        delivered = np.empty(self.cols)
        remaining = 1.0
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
class _Levels:
    """Field values of rank `_ndim`, quantized to 2**bits levels."""

    values: np.ndarray
    bits: int = 6
    _ndim, _what, _items = 0, "", ""  # set by each subclass

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != self._ndim:
            raise ValueError(f"{self._what} must be {self._ndim}-D")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError(f"{self._items} must lie in [0, 1]")
        if not _on_grid(v, self.bits):
            raise ValueError(f"{self._items} must sit on the {2**self.bits}-level grid")

    @classmethod
    def from_real(cls, values, bits: int = 6):
        return cls(values=quantize(np.asarray(values, dtype=float), bits), bits=bits)


class WeightMatrix(_Levels):
    """N x M stored field transmissions, quantized to 2**bits levels."""

    _ndim, _what, _items = 2, "weight matrix", "weights"

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


class InputVector(_Levels):
    """Length-N field amplitudes, quantized to 2**bits levels."""

    _ndim, _what, _items = 1, "input vector", "inputs"


def crossbar_mvm(
    v,
    w,
    plan: CouplerPlan,
    e_laser: float = 1.0,
    phase_offsets: np.ndarray | None = None,
    return_cell_fields: bool = False,
):
    """End-of-column fields for one crossbar pass, through the plan's coupler ladders.

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

    # row buses tap each cell's share of its row field, which the cell's
    # transmission scales; column buses collect each row's product with its weight
    row_fields = vv * (e_laser / math.sqrt(n))
    cell_fields = np.outer(row_fields, plan.delivered_input_fields()) * ww
    if phase_offsets is not None:
        phi = np.asarray(phase_offsets, dtype=float)
        if phi.shape != (n, m):
            raise ValueError(f"phase offsets must be shaped {n}x{m}")
        cell_fields = cell_fields * np.cos(phi)
    bus = plan.collection_weights() @ cell_fields

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
