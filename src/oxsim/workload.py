"""CNN-to-crossbar mapping: tiling, cycle counts, and memory traffic.

Convolutions are lowered im2col-style: each filter's window is flattened
into a crossbar column of length filter_h*filter_w*channels, one column per
output channel. A layer that does not fit the N x M array is split into
row tiles (partial sums accumulated digitally) and column tiles (separate
output-channel groups), and the array is reprogrammed once per tile.

Topology CSVs carry pre-padded ifmap dimensions (SCALE-Sim convention), so
output size is always floor((ifmap - filter) / stride) + 1 with no implicit
padding here.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

from .errors import ConfigError, TopologyError

MB_BITS = 8 * 2**20  # SRAM capacities are binary megabytes

TOPOLOGY_COLUMNS = [
    "name",
    "ifmap_h",
    "ifmap_w",
    "channels",
    "filter_h",
    "filter_w",
    "num_filters",
    "stride",
]


@dataclass(frozen=True)
class LayerSpec:
    """Geometry of one convolutional layer (FC layers: 1x1 conv, 1x1 ifmap)."""

    name: str
    ifmap_h: int
    ifmap_w: int
    channels: int
    filter_h: int
    filter_w: int
    num_filters: int
    stride: int

    def __post_init__(self) -> None:
        for f in ("ifmap_h", "ifmap_w", "channels", "filter_h", "filter_w",
                  "num_filters", "stride"):
            v = getattr(self, f)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"layer {self.name!r}: {f} must be a positive integer, got {v}")
        if self.out_h < 1 or self.out_w < 1:
            raise ValueError(
                f"layer {self.name!r}: filter {self.filter_h}x{self.filter_w} stride "
                f"{self.stride} does not fit ifmap {self.ifmap_h}x{self.ifmap_w}"
            )

    @property
    def out_h(self) -> int:
        return (self.ifmap_h - self.filter_h) // self.stride + 1

    @property
    def out_w(self) -> int:
        return (self.ifmap_w - self.filter_w) // self.stride + 1

    @property
    def window_size(self) -> int:
        """im2col vector length: one flattened filter window."""
        return self.filter_h * self.filter_w * self.channels


@dataclass(frozen=True)
class ChipConfig:
    """One accelerator configuration under evaluation."""

    rows: int = 32
    cols: int = 32
    clock_hz: float = 1e10
    cores: int = 2
    batch: int = 32
    b_in: int = 6
    b_w: int = 6
    b_out: int = 6
    b_acc: int = 24
    sram_input_mb: float = 26.3
    sram_filter_mb: float = 0.75
    sram_output_mb: float = 0.75
    sram_acc_mb: float = 0.75

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"array must be at least 1x1, got {self.rows}x{self.cols}")
        if self.cores not in (1, 2):
            raise ConfigError(f"cores must be 1 or 2, got {self.cores}")
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        if self.clock_hz <= 0:
            raise ConfigError(f"clock_hz must be > 0, got {self.clock_hz}")
        for f in ("b_in", "b_w", "b_out", "b_acc"):
            if getattr(self, f) < 1:
                raise ConfigError(f"{f} must be >= 1")
        for f in ("sram_input_mb", "sram_filter_mb", "sram_output_mb", "sram_acc_mb"):
            if getattr(self, f) <= 0:
                raise ConfigError(f"{f} must be > 0")

    @property
    def input_sram_bits(self) -> float:
        return self.sram_input_mb * MB_BITS

    @property
    def total_sram_mb(self) -> float:
        return (self.sram_input_mb + self.sram_filter_mb
                + self.sram_output_mb + self.sram_acc_mb)

    def with_(self, **kwargs) -> "ChipConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class TileMap:
    """How one layer splits across crossbar programmings."""

    row_tiles: int
    col_tiles: int
    vectors_per_tile: int
    programming_events: int


def tile_layer(layer: LayerSpec, cfg: ChipConfig) -> TileMap:
    row_tiles = -(-layer.window_size // cfg.rows)
    col_tiles = -(-layer.num_filters // cfg.cols)
    return TileMap(
        row_tiles=row_tiles,
        col_tiles=col_tiles,
        vectors_per_tile=layer.out_h * layer.out_w * cfg.batch,
        programming_events=row_tiles * col_tiles,
    )


@dataclass(frozen=True)
class Counts:
    """Event and traffic counters; all integers, all additive."""

    compute_cycles: int = 0
    programming_events: int = 0
    cells_programmed: int = 0
    sram_input_read_bits: int = 0
    sram_input_write_bits: int = 0
    sram_filter_read_bits: int = 0
    sram_filter_write_bits: int = 0
    sram_output_read_bits: int = 0
    sram_output_write_bits: int = 0
    sram_acc_read_bits: int = 0
    sram_acc_write_bits: int = 0
    dram_read_bits: int = 0
    dram_write_bits: int = 0

    @property
    def sram_read_bits(self) -> int:
        return (self.sram_input_read_bits + self.sram_filter_read_bits
                + self.sram_output_read_bits + self.sram_acc_read_bits)

    @property
    def sram_write_bits(self) -> int:
        return (self.sram_input_write_bits + self.sram_filter_write_bits
                + self.sram_output_write_bits + self.sram_acc_write_bits)

    @property
    def sram_bits(self) -> int:
        return self.sram_read_bits + self.sram_write_bits

    @property
    def dram_bits(self) -> int:
        return self.dram_read_bits + self.dram_write_bits


_COUNT_FIELDS = tuple(f.name for f in fields(Counts))


@dataclass(frozen=True)
class LayerRuntime:
    """Per-layer counters plus the residency decisions behind them."""

    layer: LayerSpec
    tiles: TileMap
    counts: Counts
    ifmap_resident: bool
    output_forwarded: bool


@dataclass(frozen=True)
class RuntimeStats:
    """Per-layer and aggregate runtime counters for one network pass."""

    layers: tuple[LayerRuntime, ...]
    total: Counts


def _io_bits(layer: LayerSpec, cfg: ChipConfig) -> tuple[int, int]:
    """Batched ifmap and output sizes of one layer, in bits."""
    return (layer.ifmap_h * layer.ifmap_w * layer.channels * cfg.batch * cfg.b_in,
            layer.out_h * layer.out_w * layer.num_filters * cfg.batch * cfg.b_out)


def residency_breakpoints(layers, cfg: ChipConfig) -> list[int]:
    """Sorted distinct sizes that `_layer_counts` tests against input SRAM.

    Input-SRAM capacity enters the counts only through `ifmap_bits <=
    capacity` and `output_bits <= capacity`. Two configs that differ only in
    `sram_input_mb` and have the same `bisect_right(breakpoints,
    cfg.input_sram_bits)` therefore resolve every residency test alike and
    get identical counts.
    """
    return sorted({bits for layer in layers for bits in _io_bits(layer, cfg)})


def _layer_counts(layer: LayerSpec, cfg: ChipConfig, *,
                  ifmap_from_dram: bool, is_last: bool) -> LayerRuntime:
    tiles = tile_layer(layer, cfg)
    compute_cycles = tiles.programming_events * tiles.vectors_per_tile

    ifmap_bits, output_bits = _io_bits(layer, cfg)
    weight_bits = layer.window_size * layer.num_filters * cfg.b_w

    capacity = cfg.input_sram_bits
    resident = ifmap_bits <= capacity
    fetch_passes = 1 if resident else tiles.col_tiles
    output_fits = output_bits <= capacity
    forwarded = output_fits and not is_last

    acc_half = compute_cycles * cfg.cols * cfg.b_acc if tiles.row_tiles > 1 else 0

    counts = Counts(
        compute_cycles=compute_cycles,
        programming_events=tiles.programming_events,
        cells_programmed=tiles.programming_events * cfg.rows * cfg.cols,
        sram_input_read_bits=compute_cycles * cfg.rows * cfg.b_in,
        sram_input_write_bits=ifmap_bits * fetch_passes,
        sram_filter_read_bits=weight_bits,
        sram_filter_write_bits=weight_bits,
        sram_output_read_bits=output_bits,
        sram_output_write_bits=output_bits,
        sram_acc_read_bits=acc_half,
        sram_acc_write_bits=acc_half,
        dram_read_bits=weight_bits + (ifmap_bits * fetch_passes if ifmap_from_dram else 0),
        dram_write_bits=0 if forwarded else output_bits,
    )
    return LayerRuntime(layer=layer, tiles=tiles, counts=counts,
                        ifmap_resident=resident, output_forwarded=forwarded)


def layer_runtime(layer: LayerSpec, cfg: ChipConfig) -> LayerRuntime:
    """Counters for one layer in isolation (ifmap fetched, output written)."""
    return _layer_counts(layer, cfg, ifmap_from_dram=True, is_last=True)


def network_runtime(layers, cfg: ChipConfig) -> RuntimeStats:
    """Counters for a whole network with output->input SRAM forwarding.

    A layer whose full batched output fits input SRAM hands it to the next
    layer on chip; that next layer then reads nothing from DRAM. The final
    layer's output always goes off chip.
    """
    layers = list(layers)
    if not layers:
        raise ValueError("network must contain at least one layer")
    per_layer: list[LayerRuntime] = []
    prev_forwarded = False
    for idx, layer in enumerate(layers):
        lr = _layer_counts(
            layer, cfg,
            ifmap_from_dram=(idx == 0 or not prev_forwarded),
            is_last=(idx == len(layers) - 1),
        )
        per_layer.append(lr)
        prev_forwarded = lr.output_forwarded
    total = Counts(**{name: sum(getattr(lr.counts, name) for lr in per_layer)
                      for name in _COUNT_FIELDS})
    return RuntimeStats(layers=tuple(per_layer), total=total)


def parse_topology(path) -> list[LayerSpec]:
    """Load LayerSpecs from a CSV with a header row (column order fixed)."""
    path = Path(path)
    if not path.exists():
        raise TopologyError(f"topology file not found: {path}")
    try:
        text = path.read_text()
    except OSError as exc:
        raise TopologyError(f"cannot read topology file {path}: {exc}") from exc
    if not text.strip():
        warnings.warn(f"topology file {path} is empty; no layers loaded")
        return []
    layers: list[LayerSpec] = []
    reader = csv.reader(text.splitlines())
    for lineno, row in enumerate(reader, start=1):
        cells = [c.strip() for c in row]
        while cells and cells[-1] == "":
            cells.pop()
        if not cells:
            continue
        if lineno == 1:
            continue  # header row
        if len(cells) != len(TOPOLOGY_COLUMNS):
            raise TopologyError(
                f"{path}:{lineno}: expected {len(TOPOLOGY_COLUMNS)} columns "
                f"({','.join(TOPOLOGY_COLUMNS)}), got {len(cells)}"
            )
        name = cells[0]
        try:
            dims = [int(c) for c in cells[1:]]
        except ValueError as exc:
            raise TopologyError(f"{path}:{lineno}: non-integer field: {exc}") from exc
        try:
            layers.append(LayerSpec(name, *dims))
        except ValueError as exc:
            raise TopologyError(f"{path}:{lineno}: {exc}") from exc
    if not layers:
        warnings.warn(f"topology file {path} has a header but no layers")
    return layers


def bundled_topology_path(name: str) -> Path:
    """Path of a topology shipped with the package (e.g. 'resnet50_v15')."""
    base = resources.files("oxsim") / "topologies" / f"{name}.csv"
    if not base.is_file():
        available = sorted(
            p.name[:-4] for p in (resources.files("oxsim") / "topologies").iterdir()
            if p.name.endswith(".csv")
        )
        raise TopologyError(f"no bundled topology {name!r}; available: {', '.join(available)}")
    return Path(str(base))


def topology_path(name_or_path) -> Path:
    """An existing topology path as given, otherwise the bundled fixture of that name."""
    p = Path(name_or_path)
    return p if p.exists() else bundled_topology_path(str(name_or_path))


def load_topology(name_or_path) -> list[LayerSpec]:
    """Load a topology from a path, falling back to bundled fixtures by name."""
    return parse_topology(topology_path(name_or_path))
