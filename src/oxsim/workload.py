"""CNN-to-crossbar mapping: tiling, cycle counts, and memory traffic.

Convolutions are lowered im2col-style: each filter's window is flattened
into a crossbar column of length filter_h*filter_w*channels, one column per
output channel. A layer that does not fit the N x M array is split into
row tiles (partial sums accumulated digitally) and column tiles (separate
output-channel groups), and the array is reprogrammed once per tile.

Topology CSVs carry pre-padded ifmap dimensions (SCALE-Sim convention), so
output size is always floor((ifmap - filter) / stride) + 1 with no implicit
padding here.

Counting is analytical and columnar. `Network` lifts a topology's geometry
into int lists once (per layer: window size, filters, output pixels, ifmap,
weight and output volume). `network_runtime` maps one config with list
arithmetic over those lists and returns `RuntimeStats`: its `layers`, the
`Network` whose layers the entries belong to; one column per quantity with
entry i for layer i; and `total`, one `Counts` of the count columns' sums.

A mapping reads the array, the batch, the bit widths and, of the SRAM, only
input SRAM's residency pattern: `bisect_right` of its capacity in the
residency breakpoints, kept per (batch, b_in, b_out) beside the batched
ifmap bits and the columns marked * below. Only `dse.size_sram` reads them
outside this module, to map where the pattern changes. The `Network` keeps
each `RuntimeStats` per mapping key (tiling key, residency pattern), so a
repeat call returns the same object, and the columns it is built from,
with their sums, in three memos. Each memo holds the columns below, which
come in this order in `RuntimeStats` (and their sums in `Counts`):

    array, per (rows, cols, b_w):
                row_tiles, col_tiles, programming_events, cells_programmed,
                weight_bits
    tiling, per (rows, cols, batch, b_in, b_w, b_out, b_acc):
                vectors_per_tile*, compute_cycles, input_read_bits,
                output_bits*, acc_bits
    residency, per (cols, b_w, batch, b_in, b_out, residency pattern):
                input_write_bits, dram_read_bits, dram_write_bits,
                ifmap_resident, output_forwarded (bools, not summed)
"""
from bisect import bisect_right
from pathlib import Path

from .errors import ConfigError, Record, TopologyError

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


class LayerSpec(Record):
    """Geometry of one convolutional layer (FC layers: 1x1 conv, 1x1 ifmap)."""

    name: str
    ifmap_h: int
    ifmap_w: int
    channels: int
    filter_h: int
    filter_w: int
    num_filters: int
    stride: int

    def _check(self) -> None:
        for f in ("ifmap_h", "ifmap_w", "channels", "filter_h", "filter_w",
                  "num_filters", "stride"):
            v = getattr(self, f)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
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


class ChipConfig(Record):
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

    def _check(self) -> None:
        for f in ("rows", "cols", "cores", "batch", "b_in", "b_w", "b_out", "b_acc"):
            v = getattr(self, f)
            if not isinstance(v, int) or isinstance(v, bool):
                raise ConfigError(f"{f} must be an integer, got {v!r}")
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"array must be at least 1x1, got {self.rows}x{self.cols}")
        if self.cores not in (1, 2):
            raise ConfigError(f"cores must be 1 or 2, got {self.cores}")
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        # NaN fails each `> 0` check below; a bool would pass it as 1
        if isinstance(self.clock_hz, bool) or not self.clock_hz > 0:
            raise ConfigError(f"clock_hz must be > 0, got {self.clock_hz}")
        for f in ("b_in", "b_w", "b_out", "b_acc"):
            if getattr(self, f) < 1:
                raise ConfigError(f"{f} must be >= 1")
        for f in ("sram_input_mb", "sram_filter_mb", "sram_output_mb", "sram_acc_mb"):
            if isinstance(getattr(self, f), bool) or not getattr(self, f) > 0:
                raise ConfigError(f"{f} must be > 0")

    @property
    def input_sram_bits(self) -> float:
        return self.sram_input_mb * MB_BITS

    @property
    def total_sram_mb(self) -> float:
        return (self.sram_input_mb + self.sram_filter_mb
                + self.sram_output_mb + self.sram_acc_mb)

    def with_(self, **kwargs) -> "ChipConfig":
        return self._replace(**kwargs)


class Network(tuple):
    """LayerSpecs in execution order, plus their geometry as int columns.

    Entry i of each column belongs to layer i. The columns are lifted once
    per topology; `network_runtime` then maps any config with list
    arithmetic over them. It keeps each `RuntimeStats` in `_runtimes`, and
    the columns it is built from in the memos `_arrays`, `_tilings` and
    `_residencies` of the module docstring; `_breakpoints` holds each
    `breakpoints` list with its ifmap bit, output bit and vectors-per-tile
    columns. `RuntimeStats` of one Network share those lists.
    """

    names: list[str]
    windows: list[int]  # im2col vector length (crossbar rows needed)
    filters: list[int]  # output channels (crossbar columns needed)
    pixels: list[int]  # output pixels per image
    ifmaps: list[int]  # ifmap values per image
    weights: list[int]  # weight values
    outputs: list[int]  # output values per image

    def __new__(cls, layers=()) -> "Network":
        net = super().__new__(cls, layers)
        net.names = [l.name for l in net]
        net.windows = [l.window_size for l in net]
        net.filters = [l.num_filters for l in net]
        net.pixels = [l.out_h * l.out_w for l in net]
        net.ifmaps = [l.ifmap_h * l.ifmap_w * l.channels for l in net]
        net.weights = [w * f for w, f in zip(net.windows, net.filters)]
        net.outputs = [p * f for p, f in zip(net.pixels, net.filters)]
        net._runtimes = {}
        net._tilings = {}
        net._arrays = {}
        net._breakpoints = {}
        net._residencies = {}
        return net

    def breakpoints(self, cfg: ChipConfig) -> list[int]:
        """Sorted distinct sizes that `network_runtime` tests against input SRAM.

        Input-SRAM capacity enters the counts only through `ifmap_bits <=
        capacity` and `output_bits <= capacity`. Two configs that differ only
        in `sram_input_mb` and have the same `bisect_right(breakpoints,
        cfg.input_sram_bits)` therefore resolve every residency test alike
        and get identical counts. Kept once per (batch, b_in, b_out), with
        `vectors_per_tile` and the batched ifmap and output bit columns they
        are the sizes of; callers must not change the lists.
        """
        key = (cfg.batch, cfg.b_in, cfg.b_out)
        if key not in self._breakpoints:
            in_scale, out_scale = cfg.batch * cfg.b_in, cfg.batch * cfg.b_out
            ifmap_bits = [v * in_scale for v in self.ifmaps]
            output_bits = [v * out_scale for v in self.outputs]
            self._breakpoints[key] = (sorted({*ifmap_bits, *output_bits}), ifmap_bits,
                                      output_bits, [p * cfg.batch for p in self.pixels])
        return self._breakpoints[key][0]

    @classmethod
    def of(cls, layers) -> "Network":
        """`layers` itself if it is a Network already, else its columns lifted."""
        return layers if isinstance(layers, cls) else cls(layers)


class Counts(Record):
    """Event and traffic counters; all integers, all additive.

    One field per count column of `RuntimeStats`, with its name and in its order.
    """

    programming_events: int = 0
    cells_programmed: int = 0
    weight_bits: int = 0
    compute_cycles: int = 0
    input_read_bits: int = 0
    output_bits: int = 0
    acc_bits: int = 0
    input_write_bits: int = 0
    dram_read_bits: int = 0
    dram_write_bits: int = 0

    @property
    def sram_read_bits(self) -> int:
        return self.input_read_bits + self.weight_bits + self.output_bits + self.acc_bits

    @property
    def sram_write_bits(self) -> int:
        return self.input_write_bits + self.weight_bits + self.output_bits + self.acc_bits

    @property
    def sram_bits(self) -> int:
        return self.sram_read_bits + self.sram_write_bits

    @property
    def dram_bits(self) -> int:
        return self.dram_read_bits + self.dram_write_bits


class RuntimeStats(Record):
    """Counters of one network pass: one column per quantity, plus their sums.

    Entry i of each column belongs to `layers[i]`, named `layers.names[i]`.
    Weight, output and accumulator bits are each read once and written once.
    The columns come grouped by the memo that owns them (module docstring).
    """

    layers: Network
    row_tiles: list[int]
    col_tiles: list[int]
    programming_events: list[int]
    cells_programmed: list[int]
    weight_bits: list[int]
    vectors_per_tile: list[int]
    compute_cycles: list[int]
    input_read_bits: list[int]
    output_bits: list[int]
    acc_bits: list[int]
    input_write_bits: list[int]
    dram_read_bits: list[int]
    dram_write_bits: list[int]
    ifmap_resident: list[bool]
    output_forwarded: list[bool]
    total: Counts


def network_runtime(layers, cfg: ChipConfig) -> RuntimeStats:
    """Counters for a whole network with output->input SRAM forwarding.

    A layer whose full batched output fits input SRAM hands it to the next
    layer on chip; that next layer then reads nothing from DRAM. The final
    layer's output always goes off chip. An ifmap that does not fit input
    SRAM is fetched once per column tile.

    Two configs with the same mapping key get the same object from one Network.
    """
    net = Network.of(layers)
    if not net:
        raise ValueError("network must contain at least one layer")
    pattern = bisect_right(net.breakpoints(cfg), cfg.input_sram_bits)
    key = (cfg.rows, cfg.cols, cfg.batch, cfg.b_in, cfg.b_w, cfg.b_out, cfg.b_acc, pattern)
    stats = net._runtimes.get(key)
    if stats:
        return stats
    tiling, tiling_sums = (net._tilings.get(key[:-1])
                           or net._tilings.setdefault(key[:-1], _tiling(net, cfg)))
    array, array_sums = net._arrays[cfg.rows, cfg.cols, cfg.b_w]  # built by the first tiling
    res = (cfg.cols, cfg.b_w, cfg.batch, cfg.b_in, cfg.b_out, pattern)
    residency, residency_sums = net._residencies.get(res) or net._residencies.setdefault(
        res, _residency(array, net._breakpoints[cfg.batch, cfg.b_in, cfg.b_out], pattern))
    stats = net._runtimes[key] = RuntimeStats(
        net, *array, *tiling, *residency, Counts(*array_sums, *tiling_sums, *residency_sums))
    return stats


def _tiling(net: Network, cfg: ChipConfig) -> tuple[tuple, tuple]:
    """The batch-scaled columns that do not read input SRAM, and their sums.

    They are built from the tile counts that `_array_tiling` keeps per (rows,
    cols, b_w); the vectors and output bits are lists `Network.breakpoints` keeps.
    """
    array = (cfg.rows, cfg.cols, cfg.b_w)
    (row_tiles, _, events, _, _), _ = (net._arrays.get(array)
                                       or net._arrays.setdefault(array, _array_tiling(net, cfg)))
    _, _, output_bits, vectors = net._breakpoints[cfg.batch, cfg.b_in, cfg.b_out]
    read_scale, acc_scale = cfg.rows * cfg.b_in, cfg.cols * cfg.b_acc
    cycles = [e * v for e, v in zip(events, vectors)]
    # partial sums go through the accumulator only when the window is row-tiled
    acc_bits = [c * acc_scale if r > 1 else 0 for c, r in zip(cycles, row_tiles)]
    compute = sum(cycles)
    return ((vectors, cycles, [c * read_scale for c in cycles], output_bits, acc_bits),
            (compute, compute * read_scale, sum(output_bits), sum(acc_bits)))


def _array_tiling(net: Network, cfg: ChipConfig) -> tuple[tuple, tuple]:
    """The batch-free tiling columns and their sums."""
    rows, cols = cfg.rows, cfg.cols
    row_tiles = [-(-w // rows) for w in net.windows]
    col_tiles = [-(-f // cols) for f in net.filters]
    events = [r * c for r, c in zip(row_tiles, col_tiles)]
    cells, weight_bits = [e * (rows * cols) for e in events], [w * cfg.b_w for w in net.weights]
    return ((row_tiles, col_tiles, events, cells, weight_bits),
            (sum(events), sum(cells), sum(weight_bits)))


def _residency(array: tuple, io: tuple, pattern: int) -> tuple[tuple, tuple]:
    """The residency, input-write and DRAM columns and their sums.

    They read the col tiles and weight bits of `array` and, of `io`, a
    `Network.breakpoints` entry, the ifmap and output bits: each a breakpoint,
    so it fits input SRAM iff at most the `pattern`-th one (none at 0, as all are >= 1).
    """
    (_, col_tiles, _, _, weight_bits), (breakpoints, ifmap_bits, output_bits, _) = array, io
    top = breakpoints[pattern - 1] if pattern else 0
    resident = [b <= top for b in ifmap_bits]
    forwarded = [b <= top for b in output_bits[:-1]] + [False]
    input_write = [b if r else b * t for b, r, t in zip(ifmap_bits, resident, col_tiles)]
    dram_read = [w if fed else w + b
                 for w, b, fed in zip(weight_bits, input_write, [False, *forwarded[:-1]])]
    dram_write = [0 if f else b for f, b in zip(forwarded, output_bits)]
    return ((input_write, dram_read, dram_write, resident, forwarded),
            (sum(input_write), sum(dram_read), sum(dram_write)))


def read_input(path: Path, error) -> tuple[str, bytes]:
    """(text, bytes) of input file `path`, read once: the bytes decoded as
    UTF-8 with universal newlines, as text mode reads, less a leading
    byte-order mark. A file that cannot be read or decoded raises `error`
    naming it; an absent one stays a FileNotFoundError, which each caller words."""
    try:
        data = path.read_bytes()
        text = data.decode("utf-8")
    except FileNotFoundError:
        raise
    except OSError as exc:  # its str() names the path again
        raise error(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n").removeprefix("\ufeff"), data


def parse_topology(text: str, source) -> list[LayerSpec]:
    """LayerSpecs of CSV text whose first non-blank row is TOPOLOGY_COLUMNS; an
    error names `source`. Cells are not quoted: a row is its line split at each `,`."""
    layers: list[LayerSpec] = []
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if '"' in line:
            raise TopologyError(f'{source}:{lineno}: the line holds a ", but cells are not quoted')
        cells = [c.strip() for c in line.split(",")]
        while cells and cells[-1] == "":
            cells.pop()
        if not cells:
            continue
        if not header_seen:
            if cells != TOPOLOGY_COLUMNS:
                raise TopologyError(f"{source}:{lineno}: the header must be "
                                    f"{','.join(TOPOLOGY_COLUMNS)}, got {','.join(cells)}")
            header_seen = True
            continue
        if len(cells) != len(TOPOLOGY_COLUMNS):
            raise TopologyError(
                f"{source}:{lineno}: expected {len(TOPOLOGY_COLUMNS)} columns "
                f"({','.join(TOPOLOGY_COLUMNS)}), got {len(cells)}"
            )
        name = cells[0]
        try:
            dims = [int(c) for c in cells[1:]]
        except ValueError as exc:
            raise TopologyError(f"{source}:{lineno}: non-integer field: {exc}") from exc
        try:
            layers.append(LayerSpec(name, *dims))
        except ValueError as exc:
            raise TopologyError(f"{source}:{lineno}: {exc}") from exc
    if not layers:
        raise TopologyError(f"topology file {source} contains no layers")
    return layers


def bundled_topology_path(name: str) -> Path:
    """Path of a topology shipped with the package (e.g. 'resnet50_v15')."""
    bundled = {p.name[:-4]: p for p in (Path(__file__).parent / "topologies").iterdir()
               if p.name.endswith(".csv")}
    if name not in bundled:
        raise TopologyError(f"no bundled topology {name!r}; "
                            f"available: {', '.join(sorted(bundled))}")
    return bundled[name]


def load_topology(name_or_path) -> tuple[list[LayerSpec], bytes]:
    """(the layers of a topology file, the bytes they were parsed from); a path
    with nothing there is taken as the name of a bundled fixture."""
    path = Path(name_or_path)
    try:
        text, data = read_input(path, TopologyError)
    except FileNotFoundError:
        path = bundled_topology_path(str(name_or_path))
        text, data = read_input(path, TopologyError)
    return parse_topology(text, path), data
