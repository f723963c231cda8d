import csv
from bisect import bisect_right
import importlib.util
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from oxsim import (
    ChipConfig,
    Counts,
    LayerSpec,
    TopologyError,
    bundled_topology_path,
    default_tech_params,
    evaluate,
    load_topology,
    network_runtime,
)
from oxsim.reports import json_payload
from oxsim.workload import MB_BITS, TOPOLOGY_COLUMNS, Network, RuntimeStats

HEADER = "name,ifmap_h,ifmap_w,channels,filter_h,filter_w,num_filters,stride\n"


def _write(tmp_path, body, name="net.csv"):
    p = tmp_path / name
    p.write_text(HEADER + body)
    return p


# --- parsing -----------------------------------------------------------------

def test_parse_row_maps_fields(tmp_path):
    layers = load_topology(_write(tmp_path, "conv1,224,224,3,7,7,64,2\n"))[0]
    assert layers == [LayerSpec("conv1", 224, 224, 3, 7, 7, 64, 2)]


def test_parse_tolerates_trailing_comma(tmp_path):
    layers = load_topology(_write(tmp_path, "c,8,8,2,3,3,4,1,\n"))[0]
    assert layers[0].num_filters == 4


def test_parse_empty_file_raises(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(TopologyError, match=f"topology file {p} contains no layers"):
        load_topology(p)


def test_parse_header_only_raises(tmp_path):
    p = tmp_path / "hdr.csv"
    p.write_text(HEADER)
    with pytest.raises(TopologyError, match=f"topology file {p} contains no layers"):
        load_topology(p)


def test_parse_missing_file():
    with pytest.raises(TopologyError, match="no bundled topology"):
        load_topology("/nonexistent/net.csv")


def test_parse_malformed_row_names_line(tmp_path):
    p = _write(tmp_path, "ok,8,8,2,3,3,4,1\nbad,8,8,2\n")
    with pytest.raises(TopologyError, match=":3:"):
        load_topology(p)


def test_parse_non_integer_field(tmp_path):
    with pytest.raises(TopologyError, match=":2:"):
        load_topology(_write(tmp_path, "c,8,8,two,3,3,4,1\n"))


def test_parse_nonpositive_dimension(tmp_path):
    with pytest.raises(TopologyError, match="positive"):
        load_topology(_write(tmp_path, "c,8,8,0,3,3,4,1\n"))


def test_parse_filter_larger_than_ifmap(tmp_path):
    with pytest.raises(TopologyError, match="does not fit"):
        load_topology(_write(tmp_path, "c,2,2,1,3,3,4,1\n"))


@pytest.mark.parametrize("text", [
    "conv1,224,224,3,7,7,64,2\nconv2,56,56,64,1,1,64,1\n",
    "name,ifmap_h,ifmap_w,filter_h,filter_w,channels,num_filters,stride\n"
    "conv1,224,224,7,7,3,64,2\n",
], ids=["no-header", "other-column-order"])
def test_parse_rejects_a_first_row_that_is_not_the_header(tmp_path, text):
    # the first row would be read as the header, or the rows in the wrong order
    p = tmp_path / "net.csv"
    p.write_text(text)
    with pytest.raises(TopologyError) as info:
        load_topology(p)
    assert f"{p}:1:" in str(info.value)
    assert HEADER.strip() in str(info.value)


def test_parse_takes_the_first_non_blank_row_as_the_header(tmp_path):
    p = tmp_path / "net.csv"
    p.write_text("\n  \n" + HEADER + "c,8,8,2,3,3,4,1\n")
    assert load_topology(p)[0] == [LayerSpec("c", 8, 8, 2, 3, 3, 4, 1)]


def _csv_parse_topology(path) -> list[LayerSpec]:
    """The topology reader as it was through `csv.reader`: the oracle of
    `parse_topology` on text that holds no `"`."""
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig")
    layers = []
    header_seen = False
    for lineno, row in enumerate(csv.reader(text.splitlines()), start=1):
        cells = [c.strip() for c in row]
        while cells and cells[-1] == "":
            cells.pop()
        if not cells:
            continue
        if not header_seen:
            if cells != TOPOLOGY_COLUMNS:
                raise TopologyError(f"{path}:{lineno}: the header must be "
                                    f"{','.join(TOPOLOGY_COLUMNS)}, got {','.join(cells)}")
            header_seen = True
            continue
        if len(cells) != len(TOPOLOGY_COLUMNS):
            raise TopologyError(
                f"{path}:{lineno}: expected {len(TOPOLOGY_COLUMNS)} columns "
                f"({','.join(TOPOLOGY_COLUMNS)}), got {len(cells)}"
            )
        try:
            dims = [int(c) for c in cells[1:]]
        except ValueError as exc:
            raise TopologyError(f"{path}:{lineno}: non-integer field: {exc}") from exc
        try:
            layers.append(LayerSpec(cells[0], *dims))
        except ValueError as exc:
            raise TopologyError(f"{path}:{lineno}: {exc}") from exc
    if not layers:
        raise TopologyError(f"topology file {path} contains no layers")
    return layers


# quote-free cells: padded names and dimensions that fit, and junk: empty
# cells, commas, dimensions too small for their filter and text that is no integer
_NAMES = st.sampled_from(["c", " conv 1 ", "caf\u00e9", "\t", "x\u00a0"])
_FITS = st.sampled_from(["8", " 8", "8 ", "\t4", "4\u00a0"])
_SMALL = st.sampled_from(["1", " 2 ", "+1", "\u00a01"])
_JUNK = st.sampled_from(["", " ", "0", "-1", "x", "1_0", "9", ","])
_BLANKS = st.sampled_from(["", " ", "\t", ",", " , ,", "\u00a0"])
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\f", "\x85", "\x0b", "\u2028"])


@st.composite
def _topology_row(draw):
    # name, ifmap_h, ifmap_w, channels, filter_h, filter_w, num_filters, stride
    cells = [draw(_NAMES), draw(_FITS), draw(_FITS), draw(_SMALL), draw(_SMALL),
             draw(_SMALL), draw(_SMALL), draw(_SMALL)]
    # mostly none, else one or two junk cells, each in place of a cell or added
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(cells)))
        cells[i:i + draw(st.integers(0, 1))] = [draw(_JUNK)]
    return ",".join(cells)


@st.composite
def _topology_texts(draw):
    """Quote-free topology text: blank and whitespace-only lines, a header
    with trailing commas, rows of about eight cells, any line ends, a BOM."""
    header = ",".join(TOPOLOGY_COLUMNS) + draw(st.sampled_from(["", ",", ", ,", ",x"]))
    lines = draw(st.lists(_BLANKS, max_size=2))
    lines += [header] if draw(st.integers(0, 5)) else []
    lines += draw(st.lists(_topology_row() | _BLANKS, min_size=1, max_size=5))
    text = "".join(line + draw(_LINE_ENDS) for line in lines)
    return draw(st.sampled_from(["", "\ufeff"])) + text


@settings(max_examples=300, deadline=None)
@given(_topology_texts())
def test_topology_reader_reads_quote_free_text_as_csv_did(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("topo") / "net.csv"
    path.write_bytes(text.encode())
    try:
        want = _csv_parse_topology(path)
    except TopologyError as exc:
        with pytest.raises(TopologyError) as info:
            load_topology(path)
        assert str(info.value) == str(exc)
    else:
        assert load_topology(path)[0] == want


@pytest.mark.parametrize("row", [
    "c,8,8,2\x00,3,3,4,1",  # csv refuses a NUL byte before Python 3.11
    "c,8," + "x" * 140_000 + ",2,3,3,4,1",  # over csv's field size limit of 131,072
    "c,8,8,2,3,3,4,1," + "x" * 140_000,
    '"c",8,8,2,3,3,4,1',
    'c,8,8,2,3,3,4,1,"',
], ids=["nul", "long-cell", "long-trailing-cell", "quoted-cell", "quote"])
def test_malformed_topology_row_exits_2_naming_file_and_line(tmp_path, row):
    path = tmp_path / "net.csv"
    path.write_text(HEADER + "ok,8,8,2,3,3,4,1\n" + row + "\n")
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-m", "oxsim.cli", "evaluate", "--topology",
                          str(path), "--out", str(tmp_path / "out")],
                         env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith(f"topology error: {path}:3: "), run.stderr[:300]
    assert "Traceback" not in run.stderr and run.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_every_shipped_and_perfbench_topology_loads(tmp_path, monkeypatch):
    # the header check must not reject a topology that the tool or its benchmark writes
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    for seed in range(3):
        workloads.build("evaluate-cli", seed, tmp_path / f"in{seed}", tmp_path / f"out{seed}")
    generated = sorted(tmp_path.glob("in*/generated_*.csv"))
    shipped = sorted(bundled_topology_path("toy3").parent.glob("*.csv"))
    assert generated and len(shipped) >= 2
    for topology in shipped + generated:
        text = topology.read_text()
        layers = load_topology(topology)[0]
        assert len(layers) == len(text.strip().splitlines()) - 1
        # a UTF-8 byte-order mark before the header is accepted too
        with_bom = tmp_path / "bom.csv"
        with_bom.write_text("\ufeff" + text, encoding="utf-8")
        assert load_topology(with_bom)[0] == layers


def test_resnet_fixture_layer_count(resnet_layers):
    # stem + 3 convs per bottleneck block (3+4+6+3 blocks) + 4 projections
    expected = 1 + 3 * (3 + 4 + 6 + 3) + 4
    assert expected == 53
    assert len(resnet_layers) == expected


def test_resnet_fixture_row_order(resnet_layers):
    names = [l.name for l in resnet_layers]
    assert names[0] == "conv1"
    assert names[1] == "conv2_1_1x1a"
    assert names[-1] == "conv5_3_1x1b"
    with open(bundled_topology_path("resnet50_v15")) as fh:
        file_names = [r[0] for r in csv.reader(fh)][1:]
    assert names == file_names


# --- per-layer rows ----------------------------------------------------------
# The mapping returns columns; these rows are how the per-layer tests and the
# scalar oracle below read one layer.

class TileMap(NamedTuple):
    """How one layer splits across crossbar programmings."""

    row_tiles: int
    col_tiles: int
    vectors_per_tile: int
    programming_events: int


class LayerRuntime(NamedTuple):
    """Per-layer counters plus the residency decisions behind them."""

    layer: LayerSpec
    tiles: TileMap
    counts: Counts
    ifmap_resident: bool
    output_forwarded: bool


def _rows(stats) -> list[LayerRuntime]:
    """One LayerRuntime per layer, read off the columns of `stats`."""
    return [LayerRuntime(
        layer=layer,
        tiles=TileMap(stats.row_tiles[i], stats.col_tiles[i], stats.vectors_per_tile[i],
                      stats.programming_events[i]),
        counts=Counts(*(getattr(stats, name)[i] for name in Counts._fields)),
        ifmap_resident=stats.ifmap_resident[i],
        output_forwarded=stats.output_forwarded[i],
    ) for i, layer in enumerate(stats.layers)]


def layer_runtime(layer: LayerSpec, cfg: ChipConfig) -> LayerRuntime:
    """Counters for one layer in isolation (ifmap fetched, output written)."""
    return _rows(network_runtime([layer], cfg))[0]


def tile_layer(layer: LayerSpec, cfg: ChipConfig) -> TileMap:
    return layer_runtime(layer, cfg).tiles


# --- tiling ------------------------------------------------------------------

def test_tile_counts_3x3x64():
    layer = LayerSpec("c", 58, 58, 64, 3, 3, 64, 1)
    cfg = ChipConfig(rows=128, cols=128)
    tm = tile_layer(layer, cfg)
    assert tm.row_tiles == math.ceil(576 / 128) == 5
    assert tm.col_tiles == 1
    assert tm.programming_events == 5


def test_tile_counts_1x1x256():
    layer = LayerSpec("c", 56, 56, 256, 1, 1, 64, 1)
    tm = tile_layer(layer, ChipConfig(rows=128, cols=128))
    assert tm.row_tiles == 2
    assert tm.col_tiles == 1


def test_tile_vectors_on_stem_layer():
    # pre-padded 230x230 ifmap, 7x7 stride 2 -> 112x112 outputs
    layer = LayerSpec("conv1", 230, 230, 3, 7, 7, 64, 2)
    tm = tile_layer(layer, ChipConfig(rows=128, cols=128, batch=32))
    assert (layer.out_h, layer.out_w) == (112, 112)
    assert tm.vectors_per_tile == 112 * 112 * 32 == 401408


# --- single-layer runtime ----------------------------------------------------

def test_unit_layer_runtime():
    layer = LayerSpec("unit", 1, 1, 1, 1, 1, 1, 1)
    cfg = ChipConfig(rows=1, cols=1, cores=1, batch=1)
    lr = layer_runtime(layer, cfg)
    assert lr.counts.compute_cycles == 1
    assert lr.counts.programming_events == 1


def test_layer_cycles_3x3x64_to_64():
    layer = LayerSpec("c", 58, 58, 64, 3, 3, 64, 1)  # 56x56 outputs
    cfg = ChipConfig(rows=128, cols=128, batch=32)
    lr = layer_runtime(layer, cfg)
    assert lr.counts.compute_cycles == 5 * 1 * 56 * 56 * 32 == 501760


def test_nonresident_ifmap_refetched_per_column_tile():
    # ifmap too big for input SRAM, 4 column tiles -> 4 full fetch passes
    layer = LayerSpec("c", 64, 64, 512, 1, 1, 512, 1)
    cfg = ChipConfig(rows=128, cols=128, batch=64, sram_input_mb=0.25)
    tm = tile_layer(layer, cfg)
    assert tm.col_tiles == 4
    ifmap_bits = 64 * 64 * 512 * 64 * cfg.b_in
    assert ifmap_bits > cfg.input_sram_bits

    # oracle: enumerate the column-tile passes, each streaming the ifmap
    fetched = 0
    for _pass in range(tm.col_tiles):
        fetched += ifmap_bits
    lr = layer_runtime(layer, cfg)
    weight_bits = 512 * 512 * cfg.b_w
    assert lr.counts.dram_read_bits == fetched + weight_bits
    assert lr.counts.input_write_bits == fetched


def test_resident_ifmap_fetched_once():
    layer = LayerSpec("c", 8, 8, 16, 1, 1, 512, 1)
    cfg = ChipConfig(rows=128, cols=128, batch=1, sram_input_mb=1.0)
    lr = layer_runtime(layer, cfg)
    assert lr.ifmap_resident
    assert lr.counts.dram_read_bits == 8 * 8 * 16 * 6 + 16 * 512 * 6


def test_accumulator_traffic_only_when_row_tiled():
    cfg = ChipConfig(rows=128, cols=128, batch=2)
    flat = layer_runtime(LayerSpec("flat", 8, 8, 16, 1, 1, 8, 1), cfg)  # 16 rows
    deep = layer_runtime(LayerSpec("deep", 8, 8, 256, 1, 1, 8, 1), cfg)  # 2 row tiles
    assert flat.counts.acc_bits == 0
    assert deep.counts.acc_bits == deep.counts.compute_cycles * 128 * 24


def test_layer_sram_formulas():
    layer = LayerSpec("c", 12, 12, 32, 3, 3, 48, 1)
    cfg = ChipConfig(rows=64, cols=32, batch=3)
    lr = layer_runtime(layer, cfg)
    c = lr.counts
    assert c.input_read_bits == c.compute_cycles * 64 * cfg.b_in
    assert c.output_bits == 10 * 10 * 48 * 3 * cfg.b_out
    weight_bits = 9 * 32 * 48 * cfg.b_w
    assert c.weight_bits == weight_bits
    assert c.cells_programmed == c.programming_events * 64 * 32


# --- network-level runtime ---------------------------------------------------

def test_single_layer_network_equals_layer_runtime():
    layer = LayerSpec("c", 12, 12, 32, 3, 3, 48, 1)
    cfg = ChipConfig(rows=64, cols=32, batch=3)
    net = network_runtime([layer], cfg)
    assert net.total == layer_runtime(layer, cfg).counts


def test_forwarding_zeroes_consumer_ifmap_reads():
    a = LayerSpec("a", 10, 10, 3, 3, 3, 8, 1)
    b = LayerSpec("b", 8, 8, 8, 3, 3, 16, 1)
    cfg = ChipConfig(rows=32, cols=32, batch=1, sram_input_mb=1.0)
    net = network_runtime([a, b], cfg)
    lr_a, lr_b = _rows(net)
    assert lr_a.output_forwarded
    assert lr_b.counts.dram_read_bits == 3 * 3 * 8 * 16 * cfg.b_w  # weights only
    # layer a's output never leaves chip; layer b's (last) always does
    assert lr_a.counts.dram_write_bits == 0
    assert lr_b.counts.dram_write_bits == lr_b.counts.output_bits


def test_output_too_big_to_forward_goes_through_dram():
    a = LayerSpec("a", 64, 64, 64, 1, 1, 512, 1)
    b = LayerSpec("b", 64, 64, 512, 1, 1, 8, 1)
    cfg = ChipConfig(rows=128, cols=128, batch=8, sram_input_mb=1.0)
    net = network_runtime([a, b], cfg)
    lr_a, lr_b = _rows(net)
    assert not lr_a.output_forwarded
    assert lr_a.counts.dram_write_bits == lr_a.counts.output_bits
    assert lr_b.counts.dram_read_bits > lr_b.counts.weight_bits


def _oracle_network_cycles(csv_path, rows, cols, batch):
    """Independent recomputation straight off the topology file."""
    total = 0
    with open(csv_path) as fh:
        rdr = csv.DictReader(fh)
        for rec in rdr:
            window = int(rec["filter_h"]) * int(rec["filter_w"]) * int(rec["channels"])
            out_h = (int(rec["ifmap_h"]) - int(rec["filter_h"])) // int(rec["stride"]) + 1
            out_w = (int(rec["ifmap_w"]) - int(rec["filter_w"])) // int(rec["stride"]) + 1
            tiles = math.ceil(window / rows) * math.ceil(int(rec["num_filters"]) / cols)
            total += tiles * out_h * out_w * batch
    return total


def test_resnet_cycles_match_independent_recount(resnet_layers, headline_config):
    net = network_runtime(resnet_layers, headline_config)
    oracle = _oracle_network_cycles(bundled_topology_path("resnet50_v15"), 128, 128, 32)
    assert net.total.compute_cycles == oracle
    assert net.total.compute_cycles == 10_060_288  # frozen from the oracle
    assert net.total.programming_events == 1448

    default = ChipConfig()  # 32x32 array, batch 32
    net_default = network_runtime(resnet_layers, default)
    assert net_default.total.compute_cycles == _oracle_network_cycles(
        bundled_topology_path("resnet50_v15"), 32, 32, 32)


def test_resnet_all_resident_at_headline_batch(resnet_layers, headline_config):
    rows = _rows(network_runtime(resnet_layers, headline_config))
    assert all(lr.ifmap_resident for lr in rows)
    assert all(lr.output_forwarded for lr in rows[:-1])
    assert not rows[-1].output_forwarded


# --- properties --------------------------------------------------------------

def test_batch_scales_cycles_not_programming(toy_layers):
    cfg1 = ChipConfig(rows=16, cols=16, batch=1)
    cfg8 = cfg1.with_(batch=8)
    n1 = network_runtime(toy_layers, cfg1)
    n8 = network_runtime(toy_layers, cfg8)
    assert n8.total.compute_cycles == 8 * n1.total.compute_cycles
    assert n8.total.programming_events == n1.total.programming_events


def test_row_count_monotonicity(resnet_layers):
    cfg = ChipConfig(rows=64, cols=64, batch=2)
    base = network_runtime(resnet_layers, cfg).total.compute_cycles
    doubled = network_runtime(resnet_layers, cfg.with_(rows=128)).total.compute_cycles
    halved = network_runtime(resnet_layers, cfg.with_(rows=32)).total.compute_cycles
    assert doubled <= base <= halved


def test_dram_traffic_monotone_in_input_sram(resnet_layers):
    cfg = ChipConfig(rows=128, cols=128, batch=32)
    sizes = [0.5, 1, 2, 4, 8, 12, 16, 18.5, 20, 26.3, 64, 256]
    traffic = [network_runtime(resnet_layers, cfg.with_(sram_input_mb=s)).total.dram_bits
               for s in sizes]
    assert all(a >= b for a, b in zip(traffic, traffic[1:]))


def test_bit_counts_divisible_by_widths():
    rng = random.Random(3)
    cfg = ChipConfig(rows=24, cols=24, batch=5, b_in=6, b_w=6, b_out=6, b_acc=24)
    for _ in range(50):
        f = rng.randint(1, 3)
        layer = LayerSpec("r", rng.randint(f, 20), rng.randint(f, 20),
                          rng.randint(1, 64), f, f, rng.randint(1, 64), 1)
        c = layer_runtime(layer, cfg).counts
        assert c.input_read_bits % cfg.b_in == 0
        assert c.input_write_bits % cfg.b_in == 0
        assert c.weight_bits % cfg.b_w == 0
        assert c.output_bits % cfg.b_out == 0
        assert c.acc_bits % cfg.b_acc == 0


def test_input_sram_capacity_uses_binary_megabytes():
    assert ChipConfig(sram_input_mb=1.0).input_sram_bits == MB_BITS == 8 * 2**20


def test_counts_fields_are_runtime_stats_columns():
    # each Counts field sums the RuntimeStats column of its name, in column order
    columns = iter(RuntimeStats._fields)
    assert all(field in columns for field in Counts._fields)


# --- the columnar kernel against the scalar per-layer loop it replaced -------
# `_oracle_tile_layer`, `_io_bits`, `_layer_counts` and `_oracle_network` are
# the earlier scalar mapping, kept verbatim (helpers renamed, each read/write
# pair of counts folded into one field) as the oracle.

def _oracle_tile_layer(layer: LayerSpec, cfg: ChipConfig) -> TileMap:
    row_tiles = -(-layer.window_size // cfg.rows)
    col_tiles = -(-layer.num_filters // cfg.cols)
    return TileMap(
        row_tiles=row_tiles,
        col_tiles=col_tiles,
        vectors_per_tile=layer.out_h * layer.out_w * cfg.batch,
        programming_events=row_tiles * col_tiles,
    )


def _io_bits(layer: LayerSpec, cfg: ChipConfig) -> tuple[int, int]:
    """Batched ifmap and output sizes of one layer, in bits."""
    return (layer.ifmap_h * layer.ifmap_w * layer.channels * cfg.batch * cfg.b_in,
            layer.out_h * layer.out_w * layer.num_filters * cfg.batch * cfg.b_out)


def _layer_counts(layer: LayerSpec, cfg: ChipConfig, *,
                  ifmap_from_dram: bool, is_last: bool) -> LayerRuntime:
    tiles = _oracle_tile_layer(layer, cfg)
    compute_cycles = tiles.programming_events * tiles.vectors_per_tile

    ifmap_bits, output_bits = _io_bits(layer, cfg)
    weight_bits = layer.window_size * layer.num_filters * cfg.b_w

    capacity = cfg.input_sram_bits
    resident = ifmap_bits <= capacity
    fetch_passes = 1 if resident else tiles.col_tiles
    output_fits = output_bits <= capacity
    forwarded = output_fits and not is_last

    acc_bits = compute_cycles * cfg.cols * cfg.b_acc if tiles.row_tiles > 1 else 0

    counts = Counts(
        compute_cycles=compute_cycles,
        programming_events=tiles.programming_events,
        cells_programmed=tiles.programming_events * cfg.rows * cfg.cols,
        input_read_bits=compute_cycles * cfg.rows * cfg.b_in,
        input_write_bits=ifmap_bits * fetch_passes,
        weight_bits=weight_bits,
        output_bits=output_bits,
        acc_bits=acc_bits,
        dram_read_bits=weight_bits + (ifmap_bits * fetch_passes if ifmap_from_dram else 0),
        dram_write_bits=0 if forwarded else output_bits,
    )
    return LayerRuntime(layer=layer, tiles=tiles, counts=counts,
                        ifmap_resident=resident, output_forwarded=forwarded)


def _oracle_network(layers, cfg: ChipConfig) -> tuple[list[LayerRuntime], Counts]:
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
                      for name in Counts._fields})
    return per_layer, total


@st.composite
def _layer_specs(draw, index):
    fh, fw, stride = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    return LayerSpec(f"l{index}", fh + draw(st.integers(0, 30)), fw + draw(st.integers(0, 30)),
                     draw(st.integers(1, 600)), fh, fw, draw(st.integers(1, 600)), stride)


@st.composite
def _networks_and_configs(draw):
    n = draw(st.integers(1, 8))
    layers = [draw(_layer_specs(i)) for i in range(n)]
    cfg = ChipConfig(rows=draw(st.integers(1, 600)), cols=draw(st.integers(1, 600)),
                     batch=draw(st.integers(1, 64)), b_in=draw(st.integers(1, 16)),
                     b_w=draw(st.integers(1, 16)), b_out=draw(st.integers(1, 16)),
                     b_acc=draw(st.integers(1, 48)))
    # input SRAM half a bit below, exactly on, or half a bit above a size the
    # residency tests compare against (MB_BITS is a power of two: exact)
    breakpoint = draw(st.sampled_from(sorted({b for l in layers for b in _io_bits(l, cfg)})))
    capacity = breakpoint + draw(st.sampled_from([-0.5, 0.0, 0.5]))
    return layers, cfg.with_(sram_input_mb=capacity / MB_BITS)


@settings(max_examples=300, deadline=None)
@given(_networks_and_configs())
def test_network_runtime_equals_the_scalar_per_layer_oracle(case):
    layers, cfg = case
    per_layer, total = _oracle_network(layers, cfg)
    stats = network_runtime(layers, cfg)
    assert stats.total == total
    assert _rows(stats) == per_layer


@settings(max_examples=300, deadline=None)
@given(_networks_and_configs())
def test_report_json_per_layer_equals_the_scalar_oracle(case):
    layers, cfg = case
    per_layer, _ = _oracle_network(layers, cfg)
    report = evaluate(layers, cfg, default_tech_params())
    got = json_payload(cfg, report, {})["per_layer"]
    want = [{"name": lr.layer.name,
             "row_tiles": lr.tiles.row_tiles,
             "col_tiles": lr.tiles.col_tiles,
             "programming_events": lr.tiles.programming_events,
             "compute_cycles": lr.counts.compute_cycles,
             "ifmap_resident": lr.ifmap_resident,
             "output_forwarded": lr.output_forwarded,
             "dram_read_bits": lr.counts.dram_read_bits,
             "dram_write_bits": lr.counts.dram_write_bits} for lr in per_layer]
    assert got == want
    # `True == 1`, so the types are compared too: a count stays an int, a flag a bool
    assert [{k: type(v) for k, v in row.items()} for row in got] == \
        [{k: type(v) for k, v in row.items()} for row in want]


# --- the tiling memo of a shared Network ---------------------------------------

@st.composite
def _config_sequences(draw):
    layers = [draw(_layer_specs(i)) for i in range(draw(st.integers(1, 5)))]
    # a few tilings, each but the first one field away from an earlier one;
    # rows below most windows, so that the accumulator carries partial sums
    sizes = dict(rows=40, cols=40, batch=3, b_in=3, b_w=3, b_out=3, b_acc=3)
    bases = [ChipConfig(**{f: draw(st.integers(1, top)) for f, top in sizes.items()})]
    for _ in range(draw(st.integers(0, 3))):
        field = draw(st.sampled_from(sorted(sizes)))
        bases.append(draw(st.sampled_from(bases)).with_(
            **{field: draw(st.integers(1, sizes[field]))}))
    # input SRAM half a bit on either side of each size the residency tests
    # compare against, then repeats of whole configs
    configs = [cfg.with_(sram_input_mb=(b + side) / MB_BITS) for cfg in bases
               for b in sorted({b for l in layers for b in _io_bits(l, cfg)})
               for side in (-0.5, 0.5)]
    configs += draw(st.lists(st.sampled_from(configs), max_size=4))
    return layers, draw(st.permutations(configs))


@settings(max_examples=300, deadline=None)
@given(_config_sequences())
def test_one_network_maps_a_sequence_of_configs_as_fresh_layers_do(case):
    layers, configs = case
    net = Network(layers)
    shared = [network_runtime(net, cfg) for cfg in configs]
    # compared after the whole sequence, so a later call that changed an
    # earlier result's columns fails too
    for cfg, stats in zip(configs, shared):
        assert stats == network_runtime(list(layers), cfg)
    # the Network keeps each mapping: configs with one mapping key share one object
    assert network_runtime(net, configs[0]) is shared[0]
    first = {}
    for cfg, stats in zip(configs, shared):
        key = (cfg.rows, cfg.cols, cfg.batch, cfg.b_in, cfg.b_w, cfg.b_out, cfg.b_acc,
               bisect_right(net.breakpoints(cfg), cfg.input_sram_bits))
        assert first.setdefault(key, stats) is stats
    # a column list belongs to the memo of its key: mappings that share that key share it
    io, arrays = {}, {}
    for cfg, stats in zip(configs, shared):
        assert io.setdefault((cfg.batch, cfg.b_in, cfg.b_out), stats.output_bits) \
            is stats.output_bits
        assert arrays.setdefault((cfg.rows, cfg.cols, cfg.b_w), stats.row_tiles) \
            is stats.row_tiles
    # the vectors per tile are kept with the breakpoints, beside the output bits
    vectors = {}
    for cfg, stats in zip(configs, shared):
        assert vectors.setdefault((cfg.batch, cfg.b_in, cfg.b_out), stats.vectors_per_tile) \
            is stats.vectors_per_tile
