"""Dataset format tests: grid bijection, bit-exact round trips, row checks,
and size checks against the header."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgrid import traceset
from emgrid.errors import ConfigError, DataFormatError
from emgrid.grid import GridGeometry
from emgrid.traceset import (
    MAX_M,
    SPLIT_HOLDOUT,
    SPLIT_TEST,
    SPLIT_TRAIN,
    DatasetHeader,
    TraceArrays,
    read_arrays,
    read_positions,
    record_dtype,
    write_dataset,
)

GEOM = GridGeometry(3, 2, 2, 0.5, 0.25, (0.0, 0.0, -0.3))


def make_arrays(rng, header):
    n = header.trace_count
    return TraceArrays(
        samples=rng.normal(size=(n, header.m)).astype(np.float32),
        keys=rng.integers(0, 256, (n, 16), dtype=np.uint8),
        plaintexts=rng.integers(0, 256, (n, 16), dtype=np.uint8),
        ciphertexts=rng.integers(0, 256, (n, 16), dtype=np.uint8),
        positions=rng.integers(header.geometry.position_count, size=n,
                               dtype=np.int32),
        splits=rng.integers(3, size=n, dtype=np.uint8),
    )


ALL = (SPLIT_TRAIN, SPLIT_TEST, SPLIT_HOLDOUT)


def assert_arrays_equal(got, want):
    for name in ("samples", "keys", "plaintexts", "ciphertexts", "positions",
                 "splits"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def assert_splits_equal(got, want, splits=ALL):
    """got holds one array per split code in `splits`: want's rows of that
    split, in file order."""
    assert len(got) == len(splits)
    for arrays, code in zip(got, splits):
        assert_arrays_equal(arrays, want.subset(want.splits == code))


def coords_to_index(geometry: GridGeometry, ix: int, iy: int, iz: int = 0) -> int:
    """Position index of lattice coordinates: x fastest, then y, then z."""
    assert 0 <= ix < geometry.nx and 0 <= iy < geometry.ny and 0 <= iz < geometry.nz
    return iz * geometry.nx * geometry.ny + iy * geometry.nx + ix


def test_grid_bijection_exhaustive():
    for p in range(GEOM.position_count):
        ix, iy, iz = GEOM.index_to_coords(p)
        assert coords_to_index(GEOM, ix, iy, iz) == p
    coords = {GEOM.index_to_coords(p) for p in range(GEOM.position_count)}
    assert len(coords) == GEOM.position_count == 12


def test_grid_position_mm_and_flip():
    g = GridGeometry(4, 3, 1, 0.5, 0.0, (1.0, 2.0, -0.3))
    p = coords_to_index(g, 2, 1, 0)
    assert g.position_mm(p) == (2.0, 2.5, -0.3)
    # flip_y mirrors the row: iy=1 of 3 rows stays the middle row here,
    # so use a corner to see the flip.
    corner = coords_to_index(g, 0, 0, 0)
    assert g.position_mm(corner, flip_y=True) == (1.0, 3.0, -0.3)


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridGeometry(0, 1, 1, 0.5, 0.0, (0, 0, 0))
    with pytest.raises(ConfigError):
        GridGeometry(1, 1, 1, 0.0, 0.0, (0, 0, 0))
    with pytest.raises(ConfigError):
        GEOM.index_to_coords(12)


def test_round_trip_single_record(tmp_path):
    rng = np.random.default_rng(0)
    header = DatasetHeader(GEOM, m=4, trace_count=1, description="t", adc_bits=8)
    want = make_arrays(rng, header)
    path = tmp_path / "one.emgd"
    write_dataset(header, [want], path)
    got_header, *got = read_arrays(path, ALL)
    assert got_header == header
    assert_splits_equal(got, want)


def test_header_m_limit_is_the_largest_record_numpy_sizes():
    assert traceset.record_dtype(MAX_M).itemsize == (1 << 31) - 1
    assert DatasetHeader(GEOM, m=MAX_M, trace_count=0).m == MAX_M
    with pytest.raises(DataFormatError, match=r"not in 1\.\."):
        DatasetHeader(GEOM, m=MAX_M + 1, trace_count=0)


def test_empty_dataset_round_trip(tmp_path):
    header = DatasetHeader(GEOM, m=7, trace_count=0)
    path = tmp_path / "empty.emgd"
    write_dataset(header, [], path)
    got_header, *got = read_arrays(path, ALL)
    assert got_header.trace_count == 0
    assert [a.samples.shape for a in got] == [(0, 7)] * 3


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_round_trip_property(tmp_path_factory, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = data.draw(st.integers(1, 64))
    n = data.draw(st.integers(0, 20))
    cut = data.draw(st.integers(0, n))
    header = DatasetHeader(GEOM, m=m, trace_count=n,
                           description=data.draw(st.text(max_size=30)))
    want = make_arrays(rng, header)
    root = tmp_path_factory.mktemp("rt")
    write_dataset(header, [want], root / "one.emgd")
    write_dataset(header, [want.subset(slice(0, cut)), want.subset(slice(cut, n))],
                  root / "two.emgd")
    assert (root / "two.emgd").read_bytes() == (root / "one.emgd").read_bytes()
    got_header, *got = read_arrays(root / "two.emgd", ALL)
    assert got_header == header
    assert_splits_equal(got, want)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.emgd"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(DataFormatError, match="magic"):
        read_arrays(path, ALL)


def test_unsupported_version(tmp_path):
    header = DatasetHeader(GEOM, m=2, trace_count=0)
    path = tmp_path / "v9.emgd"
    write_dataset(header, [], path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="version"):
        read_arrays(path, ALL)


def test_truncation_names_offset(tmp_path):
    rng = np.random.default_rng(1)
    header = DatasetHeader(GEOM, m=8, trace_count=3)
    path = tmp_path / "full.emgd"
    write_dataset(header, [make_arrays(rng, header)], path)
    raw = path.read_bytes()
    rec_size = 51 + 4 * header.m
    data_start = len(raw) - 3 * rec_size
    # Cut mid-way through the second record: the error must name the offset
    # where that record began.
    cut = data_start + rec_size + 10
    trunc = tmp_path / "trunc.emgd"
    trunc.write_bytes(raw[:cut])
    with pytest.raises(DataFormatError, match=f"byte offset {data_start + rec_size}"):
        read_arrays(trunc, ALL)


def test_trailing_bytes_rejected(tmp_path):
    rng = np.random.default_rng(1)
    header = DatasetHeader(GEOM, m=8, trace_count=3)
    path = tmp_path / "full.emgd"
    write_dataset(header, [make_arrays(rng, header)], path)
    raw = path.read_bytes()
    padded = tmp_path / "padded.emgd"
    padded.write_bytes(raw + b"\x00" * 5)
    with pytest.raises(DataFormatError, match=f"5 trailing bytes .* offset {len(raw)}"):
        read_arrays(padded, ALL)


def test_write_mismatched_record_reports_index(tmp_path):
    rng = np.random.default_rng(2)
    header = DatasetHeader(GEOM, m=4, trace_count=1)
    rows = make_arrays(rng, header)
    rows.samples = np.zeros((1, 3), dtype=np.float32)
    path = tmp_path / "x.emgd"
    with pytest.raises(DataFormatError, match="at index 0"):
        write_dataset(header, [rows], path)
    assert path.stat().st_size == 0  # no file that reads as a dataset

    # Indices count rows across chunks: row 1 opens the second chunk.
    header2 = DatasetHeader(GEOM, m=4, trace_count=2)
    rows = make_arrays(rng, header2)
    rows.positions[1] = GEOM.position_count
    path = tmp_path / "y.emgd"
    with pytest.raises(DataFormatError, match="at index 1: position"):
        write_dataset(header2, [rows.subset([0]), rows.subset([1])], path)
    assert path.stat().st_size == 0
    rows = make_arrays(rng, header2)
    rows.splits[1] = 7
    path = tmp_path / "s.emgd"
    with pytest.raises(DataFormatError, match="at index 1: bad split 7"):
        write_dataset(header2, [rows], path)
    assert path.stat().st_size == 0

    path = tmp_path / "z.emgd"
    with pytest.raises(DataFormatError, match="declares 2"):
        write_dataset(header2, [make_arrays(rng, header2).subset([0])], path)
    assert path.stat().st_size == 0


def test_read_arrays(tmp_path):
    rng = np.random.default_rng(7)
    header = DatasetHeader(GEOM, m=5, trace_count=40)
    want = make_arrays(rng, header)
    path = tmp_path / "arr.emgd"
    write_dataset(header, [want], path)
    _, *arrays = read_arrays(path, ALL)
    assert sum(len(a) for a in arrays) == 40
    assert all(a.samples.shape[1] == 5 for a in arrays)
    assert all(a.samples.flags.c_contiguous for a in arrays)
    assert_splits_equal(arrays, want)

    _, train_only = read_arrays(path, (SPLIT_TRAIN,))
    assert_arrays_equal(train_only, want.subset(want.splits == SPLIT_TRAIN))
    # splits come back in the order asked
    _, *attack = read_arrays(path, (SPLIT_HOLDOUT, SPLIT_TEST))
    assert_splits_equal(attack, want, (SPLIT_HOLDOUT, SPLIT_TEST))


def test_block_reads_match_and_name_global_indices(tmp_path, monkeypatch):
    rng = np.random.default_rng(9)
    header = DatasetHeader(GEOM, m=5, trace_count=40)
    want = make_arrays(rng, header)
    path = tmp_path / "blocks.emgd"
    write_dataset(header, [want], path)
    raw = path.read_bytes()
    dtype = traceset.record_dtype(5)
    monkeypatch.setattr(traceset, "_READ_BLOCK_BYTES", 3 * dtype.itemsize)
    for splits in (ALL, (SPLIT_TEST,), (SPLIT_TRAIN, SPLIT_HOLDOUT)):
        _, *got = read_arrays(path, splits)
        assert_splits_equal(got, want, splits)
        assert all(a.samples.flags.c_contiguous for a in got)

    # Record 31 sits in the eleventh three-record block.
    at = len(raw) - 40 * dtype.itemsize + 31 * dtype.itemsize
    bad = bytearray(raw)
    bad[at + dtype.fields["split"][1]] = 9
    path.write_bytes(bytes(bad))
    with pytest.raises(DataFormatError, match="at index 31: bad split 9"):
        read_arrays(path, ALL)
    bad = bytearray(raw)
    first_sample = at + dtype.fields["samples"][1]
    bad[first_sample:first_sample + 4] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(bad))
    with pytest.raises(DataFormatError, match="record at index 31"):
        read_arrays(path, (SPLIT_TRAIN,))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_read_positions_groups_read_arrays(tmp_path_factory, data):
    """For every split, read_positions yields read_arrays' rows grouped by
    position: ascending p, file order within a position, whether positions
    come in runs, interleaved or shuffled, and whatever the block size. A
    split without records raises ConfigError."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = data.draw(st.integers(1, 6))
    header = DatasetHeader(GEOM, m=m, trace_count=data.draw(st.integers(0, 50)))
    want = make_arrays(rng, header)  # shuffled positions, mixed splits
    layout = data.draw(st.sampled_from(["shuffled", "runs", "interleaved"]))
    if layout == "runs":
        want = want.subset(np.argsort(want.positions, kind="stable"))
    elif layout == "interleaved":
        cycle = data.draw(st.lists(st.integers(0, GEOM.position_count - 1),
                                   min_size=1, max_size=4))
        want.positions[:] = np.resize(cycle, len(want))
    path = tmp_path_factory.mktemp("rp") / "positions.emgd"
    cut = data.draw(st.integers(0, len(want)))
    write_dataset(header, [want.subset(slice(0, cut)),
                           want.subset(slice(cut, None))], path)
    block = data.draw(st.sampled_from([1, 2, 3, 7, None]))
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(traceset, "_READ_BLOCK_BYTES",
                       block * record_dtype(m).itemsize)
        for code in ALL:
            _, whole = read_arrays(path, (code,))
            if not len(whole):
                with pytest.raises(ConfigError, match="no traces"):
                    read_positions(path, code)
                continue
            got_header, positions = read_positions(path, code)
            assert got_header == header
            got = list(positions)
            assert [p for p, _ in got] == sorted(set(whole.positions.tolist()))
            for p, arrays in got:
                assert_arrays_equal(arrays, whole.subset(whole.positions == p))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_read_arrays_of_positions_keeps_only_theirs(tmp_path_factory, data):
    """read_arrays(..., positions) holds read_arrays' rows at those positions
    in file order, bit for bit, whatever the layout, the block size and the
    positions asked, including none, all and ones without records."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    header = DatasetHeader(GEOM, m=data.draw(st.integers(1, 6)),
                           trace_count=data.draw(st.integers(0, 50)))
    want = make_arrays(rng, header)
    if data.draw(st.booleans()):
        want = want.subset(np.argsort(want.positions, kind="stable"))
    path = tmp_path_factory.mktemp("rap") / "positions.emgd"
    write_dataset(header, [want], path)
    positions = data.draw(st.sets(st.integers(0, GEOM.position_count - 1)))
    splits = data.draw(st.sampled_from([ALL, (SPLIT_TEST, SPLIT_TRAIN)]))
    block = data.draw(st.sampled_from([1, 3, None]))
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(traceset, "_READ_BLOCK_BYTES",
                       block * record_dtype(header.m).itemsize)
        _, *whole = read_arrays(path, splits)
        got_header, *got = read_arrays(path, splits, positions)
    assert got_header == header
    for arrays, full in zip(got, whole):
        assert_arrays_equal(arrays, full.subset(
            np.isin(full.positions, list(positions))))


def test_read_positions_checks_every_record_before_returning(tmp_path):
    rng = np.random.default_rng(10)
    header = DatasetHeader(GEOM, m=3, trace_count=30)
    want = make_arrays(rng, header)
    want.splits[:] = SPLIT_TRAIN
    want.samples[-1, 2] = np.nan
    path = tmp_path / "nan_last.emgd"
    write_dataset(header, [want], path)
    with pytest.raises(DataFormatError, match="record at index 29"):
        read_positions(path, SPLIT_TRAIN)
    with pytest.raises(ConfigError, match="unknown split"):
        read_positions(path, 3)


def test_read_peak_memory_near_file_size(tmp_path):
    rng = np.random.default_rng(8)
    header = DatasetHeader(GEOM, m=1000, trace_count=4096)
    path = tmp_path / "big.emgd"
    write_dataset(header, [make_arrays(rng, header)], path)
    size = path.stat().st_size
    for splits in (ALL, (SPLIT_TRAIN,)):
        tracemalloc.start()
        try:
            _, *arrays = read_arrays(path, splits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * size, (splits, peak, size)
        del arrays
