"""Dataset format tests: grid bijection, bit-exact round trips, streaming
memory bounds, and size checks against the header."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgrid.errors import ConfigError, DataFormatError
from emgrid.grid import GridGeometry
from emgrid.traceset import (
    SPLIT_HOLDOUT,
    SPLIT_TEST,
    SPLIT_TRAIN,
    DatasetHeader,
    TraceRecord,
    filter_records,
    read_arrays,
    read_dataset,
    read_header,
    write_dataset,
)

GEOM = GridGeometry(3, 2, 2, 0.5, 0.25, (0.0, 0.0, -0.3))


def make_records(rng, header, positions=None, splits=None):
    recs = []
    for i in range(header.trace_count):
        recs.append(TraceRecord(
            position_index=int(positions[i]) if positions is not None
            else int(rng.integers(header.geometry.position_count)),
            split=int(splits[i]) if splits is not None else int(rng.integers(3)),
            key=rng.integers(0, 256, 16, dtype=np.uint8).tobytes(),
            plaintext=rng.integers(0, 256, 16, dtype=np.uint8).tobytes(),
            ciphertext=rng.integers(0, 256, 16, dtype=np.uint8).tobytes(),
            samples=rng.normal(size=header.m).astype(np.float32),
        ))
    return recs


def test_grid_bijection_exhaustive():
    for p in range(GEOM.position_count):
        ix, iy, iz = GEOM.index_to_coords(p)
        assert GEOM.coords_to_index(ix, iy, iz) == p
    coords = {GEOM.index_to_coords(p) for p in range(GEOM.position_count)}
    assert len(coords) == GEOM.position_count == 12


def test_grid_position_mm_and_flip():
    g = GridGeometry(4, 3, 1, 0.5, 0.0, (1.0, 2.0, -0.3))
    p = g.coords_to_index(2, 1, 0)
    assert g.position_mm(p) == (2.0, 2.5, -0.3)
    # flip_y mirrors the row: iy=1 of 3 rows stays the middle row here,
    # so use a corner to see the flip.
    corner = g.coords_to_index(0, 0, 0)
    assert g.position_mm(corner, flip_y=True) == (1.0, 3.0, -0.3)


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridGeometry(0, 1, 1, 0.5, 0.0, (0, 0, 0))
    with pytest.raises(ConfigError):
        GridGeometry(1, 1, 1, 0.0, 0.0, (0, 0, 0))
    with pytest.raises(ConfigError):
        GEOM.index_to_coords(12)
    with pytest.raises(ConfigError):
        GEOM.coords_to_index(3, 0, 0)


def test_round_trip_single_record(tmp_path):
    rng = np.random.default_rng(0)
    header = DatasetHeader(GEOM, m=4, trace_count=1, description="t", adc_bits=8)
    recs = make_records(rng, header)
    path = tmp_path / "one.emgd"
    write_dataset(header, recs, path)
    got_header, stream = read_dataset(path)
    got = list(stream)
    assert got_header == header
    assert len(got) == 1
    assert got[0].position_index == recs[0].position_index
    assert got[0].split == recs[0].split
    assert got[0].key == recs[0].key
    assert got[0].plaintext == recs[0].plaintext
    assert got[0].ciphertext == recs[0].ciphertext
    assert np.array_equal(got[0].samples, recs[0].samples)


def test_empty_dataset_round_trip(tmp_path):
    header = DatasetHeader(GEOM, m=7, trace_count=0)
    path = tmp_path / "empty.emgd"
    write_dataset(header, [], path)
    got_header, stream = read_dataset(path)
    assert got_header.trace_count == 0
    assert list(stream) == []


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_round_trip_property(tmp_path_factory, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = data.draw(st.integers(1, 64))
    n = data.draw(st.integers(0, 20))
    header = DatasetHeader(GEOM, m=m, trace_count=n,
                           description=data.draw(st.text(max_size=30)))
    recs = make_records(rng, header)
    path = tmp_path_factory.mktemp("rt") / "ds.emgd"
    write_dataset(header, recs, path)
    got_header, stream = read_dataset(path)
    assert got_header == header
    for orig, got in zip(recs, stream, strict=True):
        assert (got.position_index, got.split) == (orig.position_index, orig.split)
        assert (got.key, got.plaintext, got.ciphertext) == \
            (orig.key, orig.plaintext, orig.ciphertext)
        assert got.samples.tobytes() == orig.samples.tobytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.emgd"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(DataFormatError, match="magic"):
        read_dataset(path)


def test_unsupported_version(tmp_path):
    header = DatasetHeader(GEOM, m=2, trace_count=0)
    path = tmp_path / "v9.emgd"
    write_dataset(header, [], path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError, match="version"):
        read_dataset(path)


def test_truncation_names_offset(tmp_path):
    rng = np.random.default_rng(1)
    header = DatasetHeader(GEOM, m=8, trace_count=3)
    path = tmp_path / "full.emgd"
    write_dataset(header, make_records(rng, header), path)
    raw = path.read_bytes()
    rec_size = 51 + 4 * header.m
    data_start = len(raw) - 3 * rec_size
    # Cut mid-way through the second record: the error must name the offset
    # where that record began.
    cut = data_start + rec_size + 10
    trunc = tmp_path / "trunc.emgd"
    trunc.write_bytes(raw[:cut])
    _, stream = read_dataset(trunc)
    with pytest.raises(DataFormatError, match=f"byte offset {data_start + rec_size}"):
        list(stream)


def test_trailing_bytes_rejected(tmp_path):
    rng = np.random.default_rng(1)
    header = DatasetHeader(GEOM, m=8, trace_count=3)
    path = tmp_path / "full.emgd"
    write_dataset(header, make_records(rng, header), path)
    raw = path.read_bytes()
    padded = tmp_path / "padded.emgd"
    padded.write_bytes(raw + b"\x00" * 5)
    with pytest.raises(DataFormatError, match=f"5 trailing bytes .* offset {len(raw)}"):
        read_dataset(padded)
    with pytest.raises(DataFormatError, match="trailing"):
        read_arrays(padded)


def test_write_mismatched_record_reports_index(tmp_path):
    rng = np.random.default_rng(2)
    header = DatasetHeader(GEOM, m=4, trace_count=1)
    recs = make_records(rng, header)
    recs[0].samples = np.zeros(3, dtype=np.float32)
    with pytest.raises(DataFormatError, match="at index 0"):
        write_dataset(header, recs, tmp_path / "x.emgd")

    header2 = DatasetHeader(GEOM, m=4, trace_count=2)
    recs2 = make_records(rng, header2)
    recs2[1].position_index = GEOM.position_count
    with pytest.raises(DataFormatError, match="at index 1"):
        write_dataset(header2, recs2, tmp_path / "y.emgd")

    with pytest.raises(DataFormatError, match="declares 2"):
        write_dataset(header2, make_records(rng, header2)[:1], tmp_path / "z.emgd")


def test_streaming_read_is_bounded(tmp_path):
    rng = np.random.default_rng(3)
    header = DatasetHeader(GEOM, m=4000, trace_count=200)
    path = tmp_path / "big.emgd"
    write_dataset(header, make_records(rng, header), path)
    assert path.stat().st_size > 3_000_000
    _, stream = read_dataset(path)
    tracemalloc.start()
    tracemalloc.reset_peak()
    total = 0
    for rec in stream:
        total += len(rec.samples)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert total == 200 * 4000
    # Streaming holds one record at a time: peak allocations must be far
    # below the 3.2 MB file (one record is ~16 KB).
    assert peak < 500_000


def test_filter_records(tmp_path):
    rng = np.random.default_rng(6)
    header = DatasetHeader(GEOM, m=2, trace_count=30)
    splits = [SPLIT_TRAIN, SPLIT_TEST, SPLIT_HOLDOUT] * 10
    positions = list(range(10)) * 3
    recs = make_records(rng, header, positions=positions, splits=splits)

    got = list(filter_records(iter(recs), lambda p, s: True))
    assert len(got) == 30
    assert [r.position_index for r in got] == positions

    got = list(filter_records(iter(recs), lambda p, s: s == SPLIT_HOLDOUT and p < 5))
    assert len(got) == 5
    assert all(r.split == SPLIT_HOLDOUT for r in got)

    got = list(filter_records(iter(recs), lambda p, s: s == 77))
    assert got == []


def test_read_arrays(tmp_path):
    rng = np.random.default_rng(7)
    header = DatasetHeader(GEOM, m=5, trace_count=40)
    recs = make_records(rng, header)
    path = tmp_path / "arr.emgd"
    write_dataset(header, recs, path)
    _, arrays = read_arrays(path)
    assert len(arrays) == 40
    assert arrays.samples.shape == (40, 5)
    assert arrays.keys.shape == (40, 16)
    i = 17
    assert arrays.keys[i].tobytes() == recs[i].key
    assert arrays.plaintexts[i].tobytes() == recs[i].plaintext
    assert np.array_equal(arrays.samples[i], recs[i].samples)

    _, train_only = read_arrays(path, where=lambda p, s: s == SPLIT_TRAIN)
    assert len(train_only) == sum(1 for r in recs if r.split == SPLIT_TRAIN)

    _, capped = read_arrays(path, max_records=8)
    assert len(capped) == 8


def test_read_header_only(tmp_path):
    header = DatasetHeader(GEOM, m=9, trace_count=0, description="hdr")
    path = tmp_path / "h.emgd"
    write_dataset(header, [], path)
    assert read_header(path) == header
