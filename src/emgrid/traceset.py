"""Grid-annotated trace datasets and their .emgd binary serialization.

Datasets (.emgd) and profiling models (.emmod, profiler.save_model) share
one preamble, written by write_preamble and read by read_preamble
(little-endian):

    bytes 0-3   magic, "EMGD" for a dataset and "EMMD" for a model
    bytes 4-5   format version, u16 (currently 1)
    bytes 6-9   header byte length, u32
    ...         the header, a compact sorted-key UTF-8 JSON object
    ...         a packed payload whose size the header fixes, checked
                against the file's size by check_payload_size

A dataset's header is {geometry{nx,ny,nz,step_mm,z_step_mm,origin_mm}, m,
trace_count, description, adc_bits}, typed by grid.json_object and checked
by DatasetHeader on writing and reading alike; its payload is trace_count
records of record_dtype(m).

Files are written in place by open_dataset, TraceArrays chunks at their
record offsets and the preamble last. They are read by one checking scan
followed by one copy pass, into one TraceArrays per split, of every
position or of some (read_arrays), or one per position of a split
(read_positions); both directions reject records whose position lies
outside the grid or whose split code is unknown, and reading also rejects
non-finite samples.
"""

import contextlib
import io
import json
import os
import stat
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataFormatError
from .grid import GridGeometry, json_object

MAGIC = b"EMGD"
FORMAT_VERSION = 1

SPLIT_TRAIN = 0
SPLIT_TEST = 1
SPLIT_HOLDOUT = 2
SPLIT_NAMES = {SPLIT_TRAIN: "train", SPLIT_TEST: "test", SPLIT_HOLDOUT: "holdout"}
SPLIT_CODES = {v: k for k, v in SPLIT_NAMES.items()}
ADC_BITS = (0, 8, 12)  # simulated ADC resolutions; 0 = no quantization

_READ_BLOCK_BYTES = 1 << 18
# (TraceArrays attribute, record_dtype field) pairs
_FIELDS = (("samples", "samples"), ("keys", "key"), ("plaintexts", "plaintext"),
           ("ciphertexts", "ciphertext"), ("positions", "position"),
           ("splits", "split"))


def record_dtype(m: int) -> np.dtype:
    """The packed on-disk layout of one record holding m samples."""
    return np.dtype([("position", "<u2"), ("split", "u1"),
                     ("key", "u1", (16,)), ("plaintext", "u1", (16,)),
                     ("ciphertext", "u1", (16,)), ("samples", "<f4", (m,))])


# numpy sizes a dtype by a C int, so one record holds at most MAX_M samples
MAX_M = ((1 << 31) - 1 - record_dtype(0).itemsize) // 4
MAX_POSITIONS = 1 << 16  # the most grid positions a u16 field can address


@dataclass
class DatasetHeader:
    geometry: GridGeometry
    m: int
    trace_count: int
    description: str = ""
    adc_bits: int = 0  # one of ADC_BITS

    def __post_init__(self):
        if self.geometry.position_count > MAX_POSITIONS:
            raise DataFormatError(
                f"header grid has {self.geometry.position_count} positions; the "
                f"u16 position field addresses at most {MAX_POSITIONS}")
        if not 0 < self.m <= MAX_M:
            raise DataFormatError(f"header m {self.m} is not in 1..{MAX_M}")
        if self.trace_count < 0:
            raise DataFormatError("header trace_count must be >= 0")
        if self.adc_bits not in ADC_BITS:
            raise DataFormatError(f"header adc_bits {self.adc_bits} is not in {ADC_BITS}")


def _check_rows(positions, splits, header: DatasetHeader, start: int):
    """Reject the first row whose position lies outside the grid or whose
    split code is unknown; errors name the global row index."""
    bad_pos = (positions < 0) | (positions >= header.geometry.position_count)
    bad_split = ~np.isin(splits, list(SPLIT_NAMES))
    bad = np.flatnonzero(bad_pos | bad_split)
    if len(bad):
        i = bad[0]
        what = (f"position {positions[i]} outside grid of "
                f"{header.geometry.position_count}") if bad_pos[i] \
            else f"bad split {splits[i]}"
        raise DataFormatError(f"record/header mismatch at index {start + i}: {what}")


def _pack(chunk, header: DatasetHeader, dtype: np.dtype, start: int) -> np.ndarray:
    """Check one TraceArrays chunk against the header and pack its rows."""
    n = len(chunk)
    shapes = {"samples": (n, header.m), "keys": (n, 16), "plaintexts": (n, 16),
              "ciphertexts": (n, 16), "positions": (n,), "splits": (n,)}
    for name, shape in shapes.items():
        got = np.shape(getattr(chunk, name))
        if got != shape:
            raise DataFormatError(
                f"record/header mismatch at index {start}: {name} shape {got} "
                f"!= {shape}")
    _check_rows(chunk.positions, chunk.splits, header, start)
    rec = np.empty(n, dtype=dtype)
    for name, field in _FIELDS:
        rec[field] = getattr(chunk, name)
    return rec


def write_preamble(f, magic: bytes, header: dict) -> None:
    """Write a file's magic, version and compact sorted-key JSON header."""
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    f.write(magic)
    f.write(struct.pack("<HI", FORMAT_VERSION, len(raw)))
    f.write(raw)


def read_preamble(f, magic: bytes, path) -> dict:
    """Read and check a file's preamble; returns its JSON header object.
    A wrong magic or version, a short file or a header that is not a JSON
    object, however deeply nested, raises DataFormatError."""
    fixed = f.read(10)
    if len(fixed) < 10 or fixed[:4] != magic:
        raise DataFormatError(f"{path}: bad magic {fixed[:4]!r}, expected {magic!r}")
    version, hdr_len = struct.unpack("<HI", fixed[4:10])
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported format version {version}")
    raw = f.read(hdr_len)
    if len(raw) < hdr_len:
        raise DataFormatError(f"{path}: truncated file at byte offset {10 + len(raw)}")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise DataFormatError(f"{path}: malformed header: {e}") from e
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: header is not a JSON object")
    return header


def check_payload_size(f, path, dtype, count: int) -> None:
    """Check that exactly count items of dtype follow f's position: a short
    file fails at the byte offset of its first incomplete item, bytes past
    the last item are rejected."""
    itemsize = np.dtype(dtype).itemsize
    offset = f.tell()
    size = os.fstat(f.fileno()).st_size
    end = offset + count * itemsize
    if size < end:
        first_incomplete = offset + (size - offset) // itemsize * itemsize
        raise DataFormatError(f"{path}: truncated file at byte offset {first_incomplete}")
    if size > end:
        raise DataFormatError(
            f"{path}: {size - end} trailing bytes after the payload at byte "
            f"offset {end}")


@contextlib.contextmanager
def open_dataset(header: DatasetHeader, path):
    """Create or truncate path and yield put(chunk, first), which checks a
    TraceArrays chunk against the header and writes its rows in place as
    records first, first + 1, ..., also from a process forked in the block.
    The preamble is written when the block ends; an exception empties a
    regular file instead (/dev/null cannot be emptied)."""
    f = io.BytesIO()
    write_preamble(f, MAGIC, asdict(header))
    preamble = f.getvalue()
    dtype = record_dtype(header.m)

    def put(chunk, first: int) -> None:
        data = memoryview(_pack(chunk, header, dtype, first).view(np.uint8))
        at = len(preamble) + first * dtype.itemsize
        while data:  # a write may stop short of 2 GiB
            n = os.pwrite(fd, data, at)
            data, at = data[n:], at + n

    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        yield put
        os.pwrite(fd, preamble, 0)
    except BaseException:
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def write_dataset(header: DatasetHeader, chunks, path) -> None:
    """Serialize an iterable of TraceArrays chunks through open_dataset.
    The bytes do not depend on how rows are chunked."""
    with open_dataset(header, path) as put:
        count = 0
        for chunk in chunks:
            put(chunk, count)
            count += len(chunk)
        if count != header.trace_count:
            raise DataFormatError(
                f"record/header mismatch: wrote {count} records, header "
                f"declares {header.trace_count}")


def _read_header(f, path) -> DatasetHeader:
    fields = read_preamble(f, MAGIC, path)
    try:
        return DatasetHeader(**json_object(
            fields, "dataset header", required=("geometry", "m", "trace_count"),
            geometry=GridGeometry.from_json_dict, m=int, trace_count=int,
            description=str, adc_bits=int))
    except (ConfigError, DataFormatError) as e:
        raise DataFormatError(f"{path}: malformed dataset header: {e}") from e


@dataclass
class TraceArrays:
    """A materialized slice of a dataset, stacked into flat arrays."""

    samples: np.ndarray      # (n, m) float32
    keys: np.ndarray         # (n, 16) uint8
    plaintexts: np.ndarray   # (n, 16) uint8
    ciphertexts: np.ndarray  # (n, 16) uint8
    positions: np.ndarray    # (n,) int32
    splits: np.ndarray       # (n,) uint8

    def __len__(self) -> int:
        return self.samples.shape[0]

    def subset(self, idx) -> "TraceArrays":
        """Row-select by boolean mask or index array; order-preserving."""
        return TraceArrays(self.samples[idx], self.keys[idx],
                           self.plaintexts[idx], self.ciphertexts[idx],
                           self.positions[idx], self.splits[idx])


def read_header(path) -> DatasetHeader:
    """The header of a dataset file; no record is read."""
    with open(path, "rb") as f:
        return _read_header(f, path)


def _join_runs(runs: np.ndarray) -> np.ndarray:
    """Merge each [start, stop, split, position] row into the row before it
    when it continues that row's records under the same split and
    position."""
    joined = (runs[1:, 0] == runs[:-1, 1]) \
        & (runs[1:, 2:] == runs[:-1, 2:]).all(axis=1)
    head = np.flatnonzero(np.r_[True, ~joined])
    tail = np.r_[head[1:], len(runs)] - 1
    return np.column_stack((runs[head, 0], runs[tail, 1], runs[head, 2:]))


def _scan(f, path, codes) -> tuple:
    """Read the header of the open dataset f and check every record; returns
    (header, payload offset, runs). The runs are the records whose split code
    is in `codes`, as [start, stop, split, position] int64 rows in file order,
    each a maximal range of consecutive records sharing split and position.

    The file size is checked against the header before any record is read
    (check_payload_size). Records are then read in blocks of about
    _READ_BLOCK_BYTES; like an out-of-grid position or an unknown split
    code, a NaN or infinite sample in any record, kept or not, rejects the
    file."""
    header = _read_header(f, path)
    offset = f.tell()
    dtype = record_dtype(header.m)
    n = header.trace_count
    check_payload_size(f, path, dtype, n)
    step = max(1, _READ_BLOCK_BYTES // dtype.itemsize)
    runs = [np.empty((0, 4), np.int64)]
    for start in range(0, n, step):
        rec = np.fromfile(f, dtype=dtype, count=min(step, n - start))
        _check_rows(rec["position"], rec["split"], header, start)
        finite = np.isfinite(rec["samples"]).all(axis=1)
        if not finite.all():
            i = start + np.flatnonzero(~finite)[0]
            raise DataFormatError(f"{path}: non-finite sample in record at index {i}")
        kept = np.flatnonzero(np.isin(rec["split"], codes))
        if len(kept):
            runs.append(_join_runs(np.column_stack(
                (start + kept, start + kept + 1, rec["split"][kept],
                 rec["position"][kept])).astype(np.int64)))
    runs = np.concatenate(runs)
    return header, offset, _join_runs(runs) if len(runs) else runs


def _gather(f, path, offset: int, m: int, runs: np.ndarray) -> TraceArrays:
    """The records of runs ([start, stop, ...] rows, ascending and disjoint)
    in order, as one TraceArrays of exactly their count. The file is read in
    windows of at most one block: a window starts at a run and covers the
    runs that start inside it, gaps included, so scattered short runs cost
    one read per block rather than one per run."""
    dtype = record_dtype(m)
    step = max(1, _READ_BLOCK_BYTES // dtype.itemsize)
    starts, stops = runs[:, 0].copy(), runs[:, 1]
    n = int((stops - starts).sum())
    out = TraceArrays(np.empty((n, m), np.float32),
                      *(np.empty((n, 16), np.uint8) for _ in range(3)),
                      np.empty(n, np.int32), np.empty(n, np.uint8))
    row = i = 0
    while i < len(starts):
        lo = int(starts[i])
        k = int(np.searchsorted(starts, lo + step))  # runs i..k-1 start inside
        hi = min(int(stops[k - 1]), lo + step)
        f.seek(offset + lo * dtype.itemsize)
        rec = np.fromfile(f, dtype=dtype, count=hi - lo)
        if len(rec) < hi - lo:
            raise DataFormatError(f"{path}: truncated file at record index "
                                  f"{lo + len(rec)}")
        if k - i > 1:  # drop the gaps between the window's runs
            edges = np.zeros(hi - lo + 1, np.int8)
            edges[starts[i:k] - lo] += 1
            edges[np.minimum(stops[i:k], hi) - lo] -= 1
            rec = rec[np.cumsum(edges[:-1]) > 0]
        rows = slice(row, row + len(rec))
        for name, field in _FIELDS:
            getattr(out, name)[rows] = rec[field]
        row = rows.stop
        if stops[k - 1] > hi:  # the last run goes on past the window
            starts[k - 1] = hi
            i = k - 1
        else:
            i = k
    return out


def _check_codes(codes) -> None:
    if not set(codes) <= set(SPLIT_NAMES):
        raise ConfigError(f"unknown split codes in {tuple(codes)}")


def read_arrays(path, splits, positions=None) -> tuple:
    """Read a dataset's records split by split: returns the header followed
    by one TraceArrays per split code in `splits`, in the order asked, each
    holding that split's records in file order. Given `positions`, only
    the records at those positions are kept, still in file order.

    One pass checks every record and finds the kept ones (_scan), a second
    copies each split's records into arrays of exactly its size (_gather),
    so reading needs about the kept records' size plus one block.
    """
    _check_codes(splits)
    with open(path, "rb") as f:
        header, offset, runs = _scan(f, path, list(splits))
        if positions is not None:
            runs = runs[np.isin(runs[:, 3], list(positions))]
        out = {c: _gather(f, path, offset, header.m, runs[runs[:, 2] == c])
               for c in splits}
    return (header, *(out[code] for code in splits))


def read_positions(path, split: int) -> tuple:
    """Read one split of a dataset position by position: returns (header,
    positions), where positions yields (p, TraceArrays) in ascending p, each
    holding the split's records at position p in file order.

    Every record is checked, as by read_arrays, and a split without records
    raises ConfigError, all before this returns. Iterating reopens the file
    and reads one position's records at a time, in contiguous runs, so only
    one position is resident; the file must not change in between.
    """
    _check_codes([split])
    with open(path, "rb") as f:
        header, offset, runs = _scan(f, path, [split])
    if not len(runs):
        raise ConfigError(f"no traces in split {SPLIT_NAMES[split]} of {path}")
    runs = runs[np.argsort(runs[:, 3], kind="stable")]

    def positions():
        with open(path, "rb") as f:
            for group in np.split(runs, np.flatnonzero(np.diff(runs[:, 3])) + 1):
                yield int(group[0, 3]), _gather(f, path, offset, header.m, group)

    return header, positions()
