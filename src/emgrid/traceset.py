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
trace_count, description, adc_bits}, typed by grid.json_object; its payload
is trace_count records of record_dtype(m).

Files are written in place by open_dataset, TraceArrays chunks at their
record offsets and the preamble last, and read into one TraceArrays per
split; both directions reject records whose position lies outside the grid
or whose split code is unknown, and reading also rejects non-finite samples.
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


@dataclass
class DatasetHeader:
    geometry: GridGeometry
    m: int
    trace_count: int
    description: str = ""
    adc_bits: int = 0  # one of ADC_BITS

    def __post_init__(self):
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
    if header.geometry.position_count > 1 << 16:
        raise DataFormatError("grid has more positions than the u16 index can address")
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


def read_arrays(path, splits) -> tuple:
    """Read a dataset's records split by split: returns the header followed
    by one TraceArrays per split code in `splits`, in the order asked, each
    holding that split's records in file order.

    The file size is checked against the header before any record is read
    (check_payload_size). Like an out-of-grid
    position or an unknown split code, a NaN or infinite sample in any record,
    kept or not, rejects the file.

    Records are read in blocks of about _READ_BLOCK_BYTES. A first pass
    counts each split's records; the second checks every record and copies
    the kept ones field by field into arrays of exactly their split's size,
    so reading needs about the kept records' size plus one block.
    """
    if not set(splits) <= set(SPLIT_NAMES):
        raise ConfigError(f"unknown split codes in {tuple(splits)}")
    with open(path, "rb") as f:
        header = _read_header(f, path)
        offset = f.tell()
        dtype = record_dtype(header.m)
        n = header.trace_count
        check_payload_size(f, path, dtype, n)
        step = max(1, _READ_BLOCK_BYTES // dtype.itemsize)

        def blocks():
            f.seek(offset)
            for start in range(0, n, step):
                yield start, np.fromfile(f, dtype=dtype, count=min(step, n - start))

        counts = sum((np.bincount(rec["split"], minlength=256)
                      for _, rec in blocks()), np.zeros(256, np.int64))
        out = {c: TraceArrays(np.empty((counts[c], header.m), np.float32),
                              *(np.empty((counts[c], 16), np.uint8) for _ in range(3)),
                              np.empty(counts[c], np.int32),
                              np.empty(counts[c], np.uint8))
               for c in splits}
        filled = dict.fromkeys(out, 0)
        for start, rec in blocks():
            _check_rows(rec["position"], rec["split"], header, start)
            finite = np.isfinite(rec["samples"]).all(axis=1)
            if not finite.all():
                i = start + np.flatnonzero(~finite)[0]
                raise DataFormatError(f"{path}: non-finite sample in record at index {i}")
            for code, arrays in out.items():
                keep = rec["split"] == code
                rows = slice(filled[code], filled[code] + int(np.count_nonzero(keep)))
                for name, field in _FIELDS:
                    getattr(arrays, name)[rows] = rec[field] if keep.all() \
                        else rec[field][keep]
                filled[code] = rows.stop
    return (header, *(out[code] for code in splits))
