"""Grid-annotated trace datasets and their .emgd binary serialization.

File layout (all little-endian):

    bytes 0-3   magic "EMGD"
    bytes 4-5   format version, u16 (currently 1)
    bytes 6-9   header JSON byte length, u32
    ...         UTF-8 JSON header: {geometry{nx,ny,nz,step_mm,z_step_mm,
                origin_mm}, m, trace_count, description, adc_bits}
    ...         trace_count records, each:
                    position_index u16, split u8,
                    key 16 B, plaintext 16 B, ciphertext 16 B,
                    samples m x f32

Readers stream records one at a time, so memory stays O(m) regardless of
file size.
"""

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .grid import GridGeometry

MAGIC = b"EMGD"
FORMAT_VERSION = 1

SPLIT_TRAIN = 0
SPLIT_TEST = 1
SPLIT_HOLDOUT = 2
SPLIT_NAMES = {SPLIT_TRAIN: "train", SPLIT_TEST: "test", SPLIT_HOLDOUT: "holdout"}
SPLIT_CODES = {v: k for k, v in SPLIT_NAMES.items()}

_RECORD_FIXED = struct.Struct("<HB16s16s16s")  # 51 bytes before the samples


@dataclass
class TraceRecord:
    position_index: int
    split: int
    key: bytes
    plaintext: bytes
    ciphertext: bytes
    samples: np.ndarray  # float32, shape (m,)


@dataclass
class DatasetHeader:
    geometry: GridGeometry
    m: int
    trace_count: int
    description: str = ""
    adc_bits: int = 0  # 0 = no simulated quantization

    def __post_init__(self):
        if self.m <= 0:
            raise DataFormatError("header m must be > 0")
        if self.trace_count < 0:
            raise DataFormatError("header trace_count must be >= 0")

    def to_json_bytes(self) -> bytes:
        d = {
            "geometry": self.geometry.to_json_dict(),
            "m": self.m,
            "trace_count": self.trace_count,
            "description": self.description,
            "adc_bits": self.adc_bits,
        }
        return json.dumps(d, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_json_bytes(cls, raw: bytes) -> "DatasetHeader":
        try:
            d = json.loads(raw.decode("utf-8"))
            return cls(
                geometry=GridGeometry.from_json_dict(d["geometry"]),
                m=int(d["m"]),
                trace_count=int(d["trace_count"]),
                description=str(d.get("description", "")),
                adc_bits=int(d.get("adc_bits", 0)),
            )
        except (ValueError, KeyError, TypeError) as e:
            raise DataFormatError(f"malformed dataset header: {e}") from e


def _validate_record(rec: TraceRecord, header: DatasetHeader, idx: int):
    pos_limit = min(header.geometry.position_count, 1 << 16)
    if not 0 <= rec.position_index < pos_limit:
        raise DataFormatError(
            f"record/header mismatch at index {idx}: position {rec.position_index} "
            f"outside grid of {header.geometry.position_count}")
    if rec.split not in SPLIT_NAMES:
        raise DataFormatError(f"record/header mismatch at index {idx}: bad split {rec.split}")
    for name, val in (("key", rec.key), ("plaintext", rec.plaintext),
                      ("ciphertext", rec.ciphertext)):
        if len(val) != 16:
            raise DataFormatError(f"record/header mismatch at index {idx}: {name} not 16 bytes")
    if len(rec.samples) != header.m:
        raise DataFormatError(
            f"record/header mismatch at index {idx}: samples length "
            f"{len(rec.samples)} != m {header.m}")


def write_dataset(header: DatasetHeader, records, path) -> None:
    """Serialize a record stream; records are validated against the header."""
    if header.geometry.position_count > 1 << 16:
        raise DataFormatError("grid has more positions than the u16 index can address")
    hdr = header.to_json_bytes()
    count = 0
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<HI", FORMAT_VERSION, len(hdr)))
        f.write(hdr)
        for idx, rec in enumerate(records):
            _validate_record(rec, header, idx)
            f.write(_RECORD_FIXED.pack(rec.position_index, rec.split,
                                       rec.key, rec.plaintext, rec.ciphertext))
            f.write(np.ascontiguousarray(rec.samples, dtype="<f4").tobytes())
            count += 1
    if count != header.trace_count:
        raise DataFormatError(
            f"record/header mismatch: wrote {count} records, header declares "
            f"{header.trace_count}")


def _read_header(f, path) -> DatasetHeader:
    fixed = f.read(10)
    if len(fixed) < 10 or fixed[:4] != MAGIC:
        raise DataFormatError(f"{path}: not a dataset file (bad magic)")
    version, hdr_len = struct.unpack("<HI", fixed[4:10])
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{path}: unsupported format version {version}")
    raw = f.read(hdr_len)
    if len(raw) < hdr_len:
        raise DataFormatError(f"{path}: truncated file at byte offset {10 + len(raw)}")
    return DatasetHeader.from_json_bytes(raw)


def read_header(path) -> DatasetHeader:
    with open(path, "rb") as f:
        return _read_header(f, path)


def _record_stream(path, header: DatasetHeader, offset: int, rec_size: int):
    with open(path, "rb") as f:
        f.seek(offset)
        for _ in range(header.trace_count):
            start = f.tell()
            buf = f.read(rec_size)
            if len(buf) < rec_size:
                raise DataFormatError(f"{path}: truncated file at byte offset {start}")
            pos, split, key, pt, ct = _RECORD_FIXED.unpack_from(buf)
            samples = np.frombuffer(buf, dtype="<f4", count=header.m,
                                    offset=_RECORD_FIXED.size)
            yield TraceRecord(pos, split, key, pt, ct, samples)


def read_dataset(path):
    """Return (header, lazy record stream). The stream owns its file handle.

    Bytes past the last declared record are rejected here; a file too short
    for its records fails in the stream, at the first incomplete record.
    """
    with open(path, "rb") as f:
        header = _read_header(f, path)
        offset = f.tell()
        size = os.fstat(f.fileno()).st_size
    rec_size = _RECORD_FIXED.size + 4 * header.m
    end = offset + header.trace_count * rec_size
    if size > end:
        raise DataFormatError(
            f"{path}: {size - end} trailing bytes after the last record "
            f"at byte offset {end}")
    return header, _record_stream(path, header, offset, rec_size)


def filter_records(records, predicate):
    """Order-preserving filter on (position_index, split)."""
    for rec in records:
        if predicate(rec.position_index, rec.split):
            yield rec


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


def read_arrays(path, where=None, max_records=None) -> tuple:
    """Materialize (header, TraceArrays), optionally filtered by
    where(position_index, split). For streaming analyses prefer read_dataset.
    """
    header, records = read_dataset(path)
    if where is not None:
        records = filter_records(records, where)
    samples, keys, pts, cts, poss, splits = [], [], [], [], [], []
    for rec in records:
        samples.append(rec.samples)
        keys.append(rec.key)
        pts.append(rec.plaintext)
        cts.append(rec.ciphertext)
        poss.append(rec.position_index)
        splits.append(rec.split)
        if max_records is not None and len(samples) >= max_records:
            break
    n = len(samples)
    arrays = TraceArrays(
        samples=np.asarray(samples, dtype=np.float32).reshape(n, header.m),
        keys=np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(n, 16),
        plaintexts=np.frombuffer(b"".join(pts), dtype=np.uint8).reshape(n, 16),
        ciphertexts=np.frombuffer(b"".join(cts), dtype=np.uint8).reshape(n, 16),
        positions=np.asarray(poss, dtype=np.int32).reshape(n),
        splits=np.asarray(splits, dtype=np.uint8).reshape(n),
    )
    return header, arrays
