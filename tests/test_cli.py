"""Command-line pipeline tests: subcommand wiring, exit codes, JSON-line
logging, and byte-level determinism of every artifact."""

import contextlib
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import threading
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgrid import cli, evaluation, simulator
from emgrid.aes import encrypt_blocks, expand_keys_batch
from emgrid.cli import main
from emgrid.distinguishers import CpaAccumulator, SnrAccumulator
from emgrid.errors import DataFormatError
from emgrid.grid import GridGeometry
from emgrid.heatmap import COLOR_RAMP, heatmap_from_csv
from emgrid.profiler import (
    CLASSIFIER_256,
    HD_REGRESSOR_16,
    ProfilingModel,
    StandardizationParams,
    load_model,
    save_model,
    select_leaky_positions,
)
from emgrid.traceset import (
    MAX_M,
    SPLIT_HOLDOUT,
    SPLIT_TEST,
    SPLIT_TRAIN,
    DatasetHeader,
    TraceArrays,
    read_arrays,
    read_header,
    read_preamble,
    record_dtype,
    write_dataset,
)
from final_round import last_round_hds

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stderr JSON events)."""
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    events = [json.loads(line) for line in err.splitlines() if line.strip()]
    return code, events


def holdout_chunk(keys, pts, samples):
    """Position-0 holdout rows with ciphertexts that match their keys."""
    n = len(samples)
    return TraceArrays(samples, keys, pts,
                       encrypt_blocks(pts, expand_keys_batch(keys)),
                       np.zeros(n, dtype=np.int32),
                       np.full(n, SPLIT_HOLDOUT, dtype=np.uint8))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def sim_config(workdir):
    cfg = {
        "geometry": {"nx": 2, "ny": 1, "nz": 1, "step_mm": 0.5,
                     "z_step_mm": 0.5, "origin_mm": [0.0, 0.0, 0.2]},
        "m": 12,
        "seed": 11,
        "fixed_key": KEY.hex(),
        "traces_per_position": {"train": 300, "test": 150, "holdout": 100},
        "device": {"noise_sigma": 0.05},
        "sources": [
            {"position_mm": [0.0, 0.0, 0.0], "sample_indices": [5],
             "target": "FirstRoundSboxOutput", "byte_index": 0,
             "amplitude": 0.05},
        ],
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def dataset(workdir, sim_config):
    out = workdir / "sim.emgd"
    code = main(["simulate", "--config", str(sim_config), "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def hd_dataset(workdir):
    """Hand-built 1x1 dataset whose samples are the 16 true last-round HDs:
    an identity regressor (or raw CPA) recovers the key immediately."""
    rng = np.random.default_rng(99)
    n = 700
    pts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    keys = np.tile(np.frombuffer(KEY, dtype=np.uint8), (n, 1))
    cts = encrypt_blocks(pts, expand_keys_batch(keys))
    hds = last_round_hds(keys, pts, cts).astype(np.float32)
    geometry = GridGeometry(1, 1, 1, 0.5, 0.5, (0.0, 0.0, 0.0))
    header = DatasetHeader(geometry=geometry, m=16, trace_count=n,
                           description="true-HD fixture", adc_bits=0)
    path = workdir / "hd.emgd"
    write_dataset(header, [holdout_chunk(keys, pts, hds)], path)
    return path


# ---------------------------------------------------------------- simulate

def test_simulate_writes_dataset_matching_config(dataset, sim_config):
    header = read_header(dataset)
    assert header.m == 12
    assert header.trace_count == 2 * (300 + 150 + 100)
    assert header.geometry.nx == 2 and header.geometry.ny == 1


def test_simulate_missing_config_exit_2(capsys, workdir):
    code, events = run(capsys, "simulate", "--config", workdir / "none.json",
                       "--out", workdir / "x.emgd")
    assert code == 2
    assert events[-1]["event"] == "error"
    assert "not found" in events[-1]["message"]


WIDE_CONFIG = {"geometry": {"nx": 1, "ny": 1, "nz": 1, "step_mm": 0.5,
                             "z_step_mm": 0.5, "origin_mm": [0.0, 0.0, 0.2]},
               "m": 2816, "seed": 3, "traces_per_position": {"train": 600},
               "sources": [{"position_mm": [0.0, 0.0, 0.0],
                            "sample_indices": [5],
                            "target": "FirstRoundSboxOutput", "byte_index": 0,
                            "amplitude": 0.05}]}


def test_simulate_logs_progress_per_crossed_step(capsys, workdir):
    """Wide traces come in chunks of 186 (m = 2816), which never end on a
    multiple of the 30-trace logging step; every chunk that crosses one logs
    an event. Workers finish chunks in any order, so with --threads 2 the
    counts only have to increase up to the total."""
    config = workdir / "wide.json"
    config.write_text(json.dumps(WIDE_CONFIG))
    for threads in (1, 2):
        out = workdir / f"wide{threads}.emgd"
        code, events = run(capsys, "simulate", "--config", config, "--out", out,
                           "--threads", threads)
        assert code == 0
        done = [e["done"] for e in events if e["event"] == "progress"]
        assert all(e["total"] == 600 for e in events if e["event"] == "progress")
        assert done == sorted(set(done)) and done[-1] == 600
        if threads == 1:
            assert done == [186, 372, 558, 600]
        assert events[-1]["workers"] == min(threads, simulator.usable_cpus())
        assert out.read_bytes() == (workdir / "wide1.emgd").read_bytes()


def test_simulate_threads_to_dev_null_forks_workers(capsys, sim_config):
    """/dev/null takes records at any offset, so simulate writes it with
    forked workers like a regular file; it cannot be emptied, nor need it."""
    code, events = run(capsys, "simulate", "--config", sim_config,
                       "--out", "/dev/null", "--threads", 2)
    assert code == 0
    chunks = sum(1 for _ in simulator._chunk_plan(
        simulator.load_sim_config(sim_config)))
    assert events[-1]["event"] == "dataset"
    assert events[-1]["workers"] == min(2, simulator.usable_cpus(), chunks)


@pytest.mark.parametrize("threads", [1, 2])
def test_simulate_to_a_pipe_exit_1(capsys, sim_config, threads):
    """Records are written in place, so an --out that cannot seek, such as
    a pipe, ends simulate with one OSError event and no worker left."""
    read_end, write_end = os.pipe()

    def drain():  # so that a write to the pipe can never block
        while os.read(read_end, 1 << 16):
            pass

    reader = threading.Thread(target=drain)
    reader.start()
    try:
        code, events = run(capsys, "simulate", "--config", sim_config,
                           "--out", f"/dev/fd/{write_end}", "--threads", threads)
    finally:
        os.close(write_end)
        reader.join()
        os.close(read_end)
    assert code == 1
    errors = [e for e in events if e["event"] == "error"]
    assert errors == [events[-1]]
    assert errors[0]["kind"] == "OSError"
    assert "Illegal seek" in errors[0]["message"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("threads", [1, 2])
def test_simulate_worker_failure_exit_1(capsys, workdir, sim_config,
                                        monkeypatch, threads):
    """A chunk that fails ends simulate as it does in one process: exit 1,
    one error event, every worker reaped and no file that reads as a
    dataset (unwritten records would read as zero-sample train traces)."""
    synthesize = simulator._synthesize_chunk

    def failing(config, position, split, start, count):
        if (position, split) == (0, SPLIT_TEST):  # chunk 1, the forked worker's
            raise OSError("disk on fire")
        return synthesize(config, position, split, start, count)

    monkeypatch.setattr(simulator, "usable_cpus", lambda: 2)
    monkeypatch.setattr(simulator, "_synthesize_chunk", failing)
    out = workdir / f"failed{threads}.emgd"
    code, events = run(capsys, "simulate", "--config", sim_config,
                       "--out", out, "--threads", threads)
    assert code == 1
    errors = [e for e in events if e["event"] == "error"]
    assert errors == [events[-1]]
    assert errors[0]["kind"] == "OSError"
    assert errors[0]["message"] == "disk on fire"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert out.stat().st_size == 0
    with pytest.raises(DataFormatError):
        read_arrays(out, (SPLIT_TRAIN,))


def test_simulate_worker_defect_logs_the_raising_frame(capsys, workdir,
                                                       sim_config, monkeypatch):
    """An unexpected exception in a chunk (exit 4) names the line that
    raised it as `where`, whether the chunk ran in the calling process
    (--threads 1) or in a forked worker (--threads 2)."""
    synthesize = simulator._synthesize_chunk

    def failing(config, position, split, start, count):
        if (position, split) == (0, SPLIT_TEST):  # chunk 1, the forked worker's
            raise RuntimeError("simulated defect")
        return synthesize(config, position, split, start, count)

    monkeypatch.setattr(simulator, "usable_cpus", lambda: 2)
    monkeypatch.setattr(simulator, "_synthesize_chunk", failing)
    wheres = []
    for threads in (1, 2):
        code, events = run(capsys, "simulate", "--config", sim_config,
                           "--out", workdir / f"defect{threads}.emgd",
                           "--threads", threads)
        assert code == 4
        assert events[-1]["kind"] == "RuntimeError"
        assert events[-1]["message"] == "simulated defect"
        wheres.append(events[-1]["where"])
    assert wheres[0] == wheres[1]
    assert wheres[0].startswith("test_cli.py:") and wheres[0].endswith(" in failing")



def test_no_command_imports_multiprocessing(workdir, sim_config):
    """Only a forked simulate imports multiprocessing, so neither importing
    the CLI nor an in-process simulate pays for it. Run as a fresh process:
    this one has imported it already."""
    script = ("import sys\n"
              "import emgrid.cli\n"
              "assert 'multiprocessing' not in sys.modules\n"
              "assert emgrid.cli.main(sys.argv[1:]) == 0\n"
              "assert 'multiprocessing' not in sys.modules\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "simulate", "--config", str(sim_config),
         "--out", str(workdir / "in_process.emgd"), "--threads", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

# JSON nested deeper than the parser's recursion limit
NESTED_JSON = b"[" * 100_000 + b"]" * 100_000


def test_simulate_bad_config_exit_2(capsys, workdir):
    bad = workdir / "bad.json"
    # no geometry; bytes that are not UTF-8; nesting past the recursion limit
    for raw in (b'{"m": 4}', b'{"m": "\xff"}', NESTED_JSON):
        bad.write_bytes(raw)
        code, events = run(capsys, "simulate", "--config", bad,
                           "--out", workdir / "x.emgd")
        assert code == 2
        assert [e["event"] for e in events] == ["error"]
        assert events[-1]["kind"] == "ConfigError"


SOURCE = {"position_mm": [0.0, 0.0, 0.0], "sample_indices": [5],
          "target": "FirstRoundSboxOutput", "byte_index": 0, "amplitude": 0.05}
GEOMETRY = {"nx": 2, "ny": 1, "nz": 1, "step_mm": 0.5, "z_step_mm": 0.5,
            "origin_mm": [0.0, 0.0, 0.2]}
INF = float("inf")
NAN = float("nan")

BAD_CONFIGS = {
    "m-1e999": {"m": 1e999},
    # one sample past the .emgd record limit: rejected before any allocation
    "m-past-record-limit": {"m": MAX_M + 1},
    # one trace past a 4 MiB simulation chunk
    "m-past-chunk-budget": {"m": (4 << 20) // 8 + 1},
    "full-scale-one-value": {"device": {"full_scale": [1]}},
    "origin-shift-not-a-triple": {"perturbation": {"probe_origin_shift_mm": 5}},
    "perturbation-not-an-object": {"perturbation": 5},
    "device-not-an-object": {"device": [1]},
    "split-count-inf": {"traces_per_position": {"train": INF}},
    # beyond the 40-bit trace index of a substream key
    "split-count-2**40": {"traces_per_position": {"holdout": 2**40}},
    "amplitude-inf": {"sources": [{**SOURCE, "amplitude": INF}]},
    "source-position-nan": {"sources": [{**SOURCE, "position_mm": [0, NAN, 0]}]},
    "gain-inf": {"device": {"gain": INF}},
    "offset-nan": {"device": {"offset": NAN}},
    "noise-sigma-nan": {"device": {"noise_sigma": NAN}},
    "full-scale-inf": {"device": {"full_scale": [-4, INF]}},
    "background-amplitude-inf": {"background": {"amplitude": INF}},
    "background-period-nan": {"background": {"period_samples": NAN}},
    "background-phase-inf": {"background": {"phase": -INF}},
    "step-nan": {"geometry": {**GEOMETRY, "step_mm": NAN}},
    "z-step-inf": {"geometry": {**GEOMETRY, "z_step_mm": INF}},
    "origin-inf": {"geometry": {**GEOMETRY, "origin_mm": [0, INF, 0]}},
    # more positions than the u16 record field can address
    "grid-300x300": {"geometry": {**GEOMETRY, "nx": 300, "ny": 300}},
    "sample-index-repeated": {"sources": [{**SOURCE, "sample_indices": [5, 5]}]},
    # JSON types are not coerced: each of these was once read as another value
    "m-8.9": {"m": 8.9},
    "m-string": {"m": "8"},
    "nx-true": {"geometry": {**GEOMETRY, "nx": True}},
    "axis-flip-string": {"device": {"axis_flip_y": "false"}},
    "seed-3.7": {"seed": 3.7},
    "split-count-4.5": {"traces_per_position": {"train": 4.5}},
    "sample-index-1.9": {"sources": [{**SOURCE, "sample_indices": [1.9]}]},
    "unknown-device-field": {"device": {"noise_sigam": 0.5}},
}


@pytest.mark.parametrize("case", [*BAD_CONFIGS, "top-level-array"])
def test_simulate_malformed_config_exit_2(capsys, workdir, sim_config, case):
    bad = workdir / f"bad_{case}.json"
    out = workdir / f"bad_{case}.emgd"
    cfg = json.loads(sim_config.read_text())
    if case == "top-level-array":
        cfg = [cfg]
    else:
        cfg.update(BAD_CONFIGS[case])
    bad.write_text(json.dumps(cfg))
    code, events = run(capsys, "simulate", "--config", bad, "--out", out)
    assert code == 2
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["kind"] == "ConfigError"
    assert not out.exists()


def test_simulate_deterministic_and_seed_sensitive(capsys, workdir, sim_config,
                                                   dataset):
    again = workdir / "again.emgd"
    code, _ = run(capsys, "simulate", "--config", sim_config, "--out", again)
    assert code == 0
    assert sha256(again) == sha256(dataset)
    reseeded = workdir / "reseeded.emgd"
    code, _ = run(capsys, "simulate", "--config", sim_config, "--out", reseeded,
                  "--seed", 12)
    assert code == 0
    assert sha256(reseeded) != sha256(dataset)


def test_simulate_seed_is_replaced_before_the_perturbation_steps_it(
        capsys, workdir, sim_config):
    """Device B, the same config with a perturbation block, draws other
    traces than device A under the same --seed: the seed is replaced first
    and then stepped, as if the file had held it."""
    cfg = json.loads(sim_config.read_text())
    configs = {"a": cfg, "b": {**cfg, "perturbation": {}},
               "b_seed_5": {**cfg, "seed": 5, "perturbation": {}}}
    outs = {}
    for name, c in configs.items():
        path = workdir / f"seed_{name}.json"
        path.write_text(json.dumps(c))
        outs[name] = workdir / f"seed_{name}.emgd"
        seed = [] if name == "b_seed_5" else ["--seed", 5]
        code, _ = run(capsys, "simulate", "--config", path, "--out", outs[name],
                      *seed)
        assert code == 0
    _, a = read_arrays(outs["a"], [SPLIT_HOLDOUT])
    _, b = read_arrays(outs["b"], [SPLIT_HOLDOUT])
    assert not np.array_equal(a.plaintexts, b.plaintexts)
    assert sha256(outs["b"]) == sha256(outs["b_seed_5"])


# --------------------------------------------------------------------- snr

def test_snr_csv_and_threads_determinism(capsys, workdir, dataset):
    out1 = workdir / "snr1.csv"
    out8 = workdir / "snr8.csv"
    code, events = run(capsys, "snr", "--in", dataset, "--target", "sbox-output",
                       "--byte", 0, "--out-heatmap", out1)
    assert code == 0
    assert [e["position"] for e in events if e["event"] == "position"] == [0, 1]
    grid = heatmap_from_csv(out1.read_text())
    assert grid.shape == (1, 2)
    assert grid[0, 0] > grid[0, 1]  # source sits under position 0
    code, _ = run(capsys, "snr", "--in", dataset, "--target", "sbox-output",
                  "--byte", 0, "--out-heatmap", out8, "--threads", 8)
    assert code == 0
    assert sha256(out1) == sha256(out8)


def test_snr_empty_dataset_exit_2(capsys, workdir):
    geometry = GridGeometry(1, 1, 1, 0.5, 0.5, (0.0, 0.0, 0.0))
    header = DatasetHeader(geometry=geometry, m=4, trace_count=0,
                           description="", adc_bits=0)
    path = workdir / "empty.emgd"
    write_dataset(header, iter(()), path)
    code, events = run(capsys, "snr", "--in", path, "--target", "sbox-input",
                       "--byte", 0, "--out-heatmap", workdir / "e.csv")
    assert code == 2
    assert events[-1]["kind"] == "ConfigError"


def test_missing_dataset_exit_1(capsys, workdir):
    code, events = run(capsys, "snr", "--in", workdir / "nope.emgd",
                       "--target", "sbox-input", "--byte", 0,
                       "--out-heatmap", workdir / "x.csv")
    assert code == 1
    assert events[-1]["event"] == "error"


def test_corrupt_dataset_exit_1(capsys, workdir, dataset):
    with open(dataset, "rb") as f:
        good = read_preamble(f, b"EMGD", dataset)
        records = f.read()
    m, n = good["m"], good["trace_count"]

    def emgd(header) -> bytes:
        raw = header if isinstance(header, bytes) else json.dumps(header).encode()
        return b"EMGD" + struct.pack("<HI", 1, len(raw)) + raw

    corrupt = workdir / "corrupt.emgd"
    for raw in (b"JUNKJUNKJUNK",
                emgd({**good, "geometry": {**good["geometry"], "nx": 0}}),
                emgd({**good, "geometry": {**good["geometry"],
                                           "step_mm": float("nan")}}),
                emgd({**good, "m": float("inf")}),
                emgd({**good, "m": 10**9}),  # a record beyond numpy's dtype size
                emgd({**good, "m": 0}), emgd({**good, "trace_count": -1}),
                emgd(NESTED_JSON), emgd([1, 2]), emgd(5),
                # with the records: each header was once read as the good one
                *(emgd({**good, **field}) + records for field in (
                    {"m": m + 0.9}, {"m": str(m)}, {"trace_count": n + 0.5},
                    {"adc_bits": True}, {"adc_bits": 5},
                    {"description": [1, 2]}, {"probe": "x"})),
                # grids past the u16 position field: the first was once read
                # without error, the second ran out of memory (exit 4)
                *(emgd({**good, "geometry": {**good["geometry"], "nx": side,
                                             "ny": side}}) + records
                  for side in (300, 300_000))):
        corrupt.write_bytes(raw)
        code, events = run(capsys, "snr", "--in", corrupt, "--target",
                           "sbox-input", "--byte", 0,
                           "--out-heatmap", workdir / "x.csv")
        assert code == 1
        assert [e["event"] for e in events] == ["error"]
        assert events[-1]["kind"] == "DataFormatError"
        # every fault names the file; one found in a readable header says so
        assert events[-1]["message"].startswith(f"{corrupt}: ")
        if raw[:4] == b"EMGD" and raw[10:11] == b"{":
            assert events[-1]["message"].startswith(
                f"{corrupt}: malformed dataset header: "), raw[:80]


@pytest.fixture(scope="module")
def small_dataset(workdir):
    """Raw bytes of a valid 2x1-grid dataset of 6 train/test records, m=3."""
    rng = np.random.default_rng(3)
    n = 6
    header = DatasetHeader(GridGeometry(2, 1, 1, 0.5, 0.5, (0.0, 0.0, 0.0)),
                           m=3, trace_count=n)
    chunk = TraceArrays(rng.normal(size=(n, 3)).astype(np.float32),
                        *rng.integers(0, 256, (3, n, 16), dtype=np.uint8),
                        np.arange(n, dtype=np.int32) % 2,
                        np.arange(n, dtype=np.uint8) % 2)
    path = workdir / "small.emgd"
    write_dataset(header, [chunk], path)
    return path.read_bytes()


def set_record_field(raw: bytes, index: int, field: str, value: int) -> bytes:
    """Overwrite one integer field of record `index` in small_dataset's bytes."""
    dtype = record_dtype(3)
    field_dtype, field_offset = dtype.fields[field]
    records_start = len(raw) - 6 * dtype.itemsize
    at = records_start + index * dtype.itemsize + field_offset
    return raw[:at] + np.array(value, field_dtype).tobytes() + \
        raw[at + field_dtype.itemsize:]


def set_record_sample(raw: bytes, m: int, n: int, index: int, k: int,
                      value: float) -> bytes:
    """Overwrite sample k of record `index` in the bytes of an n-record
    dataset with m samples per record."""
    dtype = record_dtype(m)
    at = len(raw) - n * dtype.itemsize + index * dtype.itemsize + \
        dtype.fields["samples"][1] + 4 * k
    return raw[:at] + struct.pack("<f", value) + raw[at + 4:]


def run_quiet(*argv):
    """Like run, without capsys, for hypothesis tests. Any uncaught
    exception fails the caller."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, [json.loads(line) for line in err.getvalue().splitlines()]


def snr_on_bytes(tmp_dir, raw: bytes):
    """Run `emgrid snr` on a dataset with the given bytes; returns (exit
    code, stderr JSON events)."""
    path = tmp_dir / "fault.emgd"
    path.write_bytes(raw)
    return run_quiet("snr", "--in", path, "--out-heatmap", tmp_dir / "fault.csv")


@pytest.mark.parametrize("field, value", [("position", 5), ("split", 7)])
def test_snr_bad_record_field_exit_1(workdir, small_dataset, field, value):
    code, events = snr_on_bytes(
        workdir, set_record_field(small_dataset, 2, field, value))
    assert code == 1
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["kind"] == "DataFormatError"
    assert "at index 2" in events[0]["message"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_snr_reader_faults_exit_1(tmp_path_factory, small_dataset, data):
    raw = small_dataset
    fault = data.draw(st.sampled_from(["truncate", "pad", "position", "split",
                                       "sample"]))
    if fault == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif fault == "pad":
        raw = raw + data.draw(st.binary(min_size=1, max_size=200))
    elif fault == "sample":
        # any record, including the test-split ones snr does not keep
        raw = set_record_sample(
            raw, 3, 6, data.draw(st.integers(0, 5)), data.draw(st.integers(0, 2)),
            data.draw(st.sampled_from([math.nan, math.inf, -math.inf])))
    else:
        index = data.draw(st.integers(0, 5))
        value = data.draw(st.integers(2, 0xFFFF) if fault == "position"
                          else st.integers(3, 0xFF))
        raw = set_record_field(raw, index, fault, value)
    code, events = snr_on_bytes(tmp_path_factory.mktemp("fault"), raw)
    assert code == 1
    assert [e["event"] for e in events] == ["error"]


# --------------------------------------------------------------------- cpa

def test_cpa_discloses_on_hd_fixture(capsys, workdir, hd_dataset):
    discl = workdir / "cpa_d.csv"
    ranks = workdir / "cpa_r.csv"
    code, events = run(capsys, "cpa", "--in", hd_dataset, "--checkpoint", 200,
                       "--out-disclosure", discl, "--out-ranks", ranks)
    assert code == 0
    assert heatmap_from_csv(discl.read_text())[0, 0] == 200
    assert heatmap_from_csv(ranks.read_text())[0, 0] == 0
    position = [e for e in events if e["event"] == "position"]
    assert len(position) == 1
    disclosure = position[0]["disclosure"]
    assert disclosure == 200 and isinstance(disclosure, int)  # logged as 200


def test_cpa_budget_zero_all_infinite(capsys, workdir, hd_dataset):
    discl = workdir / "cpa_b0_d.csv"
    ranks = workdir / "cpa_b0_r.csv"
    code, events = run(capsys, "cpa", "--in", hd_dataset, "--budget", 0,
                       "--out-disclosure", discl, "--out-ranks", ranks)
    assert code == 0
    assert math.isinf(heatmap_from_csv(discl.read_text())[0, 0])
    position = [e for e in events if e["event"] == "position"]
    assert [e["disclosure"] for e in position] == ["inf"]


def test_cpa_sbox_input_target_exit_2(capsys, workdir, dataset, monkeypatch):
    """HW(p ^ k ^ 0xff) = 8 - HW(p ^ k), so under |r| guesses k and k ^ 0xff
    tie and sbox-input CPA never discloses; cpa refuses the target before it
    reads the fixed-key dataset."""
    def no_read(*args, **kwargs):
        raise AssertionError("the dataset was read")

    monkeypatch.setattr(cli, "read_header", no_read)
    monkeypatch.setattr(cli, "read_arrays", no_read)
    monkeypatch.setattr(cli, "read_positions", no_read)
    out = workdir / "sbox_input_d.csv"
    code, events = run(capsys, "cpa", "--in", dataset, "--target", "sbox-input",
                       "--out-disclosure", out,
                       "--out-ranks", workdir / "sbox_input_r.csv")
    assert code == 2
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["kind"] == "ConfigError"
    assert "--target" in events[0]["message"]
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cpa_non_finite_sample_exit_1(capsys, workdir, hd_dataset, value):
    # a NaN sample used to give an average rank of -0.5 with exit 0
    bad = workdir / "hd_nonfinite.emgd"
    bad.write_bytes(set_record_sample(hd_dataset.read_bytes(), 16, 700, 5, 9,
                                      value))
    code, events = run(capsys, "cpa", "--in", bad,
                       "--out-disclosure", workdir / "nf_d.csv",
                       "--out-ranks", workdir / "nf_r.csv")
    assert code == 1
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["kind"] == "DataFormatError"
    assert "non-finite sample in record at index 5" in events[0]["message"]


def test_cpa_mixed_keys_exit_3(capsys, workdir):
    rng = np.random.default_rng(5)
    n = 40
    pts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    keys = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    geometry = GridGeometry(1, 1, 1, 0.5, 0.5, (0.0, 0.0, 0.0))
    header = DatasetHeader(geometry=geometry, m=4, trace_count=n,
                           description="", adc_bits=0)
    samples = rng.normal(size=(n, 4)).astype(np.float32)
    path = workdir / "mixed.emgd"
    write_dataset(header, [holdout_chunk(keys, pts, samples)], path)
    code, events = run(capsys, "cpa", "--in", path,
                       "--out-disclosure", workdir / "m_d.csv",
                       "--out-ranks", workdir / "m_r.csv")
    assert code == 3
    assert "fixed" in events[-1]["message"]


# ------------------------------------------------------------------- train

def test_train_single_writes_model_and_history(capsys, workdir, dataset):
    out = workdir / "single.emmod"
    code, events = run(capsys, "train", "--in", dataset, "--mode", "single",
                       "--positions", 0, "--target", "sbox-output",
                       "--epochs", 3, "--steps", 20, "--seed", 4,
                       "--out-model", out)
    assert code == 0
    epochs = [e for e in events if e["event"] == "epoch"]
    assert len(epochs) == 3
    assert all("val_mean_rank" in e for e in epochs)
    model = load_model(out)
    assert model.kind == CLASSIFIER_256
    assert model.positions == (0,)
    done = [e for e in events if e["event"] == "model"][0]
    assert done["traces"] == 300


def test_train_single_needs_one_position(capsys, workdir, dataset):
    code, events = run(capsys, "train", "--in", dataset, "--mode", "single",
                       "--positions", 0, 1, "--out-model", workdir / "x.emmod")
    assert code == 2


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_train_non_finite_lr_exit_2(capsys, workdir, dataset, rate):
    code, events = run(capsys, "train", "--in", dataset, "--mode", "all",
                       "--lr", rate, "--out-model", workdir / "lr.emmod")
    assert code == 2
    assert events[-1]["kind"] == "ConfigError"
    assert not (workdir / "lr.emmod").exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_train_non_finite_threshold_exit_2(capsys, workdir, dataset, threshold):
    ranks_csv = workdir / "threshold.csv"
    ranks_csv.write_text("y\\x,0,1\n0,95,126\n")
    out = workdir / "threshold.emmod"
    code, events = run(capsys, "train", "--in", dataset, "--mode", "multiplace",
                       "--heatmap", ranks_csv, f"--threshold={threshold}",
                       "--out-model", out)
    assert code == 2
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["kind"] == "ConfigError"
    assert "--threshold" in events[0]["message"]
    assert not out.exists()


@pytest.mark.parametrize("kind", ["classifier"])
def test_train_divergence_exit_3_without_model(workdir, dataset, kind):
    """A learning rate that overflows the weights ends in one AnalysisError
    event, with no numpy warning text on stderr and no model file: 1e39,
    past the float32 range that training steps in, as well as 1e308. Run
    as a process: pytest would otherwise capture the warnings stderr
    shows."""
    for lr in ("1e39", "1e308"):
        out = workdir / f"diverged_{kind}_{lr}.emmod"
        proc = subprocess.run(
            [sys.executable, "-m", "emgrid", "train", "--in", str(dataset),
             "--mode", "single", "--positions", "0", "--model-kind", kind,
             "--lr", lr, "--epochs", "2", "--steps", "20",
             "--out-model", str(out)], capture_output=True, text=True)
        assert proc.returncode == 3, (lr, proc.stderr)
        events = [json.loads(line) for line in proc.stderr.splitlines()]
        errors = [e for e in events if e["event"] == "error"]
        assert len(errors) == 1 and errors[0]["kind"] == "AnalysisError", lr
        assert "diverged" in errors[0]["message"]
        assert not out.exists()


def test_train_negative_seed_exit_2(capsys, workdir, dataset):
    code, events = run(capsys, "train", "--in", dataset, "--mode", "all",
                       "--seed", -1, "--out-model", workdir / "seed.emmod")
    assert code == 2
    assert [e["kind"] for e in events if e["event"] == "error"] == ["ConfigError"]
    assert not (workdir / "seed.emmod").exists()


@pytest.mark.parametrize("selection", [
    ["--mode", "multiplace", "--positions", 0, 99],
    ["--mode", "multiplace", "--positions", -1],
    ["--mode", "single", "--positions", 99],
    ["--mode", "single", "--positions", 2],  # one past the 2x1 grid
])
def test_train_positions_outside_grid_exit_2(capsys, workdir, dataset,
                                             selection):
    out = workdir / "outside.emmod"
    code, events = run(capsys, "train", "--in", dataset, *selection,
                       "--out-model", out)
    assert code == 2
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["kind"] == "ConfigError"
    assert "outside" in events[0]["message"]
    assert not out.exists()


@pytest.mark.parametrize("mode", [["multiplace"], ["topn", "--n", 1]])
@pytest.mark.parametrize("csv", ["y\\x,0,1,2\n0,95,100,110\n",
                                 "y\\x,0,1\n0,95,100\n1,95,100\n"])
def test_train_heatmap_off_grid_exit_2(capsys, workdir, dataset, mode, csv):
    """A selection heatmap must have the dataset grid's (ny, nx) shape, here
    (1, 2): the cells of a (1, 3) or a (2, 2) map name other positions."""
    ranks_csv = workdir / "off_grid.csv"
    ranks_csv.write_text(csv)
    out = workdir / "off_grid.emmod"
    code, events = run(capsys, "train", "--in", dataset, "--mode", *mode,
                       "--heatmap", ranks_csv, "--out-model", out)
    assert code == 2
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["kind"] == "ConfigError"
    assert "dataset grid" in events[0]["message"]
    assert not out.exists()


@pytest.mark.parametrize("selection,csv", [
    (["--mode", "multiplace"], b"y\\x,0,1,2\n0,95,100,110\n"),  # off grid
    (["--mode", "topn", "--n", 1], b"y\\x,0,1\n0,95,abc\n"),
    (["--mode", "multiplace"], b"y\\x,0,1\n0,\xff,95\n"),  # not UTF-8
    (["--mode", "multiplace", "--positions", 0, 5], None),
    (["--mode", "single", "--positions", 0, "--byte", 16], None),
])
def test_train_checks_selection_before_reading_records(
        capsys, monkeypatch, workdir, dataset, selection, csv):
    """A bad selection fails on the dataset header alone: no record of a
    possibly large file is read first."""
    def no_read(*args, **kwargs):
        raise AssertionError("read_arrays called before the selection check")

    monkeypatch.setattr(cli, "read_arrays", no_read)
    if csv is not None:
        (workdir / "early.csv").write_bytes(csv)
        selection = selection + ["--heatmap", workdir / "early.csv"]
    out = workdir / "early.emmod"
    code, events = run(capsys, "train", "--in", dataset, *selection,
                       "--out-model", out)
    assert code in (1, 2), events
    assert [e["event"] for e in events] == ["error"]
    assert not out.exists()


@pytest.mark.parametrize("selection,flag", [
    (["--mode", "all", "--positions", 99], "--positions"),
    (["--mode", "all", "--positions", 0], "--positions"),
    (["--mode", "all", "--heatmap", "ranks"], "--heatmap"),
    (["--mode", "topn", "--positions", 0], "--positions"),
    (["--mode", "topn", "--heatmap", "ranks", "--n", 1, "--positions", 0],
     "--positions"),
    (["--mode", "single", "--positions", 0, "--heatmap", "missing"],
     "--heatmap"),
    (["--mode", "single", "--positions", 0, "--n", 1], "--n"),
    (["--mode", "multiplace", "--positions", 0, "--heatmap", "ranks"],
     "--heatmap"),
    (["--mode", "multiplace", "--positions", 0, "--heatmap", "missing"],
     "--heatmap"),
    (["--mode", "single", "--positions", 0, "--threshold", 5], "--threshold"),
    (["--mode", "all", "--threshold", 120], "--threshold"),
    (["--mode", "topn", "--heatmap", "ranks", "--n", 1, "--threshold", 5],
     "--threshold"),
    (["--mode", "multiplace", "--positions", 0, "--threshold", 5],
     "--threshold"),
])
def test_train_rejects_selection_flags_its_mode_ignores(
        capsys, monkeypatch, workdir, dataset, selection, flag):
    """A selection flag the mode would not read is a usage error found from
    the header, before any record is read or the --heatmap file opened."""
    def no_read(*args, **kwargs):
        raise AssertionError("read_arrays called before the selection check")

    monkeypatch.setattr(cli, "read_arrays", no_read)
    (workdir / "ignored.csv").write_text("y\\x,0,1\n0,95,126\n")
    paths = {"ranks": workdir / "ignored.csv", "missing": workdir / "absent.csv"}
    selection = [paths.get(arg, arg) for arg in selection]
    out = workdir / "ignored.emmod"
    code, events = run(capsys, "train", "--in", dataset, *selection,
                       "--out-model", out)
    assert code == 2
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["kind"] == "ConfigError"
    assert flag in events[0]["message"]
    assert not out.exists()


@pytest.fixture(scope="module")
def layered_dataset(workdir):
    """A 2x1x2 grid (two z layers) with train and test traces everywhere."""
    rng = np.random.default_rng(5)
    n = 16
    header = DatasetHeader(GridGeometry(2, 1, 2, 0.5, 0.5, (0.0, 0.0, 0.0)),
                           m=3, trace_count=n)
    chunk = TraceArrays(rng.normal(size=(n, 3)).astype(np.float32),
                        *rng.integers(0, 256, (3, n, 16), dtype=np.uint8),
                        np.arange(n, dtype=np.int32) % 4,
                        (np.arange(n, dtype=np.uint8) // 4) % 2)
    path = workdir / "layered.emgd"
    write_dataset(header, [chunk], path)
    return path


@pytest.mark.parametrize("mode", [["multiplace"], ["topn", "--n", 1]])
def test_train_heatmap_on_layered_grid_exit_2(capsys, workdir, layered_dataset,
                                              mode):
    """A heatmap CSV holds one z layer, so it cannot name positions of a grid
    with two: its cells would always select layer 0."""
    ranks_csv = workdir / "layer.csv"
    ranks_csv.write_text("y\\x,0,1\n0,126,95\n")
    out = workdir / "layer.emmod"
    code, events = run(capsys, "train", "--in", layered_dataset, "--mode",
                       *mode, "--heatmap", ranks_csv, "--out-model", out)
    assert code == 2
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["kind"] == "ConfigError"
    assert "2 z layers" in events[0]["message"]
    assert not out.exists()


def test_train_multiplace_threshold_selection(capsys, workdir, dataset):
    ranks_csv = workdir / "sel.csv"
    ranks_csv.write_text("y\\x,0,1\n0,95.25,126\n")
    out = workdir / "multi.emmod"
    code, events = run(capsys, "train", "--in", dataset, "--mode", "multiplace",
                       "--heatmap", ranks_csv, "--threshold", 120,
                       "--target", "sbox-output", "--epochs", 2, "--steps", 10,
                       "--out-model", out)
    assert code == 0
    selected = [e for e in events if e["event"] == "selected"][0]
    values = heatmap_from_csv(ranks_csv.read_text()).ravel()
    assert selected["positions"] == sorted(select_leaky_positions(values, 120.0))
    assert selected["positions"] == [0]


def test_train_multiplace_no_selection_exit_3(capsys, workdir, dataset):
    ranks_csv = workdir / "none_sel.csv"
    ranks_csv.write_text("y\\x,0,1\n0,127.5,127.5\n")
    code, events = run(capsys, "train", "--in", dataset, "--mode", "multiplace",
                       "--heatmap", ranks_csv, "--out-model", workdir / "x.emmod")
    assert code == 3


def test_train_topn_and_data_cap(capsys, workdir, dataset):
    ranks_csv = workdir / "topn.csv"
    ranks_csv.write_text("y\\x,0,1\n0,110,100\n")
    out = workdir / "topn.emmod"
    code, events = run(capsys, "train", "--in", dataset, "--mode", "topn",
                       "--heatmap", ranks_csv, "--n", 2, "--data-cap", 450,
                       "--target", "sbox-output", "--epochs", 2, "--steps", 10,
                       "--out-model", out)
    assert code == 0
    selected = [e for e in events if e["event"] == "selected"][0]
    assert selected["positions"] == [1, 0]  # best-first
    done = [e for e in events if e["event"] == "model"][0]
    assert done["traces"] == 450  # 600 train traces capped


def test_train_hd_regressor_kind(capsys, workdir, dataset):
    """The regressor's least-squares fit logs one epoch event, its validation
    MSE, and its iteration count; the SGD flags do not change its model."""
    out, other = workdir / "reg.emmod", workdir / "reg_other.emmod"
    code, events = run(capsys, "train", "--in", dataset, "--mode", "all",
                       "--model-kind", "hd-regressor", "--epochs", 2,
                       "--steps", 10, "--out-model", out)
    assert code == 0
    assert load_model(out).kind == HD_REGRESSOR_16
    epochs = [e for e in events if e["event"] == "epoch"]
    assert len(epochs) == 1 and epochs[0]["val_mse"] > 0
    done = [e for e in events if e["event"] == "model"][0]
    assert isinstance(done["iterations"], int) and done["iterations"] > 0
    assert done["second_half_mean"] == epochs[0]["val_mse"]
    code, _ = run(capsys, "train", "--in", dataset, "--mode", "all",
                  "--model-kind", "hd-regressor", "--lr", "1e308",
                  "--batch-size", 3, "--epochs", 0, "--steps", 1,
                  "--out-model", other)
    assert code == 0
    assert other.read_bytes() == out.read_bytes()
    # a data cap below the (classifier-only) batch size still caps
    code, events = run(capsys, "train", "--in", dataset, "--mode", "all",
                       "--model-kind", "hd-regressor", "--data-cap", 32,
                       "--out-model", other)
    assert code == 0
    assert [e for e in events if e["event"] == "model"][0]["traces"] == 32


def test_train_deterministic_model_file(capsys, workdir, dataset):
    a = workdir / "det_a.emmod"
    b = workdir / "det_b.emmod"
    args = ["train", "--in", dataset, "--mode", "single", "--positions", 0,
            "--target", "sbox-output", "--epochs", 2, "--steps", 10,
            "--seed", 77]
    assert run(capsys, *args, "--out-model", a)[0] == 0
    assert run(capsys, *args, "--out-model", b)[0] == 0
    assert sha256(a) == sha256(b)


@pytest.mark.parametrize("kind", ["classifier", "hd-regressor"])
@pytest.mark.parametrize("missing", ["train", "test"])
def test_train_split_without_traces_exit_2(capsys, workdir, missing, kind):
    """train ends on a split without traces as the sweeps do: exit 2 with
    one ConfigError, before it logs its selection. It used to exit 3 after
    the selection ("empty training set" or "empty validation set")."""
    rng = np.random.default_rng(5)
    n = 40
    keys = np.tile(np.frombuffer(KEY, dtype=np.uint8), (n, 1))
    pts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    kept = SPLIT_TEST if missing == "train" else SPLIT_TRAIN
    chunk = TraceArrays(rng.normal(size=(n, 4)).astype(np.float32), keys, pts,
                        encrypt_blocks(pts, expand_keys_batch(keys)),
                        np.zeros(n, dtype=np.int32),
                        np.full(n, kept, dtype=np.uint8))
    header = DatasetHeader(GridGeometry(1, 1, 1, 0.5, 0.5, (0.0, 0.0, 0.0)),
                           m=4, trace_count=n, description="", adc_bits=0)
    path = workdir / f"no_{missing}.emgd"
    write_dataset(header, [chunk], path)
    out = workdir / f"no_{missing}_{kind}.emmod"
    code, events = run(capsys, "train", "--in", path, "--mode", "all",
                       "--model-kind", kind, "--out-model", out)
    assert code == 2, events
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["kind"] == "ConfigError"
    assert events[0]["message"] == f"no traces in split {missing} of {path}"
    assert not out.exists()


@pytest.fixture(scope="module")
def interleaved_dataset(workdir):
    """A 2x2 grid whose records interleave positions 0-2 in both splits;
    position 3 has training traces only."""
    rng = np.random.default_rng(31)
    n = 600
    positions = np.resize(np.array([0, 2, 1, 3, 2, 0], np.int32), n)
    splits = np.where(rng.random(n) < 0.3, SPLIT_TEST, SPLIT_TRAIN)
    splits[positions == 3] = SPLIT_TRAIN
    chunk = TraceArrays(rng.normal(size=(n, 6)).astype(np.float32),
                        rng.integers(0, 256, (n, 16), dtype=np.uint8),
                        rng.integers(0, 256, (n, 16), dtype=np.uint8),
                        rng.integers(0, 256, (n, 16), dtype=np.uint8),
                        positions, splits.astype(np.uint8))
    header = DatasetHeader(GridGeometry(2, 2, 1, 0.5, 0.5, (0.0, 0.0, 0.0)),
                           m=6, trace_count=n)
    path = workdir / "interleaved.emgd"
    write_dataset(header, [chunk], path)
    return path


@pytest.mark.parametrize("mode, positions, extra", [
    ("single", [1], ()), ("multiplace", [2, 0], ()),
    ("multiplace", [0, 2], ("--data-cap", 100))])
def test_train_reads_only_its_positions(capsys, monkeypatch, workdir,
                                        interleaved_dataset, mode, positions,
                                        extra):
    """train reads the selected positions' records only: the arrays it gets
    and the model file it writes equal those of reading the whole splits."""
    path = interleaved_dataset
    args = ["train", "--in", path, "--mode", mode, "--positions", *positions,
            *extra, "--target", "sbox-output", "--epochs", 2, "--steps", 10,
            "--seed", 3]
    reads = []

    def recorded(read):
        def read_arrays_spy(*a, **k):
            reads.append(read(*a, **k))
            return reads[-1]
        return read_arrays_spy

    part, whole = workdir / "part.emmod", workdir / "whole.emmod"
    monkeypatch.setattr(cli, "read_arrays", recorded(read_arrays))
    assert run(capsys, *args, "--out-model", part)[0] == 0
    monkeypatch.setattr(cli, "read_arrays", recorded(
        lambda path, splits, positions=None: read_arrays(path, splits)))
    assert run(capsys, *args, "--out-model", whole)[0] == 0
    assert part.read_bytes() == whole.read_bytes()
    (_, *got), (_, *full) = reads
    for arrays, all_rows in zip(got, full):
        want = all_rows.subset(np.isin(all_rows.positions, positions))
        for name in ("samples", "keys", "plaintexts", "ciphertexts",
                     "positions", "splits"):
            assert getattr(arrays, name).tobytes() == \
                getattr(want, name).tobytes(), name


def test_train_positions_without_test_traces_exit_2(capsys, workdir,
                                                     interleaved_dataset):
    out = workdir / "no_test_at_3.emmod"
    code, events = run(capsys, "train", "--in", interleaved_dataset,
                       "--mode", "single", "--positions", 3,
                       "--out-model", out)
    assert code == 2, events
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["message"] == \
        f"no traces in split test at positions [3] of {interleaved_dataset}"
    assert not out.exists()


# ---------------------------------------------------------------- evaluate

def test_evaluate_uniform_model_all_chance(capsys, workdir, dataset):
    model = ProfilingModel(CLASSIFIER_256, np.zeros((256, 12)), np.zeros(256),
                           StandardizationParams(np.zeros(12), np.ones(12)),
                           byte_index=0)
    path = workdir / "uniform.emmod"
    save_model(model, path)
    out = workdir / "uniform_eval.csv"
    code, _ = run(capsys, "evaluate", "--model", path, "--in", dataset,
                  "--target", "sbox-output", "--out-heatmap", out)
    assert code == 0
    assert np.all(heatmap_from_csv(out.read_text()) == 127.5)


def test_evaluate_rejects_regressor_model(capsys, workdir, dataset):
    model = ProfilingModel(HD_REGRESSOR_16, np.zeros((16, 12)), np.zeros(16),
                           StandardizationParams(np.zeros(12), np.ones(12)))
    path = workdir / "reg_for_eval.emmod"
    save_model(model, path)
    code, events = run(capsys, "evaluate", "--model", path, "--in", dataset,
                       "--out-heatmap", workdir / "x.csv")
    assert code == 2
    assert "hybrid" in events[-1]["message"]


def test_evaluate_threads_determinism(capsys, workdir, dataset):
    model = ProfilingModel(CLASSIFIER_256, np.zeros((256, 12)), np.zeros(256),
                           StandardizationParams(np.zeros(12), np.ones(12)),
                           byte_index=0)
    path = workdir / "uniform2.emmod"
    save_model(model, path)
    outs = []
    for threads in (1, 8):
        out = workdir / f"eval_t{threads}.csv"
        code, _ = run(capsys, "evaluate", "--model", path, "--in", dataset,
                      "--target", "sbox-output", "--out-heatmap", out,
                      "--threads", threads)
        assert code == 0
        outs.append(sha256(out))
    assert outs[0] == outs[1]


# ------------------------------------------------------------------ hybrid

def identity_regressor(path):
    model = ProfilingModel(HD_REGRESSOR_16, np.eye(16), np.zeros(16),
                           StandardizationParams(np.zeros(16), np.ones(16)))
    save_model(model, path)
    return path


def test_hybrid_oracle_discloses(capsys, workdir, hd_dataset):
    model = identity_regressor(workdir / "id.emmod")
    discl = workdir / "hyb_d.csv"
    ranks = workdir / "hyb_r.csv"
    code, _ = run(capsys, "hybrid", "--model", model, "--in", hd_dataset,
                  "--checkpoint", 350, "--out-disclosure", discl,
                  "--out-ranks", ranks)
    assert code == 0
    assert heatmap_from_csv(discl.read_text())[0, 0] == 350
    assert heatmap_from_csv(ranks.read_text())[0, 0] == 0


def uniform_classifier_file(path, m):
    save_model(ProfilingModel(CLASSIFIER_256, np.zeros((256, m)), np.zeros(256),
                              StandardizationParams(np.zeros(m), np.ones(m)),
                              byte_index=0), path)
    return path


@pytest.mark.parametrize("command", ["snr", "cpa", "evaluate", "hybrid"])
def test_empty_split_exit_2(capsys, workdir, hd_dataset, command):
    """hd.emgd holds holdout traces only: every sweep of its test split ends
    the same way, with one ConfigError, and writes no map."""
    model = {"snr": [], "cpa": [],
             "evaluate": ["--model", uniform_classifier_file(
                 workdir / "uniform16.emmod", 16)],
             "hybrid": ["--model", identity_regressor(workdir / "id4.emmod")]}
    outs = (["--out-heatmap", workdir / "empty_h.csv"]
            if command in ("snr", "evaluate")
            else ["--out-disclosure", workdir / "empty_d.csv",
                  "--out-ranks", workdir / "empty_r.csv"])
    code, events = run(capsys, command, *model[command], "--in", hd_dataset,
                       "--split", "test", *outs)
    assert code == 2, events
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["kind"] == "ConfigError"
    assert "no traces" in events[0]["message"]
    assert not any(p.exists() for p in outs[1::2])


def set_last_record(raw: bytes, m: int, field: str, value) -> bytes:
    """Overwrite one field of a dataset's last record; for "samples", its
    first sample."""
    dtype = record_dtype(m)
    field_dtype, offset = dtype.fields[field]
    data = np.array(value, field_dtype.base).tobytes()
    at = len(raw) - dtype.itemsize + offset
    return raw[:at] + data + raw[at + len(data):]


@pytest.mark.parametrize("fault, value", [("samples", math.nan),
                                          ("position", 2), ("split", 7)])
@pytest.mark.parametrize("command", ["snr", "cpa", "evaluate", "hybrid"])
def test_last_record_fault_exit_1_before_any_position(
        capsys, workdir, dataset, command, fault, value):
    """Every record is checked before the first position is swept: a fault
    in the file's last record (position 1's last holdout trace) ends each
    sweep with one error event, no position event and no map."""
    bad = workdir / f"last_{fault}.emgd"
    bad.write_bytes(set_last_record(dataset.read_bytes(), 12, fault, value))
    regressor = workdir / "zero12.emmod"
    save_model(ProfilingModel(HD_REGRESSOR_16, np.zeros((16, 12)), np.zeros(16),
                              StandardizationParams(np.zeros(12), np.ones(12))),
               regressor)
    model = {"snr": [], "cpa": [],
             "evaluate": ["--model", uniform_classifier_file(
                 workdir / "uniform12.emmod", 12)],
             "hybrid": ["--model", regressor]}
    stem = workdir / f"last_{command}_{fault}"
    outs = (["--out-heatmap", f"{stem}_h.csv"]
            if command in ("snr", "evaluate")
            else ["--out-disclosure", f"{stem}_d.csv",
                  "--out-ranks", f"{stem}_r.csv"])
    code, events = run(capsys, command, *model[command], "--in", bad,
                       "--split", "holdout", *outs)
    assert code == 1, events
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["kind"] == "DataFormatError"
    assert "index 1099" in events[0]["message"]
    assert not any(os.path.exists(p) for p in outs[1::2])


@pytest.mark.parametrize("command", ["evaluate", "hybrid"])
@pytest.mark.parametrize("split", ["test", "holdout"])
def test_model_length_mismatch_exit_3_before_reading(
        capsys, monkeypatch, workdir, hd_dataset, command, split):
    """A model whose m differs from the dataset header's fails before any
    record is read, on an empty split (test) as on a full one (holdout)."""
    def no_read(*args, **kwargs):
        raise AssertionError("records read before the model check")

    monkeypatch.setattr(cli, "read_arrays", no_read)
    monkeypatch.setattr(cli, "read_positions", no_read)
    if command == "evaluate":
        model = uniform_classifier_file(workdir / "uniform12.emmod", 12)
        outs = ["--out-heatmap", workdir / "mm_h.csv"]
    else:
        model = workdir / "reg12.emmod"
        save_model(ProfilingModel(HD_REGRESSOR_16, np.zeros((16, 12)),
                                  np.zeros(16), StandardizationParams(
                                      np.zeros(12), np.ones(12))), model)
        outs = ["--out-disclosure", workdir / "mm_d.csv",
                "--out-ranks", workdir / "mm_r.csv"]
    code, events = run(capsys, command, "--model", model, "--in", hd_dataset,
                       "--split", split, *outs)
    assert code == 3, events
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["kind"] == "AnalysisError"
    assert events[0]["message"] == "trace length 16 != model m 12"


def test_hybrid_rejects_classifier_model(capsys, workdir, hd_dataset):
    model = ProfilingModel(CLASSIFIER_256, np.zeros((256, 16)), np.zeros(256),
                           StandardizationParams(np.zeros(16), np.ones(16)),
                           byte_index=0)
    path = workdir / "clf_for_hybrid.emmod"
    save_model(model, path)
    code, _ = run(capsys, "hybrid", "--model", path, "--in", hd_dataset,
                  "--out-disclosure", workdir / "x.csv",
                  "--out-ranks", workdir / "y.csv")
    assert code == 2


def test_hybrid_threads_determinism(capsys, workdir, hd_dataset):
    model = identity_regressor(workdir / "id2.emmod")
    hashes = []
    for threads in (1, 8):
        discl = workdir / f"hyb_t{threads}_d.csv"
        ranks = workdir / f"hyb_t{threads}_r.csv"
        code, _ = run(capsys, "hybrid", "--model", model, "--in", hd_dataset,
                      "--checkpoint", 200, "--out-disclosure", discl,
                      "--out-ranks", ranks, "--threads", threads)
        assert code == 0
        hashes.append((sha256(discl), sha256(ranks)))
    assert hashes[0] == hashes[1]


def test_threads_flag_keeps_positions_in_calling_thread(capsys, workdir,
                                                        dataset, monkeypatch):
    """snr, cpa, evaluate and hybrid ignore --threads: with --threads 8,
    every per-position computation runs in the thread that called main,
    over a dataset of two positions."""
    callers = []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            callers.append(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SnrAccumulator, "finalize",
                        recorded(SnrAccumulator.finalize))
    monkeypatch.setattr(CpaAccumulator, "finalize",
                        recorded(CpaAccumulator.finalize))
    monkeypatch.setattr(evaluation, "classify_attack",
                        recorded(evaluation.classify_attack))
    rng = np.random.default_rng(8)
    classifier = workdir / "threads_clf.emmod"
    save_model(ProfilingModel(CLASSIFIER_256, rng.normal(size=(256, 12)),
                              np.zeros(256),
                              StandardizationParams(np.zeros(12), np.ones(12)),
                              byte_index=0), classifier)
    regressor = workdir / "threads_reg.emmod"
    save_model(ProfilingModel(HD_REGRESSOR_16, rng.normal(size=(16, 12)),
                              np.zeros(16),
                              StandardizationParams(np.zeros(12), np.ones(12))),
               regressor)
    csv = workdir / "threads_a.csv"
    other = workdir / "threads_b.csv"
    commands = {
        "snr": ["--target", "sbox-output", "--out-heatmap", csv],
        "cpa": ["--checkpoint", 50, "--out-disclosure", csv,
                "--out-ranks", other],
        "evaluate": ["--model", classifier, "--out-heatmap", csv],
        "hybrid": ["--model", regressor, "--checkpoint", 50,
                   "--out-disclosure", csv, "--out-ranks", other],
    }
    for command, argv in commands.items():
        callers.clear()
        code, events = run(capsys, command, "--in", dataset, *argv,
                           "--threads", 8)
        assert code == 0, events
        assert callers and set(callers) == {threading.get_ident()}, command
        assert [e["position"] for e in events
                if e["event"] == "position"] == [0, 1]


def model_bytes(meta: dict, params: bytes, magic=b"EMMD", version=1) -> bytes:
    raw = json.dumps(meta).encode()
    return magic + struct.pack("<HI", version, len(raw)) + raw + params


# Header fields a model file may carry, each with values that must be
# rejected. byte_index faults apply to the classifier only: a regressor has
# none. The other kind's output count is a fault of its own.
BAD_MODEL_FIELDS = {
    "kind": ["Nope", 5, None],
    "m": [-2, 0, "x", 1.5, None, True, 10**30, 13, 11],
    "outputs": [255, 0, "x", None],
    "byte_index": [None, 16, -1, "x", 2.0],
    "seed": ["x", 1.5, None, [1]],
    "positions": ["ab", 5, [1, "x"], [-1], None],
}


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_model_file_faults_exit_1_or_2(tmp_path_factory, dataset, hd_dataset,
                                       data):
    """Every damaged .emmod given to evaluate or hybrid ends in exit 1 or 2
    with one JSON error event; exit 4 would mark a defect."""
    command = data.draw(st.sampled_from(["evaluate", "hybrid"]))
    if command == "evaluate":
        m, outputs, meta_extra, in_file = 12, 256, {"byte_index": 0}, dataset
    else:
        m, outputs, meta_extra, in_file = 16, 16, {"byte_index": None}, hd_dataset
    meta = {"kind": CLASSIFIER_256 if command == "evaluate" else HD_REGRESSOR_16,
            "m": m, "outputs": outputs, "positions": [0], "seed": 3,
            **meta_extra}
    params = np.concatenate([np.zeros(outputs * m), np.zeros(outputs),
                             np.zeros(m), np.ones(m)]).astype("<f8").tobytes()
    fault = data.draw(st.sampled_from(
        ["truncate", "pad", "magic", "version", "garbage", "nested",
         "not-object", "field", "unknown-field", "no-byte-index",
         "other-kind-outputs"]))
    if fault == "truncate":
        good = model_bytes(meta, params)
        raw = good[:data.draw(st.integers(0, len(good) - 1))]
    elif fault == "pad":
        raw = model_bytes(meta, params) + data.draw(st.binary(min_size=1,
                                                              max_size=64))
    elif fault == "magic":
        magic = data.draw(st.binary(min_size=4, max_size=4).filter(
            lambda b: b != b"EMMD"))
        raw = model_bytes(meta, params, magic=magic)
    elif fault == "version":
        raw = model_bytes(meta, params, version=data.draw(
            st.integers(0, 0xFFFF).filter(lambda v: v != 1)))
    elif fault == "garbage":
        header = data.draw(st.binary(max_size=40))
        raw = b"EMMD" + struct.pack("<HI", 1, len(header)) + header + params
    elif fault == "nested":
        raw = b"EMMD" + struct.pack("<HI", 1, len(NESTED_JSON)) + NESTED_JSON \
            + params
    elif fault == "not-object":
        value = data.draw(st.sampled_from([[meta], 5, "x", None, []]))
        raw = model_bytes(value, params)
    elif fault == "unknown-field":
        meta[data.draw(st.sampled_from(["probe", "Kind", "weights"]))] = 1
        raw = model_bytes(meta, params)
    elif fault == "other-kind-outputs":
        meta["outputs"] = 256 + 16 - outputs
        raw = model_bytes(meta, params)
    elif fault == "no-byte-index":
        if command == "hybrid":
            meta["kind"], meta["outputs"] = CLASSIFIER_256, 256
        del meta["byte_index"]
        raw = model_bytes(meta, params)
    else:
        name = data.draw(st.sampled_from(sorted(BAD_MODEL_FIELDS)))
        value = data.draw(st.sampled_from(BAD_MODEL_FIELDS[name]))
        if name == "byte_index" and command == "hybrid":
            meta["kind"], meta["outputs"] = CLASSIFIER_256, 256
        meta[name] = value
        raw = model_bytes(meta, params)
    root = tmp_path_factory.mktemp("model_fault")
    model = root / "fault.emmod"
    model.write_bytes(raw)
    outs = (["--out-heatmap", root / "h.csv"] if command == "evaluate" else
            ["--out-disclosure", root / "d.csv", "--out-ranks", root / "r.csv"])
    code, events = run_quiet(command, "--model", model, "--in", in_file, *outs)
    assert code in (1, 2), (fault, events)
    assert [e["event"] for e in events] == ["error"]


@pytest.mark.parametrize("argv", [
    ["cpa", "--in", "missing.emgd", "--checkpoint", 0],
    ["cpa", "--in", "missing.emgd", "--budget", -1],
    ["hybrid", "--model", "missing.emmod", "--in", "missing.emgd",
     "--checkpoint", 0],
])
def test_disclosure_flags_are_checked_before_any_file(capsys, workdir, argv):
    """--checkpoint below 1 and --budget below 0 exit 2 as argument errors,
    before the dataset or the model is opened."""
    code, events = run(capsys, *argv, "--out-disclosure", workdir / "d.csv",
                       "--out-ranks", workdir / "r.csv")
    assert code == 2
    assert [e["kind"] for e in events] == ["ConfigError"]


@pytest.mark.parametrize("flag", [("--checkpoint", 0), ("--budget", -1)])
@pytest.mark.parametrize("command", ["cpa", "hybrid"])
def test_disclosure_bad_checkpoint_or_budget_exit_2(capsys, workdir, hd_dataset,
                                                    command, flag):
    model = (["--model", identity_regressor(workdir / "id3.emmod")]
             if command == "hybrid" else [])
    code, events = run(capsys, command, *model, "--in", hd_dataset, *flag,
                       "--out-disclosure", workdir / "bad_d.csv",
                       "--out-ranks", workdir / "bad_r.csv")
    assert code == 2
    assert events[-1]["event"] == "error"
    assert events[-1]["kind"] == "ConfigError"


# ------------------------------------------------------------------ render

def test_render_svg_masked_and_stable(capsys, workdir):
    csv = workdir / "render_in.csv"
    csv.write_text("y\\x,0,1\n0,100,127.5\n")
    svg1 = workdir / "r1.svg"
    svg2 = workdir / "r2.svg"
    code, _ = run(capsys, "render", "--csv", csv, "--svg", svg1,
                  "--metric", "mean_rank", "--mask-threshold", 120)
    assert code == 0
    body = svg1.read_text()
    assert body.startswith("<svg ")
    assert 'url(#hatch)' in body  # the 127.5 cell is masked
    assert "<title>mean_rank</title>" in body
    code, _ = run(capsys, "render", "--csv", csv, "--svg", svg2,
                  "--metric", "mean_rank", "--mask-threshold", 120)
    assert code == 0
    assert sha256(svg1) == sha256(svg2)


@pytest.mark.parametrize("row", ["-1e308,1e308", "1e17,1e17"])
def test_render_extreme_value_span_exit_0(capsys, workdir, row):
    """A span beyond the float range, or one where vmin + 1.0 rounds back to
    vmin, still colours every cell: the lower value takes the first ramp
    colour."""
    csv = workdir / "extreme.csv"
    csv.write_text(f"y\\x,0,1\n0,{row}\n")
    svg = workdir / "extreme.svg"
    code, events = run(capsys, "render", "--csv", csv, "--svg", svg)
    assert code == 0, events
    root = ET.parse(svg).getroot()
    fills = [e.get("fill") for e in root.iter() if e.tag.endswith("rect")
             and e.find("{http://www.w3.org/2000/svg}title") is not None]
    assert len(fills) == 2
    assert fills[0] == COLOR_RAMP[0]
    assert fills[1] == (COLOR_RAMP[255] if row.startswith("-") else COLOR_RAMP[0])


@pytest.mark.parametrize("value", ["-1e308", "-1.5E+3", "-.5e-2", "-1."])
def test_negative_exponent_flag_value_parses(capsys, workdir, value):
    """A negative float literal given as its own argument, exponent or not,
    is a flag value, not an option."""
    csv = workdir / "negative_flag.csv"
    csv.write_text("y\\x,0,1\n0,100,127.5\n")
    svg = workdir / "negative_flag.svg"
    code, events = run(capsys, "render", "--csv", csv, "--svg", svg,
                       "--vmin", value)
    assert code == 0, events
    assert svg.exists()


def test_negative_exponent_lr_is_a_config_error(capsys, workdir, dataset):
    out = workdir / "negative_lr.emmod"
    code, events = run(capsys, "train", "--in", dataset, "--mode", "all",
                       "--lr", "-1e-3", "--out-model", out)
    assert code == 2
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["kind"] == "ConfigError"
    assert "hyperparameters must be positive" in events[0]["message"]
    assert not out.exists()


def test_render_bad_csv_exit_1(capsys, workdir):
    bad = workdir / "bad.csv"
    for raw in (b"nonsense", b"y\\x,0,1\n0,5,abc\n", b"y\\x,0,1\n0,nan,5\n",
                b"y\\x,0,1\n0,-inf,5\n", b"y\\x,0,1\n0,\xff\xfe,5\n"):
        bad.write_bytes(raw)
        code, events = run(capsys, "render", "--csv", bad,
                           "--svg", workdir / "x.svg")
        assert code == 1, raw
        assert events[-1]["kind"] == "DataFormatError"


def csv_text(rows) -> str:
    """Heatmap CSV text with a y\\x header as wide as the first row."""
    lines = ["y\\x," + ",".join(str(x) for x in range(len(rows[0])))]
    lines += [f"{y}," + ",".join(row) for y, row in enumerate(rows)]
    return "\n".join(lines) + "\n"


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


# A cell float() cannot parse, on one line: no comma, no line break. Lone
# surrogates are left out because they have no UTF-8 encoding; undecodable
# bytes come from the "bytes" fault.
GARBAGE_CELL = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                           blacklist_characters=","),
    max_size=8).filter(lambda c: not _parses_as_float(c))


@st.composite
def malformed_heatmap_csv(draw) -> bytes:
    """Bytes of a heatmap CSV file that no reader may accept."""
    fault = draw(st.sampled_from(["ragged", "nan", "-inf", "garbage", "empty",
                                  "header-only", "bytes", "label"]))
    if fault == "bytes":
        return draw(st.binary(max_size=64))
    if fault == "empty":
        return draw(st.sampled_from([b"", b"\n", b"  \n\n"]))
    ny = draw(st.integers(1, 3))
    nx = draw(st.integers(1, 3))
    cell = st.floats(0, 255, allow_nan=False).map(repr) | st.just("inf")
    rows = [[draw(cell) for _ in range(nx)] for _ in range(ny)]
    if fault == "header-only":
        return csv_text(rows).splitlines(keepends=True)[0].encode()
    y, x = draw(st.integers(0, ny - 1)), draw(st.integers(0, nx - 1))
    if fault == "label":
        # an x label of the header row (line 0) or the y label of a row
        lines = csv_text(rows).splitlines()
        line = draw(st.integers(0, ny))
        parts = lines[line].split(",")
        at, right = (1 + x, str(x)) if line == 0 else (0, str(line - 1))
        parts[at] = draw((st.integers(-1, 3).map(str) | st.sampled_from(
            ["a", "", "0.0", "00"])).filter(lambda label: label != right))
        lines[line] = ",".join(parts)
        return ("\n".join(lines) + "\n").encode()
    if fault == "ragged":
        extra = draw(st.integers(-nx, 2).filter(lambda k: k != 0))
        text = csv_text(rows)
        lines = text.splitlines()
        row = rows[y][:nx + extra] if extra < 0 else rows[y] + ["1"] * extra
        lines[1 + y] = f"{y}," + ",".join(row)
        return ("\n".join(lines) + "\n").encode()
    rows[y][x] = draw({"nan": st.sampled_from(["nan", "NaN", "-nan", "+nan"]),
                       "-inf": st.sampled_from(["-inf", "-Infinity", "-1e999"]),
                       "garbage": GARBAGE_CELL}[fault])
    return csv_text(rows).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(raw=malformed_heatmap_csv(), command=st.sampled_from(
    [["render"], ["train", "multiplace"], ["train", "topn", "--n", "1"]]))
def test_malformed_heatmap_csv_exit_1_or_2(tmp_path_factory, dataset, raw,
                                           command):
    """Every malformed heatmap CSV given to render or to train --heatmap ends
    in exit 1 or 2 with one JSON error event; exit 4 would mark a defect."""
    root = tmp_path_factory.mktemp("csv_fault")
    csv = root / "fault.csv"
    csv.write_bytes(raw)
    if command[0] == "render":
        argv = ["render", "--csv", csv, "--svg", root / "fault.svg"]
    else:
        argv = ["train", "--in", dataset, "--mode", *command[1:],
                "--heatmap", csv, "--out-model", root / "fault.emmod"]
    code, events = run_quiet(*argv)
    assert code in (1, 2), (raw, events)
    assert [e["event"] for e in events] == ["error"]
    assert not any(p.suffix in (".svg", ".emmod") for p in root.iterdir())


@pytest.mark.parametrize("flag,value", [
    ("--vmin", "nan"), ("--vmax", "nan"), ("--vmin", "inf"),
    ("--vmax", "inf"), ("--mask-threshold", "nan"),
])
def test_render_non_finite_flag_exit_2(capsys, workdir, flag, value):
    csv = workdir / "render_flag.csv"
    csv.write_text("y\\x,0,1\n0,100,127.5\n")
    svg = workdir / "flag.svg"
    code, events = run(capsys, "render", "--csv", csv, "--svg", svg,
                       flag, value)
    assert code == 2
    assert events[-1]["kind"] == "ConfigError"
    assert flag in events[-1]["message"]
    assert not svg.exists()


# ------------------------------------------------------------- entry point

def test_module_entry_point_and_usage_exit_2(workdir):
    proc = subprocess.run([sys.executable, "-m", "emgrid", "no-such-command"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    # cpa attacks all 16 bytes, so it takes no --byte.
    proc = subprocess.run([sys.executable, "-m", "emgrid", "cpa", "--in",
                           str(workdir / "x.emgd"), "--byte", "3",
                           "--out-disclosure", str(workdir / "d.csv"),
                           "--out-ranks", str(workdir / "r.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "--byte" in proc.stderr
    events = [json.loads(line) for line in proc.stderr.splitlines()]
    assert len(events) == 1 and events[0]["event"] == "error"
    assert events[0]["kind"] == "ConfigError"
    assert "--byte" in events[0]["message"]
    proc = subprocess.run([sys.executable, "-m", "emgrid", "render", "--csv",
                           str(workdir / "absent.csv"), "--svg",
                           str(workdir / "x.svg")],
                          capture_output=True, text=True)
    assert proc.returncode == 1


@pytest.mark.parametrize("argv,says", [
    (["cpa", "--in", "x.emgd", "--budget", "abc", "--out-disclosure", "d.csv",
      "--out-ranks", "r.csv"], "invalid int value: 'abc'"),
    (["snr", "--in", "x.emgd"], "required: --out-heatmap"),
    (["snr", "--in", "x.emgd", "--split", "nope", "--out-heatmap", "h.csv"],
     "invalid choice: 'nope'"),
    (["no-such-command"], "invalid choice: 'no-such-command'"),
    ([], "required: command"),
    # evaluate scores its model's byte
    (["evaluate", "--model", "m.emmod", "--in", "x.emgd", "--byte", "0",
      "--out-heatmap", "h.csv"], "unrecognized arguments: --byte 0"),
])
def test_argument_errors_are_one_json_event(capsys, argv, says):
    """In-process calls, as the benchmark makes them, get exit 2 and one
    ConfigError event naming argparse's message, not SystemExit."""
    code, events = run(capsys, *argv)
    assert code == 2
    assert [e["event"] for e in events] == ["error"]
    assert events[0]["kind"] == "ConfigError"
    assert says in events[0]["message"]


@pytest.mark.parametrize("threads", [0, -3])
@pytest.mark.parametrize("command", ["simulate", "snr", "cpa", "evaluate",
                                     "hybrid"])
def test_threads_below_1_exit_2(capsys, workdir, sim_config, dataset, command,
                                threads):
    argv = {
        "simulate": ["--config", sim_config, "--out", workdir / "t0.emgd"],
        "snr": ["--in", dataset, "--out-heatmap", workdir / "t0.csv"],
        "cpa": ["--in", dataset, "--out-disclosure", workdir / "t0.csv",
                "--out-ranks", workdir / "t0r.csv"],
        "evaluate": ["--model", workdir / "none.emmod", "--in", dataset,
                     "--out-heatmap", workdir / "t0.csv"],
        "hybrid": ["--model", workdir / "none.emmod", "--in", dataset,
                   "--out-disclosure", workdir / "t0.csv",
                   "--out-ranks", workdir / "t0r.csv"],
    }[command]
    code, events = run(capsys, command, *argv, f"--threads={threads}")
    assert code == 2
    assert [e["kind"] for e in events] == ["ConfigError"]
    assert f"argument --threads: must be at least 1, got {threads}" in \
        events[0]["message"]
    assert not (workdir / "t0.emgd").exists()


def test_help_stays_text_exit_0():
    proc = subprocess.run([sys.executable, "-m", "emgrid", "cpa", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--budget" in proc.stdout and proc.stderr == ""


def test_unexpected_exception_exit_4(monkeypatch, capsys, workdir):
    def broken(args):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr(cli, "cmd_render", broken)
    code = main(["render", "--csv", str(workdir / "x.csv"),
                 "--svg", str(workdir / "x.svg")])
    err = capsys.readouterr().err
    assert code == 4
    assert "Traceback" not in err
    events = [json.loads(line) for line in err.splitlines()]
    assert len(events) == 1
    assert events[0]["event"] == "error"
    assert events[0]["kind"] == "RuntimeError"
    assert events[0]["message"] == "simulated defect"
    assert events[0]["where"].endswith("in broken")  # the raising frame


def test_stderr_is_json_lines(capsys, workdir, sim_config):
    out = workdir / "jsonl.emgd"
    code = main(["simulate", "--config", str(sim_config), "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    for line in err.splitlines():
        if line.strip():
            json.loads(line)  # every line parses


# ---------------------------------------------------------------- argv fuzz

def strict_json(line: str) -> dict:
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(line, parse_constant=reject)


FUZZ_VALUES = {
    "--byte": [-1, 0, 15, 16],
    "--budget": [-1, 0, 1, 10**12],
    "--checkpoint": [0, 1, 10**18],
    "--n": [0, 1, 2, 3],
    "--lr": ["1e-300", "0.5", "1e308", "inf", "nan", "-1"],
    "--seed": [-1, 0, 2**64 - 1, 2**64, 2**80],
    "--split": ["train", "test", "holdout"],
    "--threads": [-1, 0, 1, 8],
    "--data-cap": [0, 1, 64, 10**9],
    "--batch-size": [0, 1, 10**6],
    "--threshold": ["-1", "0", "1e308", "nan"],
    "--positions": [[0], [1], [0, 1], [2], [-1]],
    "--target": sorted(cli.TARGET_KINDS),
    "--model-kind": ["classifier", "hd-regressor"],
    "--vmin": ["-1e308", "0", "1e308", "inf"],
    "--vmax": ["-1e308", "0", "1e308", "inf"],
    "--mask-threshold": ["-1e308", "0", "1e308", "nan"],
}
FUZZ_FLAGS = {
    "simulate": ["--seed", "--threads"],
    "snr": ["--byte", "--split", "--target", "--threads"],
    "cpa": ["--budget", "--checkpoint", "--split", "--target", "--threads"],
    "train": ["--positions", "--n", "--threshold", "--model-kind", "--byte",
              "--target", "--lr", "--seed", "--data-cap", "--batch-size"],
    "evaluate": ["--split", "--target", "--threads"],
    "hybrid": ["--budget", "--checkpoint", "--split", "--threads"],
    "render": ["--vmin", "--vmax", "--mask-threshold"],
}


@pytest.fixture(scope="module")
def fuzz_files(workdir, dataset, hd_dataset):
    """Models of both kinds and a heatmap CSV over the 2x1 dataset grid."""
    root = workdir / "fuzz"
    root.mkdir()
    clf = uniform_classifier_file(root / "clf12.emmod", 12)
    reg = identity_regressor(root / "reg16.emmod")
    ranks = root / "ranks.csv"
    ranks.write_text("y\\x,0,1\n0,95,127.5\n")
    return {"root": root, "models": [clf, reg], "datasets": [dataset, hd_dataset],
            "ranks": ranks}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_argv_fuzz_ends_in_a_documented_exit(sim_config, fuzz_files, data):
    """Flag edges across every subcommand end with exit 0-3, at most one
    error event and nothing on stderr but strict JSON lines; numpy warnings
    would print text, so none may be raised."""
    root = fuzz_files["root"]
    command = data.draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    in_file = ["--in", data.draw(st.sampled_from(fuzz_files["datasets"]))]
    model = ["--model", data.draw(st.sampled_from(fuzz_files["models"]))]
    argv = {
        "simulate": ["--config", sim_config, "--out", root / "sim.emgd"],
        "snr": in_file + ["--out-heatmap", root / "snr.csv"],
        "cpa": in_file + ["--out-disclosure", root / "d.csv",
                          "--out-ranks", root / "r.csv"],
        "train": in_file + [
            "--mode", data.draw(st.sampled_from(["single", "multiplace",
                                                 "topn", "all"])),
            "--epochs", data.draw(st.integers(0, 2)),
            "--steps", data.draw(st.integers(1, 3)),
            "--out-model", root / "fuzz.emmod"],
        "evaluate": model + in_file + ["--out-heatmap", root / "e.csv"],
        "hybrid": model + in_file + ["--out-disclosure", root / "d.csv",
                                     "--out-ranks", root / "r.csv"],
        "render": ["--csv", fuzz_files["ranks"], "--svg", root / "r.svg"],
    }[command]
    if command == "train" and data.draw(st.booleans()):
        argv += ["--heatmap", fuzz_files["ranks"]]
    for flag in FUZZ_FLAGS[command]:  # each flag in about one run of three
        if data.draw(st.integers(0, 2)) == 0:
            value = data.draw(st.sampled_from(FUZZ_VALUES[flag]))
            # --flag=value keeps a leading minus from reading as an option
            argv += [flag, *value] if isinstance(value, list) \
                else [f"{flag}={value}"]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([command, *map(str, argv)])
    events = [strict_json(line) for line in err.getvalue().splitlines()]
    assert code in (0, 1, 2, 3), (argv, events)
    assert sum(e["event"] == "error" for e in events) <= 1, (argv, events)
    assert not caught, (argv, [str(w.message) for w in caught])
