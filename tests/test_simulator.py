"""Generator tests: determinism, the inverse-square law, quantization,
split/key semantics, and batch-vs-single-trace equivalence against a
per-trace substream oracle."""

import math
import os
import signal
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgrid import simulator
from emgrid.aes import aes128_encrypt, encrypt_blocks, expand_keys
from emgrid.distinguishers import SnrAccumulator
from emgrid.errors import ConfigError, raised_at
from emgrid.grid import GridGeometry
from emgrid.leakage import FIRST_ROUND_SBOX_OUTPUT, HW_TABLE, true_last_round_hds
from emgrid.simulator import (
    D_MIN_MM,
    LAST_ROUND_HD_TRUE,
    Background,
    DeviceProfile,
    LeakSource,
    SimConfig,
    coupling_weight,
    derive_device_b,
    load_sim_config,
    sim_config_from_dict,
    simulate_grid_dataset,
    simulation_workers,
    worker_count,
    _le_bytes,
    _philox_first_blocks,
    _philox_state,
    _quantize,
    _source_true_values,
)
from emgrid.traceset import SPLIT_CODES, SPLIT_NAMES, TraceArrays, read_arrays

POINT = GridGeometry(1, 1, 1, 0.5, 0.0, (0.0, 0.0, -0.3))


def tiny_config(**kw):
    defaults = dict(
        geometry=POINT,
        m=32,
        sources=(LeakSource((0.0, 0.0, 0.0), (10,), FIRST_ROUND_SBOX_OUTPUT, 0, 0.01),),
        device=DeviceProfile(noise_sigma=0.1),
        background=Background(amplitude=0.05),
        seed=42,
        traces_per_position={"train": 8, "test": 4, "holdout": 6},
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def read_all(path) -> TraceArrays:
    """Every record of a dataset: the train, test and holdout arrays, in
    that order, joined into one."""
    _, *parts = read_arrays(path, tuple(SPLIT_NAMES))
    return TraceArrays(*(np.concatenate([getattr(p, f) for p in parts])
                         for f in ("samples", "keys", "plaintexts",
                                   "ciphertexts", "positions", "splits")))


def trace_rng(seed: int, position: int, split: int, trace_index: int):
    """The substream of one trace, as the reproducibility contract defines
    it: a fresh Generator on Philox keyed by (seed, position, split, index)."""
    sub = (position << 48) | (split << 40) | trace_index
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, sub], dtype=np.uint64)))


def draw_plaintext_and_key(config: SimConfig, rng) -> tuple:
    """The contract's first draws: plaintext bytes, then key bytes when keys
    are random."""
    pt = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
    if config.fixed_key is not None:
        return pt, config.fixed_key
    return pt, rng.integers(0, 256, 16, dtype=np.uint8).tobytes()


def oracle_trace(config: SimConfig, position: int, split: int,
                 index: int) -> TraceArrays:
    """One record of a simulated file, rebuilt from its own substream."""
    rng = trace_rng(config.seed, position, split, index)
    pt, key = draw_plaintext_and_key(config, rng)
    trace = simulate_trace(config, position, pt, key, rng)
    trace.splits[:] = split
    return trace


def simulate_trace(config: SimConfig, position_index: int, plaintext: bytes,
                   key: bytes, rng) -> TraceArrays:
    """Single-trace reference for the batched generator: one trace, one
    source sample at a time. rng supplies the jitter and noise draws in the
    documented order; the result is a one-row train-split chunk."""
    dev = config.device
    m = config.m
    jitter = 0
    if dev.jitter_max > 0:
        jitter = int(rng.integers(-dev.jitter_max, dev.jitter_max + 1))
    noise = rng.normal(0.0, dev.noise_sigma, m) if dev.noise_sigma > 0 else 0.0

    pt = np.frombuffer(bytes(plaintext), dtype=np.uint8).reshape(1, 16)
    key_row = np.frombuffer(bytes(key), dtype=np.uint8).reshape(1, 16)
    need_s9 = any(s.target == LAST_ROUND_HD_TRUE for s in config.sources)
    out = encrypt_blocks(pt, expand_keys(key), return_round9_state=need_s9)
    ct, s9 = out if need_s9 else (out, None)
    hds = true_last_round_hds(ct, s9) if need_s9 else None

    probe = config.geometry.position_mm(position_index, flip_y=dev.axis_flip_y)
    samples = config.background.waveform(m)
    for src in config.sources:
        w = coupling_weight(src.position_mm, probe)
        val = float(_source_true_values(src, pt, hds, key)[0])
        for t in src.sample_indices:
            tj = t + jitter
            if 0 <= tj < m:
                samples[tj] += w * src.amplitude * val
    samples = dev.offset + dev.gain * samples + noise
    if dev.adc_bits:
        samples = _quantize(samples, dev.adc_bits, dev.full_scale)
    return TraceArrays(samples[None, :].astype(np.float32), key_row, pt, ct,
                       np.full(1, position_index, dtype=np.int32),
                       np.zeros(1, dtype=np.uint8))


def test_coupling_weight_examples():
    assert coupling_weight((0, 0, 0), (0, 0, 1.0)) / \
        coupling_weight((0, 0, 0), (0, 0, 2.0)) == pytest.approx(4.0, rel=1e-12)
    # Below the floor the weight stops growing.
    assert coupling_weight((0, 0, 0), (0, 0, D_MIN_MM / 2)) == \
        coupling_weight((0, 0, 0), (0, 0, D_MIN_MM))
    a = (0.3, -1.2, 0.7)
    b = (-0.5, 0.4, 0.1)
    d = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
    assert coupling_weight(a, b) == pytest.approx(1 / d**2, rel=1e-12)


def test_dataset_determinism(tmp_path):
    config = tiny_config()
    p1, p2 = tmp_path / "a.emgd", tmp_path / "b.emgd"
    simulate_grid_dataset(config, p1)
    simulate_grid_dataset(config, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert len(p1.read_bytes()) > 0


def test_counts_and_positions(tmp_path):
    geom = GridGeometry(3, 3, 1, 0.5, 0.0, (0.0, 0.0, -0.3))
    config = tiny_config(geometry=geom,
                         traces_per_position={"train": 5, "test": 3, "holdout": 2})
    path = tmp_path / "grid.emgd"
    header = simulate_grid_dataset(config, path)
    assert header.trace_count == 9 * 10
    arrays = read_all(path)
    counts = np.bincount(arrays.positions, minlength=9)
    assert np.array_equal(counts, np.full(9, 10))
    split_counts = np.bincount(arrays.splits, minlength=3)
    assert split_counts.tolist() == [45, 27, 18]


def test_label_consistency(tmp_path):
    config = tiny_config()
    path = tmp_path / "lbl.emgd"
    simulate_grid_dataset(config, path)
    arrays = read_all(path)
    for pt, key, ct in zip(arrays.plaintexts, arrays.keys, arrays.ciphertexts):
        assert ct.tobytes() == aes128_encrypt(pt.tobytes(), key.tobytes())


def test_fixed_key_applies_to_all_splits(tmp_path):
    fixed = bytes(range(16))
    config = tiny_config(fixed_key=fixed)
    path = tmp_path / "fk.emgd"
    simulate_grid_dataset(config, path)
    arrays = read_all(path)
    assert (arrays.keys == np.frombuffer(fixed, np.uint8)).all()


def test_random_keys_differ_per_trace(tmp_path):
    config = tiny_config()
    path = tmp_path / "rk.emgd"
    simulate_grid_dataset(config, path)
    arrays = read_all(path)
    assert len({k.tobytes() for k in arrays.keys}) == len(arrays)


def test_inverse_square_on_leak_sample():
    src = LeakSource((0.0, 0.0, 0.0), (5,), FIRST_ROUND_SBOX_OUTPUT, 0, 1.0)
    pt = bytes(16)
    key = bytes(16)
    rng = np.random.default_rng(0)
    traces = {}
    for z in (0.2, 0.4):
        geom = GridGeometry(1, 1, 1, 0.5, 0.0, (0.0, 0.0, -z))
        config = SimConfig(geometry=geom, m=8, sources=(src,),
                           device=DeviceProfile(), seed=1,
                           traces_per_position={"train": 1})
        traces[z] = simulate_trace(config, 0, pt, key, rng).samples[0]
    leak_near = traces[0.2][5]
    leak_far = traces[0.4][5]
    assert leak_near == pytest.approx(4 * leak_far, rel=1e-6)
    # Non-leak samples carry nothing in a noiseless, background-free setup.
    assert traces[0.2][0] == 0.0
    # Absolute value: HW(SBOX[0]) = HW(0x63) = 4 times 1/0.2^2 = 25.
    assert leak_near == pytest.approx(4 * 25.0, rel=1e-6)


def test_background_and_offset_only():
    config = SimConfig(geometry=POINT, m=126, sources=(),
                       device=DeviceProfile(gain=2.0, offset=0.5),
                       background=Background(amplitude=0.25), seed=3,
                       traces_per_position={"train": 1})
    trace = simulate_trace(config, 0, bytes(16), bytes(16),
                           np.random.default_rng(0)).samples[0]
    t = np.arange(126)
    want = 0.5 + 2.0 * 0.25 * np.sin(2 * np.pi * t / 62.5)
    np.testing.assert_allclose(trace, want, atol=1e-6)
    # The default period is 62.5 samples, so the carrier repeats every 125.
    assert trace[0] == pytest.approx(trace[125], abs=1e-5)


def test_no_sources_no_noise_zero_trace():
    config = SimConfig(geometry=POINT, m=16, sources=(), device=DeviceProfile(),
                       seed=4, traces_per_position={"train": 1})
    trace = simulate_trace(config, 0, bytes(16), bytes(16),
                           np.random.default_rng(0)).samples[0]
    assert np.all(trace == 0.0)


def test_quantization_levels(tmp_path):
    config = tiny_config(device=DeviceProfile(noise_sigma=0.3, adc_bits=8,
                                              full_scale=(-2.0, 2.0)))
    path = tmp_path / "q.emgd"
    header = simulate_grid_dataset(config, path)
    assert header.adc_bits == 8
    arrays = read_all(path)
    lo, hi = -2.0, 2.0
    step = (hi - lo) / 255
    codes = (arrays.samples - lo) / step
    assert np.allclose(codes, np.rint(codes), atol=1e-4)
    assert arrays.samples.min() >= lo and arrays.samples.max() <= hi
    assert len(np.unique(arrays.samples)) <= 256


def test_batch_generation_matches_single_trace_path(tmp_path):
    config = tiny_config(device=DeviceProfile(noise_sigma=0.2, jitter_max=2),
                         sources=(
        LeakSource((0.0, 0.0, 0.0), (10, 20), FIRST_ROUND_SBOX_OUTPUT, 3, 0.02),
        LeakSource((0.1, 0.0, 0.0), (10,), LAST_ROUND_HD_TRUE, 7, 0.03),
    ))
    path = tmp_path / "eq.emgd"
    simulate_grid_dataset(config, path)
    arrays = read_all(path)
    # Reconstruct the first and last trace of each split from its substream.
    offset = 0
    for split_name, count in (("train", 8), ("test", 4), ("holdout", 6)):
        split = {"train": 0, "test": 1, "holdout": 2}[split_name]
        for idx in (0, count - 1):
            rng = trace_rng(config.seed, 0, split, idx)
            pt, key = draw_plaintext_and_key(config, rng)
            want = simulate_trace(config, 0, pt, key, rng)
            got = arrays.subset([offset + idx])
            assert got.plaintexts.tobytes() == pt and got.keys.tobytes() == key
            assert np.array_equal(got.ciphertexts, want.ciphertexts)
            assert np.array_equal(got.samples, want.samples)
        offset += count


@st.composite
def small_sim_configs(draw):
    """Small grids that exercise every branch of the per-trace draws."""
    nx, ny = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    m = draw(st.integers(8, 24))
    sources = tuple(
        LeakSource((draw(st.floats(-0.5, 1.0)), 0.0, 0.0),
                   tuple(draw(st.lists(st.integers(0, m - 1), min_size=1,
                                       max_size=3, unique=True))),
                   target, draw(st.integers(0, 15)), 0.05)
        for target in draw(st.lists(st.sampled_from(simulator.SOURCE_TARGETS),
                                    min_size=1, max_size=2)))
    device = DeviceProfile(
        noise_sigma=draw(st.sampled_from([0.0, 0.05, 0.3])),
        jitter_max=draw(st.sampled_from([0, 1, 3])),
        adc_bits=draw(st.sampled_from([0, 8, 12])),
        axis_flip_y=draw(st.booleans()))
    fixed_key = draw(st.none() | st.binary(min_size=16, max_size=16))
    counts = {name: draw(st.integers(0, 7)) for name in SPLIT_CODES}
    return SimConfig(geometry=GridGeometry(nx, ny, 1, 0.5, 0.0, (0.0, 0.0, -0.3)),
                     m=m, sources=sources, device=device,
                     background=Background(amplitude=0.05),
                     seed=draw(st.integers(0, 2**64 - 1)), fixed_key=fixed_key,
                     traces_per_position=counts)


@settings(max_examples=40, deadline=None)
@given(config=small_sim_configs())
def test_every_trace_matches_its_substream_oracle(tmp_path_factory, config):
    root = tmp_path_factory.mktemp("oracle")
    files = {}
    # chunks of 1 and 3 traces, and of the default byte budget
    for budget in (8 * config.m, 24 * config.m, simulator._CHUNK_BYTES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulator, "_CHUNK_BYTES", budget)
            files[budget] = root / f"chunk{budget}.emgd"
            simulate_grid_dataset(config, files[budget])
    raw = [path.read_bytes() for path in files.values()]
    assert raw[0] == raw[1] == raw[2]

    # one array per split code, each in file order: position-major
    _, *got = read_arrays(files[8 * config.m], tuple(SPLIT_NAMES))
    rows = [0] * len(got)
    for position in range(config.geometry.position_count):
        for name, split in SPLIT_CODES.items():
            for index in range(config.traces_per_position[name]):
                want = oracle_trace(config, position, split, index)
                for field in ("samples", "keys", "plaintexts", "ciphertexts",
                              "positions", "splits"):
                    assert np.array_equal(getattr(got[split], field)[rows[split]],
                                          getattr(want, field)[0]), \
                        (position, name, index, field)
                rows[split] += 1
    assert rows == [len(a) for a in got]


@pytest.mark.parametrize("traces", [400, 1600])
def test_wide_trace_memory_is_bounded_by_the_chunk_budget(tmp_path, traces):
    """Chunks are sized by bytes, so simulating wide traces (the C7 and
    `profile` regressor width, m = 2,816) peaks at a few chunk budgets
    whatever the trace count."""
    m = 2816
    k = m // 16
    sources = tuple(LeakSource((0.0, 0.0, 0.0), tuple(range(j * k, (j + 1) * k)),
                               LAST_ROUND_HD_TRUE, j, 4e-3) for j in range(16))
    config = tiny_config(m=m, sources=sources,
                         device=DeviceProfile(noise_sigma=1.0),
                         traces_per_position={"train": traces})
    assert traces * 8 * m > 2 * simulator._CHUNK_BYTES  # several chunks
    tracemalloc.start()
    try:
        simulate_grid_dataset(config, tmp_path / "wide.emgd")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * simulator._CHUNK_BYTES, peak


def test_short_trace_memory_is_bounded_by_the_chunk_rows(tmp_path):
    """At m = 1 the byte budget alone would put every trace in one chunk;
    the row cap keeps the per-trace key schedule, AES and Philox temporaries
    of a chunk under one byte budget whatever the trace count."""
    m = 1
    sources = (LeakSource((0.0, 0.0, 0.0), (0,), FIRST_ROUND_SBOX_OUTPUT, 0,
                          0.01),)
    config = tiny_config(m=m, sources=sources,
                         device=DeviceProfile(noise_sigma=1.0),
                         traces_per_position={"train":
                                              3 * simulator._CHUNK_ROWS + 5})
    assert simulator._CHUNK_BYTES // (8 * m) > 3 * simulator._CHUNK_ROWS
    tracemalloc.start()
    try:
        simulate_grid_dataset(config, tmp_path / "short.emgd")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < simulator._CHUNK_BYTES, peak


def worker_config() -> SimConfig:
    """Random keys, jitter, noise, a 12-bit ADC and a last-round HD source
    over five positions: in 16-trace chunks each position holds 4 + 2 + 1
    chunks, 35 in all, a multiple of neither 2 nor 3."""
    sources = (LeakSource((0.0, 0.0, 0.0), (3, 5), LAST_ROUND_HD_TRUE, 2, 0.5),
               LeakSource((1.0, 0.0, 0.0), (9,), FIRST_ROUND_SBOX_OUTPUT, 0, 0.2))
    return tiny_config(geometry=GridGeometry(5, 1, 1, 0.5, 0.5, (0.0, 0.0, 0.2)),
                       m=24, sources=sources,
                       device=DeviceProfile(noise_sigma=0.3, jitter_max=2,
                                            adc_bits=12),
                       traces_per_position={"train": 50, "test": 20,
                                            "holdout": 7})


def test_worker_count_caps_threads_by_cpus_and_chunks():
    assert worker_count(10**6, 2, 35) == 2
    assert worker_count(10**6, 64, 3) == 3
    assert worker_count(3, 64, 35) == 3
    assert worker_count(1, 64, 35) == 1
    assert worker_count(4, 2, 0) == 1  # an empty dataset


def test_workers_write_the_bytes_of_one_process(tmp_path, monkeypatch):
    monkeypatch.setattr(simulator, "_CHUNK_ROWS", 16)
    monkeypatch.setattr(simulator, "usable_cpus", lambda: 3)
    config = worker_config()
    files = []
    for threads in (1, 2, 3):
        path = tmp_path / f"workers{threads}.emgd"
        done = []
        simulate_grid_dataset(config, path, lambda d, total: done.append(d),
                              threads=threads)
        assert simulation_workers(config, threads) == threads
        assert len(done) == 35 and done == sorted(set(done))
        assert done[-1] == config.total_traces
        files.append(path.read_bytes())
    assert files[0] == files[1] == files[2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped


class Unpicklable(Exception):
    """An exception with an attribute pickle cannot send."""

    def __init__(self, message):
        super().__init__(message)
        self.callback = lambda: None


class TwoArgs(Exception):
    """An exception that pickles but cannot be unpickled: its one stored
    argument is too few for __init__."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


@pytest.mark.parametrize("start, exc, kind, message", [
    # chunk 23, the forked worker's; a message longer than a pipe's atomic write
    (32, ConfigError("x" * 1200), ConfigError, "x" * 1200),
    (32, Unpicklable("boom"), RuntimeError, "Unpicklable: boom"),
    # chunk 22, the calling process's own
    (16, Unpicklable("boom"), Unpicklable, "boom"),
    # chunk 23 again: pickles, but unpickling calls TwoArgs with one argument
    (32, TwoArgs(1, 2), RuntimeError, "TwoArgs: 1 and 2"),
])
def test_worker_exception_reaches_the_caller(tmp_path, monkeypatch, start, exc,
                                             kind, message):
    synthesize = simulator._synthesize_chunk

    def failing(config, position, split, first, count):
        if (position, split, first) == (3, 0, start):
            raise exc
        return synthesize(config, position, split, first, count)

    monkeypatch.setattr(simulator, "_CHUNK_ROWS", 16)
    monkeypatch.setattr(simulator, "usable_cpus", lambda: 2)
    monkeypatch.setattr(simulator, "_synthesize_chunk", failing)
    path = tmp_path / "failed.emgd"
    with pytest.raises(kind) as caught:
        simulate_grid_dataset(worker_config(), path, threads=2)
    assert str(caught.value) == message
    raise_line = failing.__code__.co_firstlineno + 2
    assert raised_at(caught.value) == f"test_simulator.py:{raise_line} in failing"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert path.stat().st_size == 0


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to list open descriptors")
@pytest.mark.parametrize("fail", [False, True])
def test_forked_simulation_leaks_no_descriptor(tmp_path, monkeypatch, fail):
    """Neither a forked simulation nor one whose worker fails leaves a pipe
    or a process sentinel open in the caller."""
    synthesize = simulator._synthesize_chunk

    def failing(config, position, split, start, count):
        if fail and (position, split, start) == (3, 0, 32):  # a worker's chunk
            raise ConfigError("failed")
        return synthesize(config, position, split, start, count)

    monkeypatch.setattr(simulator, "_CHUNK_ROWS", 16)
    monkeypatch.setattr(simulator, "usable_cpus", lambda: 2)
    monkeypatch.setattr(simulator, "_synthesize_chunk", failing)
    before = sorted(os.listdir("/proc/self/fd"))
    path = tmp_path / "fds.emgd"
    if fail:
        # caught keeps the traceback's frames, and what they hold, alive
        with pytest.raises(ConfigError) as caught:
            simulate_grid_dataset(worker_config(), path, threads=2)
        assert caught.value.worker_frame.endswith(" in failing")
    else:
        simulate_grid_dataset(worker_config(), path, threads=2)
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_killed_worker_fails_the_simulation(tmp_path, monkeypatch):
    """A worker that dies without a word, as one the kernel's out-of-memory
    killer ends, fails the simulation; no worker is left and the file holds
    no record."""
    synthesize = simulator._synthesize_chunk
    parent = os.getpid()

    def dying(config, position, split, start, count):
        if os.getpid() != parent and split == SPLIT_CODES["test"]:
            os.kill(os.getpid(), signal.SIGKILL)
        return synthesize(config, position, split, start, count)

    monkeypatch.setattr(simulator, "usable_cpus", lambda: 2)
    monkeypatch.setattr(simulator, "_synthesize_chunk", dying)
    path = tmp_path / "killed.emgd"
    with pytest.raises(ChildProcessError, match=f"by signal {signal.SIGKILL}"):
        simulate_grid_dataset(tiny_config(), path, threads=2)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert path.stat().st_size == 0


def test_raw_words_become_little_endian_bytes():
    words = [0x0807060504030201, 0x100F0E0D0C0B0A09]
    want = list(range(1, 17))
    for dtype in ("<u8", ">u8"):  # a big-endian host's words, too
        assert _le_bytes(np.array(words, dtype=dtype)).tolist() == want


substream_keys = (st.sampled_from([0, 1, 2**64 - 1])
                  | st.integers(0, 2**64 - 1)
                  | st.builds(lambda p, s, i: p << 48 | s << 40 | i,
                              st.integers(0, 2**16 - 1), st.integers(0, 2),
                              st.integers(0, 2**40 - 1)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       keys=st.lists(substream_keys, min_size=1, max_size=5))
def test_vectorized_philox_block_matches_random_raw(seed, keys):
    got = _philox_first_blocks(seed, np.array(keys, dtype=np.uint64))
    for row, k in zip(got, keys):
        fresh = np.random.Philox(key=np.array([seed, k], dtype=np.uint64))
        assert np.array_equal(row, fresh.random_raw(4)), (seed, k)


@pytest.mark.parametrize("words", [2, 4])
def test_state_reset_continues_like_random_raw(words):
    seed, k = 2**64 - 1, (3 << 48) | (1 << 40) | 12345
    key = np.array([seed, k], dtype=np.uint64)
    fresh = np.random.Generator(np.random.Philox(key=key))
    fresh.bit_generator.random_raw(words)

    bg = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    reset = np.random.Generator(bg)
    reset.standard_normal(3)  # leave state behind that the reset must clear
    state = _philox_state(seed, words)
    state["state"]["key"][1] = k
    state["buffer"] = _philox_first_blocks(seed, key[1:]).tolist()[0]
    bg.state = state
    want = (fresh.integers(-3, 4), fresh.standard_normal(5))
    got = (reset.integers(-3, 4), reset.standard_normal(5))
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])


def test_largest_seed_simulates_without_warnings(tmp_path):
    """uint64 substream-key arithmetic wraps by design and must not print
    numpy overflow warnings to stderr, which carries only JSON events."""
    for fixed_key in (None, bytes(range(16))):
        config = tiny_config(seed=2**64 - 1, fixed_key=fixed_key,
                             device=DeviceProfile(noise_sigma=0.1, jitter_max=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate_grid_dataset(config, tmp_path / "max_seed.emgd")
        arrays = read_all(tmp_path / "max_seed.emgd")
        want = oracle_trace(config, 0, SPLIT_CODES["holdout"], 5)
        assert np.array_equal(arrays.samples[-1], want.samples[0])


def test_snr_decreases_with_distance(tmp_path):
    from emgrid.leakage import true_first_round_values

    src = LeakSource((0.0, 0.0, 0.0), (3,), FIRST_ROUND_SBOX_OUTPUT, 0, 0.05)
    snrs = []
    for x in (0.0, 0.5, 1.0):
        geom = GridGeometry(1, 1, 1, 0.5, 0.0, (x, 0.0, -0.3))
        config = SimConfig(geometry=geom, m=4, sources=(src,),
                           device=DeviceProfile(noise_sigma=0.05), seed=7,
                           traces_per_position={"train": 10_000})
        path = tmp_path / f"snr_{x}.emgd"
        simulate_grid_dataset(config, path)
        _, arrays = read_arrays(path, (SPLIT_CODES["train"],))
        labels = HW_TABLE[true_first_round_values(
            FIRST_ROUND_SBOX_OUTPUT, arrays.plaintexts, arrays.keys, 0)]
        acc = SnrAccumulator(num_classes=9, m=4)
        acc.update_batch(labels, arrays.samples)
        snrs.append(acc.finalize()[3])
    assert snrs[0] > snrs[1] > snrs[2]


def test_jitter_moves_leak_sample():
    src = LeakSource((0.0, 0.0, 0.0), (16,), FIRST_ROUND_SBOX_OUTPUT, 0, 1.0)
    config = SimConfig(geometry=POINT, m=32, sources=(src,),
                       device=DeviceProfile(jitter_max=3), seed=5,
                       traces_per_position={"train": 1})
    seen = set()
    for i in range(64):
        rng = trace_rng(config.seed, 0, 0, i)
        pt, key = draw_plaintext_and_key(config, rng)
        trace = simulate_trace(config, 0, pt, key, rng).samples[0]
        nz = np.nonzero(trace)[0]
        if len(nz):
            assert len(nz) == 1
            assert 13 <= nz[0] <= 19
            seen.add(int(nz[0]))
    assert len(seen) > 1  # jitter actually varies


def test_derive_device_b_zero_perturbation():
    config = tiny_config()
    derived = derive_device_b(config)
    assert derived.seed != config.seed
    assert derived.geometry == config.geometry
    assert derived.device == config.device
    assert derived.sources == config.sources
    # Deriving is deterministic.
    assert derive_device_b(config).seed == derived.seed


def test_derive_device_b_perturbation():
    config = tiny_config()
    derived = derive_device_b(config, probe_origin_shift_mm=(0.25, 0.25, 0.0),
                              gain_factor=2.0, extra_noise=0.5, jitter_delta=1)
    assert derived.geometry.origin_mm == (0.25, 0.25, -0.3)
    assert derived.device.gain == 2.0
    assert derived.device.noise_sigma == pytest.approx(0.15)
    assert derived.device.jitter_max == 1
    assert derived.sources == config.sources


def test_derive_device_b_gain_doubles_noiseless_amplitudes():
    src = LeakSource((0.0, 0.0, 0.0), (2,), FIRST_ROUND_SBOX_OUTPUT, 0, 1.0)
    config = SimConfig(geometry=POINT, m=4, sources=(src,),
                       device=DeviceProfile(), seed=9,
                       traces_per_position={"train": 1})
    doubled = derive_device_b(config, gain_factor=2.0)
    pt, key = bytes(16), bytes(16)
    rng = np.random.default_rng(0)
    a = simulate_trace(config, 0, pt, key, rng).samples[0]
    b = simulate_trace(doubled, 0, pt, key, rng).samples[0]
    np.testing.assert_allclose(b, 2 * a, rtol=1e-6)


def sim_config_to_dict(config: SimConfig) -> dict:
    """The JSON form of a config, as sim_config_from_dict reads it."""
    dev, bg = config.device, config.background
    d = {
        "geometry": {**asdict(config.geometry),
                     "origin_mm": list(config.geometry.origin_mm)},
        "m": config.m,
        "seed": config.seed,
        "description": config.description,
        "traces_per_position": dict(config.traces_per_position),
        "background": {"amplitude": bg.amplitude,
                       "period_samples": bg.period_samples, "phase": bg.phase},
        "device": {"gain": dev.gain, "offset": dev.offset,
                   "noise_sigma": dev.noise_sigma, "jitter_max": dev.jitter_max,
                   "adc_bits": dev.adc_bits, "axis_flip_y": dev.axis_flip_y,
                   "full_scale": list(dev.full_scale)},
        "sources": [{"position_mm": list(s.position_mm),
                     "sample_indices": list(s.sample_indices),
                     "target": s.target, "byte_index": s.byte_index,
                     "amplitude": s.amplitude} for s in config.sources],
    }
    if config.fixed_key is not None:
        d["fixed_key"] = config.fixed_key.hex()
    return d


def test_config_json_round_trip(tmp_path):
    config = tiny_config(fixed_key=bytes(range(16)))
    d = sim_config_to_dict(config)
    assert sim_config_from_dict(d) == config

    import json
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    assert load_sim_config(path) == config
    # An integer where a number is expected is read as that float.
    gain = sim_config_from_dict({**d, "device": {"gain": 2}}).device.gain
    assert type(gain) is float and gain == 2.0

    # A perturbation block derives the second device at load time.
    d["perturbation"] = {"probe_origin_shift_mm": [0.1, 0.0, 0.0],
                         "gain_factor": 1.5}
    loaded = sim_config_from_dict(d)
    assert loaded == derive_device_b(config, probe_origin_shift_mm=(0.1, 0.0, 0.0),
                                     gain_factor=1.5)


def test_config_validation():
    with pytest.raises(ConfigError):
        LeakSource((0, 0, 0), (1,), "NotAModel", 0, 1.0)
    with pytest.raises(ConfigError):
        LeakSource((0, 0, 0), (), FIRST_ROUND_SBOX_OUTPUT, 0, 1.0)
    # A repeated index would leak once without jitter but once per repeat
    # with it.
    with pytest.raises(ConfigError, match="repeat"):
        LeakSource((0, 0, 0), (3, 1, 3), FIRST_ROUND_SBOX_OUTPUT, 0, 1.0)
    with pytest.raises(ConfigError):
        DeviceProfile(adc_bits=10)
    with pytest.raises(ConfigError):
        tiny_config(m=8)  # source index 10 out of range
    with pytest.raises(ConfigError):
        tiny_config(fixed_key=b"short")
    with pytest.raises(ConfigError):
        tiny_config(traces_per_position={"blue": 4})
    # Trace indices fill the low 40 bits of a substream key.
    tiny_config(traces_per_position={"train": (1 << 40) - 1})
    with pytest.raises(ConfigError, match="2\\*\\*40"):
        tiny_config(traces_per_position={"holdout": 1 << 40})
    with pytest.raises(ConfigError):
        sim_config_from_dict({"m": 4})
    # A chunk holds at least one trace of 8-byte samples within its budget,
    # so a longer trace is refused before anything is allocated.
    assert simulator._CHUNK_BYTES // 8 == 524_288
    tiny_config(m=524_288)
    with pytest.raises(ConfigError, match="1..524288"):
        tiny_config(m=524_289)


def test_split_names_stable():
    assert SPLIT_NAMES == {0: "train", 1: "test", 2: "holdout"}
