"""Deterministic physics-inspired trace generator.

A handful of point leak sources sit at fixed die coordinates. Each emits, at
its configured sample indices, a value proportional to the Hamming weight of
a true AES intermediate (or the true last-round Hamming distance), attenuated
by the inverse square of the probe-to-source distance. On top of that sit a
deterministic clock-harmonic background sinusoid, Gaussian noise, and an
optional uniform ADC quantizer.

Reproducibility contract: every trace draws from its own Philox counter-based
substream keyed by (seed, position, split, trace_index), so generation order
and parallelism cannot change the output. Draw order within a trace is fixed:
plaintext bytes, then key bytes (only when keys are random), then one jitter
offset (only when jitter_max > 0), then m noise values (only when
noise_sigma > 0).

A trace's stream is that of a fresh numpy Generator on
Philox(key=[seed, position << 48 | split << 40 | trace_index]) drawing
integers(0, 256, 16, uint8) for the plaintext and for a random key,
integers(-jitter_max, jitter_max + 1) for the jitter and
normal(0, noise_sigma, m) for the noise. Plaintext and key bytes are the
first 2 or 4 raw 64-bit words read little-endian: the bytes
integers(0, 256, 16, uint8) returns, since it takes them low byte first
from uint32 draws, each the low and then the high half of one word. A fresh
Philox's first four words are one Philox4x64-10 block at counter
(1, 0, 0, 0) under the trace's key, so _philox_first_blocks computes that
block for every trace of a chunk at once in numpy.

The per-trace loop draws only the jitter and the noise, from a numpy
Generator: ziggurat normals consume a varying number of words, so they are
not computed in bulk. A new Generator costs more than the rest of the
trace, so each chunk builds one Philox and, before every trace, sets its
state to the one the trace's fresh Philox holds after its plaintext and key
words: counter (1, 0, 0, 0), the trace's block in the buffer and 2 or 4 of
its words used. Without jitter and noise the loop does not run.

Traces are synthesized and written in chunks of at most _CHUNK_ROWS and
_CHUNK_BYTES // (8 m) traces, so a chunk's memory grows with neither the
trace length m nor the trace count; SimConfig caps m at _CHUNK_BYTES // 8,
so a chunk holds at least one trace. The substreams make the file bytes
independent of the chunk size.

simulate_grid_dataset(..., threads=N) synthesizes in W = worker_count(N,
usable CPUs, chunks) processes: the caller (process 0) and W - 1 workers,
each a forked multiprocessing Process with its own one-way Pipe. Process w
synthesizes chunks w, w + W, ... and puts their records at their own
offsets through traceset.open_dataset, which alone knows the record
layout, so no sample crosses a process boundary and each process holds
about one chunk (at most _CHUNK_BYTES of float64 samples plus its
temporaries) besides the pages a worker shares with the caller. A worker
sends the caller the record count of each chunk it writes, or its
exception with the frame that raised it (errors.raised_at; the traceback
stays behind), and ends through os._exit only. On any failure the caller
kills and reaps every worker and open_dataset empties the file; on success
open_dataset writes the preamble last. The caller takes a share because
a caller that only waited left its memory allocator cold: the survey
benchmark's next command, snr, ran about 10% slower in the same process.
With W = 1 or without os.fork the caller writes every chunk itself, forks
nothing and never imports multiprocessing. Forking is safe because the
workers make no BLAS call and the simulating process runs no Python thread
of its own.
"""

import json
import math
import os
import pickle
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .aes import encrypt_blocks, expand_keys, expand_keys_batch
from .errors import ConfigError, raised_at
from .grid import GridGeometry, json_object, require_finite
from .leakage import (
    FIRST_ROUND_SBOX_INPUT,
    FIRST_ROUND_SBOX_OUTPUT,
    HW_TABLE,
    true_first_round_values,
    true_last_round_hds,
)
from .traceset import (
    ADC_BITS,
    MAX_POSITIONS,
    SPLIT_CODES,
    SPLIT_NAMES,
    DatasetHeader,
    TraceArrays,
    open_dataset,
)

LAST_ROUND_HD_TRUE = "LastRoundHDTrue"
SOURCE_TARGETS = (FIRST_ROUND_SBOX_INPUT, FIRST_ROUND_SBOX_OUTPUT, LAST_ROUND_HD_TRUE)

D_MIN_MM = 0.05   # distance floor: probes never touch the die
_CHUNK_BYTES = 4 << 20  # float64 sample bytes per TraceArrays chunk
_CHUNK_ROWS = 4096  # traces per TraceArrays chunk at most
_INDEX_BITS = 40  # trace-index bits of a substream key's second word

# Philox4x64 round multipliers (for counter words 0 and 2) and key
# increments, one row each, and the multipliers' 32-bit halves.
_PHILOX_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_MUL_LO = _PHILOX_MUL & _LO32
_PHILOX_MUL_HI = _PHILOX_MUL >> _SHIFT32


@dataclass(frozen=True)
class LeakSource:
    position_mm: tuple
    sample_indices: tuple
    target: str
    byte_index: int
    amplitude: float

    def __post_init__(self):
        if self.target not in SOURCE_TARGETS:
            raise ConfigError(f"unknown leak source target {self.target!r}")
        if not 0 <= self.byte_index < 16:
            raise ConfigError("byte_index must be in 0..15")
        if self.amplitude <= 0:
            raise ConfigError("amplitude must be > 0")
        if len(self.position_mm) != 3:
            raise ConfigError("source position must be an (x, y, z) triple")
        if len(self.sample_indices) == 0:
            raise ConfigError("source needs at least one sample index")
        if any(i < 0 for i in self.sample_indices):
            raise ConfigError("sample indices must be non-negative")
        if len(set(self.sample_indices)) != len(self.sample_indices):
            raise ConfigError("sample indices must not repeat")
        require_finite("source amplitude and position", self.amplitude,
                       *self.position_mm)


@dataclass(frozen=True)
class DeviceProfile:
    gain: float = 1.0
    offset: float = 0.0
    noise_sigma: float = 0.0
    jitter_max: int = 0
    adc_bits: int = 0            # one of ADC_BITS; 0 = no quantization
    axis_flip_y: bool = False    # probe y axis counts top to bottom
    full_scale: tuple = (-4.0, 4.0)

    def __post_init__(self):
        if len(self.full_scale) != 2:
            raise ConfigError("full_scale must be a (lo, hi) pair")
        require_finite("gain, offset, noise_sigma and full_scale", self.gain,
                       self.offset, self.noise_sigma, *self.full_scale)
        if self.gain <= 0:
            raise ConfigError("gain must be > 0")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.jitter_max < 0:
            raise ConfigError("jitter_max must be >= 0")
        if self.adc_bits not in ADC_BITS:
            raise ConfigError(f"adc_bits must be one of {ADC_BITS}")
        if not self.full_scale[0] < self.full_scale[1]:
            raise ConfigError("full_scale must be an increasing (lo, hi) pair")


@dataclass(frozen=True)
class Background:
    """Deterministic clock-harmonic carrier: amplitude * sin(2*pi*t/period).

    The default period is the sampling-to-clock ratio 625 MHz / 10 MHz = 62.5
    samples per clock cycle.
    """

    amplitude: float = 0.0
    period_samples: float = 62.5
    phase: float = 0.0

    def __post_init__(self):
        require_finite("background amplitude, period and phase",
                       self.amplitude, self.period_samples, self.phase)
        if self.amplitude < 0:
            raise ConfigError("background amplitude must be >= 0")
        if self.period_samples <= 0:
            raise ConfigError("background period must be > 0")

    def waveform(self, m: int) -> np.ndarray:
        t = np.arange(m, dtype=np.float64)
        return self.amplitude * np.sin(2 * np.pi * t / self.period_samples + self.phase)


@dataclass(frozen=True)
class SimConfig:
    geometry: GridGeometry
    m: int
    sources: tuple = ()
    device: DeviceProfile = DeviceProfile()
    background: Background = Background()
    seed: int = 0
    fixed_key: bytes = None
    traces_per_position: dict = field(default_factory=dict)
    description: str = ""

    def __post_init__(self):
        if not 0 < self.m <= _CHUNK_BYTES // 8:
            raise ConfigError(
                f"m must be in 1..{_CHUNK_BYTES // 8}, the float64 samples "
                f"of one {_CHUNK_BYTES >> 20} MiB simulation chunk")
        if self.geometry.position_count > MAX_POSITIONS:
            raise ConfigError(
                f"grid has {self.geometry.position_count} positions; the .emgd "
                f"u16 position index addresses at most {MAX_POSITIONS}")
        for src in self.sources:
            if max(src.sample_indices) >= self.m:
                raise ConfigError(
                    f"source sample index {max(src.sample_indices)} >= m {self.m}")
        if self.fixed_key is not None and len(self.fixed_key) != 16:
            raise ConfigError("fixed_key must be 16 bytes")
        for split, count in self.traces_per_position.items():
            if split not in SPLIT_CODES or count < 0:
                raise ConfigError(f"bad traces_per_position entry {split!r}: {count}")
            if count >= 1 << _INDEX_BITS:
                raise ConfigError(
                    f"traces_per_position entry {split!r}: {count} exceeds the "
                    f"2**{_INDEX_BITS} trace indices of a substream key")
        if not 0 <= self.seed < 1 << 64:
            raise ConfigError("seed must fit in 64 bits")

    @property
    def total_traces(self) -> int:
        per_pos = sum(self.traces_per_position.values())
        return per_pos * self.geometry.position_count


def coupling_weight(source_mm, probe_mm) -> float:
    """Inverse-square coupling with a d_min floor against the singularity."""
    d = math.dist(source_mm, probe_mm)
    return 1.0 / max(d, D_MIN_MM) ** 2


def _mulhi(a: np.ndarray) -> np.ndarray:
    """High 64 bits of each a[j] * _PHILOX_MUL[j], from 32-bit halves:
    every partial product and sum fits in 64 bits."""
    a_lo = a & _LO32
    a_hi = a >> _SHIFT32
    lo_hi = a_lo * _PHILOX_MUL_HI
    hi_lo = a_hi * _PHILOX_MUL_LO
    mid = ((a_lo * _PHILOX_MUL_LO) >> _SHIFT32) + (lo_hi & _LO32) + (hi_lo & _LO32)
    return (a_hi * _PHILOX_MUL_HI + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32)
            + (mid >> _SHIFT32))


def _philox_first_blocks(seed: int, subkeys: np.ndarray) -> np.ndarray:
    """(n, 4) uint64: row i is the first four random_raw words of a fresh
    Philox(key=[seed, subkeys[i]]), its Philox4x64-10 block at counter
    (1, 0, 0, 0). uint64 array arithmetic wraps mod 2**64 without warnings."""
    n = len(subkeys)
    key = np.empty((2, n), dtype=np.uint64)
    key[0] = seed
    key[1] = subkeys
    # A round maps counter (c0, c1, c2, c3) under key (k0, k1) to
    # (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)).
    a = np.zeros((2, n), dtype=np.uint64)  # c0 and c2
    a[0] = 1
    b = np.zeros((2, n), dtype=np.uint64)  # c1 and c3
    for r in range(10):
        if r:
            key += _PHILOX_BUMP
        a, b = _mulhi(a)[::-1] ^ b ^ key, (a * _PHILOX_MUL)[::-1]
    out = np.empty((n, 4), dtype=np.uint64)
    out[:, 0::2] = a.T
    out[:, 1::2] = b.T
    return out


def _philox_state(seed: int, words: int) -> dict:
    """The state of a fresh Philox(key=[seed, k]) after random_raw(words)
    returned the first words of its block b, once the caller sets
    state["state"]["key"][1] = k and state["buffer"] = b (a list of four
    ints). Plain ints and lists: the state setter converts them fastest."""
    return {"bit_generator": "Philox",
            "state": {"counter": [1, 0, 0, 0], "key": [seed, 0]},
            "buffer": [0, 0, 0, 0], "buffer_pos": words,
            "has_uint32": 0, "uinteger": 0}


def _le_bytes(words: np.ndarray) -> np.ndarray:
    """The bytes of 64-bit words, each word low byte first on any host."""
    return words.astype("<u8", copy=False).view(np.uint8)


def _quantize(x: np.ndarray, bits: int, full_scale) -> np.ndarray:
    lo, hi = full_scale
    levels = (1 << bits) - 1
    q = np.rint((np.clip(x, lo, hi) - lo) / (hi - lo) * levels)
    return lo + q * ((hi - lo) / levels)


def _source_true_values(src: LeakSource, pts, hds, key_bytes) -> np.ndarray:
    """Per-trace emitted value: HW of the true intermediate, or the true HD
    (column byte_index of the chunk's true_last_round_hds)."""
    if src.target == LAST_ROUND_HD_TRUE:
        return hds[:, src.byte_index].astype(np.float64)
    vals = true_first_round_values(src.target, pts, key_bytes, src.byte_index)
    return HW_TABLE[vals].astype(np.float64)


def _synthesize_chunk(config: SimConfig, position: int, split: int,
                      start: int, count: int) -> TraceArrays:
    """Generate `count` consecutive traces for one (position, split)."""
    dev = config.device
    m = config.m
    jitters = np.zeros(count, dtype=np.int64)
    noise = None
    if dev.noise_sigma > 0:
        noise = np.empty((count, m), dtype=np.float64)
    random_keys = config.fixed_key is None
    # second substream key word of trace `start`; trace start + i adds i
    first = (position << 48) | (split << _INDEX_BITS) | start
    blocks = _philox_first_blocks(
        config.seed, np.arange(count, dtype=np.uint64) + np.uint64(first))
    if dev.jitter_max > 0 or noise is not None:
        bg = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        rng = np.random.Generator(bg)
        state = _philox_state(config.seed, 4 if random_keys else 2)
        key = state["state"]["key"]
        for i, block in enumerate(blocks):
            key[1] = first + i
            state["buffer"] = block.tolist()
            bg.state = state
            if dev.jitter_max > 0:
                jitters[i] = rng.integers(-dev.jitter_max, dev.jitter_max + 1)
            if noise is not None:
                rng.standard_normal(out=noise[i])  # passing m too checks shapes slowly
    if noise is not None:
        # normal(0.0, sigma) is 0.0 + sigma * z; the + 0.0 turns -0.0 into 0.0
        noise *= dev.noise_sigma
        noise += 0.0
    raw = _le_bytes(blocks)  # a trace's plaintext bytes, then its key bytes
    pts = raw[:, :16]
    if random_keys:
        keys = raw[:, 16:]
    else:
        keys = np.tile(np.frombuffer(config.fixed_key, dtype=np.uint8), (count, 1))

    need_s9 = any(s.target == LAST_ROUND_HD_TRUE for s in config.sources)
    rks = expand_keys_batch(keys) if random_keys else expand_keys(config.fixed_key)
    out = encrypt_blocks(pts, rks, return_round9_state=need_s9)
    cts, s9 = out if need_s9 else (out, None)
    hds = true_last_round_hds(cts, s9) if need_s9 else None

    probe = config.geometry.position_mm(position, flip_y=dev.axis_flip_y)
    samples = np.tile(config.background.waveform(m), (count, 1))
    for src in config.sources:
        w = coupling_weight(src.position_mm, probe)
        vals = _source_true_values(src, pts, hds, keys if random_keys
                                   else config.fixed_key)
        idx = np.asarray(src.sample_indices, dtype=np.int64)
        if dev.jitter_max == 0:
            samples[:, idx] += (w * src.amplitude) * vals[:, None]
        else:
            cols = idx[None, :] + jitters[:, None]
            ok = (cols >= 0) & (cols < m)
            rows = np.broadcast_to(np.arange(count)[:, None], cols.shape)
            # distinct indices shift by one offset per row, so no (row, col)
            # pair repeats and a plain indexed += adds each leak once
            samples[rows[ok], cols[ok]] += \
                (w * src.amplitude) * np.broadcast_to(vals[:, None], cols.shape)[ok]
    samples *= dev.gain  # in place: equal, bit for bit, to offset + gain * samples
    samples += dev.offset
    if noise is not None:
        samples += noise
    if dev.adc_bits:
        samples = _quantize(samples, dev.adc_bits, dev.full_scale)
    return TraceArrays(samples.astype(np.float32), keys, pts, cts,
                       np.full(count, position, dtype=np.int32),
                       np.full(count, split, dtype=np.uint8))


def _chunk_plan(config: SimConfig):
    """(first, position, split, start, count) of every chunk, in record
    order: first is the file index of the chunk's first record."""
    rows = min(_CHUNK_ROWS, _CHUNK_BYTES // (8 * config.m))
    first = 0
    for position in range(config.geometry.position_count):
        for split, name in SPLIT_NAMES.items():
            count = config.traces_per_position.get(name, 0)
            for start in range(0, count, rows):
                n = min(rows, count - start)
                yield first, position, split, start, n
                first += n


def worker_count(threads: int, cpus: int, chunks: int) -> int:
    """W: one worker process per thread asked for, but no more than the
    usable CPUs or the chunks to synthesize, and at least one."""
    return max(1, min(threads, cpus, chunks))


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulation_workers(config: SimConfig, threads: int) -> int:
    """The processes simulate_grid_dataset(config, path, threads=threads)
    synthesizes in: W, the caller and W - 1 forked workers, or 1 where
    os.fork does not exist."""
    if not hasattr(os, "fork"):
        return 1
    return worker_count(threads, usable_cpus(), sum(1 for _ in _chunk_plan(config)))


def simulate_grid_dataset(config: SimConfig, path, progress=None,
                          threads: int = 1) -> DatasetHeader:
    """Generate the full dataset to `path`, streaming (no full materialization).

    Record order is position-major, then train/test/holdout, then trace
    index; the per-trace substreams make any other generation schedule
    produce byte-identical files. progress(done, total) is called as chunks
    are written, with done increasing. The chunks are synthesized in
    simulation_workers(config, threads) processes.
    """
    header = DatasetHeader(
        geometry=config.geometry,
        m=config.m,
        trace_count=config.total_traces,
        description=config.description,
        adc_bits=config.device.adc_bits,
    )
    workers = simulation_workers(config, threads)
    with open_dataset(header, path) as put:
        _put_chunks(config, put, workers, progress)
    return header


def _put_chunks(config: SimConfig, put, workers: int, progress) -> None:
    """Synthesize and put every planned chunk: the caller takes chunks 0,
    W, 2W, ... and forked worker w chunks w, w + W, ... (W = workers)."""
    if workers > 1:
        import multiprocessing  # here, so that W = 1 never pays its import
        from multiprocessing.connection import wait
        context = multiprocessing.get_context("fork")
    jobs = list(_chunk_plan(config))
    procs, pipes = [], []
    try:
        for index in range(1, workers):
            receiving, sending = context.Pipe(duplex=False)
            pipes.append(receiving)
            proc = context.Process(
                target=_worker, args=(config, put, jobs[index::workers], sending))
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns of numpy's idle BLAS threads; workers
                    # make no BLAS call
                    warnings.simplefilter("ignore", DeprecationWarning)
                    proc.start()
            finally:
                sending.close()
            procs.append(proc)
        # take the messages that wait before each own chunk, then wait for
        # them until every worker has closed its pipe
        own, listening, done = jobs[::workers], list(pipes), 0
        while own or listening:
            counts = []
            for pipe in wait(listening, 0 if own else None) if listening else ():
                try:
                    message = pipe.recv()
                except EOFError:  # the worker has ended
                    listening.remove(pipe)
                    continue
                if type(message) is not int:
                    exc, frame = message
                    exc.worker_frame = frame
                    raise exc
                counts.append(message)
            if own:
                first, *job = own.pop(0)
                put(_synthesize_chunk(config, *job), first)
                counts.append(job[-1])
            for count in counts:
                done += count
                if progress is not None:
                    progress(done, config.total_traces)
        for index, proc in enumerate(procs, 1):
            proc.join()
            if proc.exitcode:  # a worker that ends with 0 wrote all its records
                ended = (f"by signal {-proc.exitcode}" if proc.exitcode < 0
                         else f"with status {proc.exitcode}")
                raise ChildProcessError(f"simulation worker {index} ended {ended}")
    finally:
        for proc in procs:
            proc.kill()  # a no-op for a worker already reaped
            proc.join()
            proc.close()
        for pipe in pipes:
            pipe.close()


def _worker(config: SimConfig, put, jobs, pipe) -> None:
    """A forked worker's whole life: put each job's records and send its
    record count, or send the exception and the frame that raised it (as a
    RuntimeError if it does not survive pickling), and end the process with
    os._exit, which runs no handler and flushes no buffer the parent also
    holds."""
    code = 1
    try:
        for first, *job in jobs:
            put(_synthesize_chunk(config, *job), first)
            pipe.send(job[-1])
        code = 0
    except BaseException as e:  # re-raised by the parent, which ends this worker
        frame = raised_at(e)
        try:
            pickle.loads(pickle.dumps(e))
        except Exception:
            e = RuntimeError(f"{type(e).__name__}: {e}")
        pipe.send((e, frame))
    finally:
        os._exit(code)


def derive_seed(seed: int) -> int:
    """seed advanced by one step of Knuth's MMIX LCG, modulo 2**64."""
    return (seed * 6364136223846793005 + 1442695040888963407) % (1 << 64)


def derive_device_b(config: SimConfig, probe_origin_shift_mm=(0.0, 0.0, 0.0),
                    gain_factor: float = 1.0, extra_noise: float = 0.0,
                    jitter_delta: int = 0) -> SimConfig:
    """Second-rig variant: same die (sources unchanged), new seed, probe grid
    shifted by-eye, altered gain/noise/jitter."""
    ox, oy, oz = config.geometry.origin_mm
    dx, dy, dz = probe_origin_shift_mm
    geometry = replace(config.geometry, origin_mm=(ox + dx, oy + dy, oz + dz))
    new_jitter = config.device.jitter_max + jitter_delta
    if new_jitter < 0:
        raise ConfigError("jitter_delta drives jitter_max below zero")
    device = replace(config.device,
                     gain=config.device.gain * gain_factor,
                     noise_sigma=config.device.noise_sigma * (1.0 + extra_noise),
                     jitter_max=new_jitter)
    return replace(config, geometry=geometry, device=device,
                   seed=derive_seed(config.seed))


# ------------------------------------------------------------ config I/O

def _leak_source(d) -> LeakSource:
    kinds = dict(position_mm=(float, 3), sample_indices=(int, None), target=str,
                 byte_index=int, amplitude=float)
    return LeakSource(**json_object(d, "source", required=kinds, **kinds))


def _key_bytes(v) -> bytes:
    """The bytes of a hex string; SimConfig checks that there are 16."""
    if type(v) is str:
        try:
            return bytes.fromhex(v)
        except ValueError:
            pass
    raise ConfigError("simulation config field 'fixed_key' must be a hex string")


def sim_config_from_dict(d) -> SimConfig:
    """The SimConfig of a config's JSON object. Fields are typed by
    grid.json_object, and one left out takes its dataclass default. A
    perturbation block derives device B from the config (derive_device_b)."""
    fields = json_object(
        d, "simulation config", required=("geometry", "m"),
        geometry=GridGeometry.from_json_dict, m=int, sources=(_leak_source, None),
        device=lambda v: DeviceProfile(**json_object(
            v, "device", gain=float, offset=float, noise_sigma=float,
            jitter_max=int, adc_bits=int, axis_flip_y=bool, full_scale=(float, 2))),
        background=lambda v: Background(**json_object(
            v, "background", amplitude=float, period_samples=float, phase=float)),
        seed=int, fixed_key=_key_bytes,
        traces_per_position=lambda v: json_object(
            v, "traces_per_position", **dict.fromkeys(SPLIT_CODES, int)),
        description=str,
        perturbation=lambda v: json_object(
            v, "perturbation", probe_origin_shift_mm=(float, 3), gain_factor=float,
            extra_noise=float, jitter_delta=int))
    perturbation = fields.pop("perturbation", None)
    config = SimConfig(**fields)
    return config if perturbation is None else derive_device_b(config, **perturbation)


def load_sim_config(path, seed: int = None) -> SimConfig:
    """Read a config file; a seed given here replaces the file's seed before
    a perturbation block steps it."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            d = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
            raise ConfigError(f"{path}: not valid JSON: {e}") from e
    if seed is not None and type(d) is dict:
        d = {**d, "seed": seed}
    return sim_config_from_dict(d)
