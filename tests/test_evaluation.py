"""Grid-sweep evaluation tests: per-position metrics, sentinels for empty
cells, fixed-key enforcement, and thread-count independence."""

import math

import numpy as np
import pytest

from emgrid.aes import encrypt_blocks, expand_keys_batch
from emgrid.errors import AnalysisError, ConfigError
from emgrid.evaluation import (
    evaluate_classifier_grid,
    evaluate_cpa_grid,
    evaluate_hybrid_grid,
    evaluate_snr_grid,
)
from emgrid.grid import GridGeometry
from emgrid.leakage import (
    FIRST_ROUND_SBOX_INPUT,
    FIRST_ROUND_SBOX_OUTPUT,
    LAST_ROUND_HD,
    SBOX,
    LeakageModel,
    hamming_weight,
    true_first_round_values,
)
from emgrid.profiler import (
    CLASSIFIER_256,
    HD_REGRESSOR_16,
    ProfilingModel,
    StandardizationParams,
    classify_attack,
    true_hds,
)
from emgrid.traceset import SPLIT_TEST, TraceArrays

KEY = bytes(range(16))
TARGET = LeakageModel(FIRST_ROUND_SBOX_INPUT, 0)
G21 = GridGeometry(2, 1, 1, 1.0, 1.0, (0.0, 0.0, 0.0))


def build_arrays(n, seed, positions, samples=None, key=KEY, split=SPLIT_TEST):
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    keys = np.tile(np.frombuffer(key, dtype=np.uint8), (n, 1))
    cts = encrypt_blocks(pts, expand_keys_batch(keys))
    if samples is None:
        samples = rng.normal(size=(n, 8))
    return TraceArrays(np.asarray(samples, dtype=np.float32), keys, pts, cts,
                       np.asarray(positions, dtype=np.int32),
                       np.full(n, split, dtype=np.uint8))


def uniform_classifier(m):
    return ProfilingModel(CLASSIFIER_256, np.zeros((256, m)), np.zeros(256),
                          StandardizationParams(np.zeros(m), np.ones(m)))


def oracle_regressor():
    return ProfilingModel(HD_REGRESSOR_16, np.eye(16), np.zeros(16),
                          StandardizationParams(np.zeros(16), np.ones(16)))


def hd_samples(arr):
    return TraceArrays(true_hds(arr).astype(np.float32), arr.keys,
                       arr.plaintexts, arr.ciphertexts, arr.positions,
                       arr.splits)


# ----------------------------------------------------------- classifier map

def test_classifier_grid_uniform_model_and_empty_cell():
    arr = build_arrays(200, 1, np.repeat([0], 200))
    h = evaluate_classifier_grid(uniform_classifier(8), arr, G21, SPLIT_TEST,
                                 TARGET)
    assert h.metric == "mean_rank"
    assert h.values[0] == 127.5
    assert h.values[1] == math.inf  # no traces at position 1


def test_classifier_grid_consistent_with_classify_attack():
    rng = np.random.default_rng(2)
    arr = build_arrays(300, 3, rng.integers(0, 2, 300))
    model = ProfilingModel(CLASSIFIER_256, rng.normal(size=(256, 8)),
                           rng.normal(size=256),
                           StandardizationParams(np.zeros(8), np.ones(8)))
    h = evaluate_classifier_grid(model, arr, G21, SPLIT_TEST, TARGET)
    for p in (0, 1):
        sub = arr.subset(arr.positions == p)
        labels = true_first_round_values(TARGET.kind, sub.plaintexts, sub.keys,
                                         TARGET.byte_index)
        expected, _ = classify_attack(model, sub, labels)
        assert h.values[p] == expected


def test_classifier_grid_threads_equal():
    rng = np.random.default_rng(4)
    geom = GridGeometry(3, 2, 1, 1.0, 1.0, (0.0, 0.0, 0.0))
    arr = build_arrays(600, 5, rng.integers(0, 6, 600))
    model = ProfilingModel(CLASSIFIER_256, rng.normal(size=(256, 8)),
                           rng.normal(size=256),
                           StandardizationParams(np.zeros(8), np.ones(8)))
    a = evaluate_classifier_grid(model, arr, geom, SPLIT_TEST, TARGET, threads=1)
    b = evaluate_classifier_grid(model, arr, geom, SPLIT_TEST, TARGET, threads=4)
    assert np.array_equal(a.values, b.values)


def test_classifier_grid_byte_mismatch_rejected():
    arr = build_arrays(10, 6, np.zeros(10))
    model = uniform_classifier(8)
    model.byte_index = 11
    with pytest.raises(ConfigError):
        evaluate_classifier_grid(model, arr, G21, SPLIT_TEST, TARGET)


def test_grid_position_outside_geometry_rejected():
    arr = build_arrays(10, 7, np.full(10, 5))
    with pytest.raises(ConfigError):
        evaluate_classifier_grid(uniform_classifier(8), arr, G21, SPLIT_TEST,
                                 TARGET)


# ------------------------------------------------------------------ SNR map

def test_snr_grid_peaks_at_leaky_position():
    # 256 value classes need ~1e4 traces/position for the noise floor bound
    rng = np.random.default_rng(10)
    n = 20000
    positions = np.repeat([0, 1], n // 2)
    arr = build_arrays(n, 11, positions)
    labels = true_first_round_values(FIRST_ROUND_SBOX_OUTPUT, arr.plaintexts,
                                     arr.keys, 0)
    samples = rng.normal(size=(n, 8)).astype(np.float32)
    leaky = positions == 0
    samples[leaky, 3] += 0.5 * hamming_weight(labels[leaky]).astype(np.float32)
    arr = TraceArrays(samples, arr.keys, arr.plaintexts, arr.ciphertexts,
                      arr.positions, arr.splits)
    h = evaluate_snr_grid(arr, G21, SPLIT_TEST,
                          LeakageModel(FIRST_ROUND_SBOX_OUTPUT, 0))
    assert h.metric == "peak_snr"
    assert h.values[0] > 0.3  # Var(0.5 HW) / 1 = 0.5 up to estimation error
    assert h.values[1] < 0.05  # pure noise stays near zero


def test_snr_grid_empty_split_rejected():
    arr = build_arrays(10, 12, np.zeros(10), split=0)
    with pytest.raises(ConfigError):
        evaluate_snr_grid(arr, G21, SPLIT_TEST, TARGET)


def test_snr_grid_last_round_hd_classes():
    # HD labels have 9 classes; a sample proportional to HD_5 shows up
    arr = build_arrays(3000, 13, np.zeros(3000))
    hds = true_hds(arr)
    rng = np.random.default_rng(14)
    samples = rng.normal(size=(3000, 4)).astype(np.float32)
    samples[:, 2] += hds[:, 5].astype(np.float32)
    arr = TraceArrays(samples, arr.keys, arr.plaintexts, arr.ciphertexts,
                      arr.positions, arr.splits)
    geom = GridGeometry(1, 1, 1, 1.0, 1.0, (0.0, 0.0, 0.0))
    h = evaluate_snr_grid(arr, geom, SPLIT_TEST, LeakageModel(LAST_ROUND_HD, 5))
    assert h.values[0] > 0.5


# ------------------------------------------------------------------ CPA map

def test_cpa_grid_last_round_discloses_at_leaky_position_only():
    n = 1200
    positions = np.repeat([0, 1], n // 2)
    arr = build_arrays(n, 20, positions)
    rng = np.random.default_rng(21)
    samples = rng.normal(size=(n, 16)).astype(np.float32)
    leaky = positions == 0
    samples[leaky] = true_hds(arr)[leaky].astype(np.float32)
    arr = TraceArrays(samples, arr.keys, arr.plaintexts, arr.ciphertexts,
                      arr.positions, arr.splits)
    disc, rank = evaluate_cpa_grid(arr, G21, SPLIT_TEST,
                                   LeakageModel(LAST_ROUND_HD, 0),
                                   checkpoint_interval=200)
    assert disc.metric == "traces_to_disclosure"
    assert disc.values[0] == 200
    assert disc.values[1] == math.inf
    assert rank.values[0] == 0.0
    assert rank.values[1] > 50


def test_cpa_grid_first_round_target():
    n = 600
    arr = build_arrays(n, 22, np.zeros(n))
    sbox_hw = np.zeros((n, 16), dtype=np.float32)
    for j in range(16):
        vals = SBOX[arr.plaintexts[:, j] ^ arr.keys[:, j]]
        sbox_hw[:, j] = hamming_weight(vals)
    arr = TraceArrays(sbox_hw, arr.keys, arr.plaintexts, arr.ciphertexts,
                      arr.positions, arr.splits)
    geom = GridGeometry(1, 1, 1, 1.0, 1.0, (0.0, 0.0, 0.0))
    disc, rank = evaluate_cpa_grid(arr, geom, SPLIT_TEST,
                                   LeakageModel(FIRST_ROUND_SBOX_OUTPUT, 0),
                                   checkpoint_interval=300)
    assert disc.values[0] == 300
    assert rank.values[0] == 0.0


def test_cpa_grid_first_round_correlates_hamming_weights():
    # Noiseless HW(S-box output) leakage correlates exactly (|r| = 1) with
    # the correct guess's Hamming-weight hypothesis, so every byte ranks
    # first at the very first checkpoint. Raw-value hypotheses correlate
    # only partially (r ~ 0.6) and need a second checkpoint here.
    n = 400
    arr = build_arrays(n, 40, np.zeros(n))
    leak = hamming_weight(SBOX[arr.plaintexts ^ arr.keys]).astype(np.float32)
    arr = TraceArrays(leak, arr.keys, arr.plaintexts, arr.ciphertexts,
                      arr.positions, arr.splits)
    geom = GridGeometry(1, 1, 1, 1.0, 1.0, (0.0, 0.0, 0.0))
    disc, rank = evaluate_cpa_grid(arr, geom, SPLIT_TEST,
                                   LeakageModel(FIRST_ROUND_SBOX_OUTPUT, 0),
                                   checkpoint_interval=50)
    assert disc.values[0] == 50
    assert rank.values[0] == 0.0


def test_cpa_grid_zero_leak_all_infinite():
    # one cell's 16-byte average has std ~18 under pure noise, so the
    # chance-level check needs a grid of cells to average over
    geom = GridGeometry(8, 8, 1, 1.0, 1.0, (0.0, 0.0, 0.0))
    per_pos = 400
    n = 64 * per_pos
    arr = build_arrays(n, 23, np.repeat(np.arange(64), per_pos))
    disc, rank = evaluate_cpa_grid(arr, geom, SPLIT_TEST,
                                   LeakageModel(LAST_ROUND_HD, 0),
                                   checkpoint_interval=400, threads=4)
    assert np.all(np.isinf(disc.values))
    assert abs(rank.values.mean() - 127.5) < 5


def test_cpa_grid_budget_zero_all_infinite():
    arr = build_arrays(400, 24, np.zeros(400))
    disc, _ = evaluate_cpa_grid(arr, G21, SPLIT_TEST,
                                LeakageModel(LAST_ROUND_HD, 0), budget=0)
    assert np.all(np.isinf(disc.values))


def test_cpa_grid_mixed_keys_rejected():
    arr = build_arrays(100, 25, np.zeros(100))
    keys = arr.keys.copy()
    keys[0] ^= 1
    arr = TraceArrays(arr.samples, keys, arr.plaintexts, arr.ciphertexts,
                      arr.positions, arr.splits)
    with pytest.raises(AnalysisError, match="fixed"):
        evaluate_cpa_grid(arr, G21, SPLIT_TEST, LeakageModel(LAST_ROUND_HD, 0))


def test_cpa_grid_threads_equal():
    n = 800
    positions = np.repeat([0, 1], n // 2)
    rng = np.random.default_rng(27)
    arr = build_arrays(n, 26, positions,
                       samples=rng.normal(size=(n, 16)).astype(np.float32))
    samples = arr.samples.copy()
    samples[positions == 0] = true_hds(arr)[positions == 0].astype(np.float32)
    arr = TraceArrays(samples, arr.keys, arr.plaintexts,
                      arr.ciphertexts, arr.positions, arr.splits)
    kwargs = dict(budget=None, checkpoint_interval=200)
    a = evaluate_cpa_grid(arr, G21, SPLIT_TEST, LeakageModel(LAST_ROUND_HD, 0),
                          threads=1, **kwargs)
    b = evaluate_cpa_grid(arr, G21, SPLIT_TEST, LeakageModel(LAST_ROUND_HD, 0),
                          threads=8, **kwargs)
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[1].values, b[1].values)


# --------------------------------------------------------------- hybrid map

def test_hybrid_grid_oracle_regressor_everywhere():
    n = 1000
    arr = hd_samples(build_arrays(n, 30, np.repeat([0, 1], n // 2)))
    disc, rank = evaluate_hybrid_grid(oracle_regressor(), arr, G21, SPLIT_TEST,
                                      checkpoint_interval=250)
    assert disc.values.tolist() == [250.0, 250.0]
    assert rank.values.tolist() == [0.0, 0.0]


def test_hybrid_grid_constant_regressor_all_infinite():
    n = 600
    arr = hd_samples(build_arrays(n, 31, np.repeat([0, 1], n // 2)))
    const = ProfilingModel(HD_REGRESSOR_16, np.zeros((16, 16)), np.zeros(16),
                           StandardizationParams(np.zeros(16), np.ones(16)))
    disc, rank = evaluate_hybrid_grid(const, arr, G21, SPLIT_TEST,
                                      checkpoint_interval=200)
    assert np.all(np.isinf(disc.values))
    assert rank.values.tolist() == [127.5, 127.5]


def test_hybrid_grid_threads_equal():
    n = 800
    arr = hd_samples(build_arrays(n, 32, np.repeat([0, 1], n // 2)))
    a = evaluate_hybrid_grid(oracle_regressor(), arr, G21, SPLIT_TEST,
                             checkpoint_interval=150, threads=1)
    b = evaluate_hybrid_grid(oracle_regressor(), arr, G21, SPLIT_TEST,
                             checkpoint_interval=150, threads=6)
    assert np.array_equal(a[0].values, b[0].values)
    assert np.array_equal(a[1].values, b[1].values)


def test_progress_callback_reports_each_position():
    n = 200
    arr = build_arrays(n, 33, np.repeat([0, 1], n // 2))
    seen = []
    evaluate_classifier_grid(uniform_classifier(8), arr, G21, SPLIT_TEST,
                             TARGET, progress=seen.append)
    assert sorted(e["position"] for e in seen) == [0, 1]
    assert all(e["traces"] == 100 for e in seen)
