"""Profiling model tests: standardization, training on planted signals,
prediction oracles, position selection, the hybrid attack, model files."""

import math
import tracemalloc

import numpy as np
import pytest

from emgrid import profiler
from emgrid.aes import encrypt_blocks, expand_keys_batch
from emgrid.distinguishers import rank_of
from emgrid.errors import AnalysisError, ConfigError, DataFormatError
from emgrid.evaluation import evaluate_hybrid_grid
from emgrid.grid import GridGeometry
from emgrid.leakage import (
    FIRST_ROUND_SBOX_INPUT,
    LAST_ROUND_HD,
    LeakageModel,
    true_first_round_values,
)
from emgrid.profiler import (
    CLASSIFIER_256,
    HD_REGRESSOR_16,
    ProfilingModel,
    StandardizationParams,
    TrainConfig,
    _apply_data_cap,
    _softmax,
    classify_attack,
    fit_standardization,
    load_model,
    multiplace_train,
    predict_hd,
    predict_proba,
    save_model,
    second_half_mean,
    select_leaky_positions,
    select_top_n_positions,
    train_classifier,
    train_hd_regressor,
)
from emgrid.traceset import TraceArrays
from final_round import last_round_hds
from positions import by_position

KEY = bytes(range(16))
TARGET = LeakageModel(FIRST_ROUND_SBOX_INPUT, 0)
G11 = GridGeometry(1, 1, 1, 1.0, 1.0, (0.0, 0.0, 0.0))


def make_arrays(samples, seed=0, key=KEY, positions=None):
    """Wrap sample rows with consistent AES fields (random plaintexts)."""
    n = samples.shape[0]
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    keys = np.tile(np.frombuffer(key, dtype=np.uint8), (n, 1))
    cts = encrypt_blocks(pts, expand_keys_batch(keys))
    if positions is None:
        positions = np.zeros(n, dtype=np.int32)
    return TraceArrays(np.asarray(samples, dtype=np.float32), keys, pts, cts,
                       np.asarray(positions, dtype=np.int32),
                       np.zeros(n, dtype=np.uint8))


def onehot_arrays(n, seed, scale=5.0):
    """Noiseless linearly separable toy: sample s fires iff the sbox-input
    label equals s (m = 256)."""
    arr = make_arrays(np.zeros((n, 256), dtype=np.float32), seed=seed)
    labels = true_first_round_values(TARGET.kind, arr.plaintexts, arr.keys,
                                     TARGET.byte_index)
    samples = np.zeros((n, 256), dtype=np.float32)
    samples[np.arange(n), labels] = scale
    return TraceArrays(samples, arr.keys, arr.plaintexts, arr.ciphertexts,
                       arr.positions, arr.splits), labels


def labels_of(arr):
    return true_first_round_values(TARGET.kind, arr.plaintexts, arr.keys,
                                   TARGET.byte_index)


def true_hds_of(arr):
    return last_round_hds(arr.keys, arr.plaintexts, arr.ciphertexts)


# --------------------------------------------------------- standardization

def test_fit_standardization_hand_example():
    p = fit_standardization(np.array([[0.0, 0.0], [2.0, 2.0]]))
    assert np.allclose(p.mean, [1.0, 1.0])
    assert np.allclose(p.std, [math.sqrt(2)] * 2)


def test_fit_standardization_constant_column_guard():
    p = fit_standardization(np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]]))
    assert p.std[0] == 1.0
    assert p.std[1] == pytest.approx(1.0)  # std of {1,2,3} is 1


def test_fit_standardization_order_invariant():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(50, 4))
    a = fit_standardization(x)
    b = fit_standardization(x[rng.permutation(50)])
    assert np.allclose(a.mean, b.mean, rtol=1e-12, atol=1e-12)
    assert np.allclose(a.std, b.std, rtol=1e-12, atol=1e-12)


def test_fit_standardization_empty_rejected():
    with pytest.raises(AnalysisError):
        fit_standardization(np.zeros((0, 4)))


def whole_matrix_standardization(samples) -> StandardizationParams:
    """Reference fit: the mean and std(ddof=1) of the whole float64 matrix."""
    x = np.asarray(samples, dtype=np.float64)
    std = x.std(axis=0, ddof=1) if len(x) > 1 else np.zeros(x.shape[1])
    return StandardizationParams(x.mean(axis=0), np.where(std < 1e-12, 1.0, std))


@pytest.mark.parametrize("n", [1, 2, 3, 257])
@pytest.mark.parametrize("extra", [0, 1, 2, 37])
def test_fit_standardization_blocks_match_whole_matrix(n, extra):
    """Column blocks give the whole-matrix mean and std bit for bit: on one
    block, on several, and with a last block of one, two or 37 columns."""
    block = profiler._STD_BLOCK
    for m in (extra, block + extra, 3 * block + extra):
        if m == 0:
            continue
        rng = np.random.default_rng(m * 1000 + n)
        x = (rng.normal(size=(n, m)) * rng.uniform(0.1, 20, m)
             + rng.uniform(-50, 50, m)).astype(np.float32)
        x[:, m // 2] = 3.25  # a constant column
        got = fit_standardization(x)
        want = whole_matrix_standardization(x)
        assert got.mean.tobytes() == want.mean.tobytes(), (n, m)
        assert got.std.tobytes() == want.std.tobytes(), (n, m)
        assert got.std[m // 2] == 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_standardization_apply_leaves_input_unchanged(dtype):
    rng = np.random.default_rng(3)
    x = rng.normal(2.0, 3.0, size=(40, 6)).astype(dtype)
    before = x.copy()
    p = fit_standardization(x)
    z = p.apply(x)
    assert z.dtype == np.float64 and z is not x
    assert np.array_equal(x, before)
    want = (x.astype(np.float64) - p.mean) / p.std
    assert z.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [0, 1, 255, 256, 600])
def test_standardization_apply_blocks_match_whole_matrix(n):
    """Every element of apply's float64 output is the whole-matrix value
    (x - mean) / std, for a matrix of any height and for a single row."""
    rng = np.random.default_rng(4)
    x = rng.normal(2.0, 3.0, size=(n, 7)).astype(np.float32)
    p = StandardizationParams(rng.normal(size=7), rng.uniform(0.5, 2.0, 7))
    want = (x.astype(np.float64) - p.mean) / p.std
    assert p.apply(x).tobytes() == want.tobytes()
    if n:
        assert p.apply(x[0]).tobytes() == want[0].tobytes()


# ----------------------------------------------------------- training toys

def test_classifier_separable_toy_reaches_near_zero_rank():
    train, _ = onehot_arrays(4096, seed=1)
    val, val_labels = onehot_arrays(512, seed=2)
    cfg = TrainConfig(learning_rate=0.5, batch_size=64, epochs=8,
                      steps_per_epoch=100, seed=3)
    res = train_classifier(train, val, TARGET, cfg)
    assert res.val_history[-1] < 1.0
    mean_rank, _ = classify_attack(res.model, val, val_labels)
    assert mean_rank < 1.0


def test_classifier_zero_epochs_is_chance_level():
    train, _ = onehot_arrays(512, seed=4)
    val, val_labels = onehot_arrays(2048, seed=5)
    cfg = TrainConfig(epochs=0, seed=6)
    res = train_classifier(train, val, TARGET, cfg)
    assert res.val_history == []
    mean_rank, _ = classify_attack(res.model, val, val_labels)
    assert abs(mean_rank - 127.5) < 3.0


def test_classifier_same_seed_identical():
    train, _ = onehot_arrays(256, seed=8)
    val, _ = onehot_arrays(64, seed=9)
    cfg = TrainConfig(epochs=2, steps_per_epoch=10, seed=11)
    a = train_classifier(train, val, TARGET, cfg)
    b = train_classifier(train, val, TARGET, cfg)
    assert np.array_equal(a.model.weights, b.model.weights)
    assert np.array_equal(a.model.bias, b.model.bias)
    assert a.val_history == b.val_history


def test_classifier_rejects_wrong_target_kind():
    train, _ = onehot_arrays(64, seed=1)
    with pytest.raises(ConfigError):
        train_classifier(train, train, LeakageModel(LAST_ROUND_HD, 0),
                         TrainConfig(epochs=1))


def test_regressor_planted_linear_signal():
    # sample k carries HD_k exactly; a linear model can invert this
    base = make_arrays(np.zeros((4096, 16), dtype=np.float32), seed=20)
    train = TraceArrays(true_hds_of(base).astype(np.float32), base.keys,
                        base.plaintexts, base.ciphertexts, base.positions,
                        base.splits)
    vbase = make_arrays(np.zeros((1024, 16), dtype=np.float32), seed=21)
    val = TraceArrays(true_hds_of(vbase).astype(np.float32), vbase.keys,
                      vbase.plaintexts, vbase.ciphertexts, vbase.positions,
                      vbase.splits)
    cfg = TrainConfig(learning_rate=0.3, batch_size=64, epochs=12,
                      steps_per_epoch=100, seed=22)
    res = train_hd_regressor(train, val, cfg)
    assert res.val_history[-1] < 0.01


def test_regressor_zero_signal_converges_to_hd_variance():
    # with noise-only traces the best model is the constant mean; per-output
    # variance of an 8-bit Hamming distance is 8 * 1/4 = 2
    rng = np.random.default_rng(30)
    train = make_arrays(rng.normal(size=(2048, 8)).astype(np.float32), seed=31)
    val = make_arrays(rng.normal(size=(4096, 8)).astype(np.float32), seed=32)
    cfg = TrainConfig(learning_rate=0.2, batch_size=64, epochs=10,
                      steps_per_epoch=100, seed=33)
    res = train_hd_regressor(train, val, cfg)
    assert abs(res.val_history[-1] - 2.0) < 0.2


def test_regressor_same_seed_identical():
    rng = np.random.default_rng(40)
    train = make_arrays(rng.normal(size=(128, 8)).astype(np.float32), seed=41)
    cfg = TrainConfig(epochs=2, steps_per_epoch=5, seed=42)
    a = train_hd_regressor(train, train, cfg)
    b = train_hd_regressor(train, train, cfg)
    assert np.array_equal(a.model.weights, b.model.weights)


def test_training_rejects_empty_sets():
    train, _ = onehot_arrays(16, seed=1)
    empty = train.subset(np.zeros(16, dtype=bool))
    with pytest.raises(AnalysisError):
        train_classifier(empty, train, TARGET, TrainConfig(epochs=1))
    with pytest.raises(AnalysisError):
        train_classifier(train, empty, TARGET, TrainConfig(epochs=1))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        TrainConfig(data_cap=0)
    with pytest.raises(ConfigError):
        TrainConfig(seed=-1)
    # A cap below the batch size is a classifier fault only: the regressor
    # takes no batches.
    arrays = make_arrays(np.random.default_rng(1).normal(size=(32, 4)))
    capped = TrainConfig(data_cap=16, batch_size=64)
    with pytest.raises(ConfigError, match="batch_size"):
        train_classifier(arrays, arrays, TARGET, capped)
    assert train_hd_regressor(arrays, arrays, capped).n_train == 16
    # A non-finite rate would train a NaN model whose validation rank reads
    # better than perfect.
    for rate in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=rate)


def test_second_half_mean():
    assert second_half_mean([1.0, 2.0, 3.0, 4.0]) == 3.0
    assert second_half_mean([1.0, 2.0, 3.0, 4.0, 5.0]) == 4.0
    assert second_half_mean([7.0]) == 7.0
    with pytest.raises(AnalysisError):
        second_half_mean([])


# ------------------------------------------ per-minibatch training oracle

def reference_train_loop(X, Y, X_val, val_labels, config, stdz,
                         dtype=np.float32):
    """Seeded classifier SGD in dtype that standardizes every minibatch and
    the validation matrix anew at each use, in float64, and then rounds them
    to dtype. Standardizing once per run and stepping in place must match
    it bit for bit at float32: each element goes through the same float32 ->
    float64, subtract, divide, round, and each step through the same
    float32 operations. At float64 it is the SGD loop of float64 training."""
    n, m = X.shape
    rng = np.random.default_rng(config.seed)
    W = rng.normal(0.0, 0.01, (256, m)).astype(dtype)
    b = np.zeros(256, dtype)
    lr = dtype(config.learning_rate)
    batch = min(config.batch_size, n)
    history = []
    for _ in range(config.epochs):
        perm = rng.permutation(n)
        cursor = 0
        for _ in range(config.steps_per_epoch):
            if cursor + batch > n:
                perm = rng.permutation(n)
                cursor = 0
            idx = perm[cursor:cursor + batch]
            cursor += batch
            Xb = stdz.apply(X[idx]).astype(dtype)
            p = _softmax(Xb @ W.T + b)
            p[np.arange(batch), Y[idx]] -= 1.0
            g = p / batch
            W -= lr * (g.T @ Xb)
            b -= lr * g.sum(axis=0)
        out = stdz.apply(X_val).astype(dtype) @ W.T + b
        history.append(float(rank_of(_softmax(out), val_labels).mean()))
    return W, b, history


def reference_train(train, val, config, dtype=np.float32):
    train = _apply_data_cap(train, config)
    stdz = fit_standardization(train.samples)
    y, y_val = labels_of(train).astype(np.int64), labels_of(val).astype(np.int64)
    return reference_train_loop(train.samples, y, val.samples, y_val, config,
                                stdz, dtype)


def train_kind(kind, train, val, config):
    if kind == CLASSIFIER_256:
        return train_classifier(train, val, TARGET, config)
    return train_hd_regressor(train, val, config)


def copied(arrays):
    """A TraceArrays whose fields are copies, sharing no memory."""
    return arrays.subset(np.arange(len(arrays)))


def offset_noise_arrays(n, m, seed):
    """Gaussian samples with per-column offsets and scales, so that
    standardization changes every column."""
    rng = np.random.default_rng(seed)
    loc = rng.uniform(-3.0, 3.0, m)
    scale = rng.uniform(0.1, 4.0, m)
    return make_arrays(rng.normal(loc, scale, (n, m)).astype(np.float32),
                       seed=seed + 1)


ORACLE_CASES = {
    # n = 1000 is not a multiple of the batch of 64
    "ragged-batches": (1000, dict(batch_size=64, epochs=3, steps_per_epoch=10)),
    # 9 steps of 64 over 200 traces wrap the permutation mid-epoch
    "mid-epoch-wraparound": (200, dict(batch_size=64, epochs=3,
                                       steps_per_epoch=9)),
    "data-cap": (1000, dict(batch_size=64, epochs=2, steps_per_epoch=8,
                            data_cap=300)),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
@pytest.mark.parametrize("kind", [CLASSIFIER_256])
def test_training_matches_per_minibatch_oracle(kind, case):
    n, params = ORACLE_CASES[case]
    train = offset_noise_arrays(n, 24, seed=90)
    val = offset_noise_arrays(150, 24, seed=92)
    cfg = TrainConfig(learning_rate=0.05, seed=94, **params)
    W, b, history = reference_train(train, val, cfg)
    res = train_kind(kind, train, val, cfg)
    assert np.array_equal(res.model.weights, W)
    assert np.array_equal(res.model.bias, b)
    assert res.val_history == history
    assert len(history) == cfg.epochs


@pytest.mark.parametrize("epochs, steps", [(0, 1), (1, 1), (4, 7)])
@pytest.mark.parametrize("kind", [CLASSIFIER_256])
def test_training_standardizes_train_and_val_once(monkeypatch, kind, epochs,
                                                  steps):
    calls = []
    apply = StandardizationParams.apply

    def counted(self, samples):
        calls.append(len(samples))
        return apply(self, samples)

    monkeypatch.setattr(StandardizationParams, "apply", counted)
    train = offset_noise_arrays(100, 8, seed=96)
    val = offset_noise_arrays(40, 8, seed=98)
    cfg = TrainConfig(batch_size=16, epochs=epochs, steps_per_epoch=steps,
                      seed=99)
    train_kind(kind, train, val, cfg)
    assert calls == [len(train), len(val)]


def planted_arrays(n, seed):
    """offset_noise_arrays with the label's Hamming weight added to column 3
    and its low bit to column 7, so the classifier learns something."""
    arr = offset_noise_arrays(n, 32, seed)
    y = labels_of(arr)
    arr.samples[:, 3] += 2.0 * np.unpackbits(y[:, None], axis=1).sum(axis=1)
    arr.samples[:, 7] += y & 1
    return arr


@pytest.mark.parametrize("lr", [0.05, 0.5])
def test_float32_training_tracks_the_float64_loop(lr):
    """Training steps in float32. On the same seed and data, every epoch's
    validation mean rank stays within 0.01 (ten traces of 1,000 moving one
    rank) of the float64 SGD loop, and the weights within 1e-4."""
    train, val = planted_arrays(3000, seed=120), planted_arrays(1000, seed=122)
    cfg = TrainConfig(learning_rate=lr, batch_size=64, epochs=20,
                      steps_per_epoch=50, seed=124)
    W, b, history = reference_train(train, val, cfg, np.float64)
    res = train_classifier(train, val, TARGET, cfg)
    assert history[-1] < 120.0  # it learned
    assert len(res.val_history) == len(history)
    assert np.max(np.abs(np.subtract(res.val_history, history))) <= 0.01
    assert np.max(np.abs(res.model.weights - W)) <= 1e-4
    assert np.max(np.abs(res.model.bias - b)) <= 1e-4


@pytest.mark.parametrize("rows", [1, 7, 1000])
def test_float32_standardization_rounds_the_float64_one_once(monkeypatch,
                                                              rows):
    """Blocks of any height give the whole float64 standardization rounded
    once to float32, never float32 arithmetic."""
    x = offset_noise_arrays(100, 24, seed=126).samples
    stdz = fit_standardization(x)
    monkeypatch.setattr(profiler, "_ROUND_BLOCK_BYTES", rows * 8 * 24)
    got = profiler._standardized32(stdz, x)
    assert got.dtype == np.float32
    assert got.tobytes() == stdz.apply(x).astype(np.float32).tobytes()


def test_classifier_training_peak_memory_under_float64_copies():
    """The classifier holds float32 standardized copies, filled through one
    float64 block at a time: its traced peak stays under three quarters of
    the float64 copies of the train and validation samples (8 · (n + n_val)
    · m bytes) that float64 training held at once."""
    train = offset_noise_arrays(4096, 512, seed=128)
    val = offset_noise_arrays(512, 512, seed=130)
    float64_copies = 8 * (len(train) + len(val)) * 512
    tracemalloc.start()
    try:
        train_classifier(train, val, TARGET,
                         TrainConfig(epochs=1, steps_per_epoch=3, seed=132))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * float64_copies, (peak, float64_copies)


# ------------------------------------------------- least-squares regressor

def lstsq_oracle(train, val):
    """The regressor's optimum in float64: np.linalg.lstsq (the minimum-norm
    solution) on explicitly standardized samples against centred targets,
    with the mean target as bias; also that model's validation MSE."""
    stdz = fit_standardization(train.samples)
    Z = (train.samples.astype(np.float64) - stdz.mean) / stdz.std
    Y = true_hds_of(train).astype(np.float64)
    b = Y.mean(axis=0)
    W = np.linalg.lstsq(Z, Y - b, rcond=None)[0].T
    Z_val = (val.samples.astype(np.float64) - stdz.mean) / stdz.std
    mse = float(np.mean((Z_val @ W.T + b - true_hds_of(val)) ** 2))
    return W, b, mse


def leaky_arrays(n, m, seed, offset=0.0, constant=None):
    """Samples that mix the 16 true Hamming distances into m columns under
    unit noise, the mixing and column scales fixed by m. Each column is
    shifted by offset times its std; column `constant`, if given, holds one
    value."""
    params = np.random.default_rng(m)
    mix = params.normal(0.0, 0.3, (16, m))
    scale = params.uniform(0.5, 2.0, m)
    std = np.sqrt(2.0 * (mix ** 2).sum(axis=0) + 1.0)  # an HD's variance is 2
    base = make_arrays(np.zeros((n, m), dtype=np.float32), seed=seed)
    noise = np.random.default_rng(seed + 1).normal(size=(n, m))
    x = (true_hds_of(base) @ mix + noise + offset * std) * scale
    if constant is not None:
        x[:, constant] = 7.0
    return TraceArrays(x.astype(np.float32), base.keys, base.plaintexts,
                       base.ciphertexts, base.positions, base.splits)


REGRESSOR_CASES = {
    "n>m": dict(n=600, m=24),
    # fewer traces than samples: the fit from zero is the minimum-norm one
    "n<m": dict(n=40, m=120),
    "constant-column": dict(n=300, m=20, constant=5),
    "offset-1000-sigma": dict(n=600, m=24, offset=1000.0),
}


@pytest.mark.parametrize("case", REGRESSOR_CASES)
def test_regressor_matches_lstsq_oracle(case):
    params = dict(REGRESSOR_CASES[case])
    n, m = params.pop("n"), params.pop("m")
    train = leaky_arrays(n, m, seed=120, **params)
    val = leaky_arrays(200, m, seed=122, **params)
    res = train_hd_regressor(train, val, TrainConfig(seed=124))
    W, b, mse = lstsq_oracle(train, val)
    assert np.array_equal(res.model.bias, b)
    assert np.linalg.norm(res.model.weights - W) <= 1e-2 * np.linalg.norm(W)
    assert res.val_history == [pytest.approx(mse, rel=1e-2)]
    assert 0 < res.iterations < profiler._CG_MAX_ITER
    if "constant" in params:
        assert not res.model.weights[:, params["constant"]].any()


@pytest.mark.parametrize("rows", [7, 4096])
def test_folded_products_match_the_standardized_matrix(monkeypatch, rows):
    """The fit's products with the standardized samples, which it never
    forms, match the float64 products with them, also when they run in row
    blocks."""
    monkeypatch.setattr(profiler, "_PRODUCT_ROWS", rows)
    x = leaky_arrays(100, 24, seed=144, offset=3.0).samples
    stdz = fit_standardization(x)
    Z = stdz.apply(x)
    rng = np.random.default_rng(146)
    P, R = rng.normal(size=(24, 16)), rng.normal(size=(100, 16))
    args = x, stdz.mean, 1.0 / stdz.std
    for got, want in ((profiler._z_times(*args, P), Z @ P),
                      (profiler._zt_times(*args, R), Z.T @ R)):
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def test_regressor_without_target_variance_fits_no_weights():
    """One trace, or traces that share plaintext and key, leave no target
    variance, and constant samples explain none: no iteration runs, the
    weights stay 0 and the bias is the mean Hamming distance."""
    one = leaky_arrays(1, 8, seed=126)
    arr = leaky_arrays(50, 8, seed=128)
    same = TraceArrays(arr.samples, np.repeat(arr.keys[:1], 50, axis=0),
                       np.repeat(arr.plaintexts[:1], 50, axis=0),
                       np.repeat(arr.ciphertexts[:1], 50, axis=0),
                       arr.positions, arr.splits)
    # 0.1 and 1234.5678 have no exact float32 sum: rounding must not leak in
    flat = make_arrays(np.tile(np.float32([0.1, 1234.5678, 7.0]), (50, 1)),
                       seed=130)
    for train in (one, same, flat):
        res = train_hd_regressor(train, train, TrainConfig())
        assert res.iterations == 0
        assert not res.model.weights.any()
        assert np.array_equal(res.model.bias, true_hds_of(train).mean(axis=0))
        assert res.val_history == [pytest.approx(
            float(true_hds_of(train).var(axis=0).mean()))]


def test_regressor_reads_read_only_samples_and_leaves_them():
    train = leaky_arrays(300, 16, seed=130)
    val = leaky_arrays(100, 16, seed=132)
    before = train.samples.tobytes(), val.samples.tobytes()
    train.samples.flags.writeable = False
    val.samples.flags.writeable = False
    cfg = TrainConfig(seed=134)
    direct = train_hd_regressor(train, val, cfg)
    multi = multiplace_train(train, val, [0], TARGET, cfg, kind=HD_REGRESSOR_16)
    assert np.array_equal(direct.model.weights, multi.model.weights)
    assert (train.samples.tobytes(), val.samples.tobytes()) == before


def test_regressor_reruns_write_identical_model_files(tmp_path):
    """The fit is deterministic and the SGD hyperparameters do not touch it:
    reruns, also under other ones, write the same model file bytes."""
    train = leaky_arrays(500, 40, seed=136)
    val = leaky_arrays(100, 40, seed=138)
    configs = (TrainConfig(seed=140), TrainConfig(seed=140),
               TrainConfig(learning_rate=0.5, batch_size=8, epochs=1,
                           steps_per_epoch=3, seed=140))
    files = []
    for i, cfg in enumerate(configs):
        res = train_hd_regressor(copied(train), copied(val), cfg)
        save_model(res.model, tmp_path / f"reg{i}.emmod")
        files.append((tmp_path / f"reg{i}.emmod").read_bytes())
    assert files[0] == files[1] == files[2]


def test_regressor_overflow_raises_analysis_error():
    rng = np.random.default_rng(142)
    train = make_arrays((rng.choice([-3e38, 3e38], (64, 4))).astype(np.float32),
                        seed=143)
    with pytest.raises(AnalysisError, match="overflow"):
        train_hd_regressor(train, train, TrainConfig())


def test_regressor_training_peak_memory_near_sample_size(tmp_path):
    """The fit only reads the float32 samples: its traced peak is well under
    one more copy of them. The standardization fit's float64 column blocks
    set it (a quarter of the samples' size at m = 1,024); the targets and
    (n, 16) residuals add little. Its model is float64, and a model file
    round-trips it unchanged."""
    train = offset_noise_arrays(4096, 1024, seed=100)
    val = offset_noise_arrays(256, 1024, seed=102)
    size = train.samples.nbytes
    tracemalloc.start()
    try:
        res = train_hd_regressor(train, val, TrainConfig(seed=104))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.35 * size, (peak, size)
    model = res.model
    assert model.weights.dtype == np.float64 and model.bias.dtype == np.float64
    path = tmp_path / "reg.emmod"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.weights.tobytes() == model.weights.tobytes()
    assert loaded.bias.tobytes() == model.bias.tobytes()


@pytest.mark.parametrize("kind", [CLASSIFIER_256, HD_REGRESSOR_16])
def test_training_leaves_callers_samples_unchanged(kind):
    """train_classifier and train_hd_regressor never write to their inputs,
    nor does multiplace_train when a dropped position makes it copy."""
    train = offset_noise_arrays(200, 12, seed=106)
    train.positions[100:] = 1
    val = offset_noise_arrays(60, 12, seed=108)
    before = train.samples.tobytes(), val.samples.tobytes()
    cfg = TrainConfig(batch_size=16, epochs=2, steps_per_epoch=5, seed=110)
    train_kind(kind, train, val, cfg)
    assert (train.samples.tobytes(), val.samples.tobytes()) == before
    res = multiplace_train(train, val, [0], TARGET, cfg, kind=kind)
    assert res.n_train == 100
    assert (train.samples.tobytes(), val.samples.tobytes()) == before


# -------------------------------------------------------------- prediction

def identity_model(kind, m, outputs, w_scale=0.0, bias=None):
    W = np.zeros((outputs, m)) if w_scale == 0.0 else w_scale * np.eye(outputs, m)
    b = np.zeros(outputs) if bias is None else np.asarray(bias, dtype=np.float64)
    return ProfilingModel(kind, W, b,
                          StandardizationParams(np.zeros(m), np.ones(m)))


def test_predict_proba_zero_weights_uniform():
    model = identity_model(CLASSIFIER_256, 8, 256)
    p = predict_proba(model, np.ones(8))
    assert np.allclose(p, 1.0 / 256)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_predict_proba_logit_shift_invariance():
    rng = np.random.default_rng(50)
    model = ProfilingModel(CLASSIFIER_256, rng.normal(size=(256, 8)),
                           rng.normal(size=256),
                           StandardizationParams(np.zeros(8), np.ones(8)))
    shifted = ProfilingModel(CLASSIFIER_256, model.weights, model.bias + 13.75,
                             model.standardization)
    t = rng.normal(size=8)
    assert np.allclose(predict_proba(model, t), predict_proba(shifted, t),
                       rtol=1e-12, atol=1e-15)


def test_predict_proba_matches_direct_recomputation():
    rng = np.random.default_rng(51)
    mean, std = rng.normal(size=8), np.abs(rng.normal(size=8)) + 0.5
    W, b = rng.normal(size=(256, 8)), rng.normal(size=256)
    model = ProfilingModel(CLASSIFIER_256, W, b, StandardizationParams(mean, std))
    t = rng.normal(size=8)
    logits = W @ ((t - mean) / std) + b
    e = np.exp(logits - logits.max())
    assert np.allclose(predict_proba(model, t), e / e.sum(), rtol=1e-12)


def test_predict_hd_zero_weights_returns_bias():
    b = np.arange(16, dtype=np.float64)
    model = identity_model(HD_REGRESSOR_16, 8, 16, bias=b)
    assert np.array_equal(predict_hd(model, np.ones(8)), b)


def test_predict_hd_matches_matrix_oracle():
    rng = np.random.default_rng(52)
    mean, std = rng.normal(size=8), np.abs(rng.normal(size=8)) + 0.5
    W, b = rng.normal(size=(16, 8)), rng.normal(size=16)
    model = ProfilingModel(HD_REGRESSOR_16, W, b, StandardizationParams(mean, std))
    traces = rng.normal(size=(5, 8))
    expected = ((traces - mean) / std) @ W.T + b
    assert np.allclose(predict_hd(model, traces), expected, rtol=1e-12)


def test_predict_kind_mismatch_rejected():
    clf = identity_model(CLASSIFIER_256, 4, 256)
    reg = identity_model(HD_REGRESSOR_16, 4, 16)
    with pytest.raises(ConfigError):
        predict_proba(reg, np.zeros(4))
    with pytest.raises(ConfigError):
        predict_hd(clf, np.zeros(4))


def test_predict_trace_length_mismatch():
    model = identity_model(HD_REGRESSOR_16, 4, 16)
    with pytest.raises(AnalysisError):
        predict_hd(model, np.zeros(5))


# ------------------------------------------------------- position selection

def test_select_leaky_positions_examples():
    assert select_leaky_positions(np.full(9, 127.5)) == set()
    v = np.full(9, 127.0)
    v[4] = 90.0
    assert select_leaky_positions(v) == {4}
    # boundary is inclusive
    assert select_leaky_positions(np.array([120.0, 120.001])) == {0}


def test_select_top_n_examples():
    v = np.array([50.0, 10.0, 30.0, 10.0])
    assert select_top_n_positions(v, 1) == [1]
    assert select_top_n_positions(v, 4) == [1, 3, 2, 0]  # tie 1 vs 3 by index
    with pytest.raises(ConfigError):
        select_top_n_positions(v, 5)


def test_select_top_n_ignores_unevaluated_cells():
    v = np.array([math.inf, 5.0, math.inf, 3.0])
    assert select_top_n_positions(v, 2) == [3, 1]
    with pytest.raises(ConfigError):
        select_top_n_positions(v, 3)


def test_select_top_n_matches_sort_oracle():
    rng = np.random.default_rng(60)
    v = rng.uniform(0, 200, size=40)
    got = select_top_n_positions(v, 40)
    expected = [int(i) for i in sorted(range(40), key=lambda p: (v[p], p))]
    assert got == expected


# ----------------------------------------------------------- multiplace

def test_multiplace_singleton_reduces_to_single_position():
    train, _ = onehot_arrays(512, seed=70)
    train = TraceArrays(train.samples, train.keys, train.plaintexts,
                        train.ciphertexts,
                        np.repeat(np.arange(4, dtype=np.int32), 128),
                        train.splits)
    val, _ = onehot_arrays(128, seed=71)
    val = TraceArrays(val.samples, val.keys, val.plaintexts, val.ciphertexts,
                      np.repeat(np.arange(4, dtype=np.int32), 32), val.splits)
    cfg = TrainConfig(epochs=2, steps_per_epoch=10, seed=72)
    multi = multiplace_train(train, val, {2}, TARGET, cfg)
    mask = train.positions == 2
    single = train_classifier(train.subset(mask), val.subset(val.positions == 2),
                              TARGET, cfg)
    assert np.array_equal(multi.model.weights, single.model.weights)
    assert np.array_equal(multi.model.bias, single.model.bias)
    assert multi.model.positions == (2,)


def test_multiplace_union_and_metadata():
    train, _ = onehot_arrays(300, seed=73)
    train = TraceArrays(train.samples, train.keys, train.plaintexts,
                        train.ciphertexts,
                        np.repeat(np.arange(3, dtype=np.int32), 100),
                        train.splits)
    val, _ = onehot_arrays(64, seed=74)
    val = TraceArrays(val.samples, val.keys, val.plaintexts, val.ciphertexts,
                      np.full(64, 0, dtype=np.int32), val.splits)
    cfg = TrainConfig(epochs=1, steps_per_epoch=5, seed=75)
    res = multiplace_train(train, val, [2, 0], TARGET, cfg)
    assert res.model.positions == (0, 2)
    with pytest.raises(ConfigError):
        multiplace_train(train, val, [], TARGET, cfg)
    with pytest.raises(AnalysisError):
        multiplace_train(train, val, [9], TARGET, cfg)


@pytest.mark.parametrize("positions,copies", [([0, 1, 2], 0), ([0, 2], 2)])
def test_multiplace_copies_only_when_a_position_is_dropped(monkeypatch,
                                                            positions, copies):
    train, _ = onehot_arrays(300, seed=78)
    train = TraceArrays(train.samples, train.keys, train.plaintexts,
                        train.ciphertexts,
                        np.repeat(np.arange(3, dtype=np.int32), 100),
                        train.splits)
    val, _ = onehot_arrays(60, seed=79)
    val = TraceArrays(val.samples, val.keys, val.plaintexts, val.ciphertexts,
                      np.repeat(np.arange(3, dtype=np.int32), 20), val.splits)
    calls = []
    subset = TraceArrays.subset

    def counting_subset(self, idx):
        calls.append(len(self))
        return subset(self, idx)

    monkeypatch.setattr(TraceArrays, "subset", counting_subset)
    cfg = TrainConfig(epochs=1, steps_per_epoch=5, seed=80)
    res = multiplace_train(train, val, positions, TARGET, cfg)
    assert len(calls) == copies
    assert res.n_train == 100 * len(positions)


def test_data_cap_at_union_size_is_identity():
    train, _ = onehot_arrays(256, seed=76)
    val, _ = onehot_arrays(64, seed=77)
    base = TrainConfig(epochs=2, steps_per_epoch=10, seed=78)
    capped = TrainConfig(epochs=2, steps_per_epoch=10, seed=78, data_cap=256)
    a = train_classifier(train, val, TARGET, base)
    b = train_classifier(train, val, TARGET, capped)
    assert np.array_equal(a.model.weights, b.model.weights)
    assert a.val_history == b.val_history


def test_data_cap_subsamples_deterministically():
    train, _ = onehot_arrays(512, seed=79)
    val, _ = onehot_arrays(64, seed=80)
    cfg = TrainConfig(epochs=2, steps_per_epoch=10, seed=81, data_cap=128)
    a = train_classifier(train, val, TARGET, cfg)
    b = train_classifier(train, val, TARGET, cfg)
    uncapped = train_classifier(train, val, TARGET,
                                TrainConfig(epochs=2, steps_per_epoch=10, seed=81))
    assert np.array_equal(a.model.weights, b.model.weights)
    assert not np.array_equal(a.model.weights, uncapped.model.weights)


# ---------------------------------------------------------------- attacks

def test_classify_attack_uniform_and_perfect():
    val, labels = onehot_arrays(400, seed=90)
    uniform = identity_model(CLASSIFIER_256, 256, 256)
    mean_rank, ranks = classify_attack(uniform, val, labels)
    assert mean_rank == 127.5
    assert np.all(ranks == 127.5)
    # identity weights on one-hot traces score the true class highest
    perfect = identity_model(CLASSIFIER_256, 256, 256, w_scale=1.0)
    mean_rank, ranks = classify_attack(perfect, val, labels)
    assert mean_rank == 0.0


def test_classify_attack_matches_composition_oracle():
    rng = np.random.default_rng(91)
    val, labels = onehot_arrays(50, seed=92)
    model = ProfilingModel(CLASSIFIER_256, rng.normal(size=(256, 256)),
                           rng.normal(size=256),
                           StandardizationParams(np.zeros(256), np.ones(256)))
    mean_rank, ranks = classify_attack(model, val, labels)
    probs = predict_proba(model, val.samples)
    expected = []
    for i, lab in enumerate(labels):
        own = probs[i, lab]
        expected.append((probs[i] > own).sum() + ((probs[i] == own).sum() - 1) / 2)
    assert np.allclose(ranks, expected)
    assert mean_rank == pytest.approx(float(np.mean(expected)))


def oracle_regressor(scale=1.0, shift=0.0):
    """predict_hd == scale * trace + shift; feeding true-HD traces through it
    yields (affinely transformed) true HDs."""
    return ProfilingModel(HD_REGRESSOR_16, scale * np.eye(16),
                          np.full(16, float(shift)),
                          StandardizationParams(np.zeros(16), np.ones(16)))


def hd_attack_arrays(n, seed):
    base = make_arrays(np.zeros((n, 16), dtype=np.float32), seed=seed)
    return TraceArrays(true_hds_of(base).astype(np.float32), base.keys,
                       base.plaintexts, base.ciphertexts, base.positions,
                       base.splits)


def hybrid(regressor, attack, **kwargs):
    """One-cell hybrid attack: (traces to disclosure, average final rank)."""
    disc, rank = evaluate_hybrid_grid(regressor, by_position(attack), G11,
                                      **kwargs)
    return disc.values[0], rank.values[0]


def test_hybrid_oracle_regressor_discloses_at_first_checkpoint():
    attack = hd_attack_arrays(1200, seed=100)
    assert hybrid(oracle_regressor(), attack, checkpoint_interval=500) \
        == (500, 0.0)


def test_hybrid_affine_invariance():
    attack = hd_attack_arrays(800, seed=101)
    a = hybrid(oracle_regressor(), attack, checkpoint_interval=300)
    b = hybrid(oracle_regressor(scale=3.25, shift=-7.0), attack,
               checkpoint_interval=300)
    assert a == b


def test_hybrid_constant_regressor_never_discloses():
    attack = hd_attack_arrays(600, seed=102)
    const = ProfilingModel(HD_REGRESSOR_16, np.zeros((16, 16)), np.full(16, 4.0),
                           StandardizationParams(np.zeros(16), np.ones(16)))
    assert hybrid(const, attack, checkpoint_interval=200) == (math.inf, 127.5)


def test_hybrid_budget_limits_traces():
    attack = hd_attack_arrays(900, seed=103)
    const = ProfilingModel(HD_REGRESSOR_16, np.zeros((16, 16)), np.zeros(16),
                           StandardizationParams(np.zeros(16), np.ones(16)))
    assert hybrid(const, attack, budget=400, checkpoint_interval=200)[0] \
        == math.inf
    # The stream stops at the budget and is judged there, before the first
    # checkpoint at 500 would come round.
    assert hybrid(oracle_regressor(), attack, budget=400,
                  checkpoint_interval=500) == (400, 0.0)


def test_hybrid_rejects_mixed_keys_and_wrong_kind():
    attack = hd_attack_arrays(64, seed=104)
    mixed_keys = attack.keys.copy()
    mixed_keys[0] ^= 0xFF
    mixed = TraceArrays(attack.samples, mixed_keys, attack.plaintexts,
                        attack.ciphertexts, attack.positions, attack.splits)
    with pytest.raises(AnalysisError):
        hybrid(oracle_regressor(), mixed)
    with pytest.raises(ConfigError):
        hybrid(identity_model(CLASSIFIER_256, 16, 256), attack)


# -------------------------------------------------------------- model files

def test_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(110)
    model = ProfilingModel(CLASSIFIER_256, rng.normal(size=(256, 12)),
                           rng.normal(size=256),
                           StandardizationParams(rng.normal(size=12),
                                                 np.abs(rng.normal(size=12)) + 0.1),
                           byte_index=11, positions=(3, 7), seed=99)
    path = tmp_path / "clf.emmod"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == CLASSIFIER_256
    assert np.array_equal(loaded.weights, model.weights)
    assert np.array_equal(loaded.bias, model.bias)
    assert np.array_equal(loaded.standardization.mean, model.standardization.mean)
    assert np.array_equal(loaded.standardization.std, model.standardization.std)
    assert loaded.byte_index == 11
    assert loaded.positions == (3, 7)
    assert loaded.seed == 99


def test_model_file_regressor_round_trip(tmp_path):
    rng = np.random.default_rng(111)
    model = ProfilingModel(HD_REGRESSOR_16, rng.normal(size=(16, 6)),
                           rng.normal(size=16),
                           StandardizationParams(np.zeros(6), np.ones(6)))
    path = tmp_path / "reg.emmod"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.kind == HD_REGRESSOR_16
    assert loaded.byte_index is None
    assert np.allclose(loaded.weights, model.weights)
    t = rng.normal(size=6)
    assert np.allclose(predict_hd(loaded, t), predict_hd(model, t))


def test_model_file_bad_magic(tmp_path):
    path = tmp_path / "bad.emmod"
    path.write_bytes(b"XXXX" + bytes(32))
    with pytest.raises(DataFormatError):
        load_model(path)


def test_model_file_truncated(tmp_path):
    model = identity_model(HD_REGRESSOR_16, 4, 16)
    path = tmp_path / "t.emmod"
    save_model(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(DataFormatError):
        load_model(path)


def test_model_file_nan_weight(tmp_path):
    model = identity_model(HD_REGRESSOR_16, 4, 16, w_scale=1.0)
    model.weights[3, 2] = math.nan
    path = tmp_path / "nan.emmod"
    save_model(model, path)
    with pytest.raises(DataFormatError, match="not finite"):
        load_model(path)


def test_model_file_bad_version(tmp_path):
    model = identity_model(HD_REGRESSOR_16, 4, 16)
    path = tmp_path / "v.emmod"
    save_model(model, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError):
        load_model(path)
