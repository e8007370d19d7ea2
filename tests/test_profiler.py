"""Profiling model tests: standardization, training on planted signals,
prediction oracles, position selection, the hybrid attack, model files."""

import math

import numpy as np
import pytest

from emgrid.aes import encrypt_blocks, expand_keys_batch
from emgrid.errors import AnalysisError, ConfigError, DataFormatError
from emgrid.evaluation import evaluate_hybrid_grid
from emgrid.grid import GridGeometry
from emgrid.leakage import (
    FIRST_ROUND_SBOX_INPUT,
    LAST_ROUND_HD,
    LeakageModel,
    true_first_round_values,
    true_last_round_hds,
)
from emgrid.profiler import (
    CLASSIFIER_256,
    HD_REGRESSOR_16,
    ProfilingModel,
    StandardizationParams,
    TrainConfig,
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
from emgrid.traceset import SPLIT_TRAIN, TraceArrays

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
    _, s9 = encrypt_blocks(arr.plaintexts, expand_keys_batch(arr.keys),
                           return_round9_state=True)
    return true_last_round_hds(arr.ciphertexts, s9)


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
        TrainConfig(data_cap=16, batch_size=64)


def test_second_half_mean():
    assert second_half_mean([1.0, 2.0, 3.0, 4.0]) == 3.0
    assert second_half_mean([1.0, 2.0, 3.0, 4.0, 5.0]) == 4.0
    assert second_half_mean([7.0]) == 7.0
    with pytest.raises(AnalysisError):
        second_half_mean([])


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
    disc, rank = evaluate_hybrid_grid(regressor, attack, G11, SPLIT_TRAIN,
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


def test_model_file_bad_version(tmp_path):
    model = identity_model(HD_REGRESSOR_16, 4, 16)
    path = tmp_path / "v.emmod"
    save_model(model, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError):
        load_model(path)
