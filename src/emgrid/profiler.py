"""Trainable profiling models and the attacks built on them.

Two shallow linear models cover the profiled attacks: a 256-class softmax
classifier over an intermediate byte value, and a 16-output regressor
predicting the true last-round Hamming distances. Both standardize samples
per-index (parameters stored in the model, so attack-time preprocessing is
self-contained) and train with plain seeded mini-batch gradient descent;
training is a pure function of (data, config, seed).

The hybrid attack (evaluation.evaluate_hybrid_grid) runs the regressor over
every attack trace and feeds the 16-float outputs into last-round CPA as
pseudo-traces, turning a model that merely compresses leakage into a signal
amplifier for an unprofiled attack.
"""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .aes import encrypt_blocks, expand_keys_batch
from .errors import AnalysisError, ConfigError, DataFormatError
from .leakage import (
    FIRST_ROUND_SBOX_INPUT,
    FIRST_ROUND_SBOX_OUTPUT,
    LeakageModel,
    true_first_round_values,
    true_last_round_hds,
)
from .traceset import TraceArrays

CLASSIFIER_256 = "Classifier256"
HD_REGRESSOR_16 = "HdRegressor16"

MODEL_MAGIC = b"EMMD"
MODEL_FORMAT_VERSION = 1

_STD_FLOOR = 1e-12
# data_cap subsampling uses a seed derived from the training seed by one LCG
# step, so capping never perturbs the training RNG stream itself.
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407


@dataclass
class StandardizationParams:
    mean: np.ndarray  # (m,)
    std: np.ndarray   # (m,), constant columns guarded to 1

    def apply(self, samples: np.ndarray) -> np.ndarray:
        return (np.asarray(samples, dtype=np.float64) - self.mean) / self.std


def fit_standardization(samples: np.ndarray) -> StandardizationParams:
    """Exact per-sample mean and unbiased std over the training split."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise AnalysisError("cannot standardize an empty training set")
    mean = x.mean(axis=0)
    std = x.std(axis=0, ddof=1) if x.shape[0] > 1 else np.zeros(x.shape[1])
    std = np.where(std < _STD_FLOOR, 1.0, std)
    return StandardizationParams(mean, std)


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 64
    epochs: int = 50
    steps_per_epoch: int = 400
    seed: int = 0
    data_cap: int = None

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size <= 0 \
                or self.epochs < 0 or self.steps_per_epoch <= 0:
            raise ConfigError("training hyperparameters must be positive")
        if self.data_cap is not None and self.data_cap < self.batch_size:
            raise ConfigError("data_cap must be >= batch_size")


@dataclass
class ProfilingModel:
    kind: str
    weights: np.ndarray  # (outputs, m)
    bias: np.ndarray     # (outputs,)
    standardization: StandardizationParams
    byte_index: int = None   # None for the 16-output regressor
    positions: tuple = ()
    seed: int = 0

    @property
    def m(self) -> int:
        return self.weights.shape[1]

    @property
    def outputs(self) -> int:
        return self.weights.shape[0]


@dataclass
class TrainResult:
    model: ProfilingModel
    val_history: list  # per-epoch validation mean rank (classifier) or MSE
    n_train: int = 0   # training traces actually used (after any data_cap)


def second_half_mean(history) -> float:
    """Mean of per-epoch validation metrics over epochs ceil(E/2)..E."""
    if not history:
        raise AnalysisError("empty training history")
    start = math.ceil(len(history) / 2) - 1
    return float(np.mean(history[start:]))


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def predict_proba(model: ProfilingModel, traces: np.ndarray) -> np.ndarray:
    """Softmax class probabilities; (256,) for one trace, (n, 256) batched."""
    if model.kind != CLASSIFIER_256:
        raise ConfigError(f"predict_proba needs a {CLASSIFIER_256}, got {model.kind}")
    return _softmax(_affine(model, traces))


def predict_hd(model: ProfilingModel, traces: np.ndarray) -> np.ndarray:
    """Linear 16-output prediction of the last-round Hamming distances."""
    if model.kind != HD_REGRESSOR_16:
        raise ConfigError(f"predict_hd needs a {HD_REGRESSOR_16}, got {model.kind}")
    return _affine(model, traces)


def _affine(model: ProfilingModel, traces: np.ndarray) -> np.ndarray:
    x = np.asarray(traces, dtype=np.float64)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != model.m:
        raise AnalysisError(f"trace length {x.shape[1]} != model m {model.m}")
    out = model.standardization.apply(x) @ model.weights.T + model.bias
    return out[0] if single else out


def _ranks_of_scores(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Vectorized mid-rank of labels[i] within scores[i] (n, C)."""
    own = scores[np.arange(len(labels)), labels][:, None]
    greater = (scores > own).sum(axis=1)
    equal_others = (scores == own).sum(axis=1) - 1
    return greater + equal_others / 2.0


def _first_round_labels(target: LeakageModel, arrays: TraceArrays) -> np.ndarray:
    return true_first_round_values(target.kind, arrays.plaintexts, arrays.keys,
                                   target.byte_index).astype(np.int64)


def true_hds(arrays: TraceArrays) -> np.ndarray:
    """Recompute the 16 true last-round Hamming distances per trace."""
    rks = expand_keys_batch(arrays.keys)
    _, s9 = encrypt_blocks(arrays.plaintexts, rks, return_round9_state=True)
    return true_last_round_hds(arrays.ciphertexts, s9).astype(np.float64)


def _apply_data_cap(arrays: TraceArrays, config: TrainConfig) -> TraceArrays:
    if config.data_cap is None or len(arrays) <= config.data_cap:
        return arrays
    rng = np.random.default_rng((config.seed * _LCG_A + _LCG_C) % (1 << 64))
    keep = np.sort(rng.choice(len(arrays), config.data_cap, replace=False))
    return arrays.subset(keep)


def _train_loop(X: np.ndarray, Y, X_val: np.ndarray, val_labels, config: TrainConfig,
                kind: str, stdz: StandardizationParams):
    """Shared seeded SGD. Y is int labels (classifier) or (n, 16) targets.

    RNG draw order: one normal() for the weight init, then one permutation
    per epoch plus one per mid-epoch wraparound.
    """
    n, m = X.shape
    outputs = 256 if kind == CLASSIFIER_256 else 16
    rng = np.random.default_rng(config.seed)
    W = rng.normal(0.0, 0.01, (outputs, m))
    b = np.zeros(outputs)
    lr = config.learning_rate
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
            Xb = stdz.apply(X[idx])
            if kind == CLASSIFIER_256:
                p = _softmax(Xb @ W.T + b)
                p[np.arange(batch), Y[idx]] -= 1.0
                g = p / batch
            else:
                err = (Xb @ W.T + b) - Y[idx]
                g = (2.0 / (batch * outputs)) * err
            W -= lr * (g.T @ Xb)
            b -= lr * g.sum(axis=0)
        history.append(_validate(W, b, stdz, X_val, val_labels, kind))
    return W, b, history


def _validate(W, b, stdz, X_val, val_labels, kind) -> float:
    out = stdz.apply(X_val) @ W.T + b
    if kind == CLASSIFIER_256:
        probs = _softmax(out)
        return float(_ranks_of_scores(probs, val_labels).mean())
    return float(np.mean((out - val_labels) ** 2))


def _check_train_inputs(train: TraceArrays, val: TraceArrays):
    if len(train) == 0:
        raise AnalysisError("empty training set")
    if len(val) == 0:
        raise AnalysisError("empty validation set")
    if train.samples.shape[1] != val.samples.shape[1]:
        raise AnalysisError("train/val sample lengths differ")


def train_classifier(train: TraceArrays, val: TraceArrays, target: LeakageModel,
                     config: TrainConfig) -> TrainResult:
    """Fit the 256-class model on an intermediate byte value; returns the
    model plus per-epoch validation mean ranks (the selection metric)."""
    if target.kind not in (FIRST_ROUND_SBOX_INPUT, FIRST_ROUND_SBOX_OUTPUT):
        raise ConfigError("classifier targets a first-round byte value model")
    _check_train_inputs(train, val)
    train = _apply_data_cap(train, config)
    stdz = fit_standardization(train.samples)
    y = _first_round_labels(target, train)
    y_val = _first_round_labels(target, val)
    W, b, history = _train_loop(train.samples, y, val.samples, y_val, config,
                                CLASSIFIER_256, stdz)
    model = ProfilingModel(CLASSIFIER_256, W, b, stdz,
                           byte_index=target.byte_index,
                           positions=tuple(sorted(set(train.positions.tolist()))),
                           seed=config.seed)
    return TrainResult(model, history, len(train))


def train_hd_regressor(train: TraceArrays, val: TraceArrays,
                       config: TrainConfig) -> TrainResult:
    """Fit the 16-output HD regressor; history is per-epoch validation MSE."""
    _check_train_inputs(train, val)
    train = _apply_data_cap(train, config)
    stdz = fit_standardization(train.samples)
    W, b, history = _train_loop(train.samples, true_hds(train), val.samples,
                                true_hds(val), config, HD_REGRESSOR_16, stdz)
    model = ProfilingModel(HD_REGRESSOR_16, W, b, stdz, byte_index=None,
                           positions=tuple(sorted(set(train.positions.tolist()))),
                           seed=config.seed)
    return TrainResult(model, history, len(train))


# ------------------------------------------------------- position selection

def select_leaky_positions(heatmap, threshold: float = 120.0) -> set:
    """Positions whose mean rank is at or below the threshold (127.5 would be
    random guessing)."""
    values = np.asarray(getattr(heatmap, "values", heatmap), dtype=np.float64)
    return {int(p) for p in np.nonzero(values <= threshold)[0]}


def select_top_n_positions(heatmap, n: int) -> list:
    """The n best (lowest-value) positions, ties broken by position index."""
    values = np.asarray(getattr(heatmap, "values", heatmap), dtype=np.float64)
    finite = np.isfinite(values)
    if n < 1 or n > int(finite.sum()):
        raise ConfigError(f"n={n} outside 1..{int(finite.sum())} evaluated positions")
    order = sorted(np.nonzero(finite)[0], key=lambda p: (values[p], p))
    return [int(p) for p in order[:n]]


def multiplace_train(train: TraceArrays, val: TraceArrays, positions,
                     target: LeakageModel, config: TrainConfig,
                     kind: str = CLASSIFIER_256) -> TrainResult:
    """Train one model on the union of traces from several grid positions.

    A singleton set reduces bit-for-bit to single-position training. data_cap
    (in config) subsamples the union uniformly with the derived seed; a cap
    at or above the union size changes nothing.
    """
    positions = sorted({int(p) for p in positions})
    if not positions:
        raise ConfigError("multiplace_train needs a non-empty position set")
    sub_train = train.subset(np.isin(train.positions, positions))
    sub_val = val.subset(np.isin(val.positions, positions))
    if len(sub_train) == 0:
        raise AnalysisError("no training traces at the selected positions")
    if kind == CLASSIFIER_256:
        return train_classifier(sub_train, sub_val, target, config)
    if kind == HD_REGRESSOR_16:
        return train_hd_regressor(sub_train, sub_val, config)
    raise ConfigError(f"unknown model kind {kind!r}")


# ----------------------------------------------------------------- attacks

def classify_attack(model: ProfilingModel, arrays: TraceArrays,
                    labels: np.ndarray):
    """Mean rank (and the per-trace ranks) of the correct class under the
    classifier's predicted probabilities."""
    if len(arrays) == 0:
        raise AnalysisError("empty attack set")
    probs = predict_proba(model, arrays.samples)
    ranks = _ranks_of_scores(probs, np.asarray(labels, dtype=np.int64))
    return float(ranks.mean()), ranks


# ------------------------------------------------------------- model files

def save_model(model: ProfilingModel, path) -> None:
    meta = {
        "kind": model.kind,
        "m": model.m,
        "outputs": model.outputs,
        "byte_index": model.byte_index,
        "positions": list(model.positions),
        "seed": model.seed,
    }
    raw = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<HI", MODEL_FORMAT_VERSION, len(raw)))
        f.write(raw)
        for arr in (model.weights, model.bias, model.standardization.mean,
                    model.standardization.std):
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path) -> ProfilingModel:
    with open(path, "rb") as f:
        fixed = f.read(10)
        if len(fixed) < 10 or fixed[:4] != MODEL_MAGIC:
            raise DataFormatError(f"{path}: not a model file (bad magic)")
        version, meta_len = struct.unpack("<HI", fixed[4:10])
        if version != MODEL_FORMAT_VERSION:
            raise DataFormatError(f"{path}: unsupported model version {version}")
        try:
            meta = json.loads(f.read(meta_len).decode("utf-8"))
            kind = meta["kind"]
            m = int(meta["m"])
            outputs = int(meta["outputs"])
        except (ValueError, KeyError) as e:
            raise DataFormatError(f"{path}: malformed model header: {e}") from e
        if kind not in (CLASSIFIER_256, HD_REGRESSOR_16):
            raise DataFormatError(f"{path}: unknown model kind {kind!r}")
        want = (outputs * m + outputs + m + m) * 8
        raw = f.read(want)
        if len(raw) < want:
            raise DataFormatError(f"{path}: truncated model file")
        vals = np.frombuffer(raw, dtype="<f8")
        W = vals[:outputs * m].reshape(outputs, m).copy()
        rest = vals[outputs * m:]
        bias = rest[:outputs].copy()
        mean = rest[outputs:outputs + m].copy()
        std = rest[outputs + m:].copy()
    byte_index = meta.get("byte_index")
    return ProfilingModel(kind, W, bias, StandardizationParams(mean, std),
                          byte_index=None if byte_index is None else int(byte_index),
                          positions=tuple(int(p) for p in meta.get("positions", [])),
                          seed=int(meta.get("seed", 0)))
