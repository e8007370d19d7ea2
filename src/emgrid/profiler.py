"""Trainable profiling models and the attacks built on them.

Two shallow linear models cover the profiled attacks: a 256-class softmax
classifier over an intermediate byte value, and a 16-output regressor
predicting the true last-round Hamming distances. Both standardize samples
per-index (parameters stored in the model, so attack-time preprocessing is
self-contained) and train with plain seeded mini-batch gradient descent;
training is a pure function of (data, config, seed). Standardization is
fitted once per training run and applied once to the training and once to
the validation matrix; the SGD steps index rows of the standardized matrix.
The regressor trains in float32: its standardized matrices, weights, bias
and targets are float32, so each SGD step moves half the bytes, and its
matrices are filled 256 rows at a time from float64 blocks. Where training
owns the float32 training samples (a data_cap copy, or samples that
multiplace_train consumes), the regressor writes its standardized matrix
over them in place instead of next to them. The classifier, whose steps are
bound by Python overhead rather than memory, trains in float64 on a new
matrix. Either model is returned with float64 weights and bias.

The hybrid attack (evaluation.evaluate_hybrid_grid) runs the regressor over
every attack trace and feeds the 16-float outputs into last-round CPA as
pseudo-traces, turning a model that merely compresses leakage into a signal
amplifier for an unprofiled attack.
"""

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .aes import encrypt_blocks, expand_keys_batch
from .errors import AnalysisError, ConfigError, DataFormatError
from .grid import require_finite
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
_MODEL_OUTPUTS = {CLASSIFIER_256: 256, HD_REGRESSOR_16: 16}

MODEL_MAGIC = b"EMMD"
MODEL_FORMAT_VERSION = 1

_STD_FLOOR = 1e-12
_STD_BLOCK = 64  # columns per fit_standardization block
_APPLY_ROWS = 256  # rows per StandardizationParams.apply block
# data_cap subsampling uses a seed derived from the training seed by one LCG
# step, so capping never perturbs the training RNG stream itself.
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407


@dataclass
class StandardizationParams:
    mean: np.ndarray  # (m,)
    std: np.ndarray   # (m,), constant columns guarded to 1

    def apply(self, samples: np.ndarray, dtype=np.float64,
              out: np.ndarray = None) -> np.ndarray:
        """(samples - mean) / std as an array of the given dtype.

        Without out the result is a new array and samples is never written
        to. Otherwise the result is written into out, which must have
        samples' shape and the given dtype and may be samples itself, and
        out is returned.

        Rows are standardized _APPLY_ROWS at a time: each block is converted
        to float64, shifted and scaled, then rounded to dtype, so every
        element is the float64 result rounded once and no float64 copy of
        the whole matrix is made. A block is copied before its rows are
        written, so out=samples gives the same values as a new array."""
        x = np.asarray(samples)
        if out is None:
            out = np.empty(x.shape, dtype=dtype)
        elif out.shape != x.shape or out.dtype != dtype:
            raise ValueError(f"out is {out.dtype}{out.shape}, "
                             f"want {np.dtype(dtype)}{x.shape}")
        rows, dest = np.atleast_2d(x), np.atleast_2d(out)
        for a in range(0, len(rows), _APPLY_ROWS):
            block = rows[a:a + _APPLY_ROWS].astype(np.float64)
            block -= self.mean
            block /= self.std
            dest[a:a + _APPLY_ROWS] = block
        return out


def _column_blocks(m: int):
    """(start, stop) pairs of _STD_BLOCK columns covering 0..m. A one-column
    remainder joins the block before it: numpy reduces one column with
    pairwise summation but several columns row by row, so a one-column block
    of a wider matrix would not match the whole-matrix std bit for bit."""
    bounds = list(range(0, m, _STD_BLOCK)) + [m]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return zip(bounds[:-1], bounds[1:])


def fit_standardization(samples: np.ndarray) -> StandardizationParams:
    """Exact per-sample mean and unbiased std over the training split.

    Columns are converted to float64 and reduced one block at a time, so the
    fit needs one block's float64 copy, not the whole matrix's; every value
    equals the whole-matrix mean and std(ddof=1) bit for bit."""
    x = np.asarray(samples)
    if x.ndim != 2 or x.shape[0] == 0:
        raise AnalysisError("cannot standardize an empty training set")
    n, m = x.shape
    mean = np.empty(m)
    std = np.zeros(m)
    for a, b in _column_blocks(m):
        block = x[:, a:b].astype(np.float64)
        mean[a:b] = block.mean(axis=0)
        if n > 1:
            std[a:b] = block.std(axis=0, ddof=1)
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
        require_finite("learning_rate", self.learning_rate)
        if self.learning_rate <= 0 or self.batch_size <= 0 \
                or self.epochs < 0 or self.steps_per_epoch <= 0:
            raise ConfigError("training hyperparameters must be positive")
        if self.data_cap is not None and self.data_cap < self.batch_size:
            raise ConfigError("data_cap must be >= batch_size")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


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
    x = np.asarray(traces)
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


def first_round_labels(target: LeakageModel, arrays: TraceArrays) -> np.ndarray:
    """The target byte's true first-round values, the classifier's labels."""
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


def _train(train: TraceArrays, val: TraceArrays, labels_of, config: TrainConfig,
           kind: str, byte_index=None, owns_train=False) -> TrainResult:
    """Shared seeded SGD on labels_of(arrays): int labels (classifier) or
    (n, 16) targets (regressor).

    The training samples are overwritten with their standardized values when
    this run owns them (owns_train, or the data_cap copy), they already have
    the working dtype and they are writeable, and val.samples does not share
    their memory; otherwise the standardized matrix is a new array. Either
    way its values are the same.

    RNG draw order: one normal() for the weight init, then one permutation
    per epoch plus one per mid-epoch wraparound. A run whose arithmetic
    overflows, or whose weights or validation metric stop being finite,
    raises AnalysisError instead of returning a model.
    """
    if len(train) == 0:
        raise AnalysisError("empty training set")
    if len(val) == 0:
        raise AnalysisError("empty validation set")
    if train.samples.shape[1] != val.samples.shape[1]:
        raise AnalysisError("train/val sample lengths differ")
    capped = _apply_data_cap(train, config)
    owns_train = owns_train or capped is not train
    train = capped
    dtype = np.float64 if kind == CLASSIFIER_256 else np.float32
    stdz = fit_standardization(train.samples)
    Y, val_labels = labels_of(train), labels_of(val)
    if kind == HD_REGRESSOR_16:
        Y, val_labels = Y.astype(dtype), val_labels.astype(dtype)
    in_place = (owns_train and train.samples.dtype == dtype
                and train.samples.flags.writeable
                and not np.may_share_memory(train.samples, val.samples))
    Z = stdz.apply(train.samples, dtype,
                   out=train.samples if in_place else None)
    Z_val = stdz.apply(val.samples, dtype)
    n, m = Z.shape
    outputs = _MODEL_OUTPUTS[kind]
    rng = np.random.default_rng(config.seed)
    W = rng.normal(0.0, 0.01, (outputs, m)).astype(dtype)
    b = np.zeros(outputs, dtype=dtype)
    lr = config.learning_rate
    batch = min(config.batch_size, n)
    history = []
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for _ in range(config.epochs):
                perm = rng.permutation(n)
                cursor = 0
                for _ in range(config.steps_per_epoch):
                    if cursor + batch > n:
                        perm = rng.permutation(n)
                        cursor = 0
                    idx = perm[cursor:cursor + batch]
                    cursor += batch
                    Xb = Z[idx]
                    if kind == CLASSIFIER_256:
                        p = _softmax(Xb @ W.T + b)
                        p[np.arange(batch), Y[idx]] -= 1.0
                        g = p / batch
                    else:
                        err = (Xb @ W.T + b) - Y[idx]
                        g = (2.0 / (batch * outputs)) * err
                    W -= lr * (g.T @ Xb)
                    b -= lr * g.sum(axis=0)
                    del Xb  # free this minibatch before the next is gathered
                out = Z_val @ W.T + b
                if kind == CLASSIFIER_256:
                    metric = _ranks_of_scores(_softmax(out), val_labels).mean()
                else:
                    metric = np.mean((out - val_labels) ** 2, dtype=np.float64)
                history.append(float(metric))
                if not (math.isfinite(history[-1]) and np.isfinite(W).all()
                        and np.isfinite(b).all()):
                    raise FloatingPointError("non-finite weights or metric")
    except FloatingPointError as e:
        raise AnalysisError(f"training diverged ({e}); lower the learning "
                            f"rate") from e
    model = ProfilingModel(kind, W.astype(np.float64, copy=False),
                           b.astype(np.float64, copy=False),
                           stdz, byte_index=byte_index,
                           positions=tuple(sorted(set(train.positions.tolist()))),
                           seed=config.seed)
    return TrainResult(model, history, len(train))


def train_classifier(train: TraceArrays, val: TraceArrays, target: LeakageModel,
                     config: TrainConfig) -> TrainResult:
    """Fit the 256-class model on an intermediate byte value; returns the
    model plus per-epoch validation mean ranks (the selection metric).
    Neither train nor val is written to."""
    if target.kind not in (FIRST_ROUND_SBOX_INPUT, FIRST_ROUND_SBOX_OUTPUT):
        raise ConfigError("classifier targets a first-round byte value model")
    return _train(train, val, lambda a: first_round_labels(target, a), config,
                  CLASSIFIER_256, target.byte_index)


def train_hd_regressor(train: TraceArrays, val: TraceArrays,
                       config: TrainConfig) -> TrainResult:
    """Fit the 16-output HD regressor; history is per-epoch validation MSE.
    Neither train nor val is written to."""
    return _train(train, val, true_hds, config, HD_REGRESSOR_16)


# ------------------------------------------------------- position selection

LEAKY_MEAN_RANK = 120.0  # the default limit of a leaky position's mean rank


def select_leaky_positions(heatmap, threshold: float = LEAKY_MEAN_RANK) -> set:
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


def _at_positions(arrays: TraceArrays, positions) -> TraceArrays:
    """The traces at the given positions; a copy only if some are dropped."""
    keep = np.isin(arrays.positions, positions)
    return arrays if keep.all() else arrays.subset(keep)


def multiplace_train(train: TraceArrays, val: TraceArrays, positions,
                     target: LeakageModel, config: TrainConfig,
                     kind: str = CLASSIFIER_256) -> TrainResult:
    """Train one model on the union of traces from several grid positions.

    A singleton set reduces bit-for-bit to single-position training. data_cap
    (in config) subsamples the union uniformly with the derived seed; a cap
    at or above the union size changes nothing.

    An HD regressor consumes its float32 training samples: train.samples is
    overwritten with the standardized matrix, so the regressor needs no
    second copy of it, unless dropped positions or data_cap make training
    work on a copy. A caller that reads train.samples afterwards passes a
    copy. The classifier, val, and training samples that val.samples shares
    memory with are never written to.
    """
    positions = sorted({int(p) for p in positions})
    if not positions:
        raise ConfigError("multiplace_train needs a non-empty position set")
    sub_train = _at_positions(train, positions)
    sub_val = _at_positions(val, positions)
    if len(sub_train) == 0:
        raise AnalysisError("no training traces at the selected positions")
    if kind == CLASSIFIER_256:
        return train_classifier(sub_train, sub_val, target, config)
    if kind == HD_REGRESSOR_16:
        return _train(sub_train, sub_val, true_hds, config, HD_REGRESSOR_16,
                      owns_train=True)
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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _model_header(raw: bytes, path) -> dict:
    """Parse and check the JSON header of a model file."""
    try:
        meta = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise DataFormatError(f"{path}: malformed model header: {e}") from e
    if not isinstance(meta, dict):
        raise DataFormatError(f"{path}: model header is not a JSON object")
    kind = meta.get("kind")
    if kind not in _MODEL_OUTPUTS:
        raise DataFormatError(f"{path}: unknown model kind {kind!r}")
    if not _is_int(meta.get("m")) or meta["m"] < 1:
        raise DataFormatError(f"{path}: model m must be an integer >= 1")
    if meta.get("outputs") != _MODEL_OUTPUTS[kind]:
        raise DataFormatError(
            f"{path}: a {kind} has {_MODEL_OUTPUTS[kind]} outputs, header "
            f"says {meta.get('outputs')!r}")
    byte_index = meta.get("byte_index")
    if (byte_index is not None or kind == CLASSIFIER_256) and \
            not (_is_int(byte_index) and 0 <= byte_index < 16):
        raise DataFormatError(f"{path}: model byte_index must be an integer in 0..15")
    if not _is_int(meta.get("seed", 0)):
        raise DataFormatError(f"{path}: model seed must be an integer")
    positions = meta.get("positions", [])
    if not isinstance(positions, list) or \
            not all(_is_int(p) and p >= 0 for p in positions):
        raise DataFormatError(f"{path}: model positions must be a list of "
                              f"non-negative integers")
    return meta


def load_model(path) -> ProfilingModel:
    """Read a model file; any header, size or parameter fault raises
    DataFormatError."""
    with open(path, "rb") as f:
        fixed = f.read(10)
        if len(fixed) < 10 or fixed[:4] != MODEL_MAGIC:
            raise DataFormatError(f"{path}: not a model file (bad magic)")
        version, meta_len = struct.unpack("<HI", fixed[4:10])
        if version != MODEL_FORMAT_VERSION:
            raise DataFormatError(f"{path}: unsupported model version {version}")
        raw = f.read(meta_len)
        if len(raw) < meta_len:
            raise DataFormatError(f"{path}: truncated model file")
        meta = _model_header(raw, path)
        m, outputs = meta["m"], meta["outputs"]
        want = (outputs * m + outputs + m + m) * 8
        have = os.fstat(f.fileno()).st_size - f.tell()
        if have < want:
            raise DataFormatError(f"{path}: truncated model file")
        if have > want:
            raise DataFormatError(
                f"{path}: {have - want} trailing bytes after the model parameters")
        vals = np.frombuffer(f.read(want), dtype="<f8")
    if not np.isfinite(vals).all():
        raise DataFormatError(f"{path}: model parameters are not finite")
    W = vals[:outputs * m].reshape(outputs, m).copy()
    rest = vals[outputs * m:]
    bias = rest[:outputs].copy()
    mean = rest[outputs:outputs + m].copy()
    std = rest[outputs + m:].copy()
    if not (std > 0).all():
        raise DataFormatError(f"{path}: model standardization std must be > 0")
    return ProfilingModel(meta["kind"], W, bias, StandardizationParams(mean, std),
                          byte_index=meta.get("byte_index"),
                          positions=tuple(meta.get("positions", [])),
                          seed=meta.get("seed", 0))
