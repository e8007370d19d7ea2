"""Trainable profiling models and the attacks built on them.

Two shallow linear models cover the profiled attacks: a 256-class softmax
classifier over an intermediate byte value, trained by seeded mini-batch
SGD, and a 16-output regressor of the true last-round Hamming distances,
fitted by least squares (linear-regression profiling as in Schindler,
Lemke and Paar, CHES 2005), whose outputs the hybrid attack
(evaluation.evaluate_hybrid_grid) feeds into last-round CPA as
pseudo-traces. Both standardize samples per index, with the parameters
stored in the model; training is a pure function of (data, config, seed)
and never writes to the caller's arrays. The classifier trains in float32
on float32 standardized copies and saves float64 parameters, which
prediction uses in float64. The regressor never forms the
standardized samples Z: its products Z P = X (P/σ) − μ·(P/σ) and
Zᵀ R = (Xᵀ R − μ ⊗ ΣR)/σ only read the float32 samples X.
"""

import math
from dataclasses import dataclass

import numpy as np

from .aes import expand_keys_batch
from .distinguishers import rank_of
from .errors import AnalysisError, ConfigError, DataFormatError
from .grid import json_object, require_finite
from .leakage import (
    FIRST_ROUND_SBOX_INPUT,
    FIRST_ROUND_SBOX_OUTPUT,
    LeakageModel,
    true_first_round_values,
    true_last_round_hds,
)
from .simulator import derive_seed
from .traceset import TraceArrays, check_payload_size, read_preamble, write_preamble

CLASSIFIER_256 = "Classifier256"
HD_REGRESSOR_16 = "HdRegressor16"
_MODEL_OUTPUTS = {CLASSIFIER_256: 256, HD_REGRESSOR_16: 16}

MODEL_MAGIC = b"EMMD"  # the .emmod preamble, see traceset.write_preamble

_STD_FLOOR = 1e-12
_STD_BLOCK = 64  # columns per fit_standardization block
_ROUND_BLOCK_BYTES = 1 << 20  # float64 rows per _standardized32 block
_CG_TOL = 1e-3  # an output stops once ‖ZᵀR‖ is this fraction of its start
_CG_MAX_ITER = 2000  # n ≈ m converges slowly: 800 iterations at n = m = 512
_PRODUCT_ROWS = 4096  # rows of X per product: BLAS packs them in one buffer


@dataclass
class StandardizationParams:
    mean: np.ndarray  # (m,)
    std: np.ndarray   # (m,), constant columns guarded to 1
    constant: np.ndarray = None  # (m,) bool, the guarded columns, if fitted

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """(samples - mean) / std as a new float64 array; samples is never
        written to."""
        z = np.array(samples, dtype=np.float64)
        z -= self.mean
        z /= self.std
        return z


def _column_blocks(m: int):
    """(start, stop) pairs of _STD_BLOCK columns covering 0..m. A one-column
    remainder joins the block before it: numpy reduces one column with
    pairwise summation but several columns row by row, so a one-column block
    of a wider matrix would not match the whole-matrix std bit for bit."""
    bounds = list(range(0, m, _STD_BLOCK)) + [m]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return zip(bounds[:-1], bounds[1:])


def _standardized32(stdz: StandardizationParams,
                    samples: np.ndarray) -> np.ndarray:
    """stdz.apply(samples) rounded once to float32, a block of about
    _ROUND_BLOCK_BYTES of float64 rows at a time, so it never needs a whole
    float64 copy."""
    z = np.empty(samples.shape, np.float32)
    step = max(1, _ROUND_BLOCK_BYTES // (8 * samples.shape[1]))
    for a in range(0, len(samples), step):
        z[a:a + step] = stdz.apply(samples[a:a + step])
    return z


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
    constant = std < _STD_FLOOR
    return StandardizationParams(mean, np.where(constant, 1.0, std), constant)


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
        if self.data_cap is not None and self.data_cap < 1:
            raise ConfigError("data_cap must be >= 1")
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
    val_history: list  # per-epoch validation mean rank, or the one MSE
    n_train: int = 0   # training traces actually used (after any data_cap)
    iterations: int = None  # the regressor's CGLS iterations


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


def first_round_labels(target: LeakageModel, arrays: TraceArrays) -> np.ndarray:
    """The target byte's true first-round values, the classifier's labels."""
    return true_first_round_values(target.kind, arrays.plaintexts, arrays.keys,
                                   target.byte_index).astype(np.int64)


def true_hds(arrays: TraceArrays) -> np.ndarray:
    """The 16 true last-round Hamming distances per trace, from its
    ciphertext and its key's round-10 key."""
    k10 = expand_keys_batch(arrays.keys)[:, 10]
    return true_last_round_hds(arrays.ciphertexts, k10).astype(np.float64)


def _apply_data_cap(arrays: TraceArrays, config: TrainConfig) -> TraceArrays:
    if config.data_cap is None or len(arrays) <= config.data_cap:
        return arrays
    # a derived seed, so capping never perturbs the training RNG stream itself
    rng = np.random.default_rng(derive_seed(config.seed))
    keep = np.sort(rng.choice(len(arrays), config.data_cap, replace=False))
    return arrays.subset(keep)


def _prepared(train: TraceArrays, val: TraceArrays, config: TrainConfig):
    """The training split after any data_cap, its standardization and the
    positions it covers."""
    if len(train) == 0:
        raise AnalysisError("empty training set")
    if len(val) == 0:
        raise AnalysisError("empty validation set")
    if train.samples.shape[1] != val.samples.shape[1]:
        raise AnalysisError("train/val sample lengths differ")
    train = _apply_data_cap(train, config)
    positions = tuple(sorted(set(train.positions.tolist())))
    return train, fit_standardization(train.samples), positions


def train_classifier(train: TraceArrays, val: TraceArrays, target: LeakageModel,
                     config: TrainConfig) -> TrainResult:
    """Fit the 256-class model on an intermediate byte value by seeded SGD;
    returns the model plus per-epoch validation mean ranks (the selection
    metric).

    SGD runs in float32: the standardized samples (each value the float64
    standardization rounded once), the weights, bias and learning rate. The
    model keeps float64 parameters, so model files and predict_proba stay
    float64. Each step works in place on its (batch, 256) logits.

    RNG draw order: one normal() for the weight init (drawn in float64,
    then rounded), then one permutation per epoch plus one per mid-epoch
    wraparound. A run whose arithmetic overflows, a learning rate past the
    float32 range included, or whose weights or validation metric stop
    being finite, raises AnalysisError instead of returning a model.
    """
    if target.kind not in (FIRST_ROUND_SBOX_INPUT, FIRST_ROUND_SBOX_OUTPUT):
        raise ConfigError("classifier targets a first-round byte value model")
    if config.data_cap is not None and config.data_cap < config.batch_size:
        raise ConfigError("data_cap must be >= batch_size")
    train, stdz, positions = _prepared(train, val, config)
    Y, val_labels = (first_round_labels(target, a) for a in (train, val))
    Z, Z_val = (_standardized32(stdz, a.samples) for a in (train, val))
    n, m = Z.shape
    rng = np.random.default_rng(config.seed)
    W = rng.normal(0.0, 0.01, (256, m)).astype(Z.dtype)
    b = np.zeros(256, Z.dtype)
    batch = min(config.batch_size, n)
    rows = np.arange(batch)
    history = []
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            lr = Z.dtype.type(config.learning_rate)
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
                    p = Xb @ W.T  # logits, then softmax, then the gradient
                    p += b
                    p -= p.max(axis=1, keepdims=True)
                    np.exp(p, out=p)
                    p /= p.sum(axis=1, keepdims=True)
                    p[rows, Y[idx]] -= 1.0
                    p /= batch
                    step = p.T @ Xb
                    step *= lr
                    W -= step
                    step = p.sum(axis=0)
                    step *= lr
                    b -= step
                out = _softmax(Z_val @ W.T + b)
                history.append(float(rank_of(out, val_labels).mean()))
                if not (math.isfinite(history[-1]) and np.isfinite(W).all()
                        and np.isfinite(b).all()):
                    raise FloatingPointError("non-finite weights or metric")
    except FloatingPointError as e:
        raise AnalysisError(f"training diverged ({e}); lower the learning "
                            f"rate") from e
    model = ProfilingModel(CLASSIFIER_256, W.astype(np.float64),
                           b.astype(np.float64), stdz, target.byte_index,
                           positions, config.seed)
    return TrainResult(model, history, len(train))


def _z_times(x, mean, scale, P):
    """Z @ P for Z = (x - mean) * scale, never formed: the float32 product
    x @ (scale P), _PRODUCT_ROWS rows at a time, minus mean @ (scale P)."""
    Ps = scale[:, None] * P
    P32 = Ps.astype(np.float32)
    rows = range(0, len(x), _PRODUCT_ROWS)
    return np.concatenate([x[a:a + _PRODUCT_ROWS] @ P32 for a in rows]) \
        - mean @ Ps


def _zt_times(x, mean, scale, R):
    """Zᵀ @ R, never forming Z: scale (xᵀ R - mean ⊗ ΣR), the product in
    float32 and ΣR summed from the same float32 R."""
    R32 = R.astype(np.float32)
    sums = R32.sum(axis=0, dtype=np.float64)
    return scale[:, None] * (x.T @ R32 - np.outer(mean, sums))


def train_hd_regressor(train: TraceArrays, val: TraceArrays,
                       config: TrainConfig) -> TrainResult:
    """Fit the 16-output HD regressor by CGLS, one per output, in lockstep
    from 0 (the minimum-norm fit when traces are fewer than samples); history
    is its one validation MSE, and of config only data_cap and seed act. A
    fit whose arithmetic overflows raises AnalysisError."""
    train, stdz, positions = _prepared(train, val, config)
    x, mean = train.samples, stdz.mean
    # scaling constant columns by 0, not 1/1, keeps rounding out of them
    scale = np.where(stdz.constant, 0.0, 1.0 / stdz.std)
    Y = true_hds(train)
    b = Y.mean(axis=0)
    W = np.zeros((x.shape[1], 16))
    R = Y - b
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            D = S = _zt_times(x, mean, scale, R)
            gamma = np.einsum("ij,ij->j", S, S)
            stop = _CG_TOL ** 2 * gamma
            active = gamma > stop
            iterations = 0
            while active.any() and iterations < _CG_MAX_ITER:
                Q = _z_times(x, mean, scale, D)
                qq = np.einsum("ij,ij->j", Q, Q)
                alpha = np.divide(gamma, qq, out=np.zeros(16), where=active)
                W += alpha * D
                R -= alpha * Q
                S = _zt_times(x, mean, scale, R)
                new = np.einsum("ij,ij->j", S, S)
                beta = np.divide(new, gamma, out=np.zeros(16), where=active)
                D = S + beta * D
                gamma = new
                active &= new > stop
                iterations += 1
            pred = _z_times(val.samples, mean, scale, W) + b
            mse = float(np.mean((pred - true_hds(val)) ** 2))
    except FloatingPointError as e:
        raise AnalysisError(f"regressor fit overflowed ({e})") from e
    model = ProfilingModel(HD_REGRESSOR_16, W.T.copy(), b, stdz, None,
                           positions, config.seed)
    return TrainResult(model, [mse], len(train), iterations)


# ------------------------------------------------------- position selection

LEAKY_MEAN_RANK = 120.0  # the default limit of a leaky position's mean rank


def select_leaky_positions(values, threshold: float = LEAKY_MEAN_RANK) -> set:
    """Positions whose mean rank is at or below the threshold (127.5 would be
    random guessing)."""
    values = np.asarray(values, dtype=np.float64)
    return {int(p) for p in np.nonzero(values <= threshold)[0]}


def select_top_n_positions(values, n: int) -> list:
    """The n best (lowest-value) positions, ties broken by position index."""
    values = np.asarray(values, dtype=np.float64)
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
    ranks = rank_of(probs, np.asarray(labels, dtype=np.int64))
    return float(ranks.mean()), ranks


# ------------------------------------------------------------- model files

def save_model(model: ProfilingModel, path) -> None:
    """Write a model file: the shared preamble with the model's header, then
    weights, bias, standardization mean and std as little-endian float64."""
    with open(path, "wb") as f:
        write_preamble(f, MODEL_MAGIC, {
            "kind": model.kind,
            "m": model.m,
            "outputs": model.outputs,
            "byte_index": model.byte_index,
            "positions": list(model.positions),
            "seed": model.seed,
        })
        for arr in (model.weights, model.bias, model.standardization.mean,
                    model.standardization.std):
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _model_header(meta: dict, path) -> dict:
    """The typed fields of a model file's JSON header. A null byte_index, a
    regressor's, is left out like a missing one."""
    if meta.get("byte_index", 0) is None:
        del meta["byte_index"]
    try:
        meta = json_object(meta, "model header", required=("kind", "m", "outputs"),
                           kind=str, m=int, outputs=int, byte_index=int,
                           positions=(int, None), seed=int)
    except ConfigError as e:
        raise DataFormatError(f"{path}: malformed model header: {e}") from e
    kind = meta["kind"]
    if kind not in _MODEL_OUTPUTS:
        raise DataFormatError(f"{path}: unknown model kind {kind!r}")
    if meta["m"] < 1:
        raise DataFormatError(f"{path}: model m must be an integer >= 1")
    if meta["outputs"] != _MODEL_OUTPUTS[kind]:
        raise DataFormatError(
            f"{path}: a {kind} has {_MODEL_OUTPUTS[kind]} outputs, header "
            f"says {meta['outputs']}")
    if kind == CLASSIFIER_256 and "byte_index" not in meta or \
            not 0 <= meta.get("byte_index", 0) < 16:
        raise DataFormatError(f"{path}: model byte_index must be an integer in 0..15")
    if any(p < 0 for p in meta.get("positions", ())):
        raise DataFormatError(f"{path}: model positions must be a list of "
                              f"non-negative integers")
    return meta


def load_model(path) -> ProfilingModel:
    """Read a model file; any header, size or parameter fault raises
    DataFormatError."""
    with open(path, "rb") as f:
        meta = _model_header(read_preamble(f, MODEL_MAGIC, path), path)
        kind, m, outputs = meta.pop("kind"), meta.pop("m"), meta.pop("outputs")
        check_payload_size(f, path, "<f8", outputs * m + outputs + 2 * m)
        vals = np.frombuffer(f.read(), dtype="<f8")
    if not np.isfinite(vals).all():
        raise DataFormatError(f"{path}: model parameters are not finite")
    W, bias, mean, std = (a.copy() for a in
                          np.split(vals, np.cumsum([outputs * m, outputs, m])))
    if not (std > 0).all():
        raise DataFormatError(f"{path}: model standardization std must be > 0")
    return ProfilingModel(kind, W.reshape(outputs, m), bias,
                          StandardizationParams(mean, std), **meta)
