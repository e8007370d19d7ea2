"""Grid-sweep evaluation: one metric value per probe position.

Each sweep takes the traces of one split, groups them by grid position,
runs an independent per-position computation (SNR peak, classifier mean rank,
CPA or hybrid disclosure) on each position in turn, and assembles a Heatmap.
Empty positions keep the metric's sentinel (inf for lower-is-better metrics,
0 for SNR where higher means more leakage found).
"""

import math

import numpy as np

from .aes import SHIFT_MAP, round10_key
from .distinguishers import (ClassCpaAccumulator, CpaAccumulator,
                             SnrAccumulator, cpa_scores, rank_of)
from .errors import AnalysisError, ConfigError
from .grid import GridGeometry
from .heatmap import Heatmap
from .leakage import (
    FIRST_ROUND_SBOX_INPUT,
    LAST_ROUND_HD,
    LeakageModel,
    build_hypothesis_matrix,
    first_round_table,
)
from .profiler import (ProfilingModel, classify_attack, first_round_labels,
                       predict_hd, true_hds)
from .traceset import TraceArrays

MIXED_KEY_HINT = ("positions mix keys; disclosure metrics need a fixed-key "
                  "split (simulate with a fixed key)")


def _group_by_position(arrays: TraceArrays, geometry: GridGeometry):
    """{position: row index array}, position-sorted; a split without traces
    has nothing to sweep."""
    pos = arrays.positions
    if not len(pos):
        raise ConfigError("no traces in the requested split")
    if pos.min() < 0 or pos.max() >= geometry.position_count:
        raise ConfigError("dataset contains positions outside the grid")
    return {int(p): np.flatnonzero(pos == p) for p in np.unique(pos)}


def _map_positions(groups, fn, out: np.ndarray) -> np.ndarray:
    """Set out[..., p] = fn(p, idx) for each group, in position order; out
    arrives filled with the metric's sentinel for positions without traces."""
    for p, idx in groups.items():
        out[..., p] = fn(p, idx)
    return out


def _check_fixed_key(keys: np.ndarray) -> bytes:
    uniq = {k.tobytes() for k in keys}
    if len(uniq) != 1:
        raise AnalysisError(MIXED_KEY_HINT)
    return next(iter(uniq))


def _correct_bytes(kind: str, key: bytes):
    """The per-byte guess the attack should rank first."""
    if kind == LAST_ROUND_HD:
        rk10 = round10_key(key)
        return [rk10[int(SHIFT_MAP[j])] for j in range(16)]
    return list(key)


def evaluate_snr_grid(arrays: TraceArrays, geometry: GridGeometry,
                      target: LeakageModel, progress=None) -> Heatmap:
    """Peak SNR per position: partition the traces by the true value of the
    target intermediate and take the max SNR over sample indices."""
    groups = _group_by_position(arrays, geometry)
    m = arrays.samples.shape[1]
    if target.kind == LAST_ROUND_HD:
        labels_all = true_hds(arrays)[:, target.byte_index].astype(np.int64)
        num_classes = 9
    else:
        labels_all = first_round_labels(target, arrays)
        num_classes = 256

    def one(p, idx):
        acc = SnrAccumulator(num_classes, m)
        acc.update_batch(labels_all[idx], arrays.samples[idx])
        snr = acc.finalize()
        peak = float(np.max(snr))
        if progress is not None:
            progress({"position": p, "traces": len(idx), "peak_snr": peak})
        return peak

    values = _map_positions(groups, one, np.zeros(geometry.position_count))
    return Heatmap(geometry, values, "peak_snr")


def evaluate_classifier_grid(model: ProfilingModel, arrays: TraceArrays,
                             geometry: GridGeometry, target: LeakageModel,
                             progress=None) -> Heatmap:
    """Mean rank of the true class per position; inf where a position has no
    traces."""
    if model.byte_index is not None and model.byte_index != target.byte_index:
        raise ConfigError(
            f"model profiles byte {model.byte_index}, target asks for "
            f"{target.byte_index}")
    groups = _group_by_position(arrays, geometry)
    labels_all = first_round_labels(target, arrays)

    def one(p, idx):
        mean_rank, _ = classify_attack(model, arrays.subset(idx), labels_all[idx])
        if progress is not None:
            progress({"position": p, "traces": len(idx), "mean_rank": mean_rank})
        return mean_rank

    values = _map_positions(groups, one,
                            np.full(geometry.position_count, math.inf))
    return Heatmap(geometry, values, "mean_rank")


def _run_cpa_position(samples: np.ndarray, publics: np.ndarray, kind: str,
                      correct, budget, checkpoint_interval):
    """Streaming 16-byte CPA over one position's first min(n, budget) traces.

    One accumulator holds all 16 bytes' hypotheses, byte j in rows
    256*j .. 256*j + 255: for first-round kinds a ClassCpaAccumulator of
    per-plaintext-byte class sums, for the last-round model a
    CpaAccumulator fed the hypothesis matrices (its hypotheses depend on
    two ciphertext bytes, too many classes to sum). The traces are consumed
    in slices that end at each checkpoint and at the end of the stream;
    every slice is one update of the accumulator. Returns the first slice
    end at which every byte ranks strictly first (ties fail), or inf if
    none does, and the 16 byte ranks at the last slice.

    A checkpoint discloses only if all 16 bytes rank first, so before the
    last slice the bytes are scored one at a time and scoring stops at the
    first byte that does not; that byte is scored first at the next
    checkpoint. The last slice, and any slice at which every byte ranks
    first, scores all 16. Bytes with fewer than 2 traces score as all-equal
    rows (rank 127.5). Scoring a first-round byte is one (256, 256) x
    (256, m) table product, so intervals below about 16 traces can spend
    more on scoring than the GEMM update it replaced.
    """
    n, m = samples.shape
    limit = n if budget is None else min(n, budget)
    first_round = kind != LAST_ROUND_HD
    acc = ClassCpaAccumulator(m, first_round_table(kind)) if first_round \
        else CpaAccumulator(m, 16 * 256)
    ranks = np.full(16, 127.5)  # all-equal scores before anything is scored
    order = list(range(16))  # scoring order; a failing byte moves to the front
    for lo in range(0, limit, checkpoint_interval):
        sl = slice(lo, min(lo + checkpoint_interval, limit))
        if first_round:
            acc.update_batch(publics[sl], samples[sl])
        else:
            hyp = np.empty((16 * 256, sl.stop - sl.start), dtype=np.uint8)
            for j in range(16):
                hyp[256 * j:256 * (j + 1)] = build_hypothesis_matrix(
                    publics[sl], LeakageModel(kind, j))
            acc.update_batch(hyp, samples[sl])
            del hyp  # free the slice's hypotheses before the finalize temporaries
        for j in order:
            rows = slice(256 * j, 256 * (j + 1))
            scores = cpa_scores(acc.finalize(rows).corr) if acc.n >= 2 \
                else np.zeros(256)
            ranks[j] = rank_of(scores, correct[j])
            if ranks[j] != 0.0 and sl.stop < limit:
                order.remove(j)
                order.insert(0, j)
                break
        else:
            if (ranks == 0.0).all():
                return sl.stop, ranks
    return math.inf, ranks


def _disclosure_grid(arrays: TraceArrays, geometry: GridGeometry, kind: str,
                     traces_of, budget, checkpoint_interval: int, progress):
    """Per-position disclosure attack over fixed-key traces.

    traces_of(idx) returns the (n, m) traces CPA correlates for one
    position's row indices; it gets only the first `budget` of them, while
    the fixed-key check and the logged trace count cover them all. Returns
    (traces-to-disclosure Heatmap, average-final-rank Heatmap); positions
    without traces stay inf.
    """
    if checkpoint_interval < 1:
        raise ConfigError("checkpoint interval must be >= 1")
    if budget is not None and budget < 0:
        raise ConfigError("budget must be >= 0")
    groups = _group_by_position(arrays, geometry)
    publics_all = arrays.ciphertexts if kind == LAST_ROUND_HD \
        else arrays.plaintexts

    def one(p, idx):
        correct = _correct_bytes(kind, _check_fixed_key(arrays.keys[idx]))
        attacked = idx if budget is None else idx[:budget]
        disclosure, ranks = _run_cpa_position(
            traces_of(attacked), publics_all[attacked], kind, correct, budget,
            checkpoint_interval)
        avg = float(ranks.mean())
        if progress is not None:
            progress({"position": p, "traces": len(idx),
                      "disclosure": disclosure, "average_rank": avg})
        return disclosure, avg

    disclosure_vals, rank_vals = _map_positions(
        groups, one, np.full((2, geometry.position_count), math.inf))
    return (Heatmap(geometry, disclosure_vals, "traces_to_disclosure"),
            Heatmap(geometry, rank_vals, "average_rank"))


def evaluate_cpa_grid(arrays: TraceArrays, geometry: GridGeometry, kind: str,
                      budget=None, checkpoint_interval: int = 1000,
                      progress=None):
    """Unprofiled CPA on the raw samples under leakage model `kind`, swept
    over the grid. Every position's traces must share one key; all 16 key
    bytes are attacked. Not under sbox-input: HW(p ^ k ^ 0xff) = 8 - HW(p ^ k),
    so guesses k and k ^ 0xff would tie under |r|."""
    if kind == FIRST_ROUND_SBOX_INPUT:
        raise ConfigError("sbox-input CPA cannot tell guess k from k ^ 0xff")
    return _disclosure_grid(arrays, geometry, kind,
                            lambda idx: arrays.samples[idx], budget,
                            checkpoint_interval, progress)


def evaluate_hybrid_grid(regressor: ProfilingModel, arrays: TraceArrays,
                         geometry: GridGeometry, budget=None,
                         checkpoint_interval: int = 1000, progress=None):
    """Regressor-then-CPA swept over the grid: each trace becomes the
    regressor's 16 predicted last-round HDs, and last-round CPA runs on
    those pseudo-traces. Same outputs as evaluate_cpa_grid."""
    return _disclosure_grid(arrays, geometry, LAST_ROUND_HD,
                            lambda idx: predict_hd(regressor, arrays.samples[idx]),
                            budget, checkpoint_interval, progress)
