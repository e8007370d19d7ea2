"""Grid-sweep evaluation: one metric value per probe position.

Each sweep takes the traces of one split as a source of (position,
TraceArrays) pairs, such as traceset.read_positions yields: one position's
traces at a time, in ascending position. It runs an independent
per-position computation (SNR peak, classifier mean rank, CPA or hybrid
disclosure) on each position in turn, on that position's arrays alone, and
assembles a Heatmap. Positions the source does not yield keep the metric's
sentinel (inf for lower-is-better metrics, 0 for SNR where higher means more
leakage found).
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

MIXED_KEY_HINT = ("positions mix keys; disclosure metrics need a fixed-key "
                  "split (simulate with a fixed key)")


def _map_positions(source, fn, out: np.ndarray) -> np.ndarray:
    """Set out[..., p] = fn(p, arrays) for each (p, arrays) of source, in its
    order; out arrives filled with the metric's sentinel for positions
    without traces. A position outside the grid, or a source that yields
    nothing (a split without traces has nothing to sweep), raises
    ConfigError."""
    count = out.shape[-1]
    swept = False
    for p, arrays in source:
        if not 0 <= p < count:
            raise ConfigError(f"position {p} is outside the {count}-position grid")
        out[..., p] = fn(p, arrays)
        swept = True
    if not swept:
        raise ConfigError("no traces in the requested split")
    return out


def _check_fixed_key(keys: np.ndarray) -> bytes:
    """The one key every row of a non-empty (n, 16) key array holds."""
    if (keys != keys[0]).any():
        raise AnalysisError(MIXED_KEY_HINT)
    return keys[0].tobytes()


def _correct_bytes(kind: str, key: bytes):
    """The per-byte guess the attack should rank first."""
    if kind == LAST_ROUND_HD:
        rk10 = round10_key(key)
        return [rk10[int(SHIFT_MAP[j])] for j in range(16)]
    return list(key)


def evaluate_snr_grid(source, geometry: GridGeometry, target: LeakageModel,
                      progress=None) -> Heatmap:
    """Peak SNR per position: partition the traces by the true value of the
    target intermediate and take the max SNR over sample indices."""
    def one(p, arrays):
        if target.kind == LAST_ROUND_HD:
            labels = true_hds(arrays)[:, target.byte_index].astype(np.int64)
            num_classes = 9
        else:
            labels = first_round_labels(target, arrays)
            num_classes = 256
        acc = SnrAccumulator(num_classes, arrays.samples.shape[1])
        acc.update_batch(labels, arrays.samples)
        snr = acc.finalize()
        peak = float(np.max(snr))
        if progress is not None:
            progress({"position": p, "traces": len(arrays), "peak_snr": peak})
        return peak

    values = _map_positions(source, one, np.zeros(geometry.position_count))
    return Heatmap(geometry, values, "peak_snr")


def evaluate_classifier_grid(model: ProfilingModel, source,
                             geometry: GridGeometry, target: LeakageModel,
                             progress=None) -> Heatmap:
    """Mean rank of the true class per position; inf where a position has no
    traces."""
    if model.byte_index is not None and model.byte_index != target.byte_index:
        raise ConfigError(
            f"model profiles byte {model.byte_index}, target asks for "
            f"{target.byte_index}")

    def one(p, arrays):
        mean_rank, _ = classify_attack(model, arrays,
                                       first_round_labels(target, arrays))
        if progress is not None:
            progress({"position": p, "traces": len(arrays),
                      "mean_rank": mean_rank})
        return mean_rank

    values = _map_positions(source, one,
                            np.full(geometry.position_count, math.inf))
    return Heatmap(geometry, values, "mean_rank")


def _run_cpa_position(samples: np.ndarray, publics: np.ndarray, kind: str,
                      correct, checkpoint_interval):
    """Streaming 16-byte CPA over all n traces of one position, which the
    caller has already cut to its budget.

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
    rows (rank 127.5).
    """
    n, m = samples.shape
    first_round = kind != LAST_ROUND_HD
    acc = ClassCpaAccumulator(m, first_round_table(kind)) if first_round \
        else CpaAccumulator(m, 16 * 256)
    ranks = np.full(16, 127.5)  # all-equal scores before anything is scored
    order = list(range(16))  # scoring order; a failing byte moves to the front
    for lo in range(0, n, checkpoint_interval):
        sl = slice(lo, min(lo + checkpoint_interval, n))
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
            if ranks[j] != 0.0 and sl.stop < n:
                order.remove(j)
                order.insert(0, j)
                break
        else:
            if (ranks == 0.0).all():
                return sl.stop, ranks
    return math.inf, ranks


def _disclosure_grid(source, geometry: GridGeometry, kind: str, traces_of,
                     budget, checkpoint_interval: int, progress):
    """Per-position disclosure attack over fixed-key traces.

    traces_of(samples) returns the (n, m) traces CPA correlates for one
    position's samples; it gets only the first `budget` rows, while the
    fixed-key check and the logged trace count cover them all. Returns
    (traces-to-disclosure Heatmap, average-final-rank Heatmap); positions
    without traces stay inf.
    """
    if checkpoint_interval < 1:
        raise ConfigError("checkpoint interval must be >= 1")
    if budget is not None and budget < 0:
        raise ConfigError("budget must be >= 0")

    def one(p, arrays):
        correct = _correct_bytes(kind, _check_fixed_key(arrays.keys))
        publics = arrays.ciphertexts if kind == LAST_ROUND_HD \
            else arrays.plaintexts
        disclosure, ranks = _run_cpa_position(
            traces_of(arrays.samples[:budget]), publics[:budget], kind,
            correct, checkpoint_interval)
        avg = float(ranks.mean())
        if progress is not None:
            progress({"position": p, "traces": len(arrays),
                      "disclosure": disclosure, "average_rank": avg})
        return disclosure, avg

    disclosure_vals, rank_vals = _map_positions(
        source, one, np.full((2, geometry.position_count), math.inf))
    return (Heatmap(geometry, disclosure_vals, "traces_to_disclosure"),
            Heatmap(geometry, rank_vals, "average_rank"))


def evaluate_cpa_grid(source, geometry: GridGeometry, kind: str,
                      budget=None, checkpoint_interval: int = 1000,
                      progress=None):
    """Unprofiled CPA on the raw samples under leakage model `kind`, swept
    over the grid. Every position's traces must share one key; all 16 key
    bytes are attacked. Not under sbox-input: HW(p ^ k ^ 0xff) = 8 - HW(p ^ k),
    so guesses k and k ^ 0xff would tie under |r|."""
    if kind == FIRST_ROUND_SBOX_INPUT:
        raise ConfigError("sbox-input CPA cannot tell guess k from k ^ 0xff")
    return _disclosure_grid(source, geometry, kind, lambda samples: samples,
                            budget, checkpoint_interval, progress)


def evaluate_hybrid_grid(regressor: ProfilingModel, source,
                         geometry: GridGeometry, budget=None,
                         checkpoint_interval: int = 1000, progress=None):
    """Regressor-then-CPA swept over the grid: each trace becomes the
    regressor's 16 predicted last-round HDs, and last-round CPA runs on
    those pseudo-traces. Same outputs as evaluate_cpa_grid."""
    return _disclosure_grid(source, geometry, LAST_ROUND_HD,
                            lambda samples: predict_hd(regressor, samples),
                            budget, checkpoint_interval, progress)
