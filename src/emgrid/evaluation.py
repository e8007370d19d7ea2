"""Grid-sweep evaluation: one metric value per probe position.

Each sweep filters a dataset to one split, groups traces by grid position,
runs an independent per-position computation (SNR peak, classifier mean rank,
CPA or hybrid disclosure), and assembles a Heatmap. Per-position work is pure
and keyed by position index, so a thread pool of any size yields the same
map; empty positions get the metric's sentinel (inf for lower-is-better
metrics, 0 for SNR where higher means more leakage found).
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .aes import SHIFT_MAP, round10_key
from .distinguishers import CpaAccumulator, SnrAccumulator, cpa_scores, rank_of, \
    traces_to_disclosure
from .errors import AnalysisError, ConfigError
from .grid import GridGeometry
from .heatmap import Heatmap
from .leakage import (
    LAST_ROUND_HD,
    LeakageModel,
    build_hypothesis_matrix,
    true_first_round_values,
)
from .profiler import ProfilingModel, classify_attack, predict_hd, true_hds
from .traceset import TraceArrays

MIXED_KEY_HINT = ("positions mix keys; disclosure metrics need a fixed-key "
                  "split (simulate with a fixed key)")


def _split_and_group(arrays: TraceArrays, geometry: GridGeometry, split: int):
    """Filter one split and return {position: index array}, position-sorted."""
    sel = np.nonzero(arrays.splits == split)[0]
    pos = arrays.positions[sel]
    if len(pos) and (pos.min() < 0 or pos.max() >= geometry.position_count):
        raise ConfigError("dataset contains positions outside the grid")
    groups = {}
    for p in np.unique(pos):
        groups[int(p)] = sel[pos == p]
    return groups


def _map_positions(groups, fn, threads: int):
    """Run fn(position, idx) per group; results keyed by position."""
    if threads is None or threads <= 1 or len(groups) <= 1:
        return {p: fn(p, idx) for p, idx in groups.items()}
    out = {}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {p: pool.submit(fn, p, idx) for p, idx in groups.items()}
        for p, fut in futures.items():
            out[p] = fut.result()
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


def evaluate_snr_grid(arrays: TraceArrays, geometry: GridGeometry, split: int,
                      target: LeakageModel, threads: int = 1,
                      progress=None) -> Heatmap:
    """Peak SNR per position: partition the split's traces by the true value
    of the target intermediate and take the max SNR over sample indices."""
    groups = _split_and_group(arrays, geometry, split)
    if not groups:
        raise ConfigError("no traces in the requested split")
    m = arrays.samples.shape[1]
    if target.kind == LAST_ROUND_HD:
        labels_all = true_hds(arrays)[:, target.byte_index].astype(np.int64)
        num_classes = 9
    else:
        labels_all = true_first_round_values(
            target.kind, arrays.plaintexts, arrays.keys,
            target.byte_index).astype(np.int64)
        num_classes = 256

    def one(p, idx):
        acc = SnrAccumulator(num_classes, m)
        acc.update_batch(labels_all[idx], arrays.samples[idx].astype(np.float64))
        snr = acc.finalize()
        peak = float(np.max(snr))
        if progress is not None:
            progress({"position": p, "traces": len(idx), "peak_snr": peak})
        return peak

    results = _map_positions(groups, one, threads)
    values = np.zeros(geometry.position_count)
    for p, v in results.items():
        values[p] = v
    return Heatmap(geometry, values, "peak_snr")


def evaluate_classifier_grid(model: ProfilingModel, arrays: TraceArrays,
                             geometry: GridGeometry, split: int,
                             target: LeakageModel, threads: int = 1,
                             progress=None) -> Heatmap:
    """Mean rank of the true class per position; inf where the split has no
    traces."""
    if model.byte_index is not None and model.byte_index != target.byte_index:
        raise ConfigError(
            f"model profiles byte {model.byte_index}, target asks for "
            f"{target.byte_index}")
    groups = _split_and_group(arrays, geometry, split)
    labels_all = true_first_round_values(
        target.kind, arrays.plaintexts, arrays.keys,
        target.byte_index).astype(np.int64)

    def one(p, idx):
        mean_rank, _ = classify_attack(model, arrays.subset(idx), labels_all[idx])
        if progress is not None:
            progress({"position": p, "traces": len(idx), "mean_rank": mean_rank})
        return mean_rank

    results = _map_positions(groups, one, threads)
    values = np.full(geometry.position_count, math.inf)
    for p, v in results.items():
        values[p] = v
    return Heatmap(geometry, values, "mean_rank")


def _run_cpa_position(samples: np.ndarray, publics: np.ndarray, kind: str,
                      correct, budget, checkpoint_interval):
    """Streaming 16-byte CPA over one position's traces; returns the
    disclosure result and the final 16 byte ranks."""
    n, m = samples.shape
    accs = [CpaAccumulator(m) for _ in range(16)]

    def feed(sl: slice) -> int:
        X = samples[sl].astype(np.float64)
        for j in range(16):
            H = build_hypothesis_matrix(publics[sl], LeakageModel(kind, j))
            accs[j].update_batch(H, X)
        return X.shape[0]

    def scores() -> np.ndarray:
        out = np.zeros((16, 256))
        for j in range(16):
            if accs[j].n >= 2:
                out[j] = cpa_scores(accs[j].finalize().corr)
        return out

    limit = n if budget is None else min(n, budget)
    slices = [slice(lo, min(lo + checkpoint_interval, limit))
              for lo in range(0, limit, checkpoint_interval)]
    disclosure = traces_to_disclosure(slices, feed, scores, correct,
                                      checkpoint_interval, budget)
    final = scores()
    ranks = np.array([rank_of(final[j], correct[j]) for j in range(16)])
    return disclosure, ranks


def _disclosure_grid(arrays: TraceArrays, geometry: GridGeometry, split: int,
                     kind: str, traces_of, budget, checkpoint_interval: int,
                     threads: int, progress):
    """Per-position disclosure attack over a fixed-key split.

    traces_of(idx) returns the (n, m) traces CPA correlates for one
    position's row indices. Returns (traces-to-disclosure Heatmap,
    average-final-rank Heatmap); positions without traces stay inf.
    """
    if checkpoint_interval < 1:
        raise ConfigError("checkpoint interval must be >= 1")
    if budget is not None and budget < 0:
        raise ConfigError("budget must be >= 0")
    groups = _split_and_group(arrays, geometry, split)
    publics_all = arrays.ciphertexts if kind == LAST_ROUND_HD \
        else arrays.plaintexts

    def one(p, idx):
        correct = _correct_bytes(kind, _check_fixed_key(arrays.keys[idx]))
        disclosure, ranks = _run_cpa_position(
            traces_of(idx), publics_all[idx], kind, correct, budget,
            checkpoint_interval)
        avg = float(ranks.mean())
        if progress is not None:
            progress({"position": p, "traces": len(idx),
                      "disclosure": disclosure.full_key, "average_rank": avg})
        return disclosure.full_key, avg

    results = _map_positions(groups, one, threads)
    disclosure_vals = np.full(geometry.position_count, math.inf)
    rank_vals = np.full(geometry.position_count, math.inf)
    for p, (d, r) in results.items():
        disclosure_vals[p] = d
        rank_vals[p] = r
    return (Heatmap(geometry, disclosure_vals, "traces_to_disclosure"),
            Heatmap(geometry, rank_vals, "average_rank"))


def evaluate_cpa_grid(arrays: TraceArrays, geometry: GridGeometry, split: int,
                      target: LeakageModel, budget=None,
                      checkpoint_interval: int = 1000, threads: int = 1,
                      progress=None):
    """Unprofiled CPA on the raw samples, swept over the grid. Every
    position's split traces must share one key; target.byte_index is
    ignored, all 16 key bytes are attacked."""
    return _disclosure_grid(arrays, geometry, split, target.kind,
                            lambda idx: arrays.samples[idx], budget,
                            checkpoint_interval, threads, progress)


def evaluate_hybrid_grid(regressor: ProfilingModel, arrays: TraceArrays,
                         geometry: GridGeometry, split: int, budget=None,
                         checkpoint_interval: int = 1000, threads: int = 1,
                         progress=None):
    """Regressor-then-CPA swept over the grid: each trace becomes the
    regressor's 16 predicted last-round HDs, and last-round CPA runs on
    those pseudo-traces. Same outputs as evaluate_cpa_grid."""
    return _disclosure_grid(arrays, geometry, split, LAST_ROUND_HD,
                            lambda idx: predict_hd(regressor, arrays.samples[idx]),
                            budget, checkpoint_interval, threads, progress)
