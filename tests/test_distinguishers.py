"""Statistical-core tests: hand-computed Welford values, closed-form SNR,
batch Pearson oracles, merge laws, the class-sum CPA accumulator against the
hypothesis GEMM one, rank conventions, and the disclosure loop of
evaluation._run_cpa_position against an all-16-byte reference loop."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgrid import distinguishers, evaluation
from emgrid.aes import SBOX, encrypt_blocks, expand_keys_batch
from emgrid.distinguishers import (
    ClassCpaAccumulator,
    CpaAccumulator,
    SnrAccumulator,
    cpa_scores,
    rank_of,
)
from emgrid.errors import AnalysisError
from emgrid.grid import GridGeometry
from emgrid.leakage import (
    FIRST_ROUND_SBOX_INPUT,
    FIRST_ROUND_SBOX_OUTPUT,
    HW_TABLE,
    LAST_ROUND_HD,
    LeakageModel,
    build_hypothesis_matrix,
    first_round_table,
)
from emgrid.profiler import first_round_labels, true_hds
from emgrid.traceset import TraceArrays
from positions import by_position


# ---------------------------------------------------------------- SNR

def welford_update(acc: SnrAccumulator, label: int, samples) -> SnrAccumulator:
    """Single-trace Welford update: the reference for update_batch."""
    x = np.asarray(samples, dtype=np.float64)
    acc.counts[label] += 1
    delta = x - acc.mean[label]
    acc.mean[label] += delta / acc.counts[label]
    acc.m2[label] += delta * (x - acc.mean[label])
    return acc


def test_welford_single_update():
    acc = SnrAccumulator(num_classes=4, m=3)
    acc.update_batch([2], np.array([[1.0, -1.0, 5.0]]))
    assert acc.counts[2] == 1
    assert np.array_equal(acc.mean[2], [1.0, -1.0, 5.0])
    assert np.array_equal(acc.m2[2], [0.0, 0.0, 0.0])


def test_welford_hand_values():
    # Samples 2 then 4 in one class: mean 3, M2 = (2-3)^2 + (4-3)^2 = 2.
    acc = SnrAccumulator(num_classes=2, m=1)
    acc.update_batch([0], [[2.0]]).update_batch([0], [[4.0]])
    assert acc.counts[0] == 2
    assert acc.mean[0][0] == 3.0
    assert acc.m2[0][0] == 2.0


def test_snr_closed_form():
    # Class A {-1,0,1}: mean 0, unbiased var 1. Class B {1,2,3}: mean 2,
    # var 1. Population variance of means {0,2} is 1, so SNR = 1 exactly.
    acc = SnrAccumulator(num_classes=2, m=1)
    acc.update_batch([0, 0, 0], [[-1.0], [0.0], [1.0]])
    acc.update_batch([1, 1, 1], [[1.0], [2.0], [3.0]])
    snr = acc.finalize()
    assert snr.shape == (1,)
    assert snr[0] == pytest.approx(1.0, abs=1e-12)


def test_snr_order_invariance():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, 60)
    xs = rng.normal(size=(60, 5))
    a = SnrAccumulator(4, 5).update_batch(labels, xs)
    b = SnrAccumulator(4, 5)
    perm = rng.permutation(60)
    for lo in range(0, 60, 7):
        b.update_batch(labels[perm[lo:lo + 7]], xs[perm[lo:lo + 7]])
    np.testing.assert_allclose(a.finalize(), b.finalize(), rtol=1e-12)


def test_snr_near_zero_when_classes_identical():
    rng = np.random.default_rng(1)
    acc = SnrAccumulator(2, 4)
    acc.update_batch(np.zeros(10_000, dtype=int), rng.normal(size=(10_000, 4)))
    acc.update_batch(np.ones(10_000, dtype=int), rng.normal(size=(10_000, 4)))
    assert np.all(acc.finalize() < 0.05)


def test_snr_infinite_sentinel_on_noiseless_signal():
    acc = SnrAccumulator(2, 2)
    acc.update_batch([0, 1] * 3, [[1.0, 7.0], [2.0, 7.0]] * 3)
    snr = acc.finalize()
    assert snr[0] == np.inf  # class-dependent, zero noise
    assert snr[1] == 0.0     # constant everywhere: no signal, no noise


def test_snr_insufficient_data():
    acc = SnrAccumulator(3, 2)
    acc.update_batch([0, 0, 1], [[1.0, 2.0], [2.0, 3.0], [0.0, 1.0]])
    with pytest.raises(AnalysisError):
        acc.finalize()  # only one class reaches 2 traces
    with pytest.raises(AnalysisError):
        acc.update_batch([3], [[0.0, 0.0]])


def test_snr_batch_equals_single_updates():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 9, 300)
    xs = rng.normal(size=(300, 7))
    a = SnrAccumulator(9, 7)
    for i in range(300):
        welford_update(a, labels[i], xs[i])
    b = SnrAccumulator(9, 7).update_batch(labels, xs)
    np.testing.assert_allclose(a.finalize(), b.finalize(), rtol=1e-12)


def test_snr_merge_law_three_way():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 5, 400)
    xs = rng.normal(size=(400, 6))
    single = SnrAccumulator(5, 6).update_batch(labels, xs)
    merged = SnrAccumulator(5, 6)
    for lo, hi in ((0, 150), (150, 151), (151, 400)):
        shard = SnrAccumulator(5, 6).update_batch(labels[lo:hi], xs[lo:hi])
        merged.merge(shard)
    np.testing.assert_allclose(merged.finalize(), single.finalize(), rtol=1e-12)


def oracle_merge_class(acc, c, nb, mb, m2b):
    """One class's pairwise (Chan, Golub and LeVeque) update."""
    na = int(acc.counts[c])
    if na == 0:
        acc.counts[c] = nb
        acc.mean[c] = mb
        acc.m2[c] = m2b
        return
    tot = na + nb
    delta = mb - acc.mean[c]
    acc.mean[c] += delta * (nb / tot)
    acc.m2[c] += m2b + delta * delta * (na * nb / tot)
    acc.counts[c] = tot


def per_class_update(acc: SnrAccumulator, labels, samples) -> SnrAccumulator:
    """update_batch as a Python loop over classes: numpy's mean and sum of
    squared deviations per class, then one pairwise update per class. The
    bit-for-bit reference for the vectorized update."""
    labels = np.asarray(labels)
    x = np.asarray(samples, dtype=np.float64)
    order = np.argsort(labels, kind="stable")
    classes, starts = np.unique(labels[order], return_index=True)
    bounds = np.append(starts, len(labels))
    for k, c in enumerate(classes):
        rows = x[order[bounds[k]:bounds[k + 1]]]
        mb = rows.mean(axis=0)
        oracle_merge_class(acc, int(c), rows.shape[0], mb,
                           ((rows - mb) ** 2).sum(axis=0))
    return acc


def per_class_merge(acc: SnrAccumulator, other: SnrAccumulator) -> SnrAccumulator:
    for c in np.nonzero(other.counts)[0]:
        oracle_merge_class(acc, int(c), int(other.counts[c]), other.mean[c],
                           other.m2[c])
    return acc


def assert_same_bits(got: SnrAccumulator, want: SnrAccumulator):
    for name in ("counts", "mean", "m2"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b), name
        assert a.tobytes() == b.tobytes(), name  # signed zeros too


def snr_batch(rng, num_classes, b, m, skewed, dtype=np.float32):
    """Labels, uniform or piled onto a few classes, and float32-valued
    samples of the given dtype with some exact zeros of either sign."""
    if skewed:
        labels = np.minimum(rng.geometric(0.3, b) - 1, num_classes - 1)
    else:
        labels = rng.integers(0, num_classes, b)
    x = rng.normal(size=(b, m)).astype(np.float32).astype(dtype)
    x[rng.random((b, m)) < 0.05] = -0.0
    x[rng.random((b, m)) < 0.05] = 0.0
    return labels, x


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_snr_update_and_merge_match_per_class_oracle(data):
    """update_batch and merge keep counts, means and M2 bit for bit equal to
    the per-class loop, over batches that take either loop direction:
    uniform labels over many classes (few rows per class) and skewed labels
    (one large class), empty batches, and repeated batches into one
    accumulator, with float32 (as .emgd files hold) or float64 samples."""
    m = data.draw(st.sampled_from([1, 2, 3, 32]), label="m")
    num_classes = data.draw(st.sampled_from([2, 9, 256]), label="classes")
    sizes = data.draw(st.lists(st.integers(0, 3000), min_size=1, max_size=4),
                      label="batch sizes")
    split = data.draw(st.integers(0, len(sizes)), label="merge split")
    dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    got = [SnrAccumulator(num_classes, m), SnrAccumulator(num_classes, m)]
    want = [SnrAccumulator(num_classes, m), SnrAccumulator(num_classes, m)]
    for i, b in enumerate(sizes):
        skewed = data.draw(st.booleans(), label="skewed")
        labels, x = snr_batch(rng, num_classes, b, m, skewed, dtype)
        side = int(i >= split)  # later batches go to a second shard
        got[side].update_batch(labels, x)
        per_class_update(want[side], labels, x)
        assert_same_bits(got[side], want[side])
    assert_same_bits(got[0].merge(got[1]), per_class_merge(want[0], want[1]))


@pytest.mark.parametrize("num_classes,b,m,skewed,by_row", [
    (256, 600, 5, False, True),    # many classes, a few rows each
    (9, 600, 5, False, False),     # few classes, many rows each
    (256, 600, 5, True, False),    # one large class
    (256, 4000, 1, False, False),  # one column: numpy sums it pairwise
])
def test_snr_update_takes_the_shorter_loop(monkeypatch, num_classes, b, m,
                                           skewed, by_row):
    """A batch loops over its classes or over the rows of its largest class,
    whichever is shorter, and always over its classes when m == 1; either
    way it gives the oracle's statistics."""
    calls = []
    row_stats = distinguishers._class_stats_by_row
    monkeypatch.setattr(distinguishers, "_class_stats_by_row",
                        lambda *a: calls.append(a) or row_stats(*a))
    labels, x = snr_batch(np.random.default_rng(b), num_classes, b, m, skewed)
    got = SnrAccumulator(num_classes, m).update_batch(labels, x)
    assert len(calls) == int(by_row)
    assert_same_bits(got, per_class_update(SnrAccumulator(num_classes, m),
                                           labels, x))


@pytest.mark.parametrize("target", [LeakageModel(FIRST_ROUND_SBOX_INPUT, 3),
                                    LeakageModel(LAST_ROUND_HD, 5)])
def test_snr_grid_matches_per_class_oracle(target):
    """evaluate_snr_grid's heatmap equals, bit for bit, one per-class-loop
    accumulator per position."""
    rng = np.random.default_rng(21)
    geometry = GridGeometry(2, 2, 1, 1.0, 1.0, (0.0, 0.0, 0.0))
    n, m = 2400, 6
    pts = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    keys = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    cts = encrypt_blocks(pts, expand_keys_batch(keys))
    positions = rng.integers(0, 3, n).astype(np.int32)  # position 3 stays empty
    arrays = TraceArrays(rng.normal(size=(n, m)).astype(np.float32), keys, pts,
                         cts, positions, np.zeros(n, dtype=np.uint8))
    if target.kind == LAST_ROUND_HD:
        labels, num_classes = true_hds(arrays)[:, 5].astype(np.int64), 9
    else:
        labels, num_classes = first_round_labels(target, arrays), 256
    want = np.zeros(4)
    for p in range(3):
        idx = np.flatnonzero(positions == p)
        acc = per_class_update(SnrAccumulator(num_classes, m), labels[idx],
                               arrays.samples[idx])
        want[p] = np.max(acc.finalize())
    got = evaluation.evaluate_snr_grid(by_position(arrays), geometry,
                                     target).values
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- CPA

def batch_pearson(H, X):
    """Two-pass oracle: plain centered Pearson per (hypothesis, sample)."""
    Hc = H - H.mean(axis=1, keepdims=True)
    Xc = X - X.mean(axis=0, keepdims=True)
    num = Hc @ Xc
    den = np.sqrt((Hc ** 2).sum(axis=1)[:, None] * (Xc ** 2).sum(axis=0)[None, :])
    return num / den


def pearson_update(acc: CpaAccumulator, hypotheses, samples) -> CpaAccumulator:
    """Single-trace update of the Pearson sums: the reference for
    update_batch."""
    h = np.asarray(hypotheses, dtype=np.float64)
    x = np.asarray(samples, dtype=np.float64)
    acc.n += 1
    acc.sum_h += h
    acc.sum_h2 += h * h
    acc.sum_x += x
    acc.sum_x2 += x * x
    acc.sum_hx += np.outer(h, x)
    return acc


def test_cpa_single_trace_errors():
    acc = CpaAccumulator(m=3)
    acc.update_batch(np.arange(256)[:, None], [[1.0, 2.0, 3.0]])
    with pytest.raises(AnalysisError):
        acc.finalize()


def test_cpa_matches_batch_pearson_oracle():
    rng = np.random.default_rng(4)
    H = rng.integers(0, 9, (256, 100))
    X = rng.normal(size=(100, 12))
    acc = CpaAccumulator(m=12)
    for lo in range(0, 100, 30):
        acc.update_batch(H[:, lo:lo + 30], X[lo:lo + 30])
    res = acc.finalize()
    np.testing.assert_allclose(res.corr, batch_pearson(H.astype(float), X),
                               rtol=1e-9, atol=1e-12)
    assert not res.degenerate_hypotheses.any()
    assert not res.degenerate_samples.any()


def test_cpa_update_batch_equals_updates():
    rng = np.random.default_rng(5)
    H = rng.integers(0, 256, (256, 64))
    X = rng.normal(size=(64, 9))
    a = CpaAccumulator(m=9)
    for i in range(64):
        pearson_update(a, H[:, i], X[i])
    b = CpaAccumulator(m=9).update_batch(H, X)
    np.testing.assert_allclose(a.finalize().corr, b.finalize().corr, rtol=1e-12)


def test_cpa_merge_law():
    rng = np.random.default_rng(6)
    H = rng.integers(0, 9, (256, 150))
    X = rng.normal(size=(150, 5))
    single = CpaAccumulator(m=5).update_batch(H, X)
    merged = CpaAccumulator(m=5)
    for lo, hi in ((0, 40), (40, 41), (41, 150)):
        merged.merge(CpaAccumulator(m=5).update_batch(H[:, lo:hi], X[lo:hi]))
    np.testing.assert_allclose(merged.finalize().corr, single.finalize().corr,
                               rtol=1e-12)


def test_cpa_perfect_correlation_signs():
    acc = CpaAccumulator(m=1, num_hypotheses=2)
    v = np.array([1.0, 2.0, 5.0])
    acc.update_batch(np.stack([v, -v]), v[:, None])
    res = acc.finalize()
    assert res.corr[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert res.corr[1, 0] == pytest.approx(-1.0, abs=1e-12)


def test_cpa_constant_row_flagged_zero():
    acc = CpaAccumulator(m=2, num_hypotheses=3)
    H = np.array([[1, 1, 1], [0, 1, 2], [5, 5, 5]])  # rows 0 and 2 constant
    acc.update_batch(H, np.array([[0.1, 1.0], [0.2, 2.0], [0.3, 1.5]]))
    res = acc.finalize()
    assert res.degenerate_hypotheses.tolist() == [True, False, True]
    assert np.all(res.corr[0] == 0.0) and np.all(res.corr[2] == 0.0)
    assert abs(res.corr[1, 0]) > 0


def test_cpa_constant_sample_column_flagged():
    acc = CpaAccumulator(m=2, num_hypotheses=4)
    rng = np.random.default_rng(7)
    H = rng.integers(0, 4, (4, 10))
    X = np.column_stack([np.full(10, 3.25), rng.normal(size=10)])
    res = acc.update_batch(H, X).finalize()
    assert res.degenerate_samples.tolist() == [True, False]
    assert np.all(res.corr[:, 0] == 0.0)


def test_cpa_bounds_on_random_data():
    rng = np.random.default_rng(8)
    acc = CpaAccumulator(m=20)
    acc.update_batch(rng.integers(0, 9, (256, 500)), rng.normal(size=(500, 20)))
    corr = acc.finalize().corr
    assert np.all(corr <= 1 + 1e-9) and np.all(corr >= -1 - 1e-9)


def test_cpa_affine_invariance_of_ranks():
    rng = np.random.default_rng(9)
    H = rng.integers(0, 9, (256, 200))
    X = rng.normal(size=(200, 8))
    r1 = CpaAccumulator(m=8).update_batch(H, X).finalize().corr
    r2 = CpaAccumulator(m=8).update_batch(H, 3.7 * X + 11.0).finalize().corr
    s1, s2 = cpa_scores(r1), cpa_scores(r2)
    assert s1.argmax() == s2.argmax()
    for c in (0, 13, 255):
        assert rank_of(s1, c) == rank_of(s2, c)


def test_cpa_scores_row_scan_oracle():
    rng = np.random.default_rng(10)
    corr = rng.uniform(-1, 1, (256, 30))
    scores = cpa_scores(corr)
    for j in range(0, 256, 31):
        assert scores[j] == max(abs(v) for v in corr[j])
    corr[3] = 0.9
    corr[np.arange(256) != 3] *= 0.3
    assert cpa_scores(corr).argmax() == 3
    assert np.all(cpa_scores(np.zeros((256, 4))) == 0.0)


def unblocked_update(acc: CpaAccumulator, hypotheses, samples) -> CpaAccumulator:
    """update_batch without row blocks or reused buffers: one float64 cast
    of every hypothesis row and one fresh GEMM. The reference for the
    stacked, blocked update."""
    H = np.asarray(hypotheses, dtype=np.float64)
    X = np.asarray(samples, dtype=np.float64)
    acc.n += X.shape[0]
    acc.sum_h += H.sum(axis=1)
    acc.sum_h2 += (H * H).sum(axis=1)
    acc.sum_x += X.sum(axis=0)
    acc.sum_x2 += (X * X).sum(axis=0)
    acc.sum_hx += H @ X
    return acc


def row_blocks(num_hypotheses):
    return [slice(lo, min(lo + 256, num_hypotheses))
            for lo in range(0, num_hypotheses, 256)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_cpa_equals_per_byte_accumulators(data):
    """One accumulator over many 256-row blocks holds, bit for bit, the sums
    and per-block correlations of one unblocked accumulator per block: the
    16 per-byte accumulators the disclosure loop used to keep."""
    num_h = data.draw(st.sampled_from([16 * 256, 256, 1, 255, 300, 3 * 256 + 7]),
                      label="num_hypotheses")
    m = data.draw(st.integers(1, 24), label="m")
    sizes = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=5),
                      label="batch sizes")  # b changes; the last is ragged
    split = data.draw(st.integers(0, len(sizes)), label="merge split")
    floats = data.draw(st.booleans(), label="float hypotheses")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    stacked = [CpaAccumulator(m, num_h), CpaAccumulator(m, num_h)]
    per_byte = [[CpaAccumulator(m, r.stop - r.start) for r in row_blocks(num_h)]
                for _ in stacked]
    for i, b in enumerate(sizes):
        H = rng.normal(size=(num_h, b)) if floats else \
            rng.integers(0, 256, (num_h, b), dtype=np.uint8)
        X = rng.normal(size=(b, m)).astype(np.float32)
        side = int(i >= split)  # later batches go to a second shard
        stacked[side].update_batch(H, X)
        for acc, rows in zip(per_byte[side], row_blocks(num_h)):
            unblocked_update(acc, H[rows], X)
    got = stacked[0].merge(stacked[1])
    want = [a.merge(b) for a, b in zip(*per_byte)]
    assert got.n == sum(sizes)
    for acc, rows in zip(want, row_blocks(num_h)):
        assert acc.n == got.n
        for name in ("sum_x", "sum_x2"):
            assert np.array_equal(getattr(got, name), getattr(acc, name))
        for name in ("sum_h", "sum_h2", "sum_hx"):
            assert np.array_equal(getattr(got, name)[rows], getattr(acc, name))
        if got.n >= 2:
            block, oracle = got.finalize(rows), acc.finalize()
            assert np.array_equal(block.corr, oracle.corr)
            assert np.array_equal(block.degenerate_hypotheses,
                                  oracle.degenerate_hypotheses)
    if got.n >= 2:
        assert np.array_equal(got.finalize().corr,
                              np.concatenate([a.finalize().corr for a in want]))


def test_stacked_update_allocates_block_buffers_only():
    """A 16-byte update of 250 traces x 500 samples allocates at most about
    two blocks' worth of buffers, never a (4096, m) or (4096, b) float64
    temporary (16 and 8 MB here)."""
    b, m = 250, 500
    rng = np.random.default_rng(11)
    H = rng.integers(0, 9, (16 * 256, b), dtype=np.uint8)
    X = rng.normal(size=(b, m))
    acc = CpaAccumulator(m, 16 * 256)
    block_bytes = 256 * (b + m) * 8  # one hypothesis and one product buffer
    tracemalloc.start()
    try:
        acc.update_batch(H, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * block_bytes, peak


# ------------------------------------------------------- class-sum CPA

FIRST_ROUND_KINDS = [FIRST_ROUND_SBOX_INPUT, FIRST_ROUND_SBOX_OUTPUT]


def byte_rows(j):
    return slice(256 * j, 256 * (j + 1))


def gemm_accumulator(plaintexts, samples, kind, sizes):
    """The GEMM path: a CpaAccumulator of 16 * 256 hypotheses fed
    build_hypothesis_matrix, one update per slice."""
    acc = CpaAccumulator(samples.shape[1], 16 * 256)
    lo = 0
    for b in sizes:
        sl = slice(lo, lo + b)
        acc.update_batch(np.concatenate(
            [build_hypothesis_matrix(plaintexts[sl], LeakageModel(kind, j))
             for j in range(16)]), samples[sl])
        lo += b
    return acc


def class_accumulator(plaintexts, samples, kind, sizes):
    acc = ClassCpaAccumulator(samples.shape[1], first_round_table(kind))
    lo = 0
    for b in sizes:
        acc.update_batch(plaintexts[lo:lo + b], samples[lo:lo + b])
        lo += b
    return acc


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_class_cpa_matches_gemm_accumulator(data):
    """Class sums give the GEMM path's correlations to rounding, for both
    first-round kinds and any split of the traces into slices; the
    hypothesis sums, exact integers, agree bit for bit."""
    kind = data.draw(st.sampled_from(FIRST_ROUND_KINDS), label="kind")
    m = data.draw(st.integers(1, 12), label="m")
    sizes = data.draw(st.lists(st.integers(1, 300), min_size=1, max_size=4),
                      label="slice sizes")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    P = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    X = rng.normal(size=(n, m)).astype(np.float32)
    got = class_accumulator(P, X, kind, sizes)
    want = gemm_accumulator(P, X, kind, sizes)
    assert got.n == want.n == n
    if n < 2:
        return
    for j in range(16):
        a, b = got.finalize(byte_rows(j)), want.finalize(byte_rows(j))
        np.testing.assert_allclose(a.corr, b.corr, rtol=1e-12)
        assert np.array_equal(a.degenerate_hypotheses, b.degenerate_hypotheses)
        assert np.array_equal(a.degenerate_samples, b.degenerate_samples)
        c = got.counts[byte_rows(j)].astype(np.float64)
        assert np.array_equal(got.table @ c, want.sum_h[byte_rows(j)])
        assert np.array_equal(got.table_sq @ c, want.sum_h2[byte_rows(j)])


def test_class_cpa_constant_plaintext_byte_scores_all_equal():
    """A plaintext byte that never changes makes every hypothesis of its key
    byte constant: zero rows, and the correct guess ranks 127.5."""
    rng = np.random.default_rng(3)
    P = rng.integers(0, 256, (40, 16), dtype=np.uint8)
    P[:, 5] = 0x3C
    acc = ClassCpaAccumulator(4, first_round_table(FIRST_ROUND_SBOX_OUTPUT))
    acc.update_batch(P, rng.normal(size=(40, 4)))
    res = acc.finalize(byte_rows(5))
    assert res.degenerate_hypotheses.all()
    assert np.all(res.corr == 0.0)
    assert rank_of(cpa_scores(res.corr), 17) == 127.5
    assert not acc.finalize(byte_rows(4)).degenerate_hypotheses.any()


def test_class_cpa_constant_sample_column_flagged():
    rng = np.random.default_rng(7)
    X = np.column_stack([np.full(30, 3.25), rng.normal(size=30)])
    acc = ClassCpaAccumulator(2, first_round_table(FIRST_ROUND_SBOX_INPUT))
    acc.update_batch(rng.integers(0, 256, (30, 16), dtype=np.uint8), X)
    res = acc.finalize(byte_rows(0))
    assert res.degenerate_samples.tolist() == [True, False]
    assert np.all(res.corr[:, 0] == 0.0)
    assert np.any(res.corr[:, 1] != 0.0)


def test_class_cpa_needs_two_traces_and_one_byte():
    acc = ClassCpaAccumulator(3, first_round_table(FIRST_ROUND_SBOX_OUTPUT))
    with pytest.raises(AnalysisError):
        acc.finalize(byte_rows(0))
    acc.update_batch(np.zeros((1, 16), np.uint8), [[1.0, 2.0, 3.0]])
    with pytest.raises(AnalysisError, match="n=1"):
        acc.finalize(byte_rows(0))
    acc.update_batch(np.ones((1, 16), np.uint8), [[1.0, 2.0, 4.0]])
    for rows in (slice(0, 512), slice(128, 384), slice(4096, 4352)):
        with pytest.raises(AnalysisError):
            acc.finalize(rows)
    with pytest.raises(AnalysisError):
        acc.update_batch(np.zeros((2, 15), np.uint8), np.zeros((2, 3)))
    with pytest.raises(AnalysisError):
        acc.update_batch(np.zeros((2, 16), np.uint8), np.zeros((3, 3)))


# ---------------------------------------------------------- scores/ranks

def test_rank_of_examples():
    scores = np.zeros(256)
    scores[7] = 1.0
    assert rank_of(scores, 7) == 0.0
    assert rank_of(np.full(256, 0.25), 3) == 127.5
    scores = np.ones(256)
    scores[9] = -1.0
    assert rank_of(scores, 9) == 255.0
    # rows of scores with one correct index each give one rank per row
    rows = np.random.default_rng(0).integers(0, 4, (40, 256)).astype(float)
    correct = np.arange(40) * 7 % 256
    want = [sum(v > r[c] for v in r) + (sum(v == r[c] for v in r) - 1) / 2
            for r, c in zip(rows, correct)]
    assert rank_of(rows, correct).tolist() == want


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=256, max_size=256))
def test_mid_rank_sum_invariant(vals):
    scores = np.array(vals, dtype=float)
    total = sum(rank_of(scores, c) for c in range(256))
    assert total == 256 * 255 / 2


# ------------------------------------------------------ disclosure loop

KEY = list(range(16))


class Plan:
    """Rigged score rows for evaluation._run_cpa_position.

    entries is a list of (threshold, (16, 256) matrix), ascending. A byte
    finalized after n traces gets its row of the last entry whose threshold
    n reached. `finalized` logs the (byte, n) of every finalize call.
    """

    def __init__(self, entries):
        self.entries = entries
        self.finalized = []

    def row(self, byte, n):
        current = self.entries[0][1]
        for threshold, matrix in self.entries:
            if n >= threshold:
                current = matrix
        return current[byte]


class FakeAccumulator:
    """Stands in for evaluation.ClassCpaAccumulator(m, table), the
    first-round loop's accumulator, and for evaluation.CpaAccumulator(m,
    16 * 256), the reference loop's. It checks that each byte's 256
    hypotheses are its own (rigged_publics makes byte b's hypotheses zero
    only at guess b: in the class path, table column p[b]; in the GEMM path,
    the byte's 256-row block) and counts its traces, so what finalize(rows)
    returns depends on (byte, traces processed), not on the order of
    calls."""

    def __init__(self, plan, table=None):
        self.plan = plan
        self.table = table
        self.n = 0

    def update_batch(self, publics_or_H, X):
        if self.table is None:
            H = publics_or_H
            hypotheses = [H[256 * b:256 * (b + 1), 0] for b in range(16)]
        else:
            hypotheses = [self.table[:, publics_or_H[0, b]] for b in range(16)]
        learned = [int(np.argmin(h)) for h in hypotheses]
        assert learned == list(range(16))
        self.n += X.shape[0]
        return self

    def finalize(self, rows):
        byte, rest = divmod(rows.start, 256)
        assert rest == 0 and rows.stop == rows.start + 256
        self.plan.finalized.append((byte, self.n))
        # cpa_scores takes |r|: the (nonnegative) rigged row is the score
        return SimpleNamespace(corr=self.plan.row(byte, self.n)[:, None])


def rigged_publics(n):
    """Plaintext byte j is j in every trace, so the sbox-input hypothesis
    HW(j ^ guess) of byte j is zero at guess j only."""
    return np.tile(np.arange(16, dtype=np.uint8), (n, 1))


def reference_run_cpa_position(samples, publics, kind, correct, budget,
                               interval):
    """Disclosure loop that scores all 16 bytes at every checkpoint."""
    n, m = samples.shape
    limit = n if budget is None else min(n, budget)
    acc = evaluation.CpaAccumulator(m, 16 * 256)
    ranks = np.full(16, 127.5)
    for lo in range(0, limit, interval):
        sl = slice(lo, min(lo + interval, limit))
        acc.update_batch(
            np.concatenate([build_hypothesis_matrix(publics[sl],
                                                    LeakageModel(kind, j))
                            for j in range(16)]), samples[sl])
        scores = np.zeros((16, 256))
        for j in range(16):
            if acc.n >= 2:
                scores[j] = cpa_scores(
                    acc.finalize(slice(256 * j, 256 * (j + 1))).corr)
        ranks = np.array([rank_of(scores[j], correct[j]) for j in range(16)])
        if (ranks == 0.0).all():
            return sl.stop, ranks
    return math.inf, ranks


def run_disclosure(mp, entries, n, interval=1000, budget=None,
                   reference=False):
    """Drive a disclosure loop over n traces with rigged scores: the
    reference loop, which cuts the traces to the budget itself, or
    evaluation._run_cpa_position on traces already cut to it. mp is a
    pytest MonkeyPatch. Returns (disclosure, final ranks, finalize log)."""
    plan = Plan(entries)

    def fake_gemm(m, num_hypotheses):
        assert num_hypotheses == 16 * 256
        return FakeAccumulator(plan)

    mp.setattr(evaluation, "CpaAccumulator", fake_gemm)
    mp.setattr(evaluation, "ClassCpaAccumulator",
               lambda m, table: FakeAccumulator(plan, table))
    samples, publics = np.zeros((n, 2), np.float32), rigged_publics(n)
    if reference:
        disclosure, ranks = reference_run_cpa_position(
            samples, publics, FIRST_ROUND_SBOX_INPUT, KEY, budget, interval)
    else:
        disclosure, ranks = evaluation._run_cpa_position(
            samples[:budget], publics[:budget], FIRST_ROUND_SBOX_INPUT, KEY,
            interval)
    return disclosure, ranks, plan.finalized


def perfect_matrix(key):
    m = np.zeros((16, 256))
    for b in range(16):
        m[b, key[b]] = 1.0
    return m


def all_bytes(n):
    return [(b, n) for b in range(16)]


def test_disclosure_immediate(monkeypatch):
    full_key, ranks, finalized = run_disclosure(
        monkeypatch, [(0, perfect_matrix(KEY))], 1500, budget=3000)
    assert full_key == 1000 and isinstance(full_key, int)
    assert ranks.tolist() == [0.0] * 16
    assert finalized == all_bytes(1000)


def test_disclosure_never_uniform(monkeypatch):
    full_key, ranks, finalized = run_disclosure(
        monkeypatch, [(0, np.ones((16, 256)))], 10_000, budget=5000)
    assert full_key == math.inf
    assert ranks.tolist() == [127.5] * 16
    # byte 0 fails each checkpoint alone; the budget ends the stream at 5000
    assert finalized == [(0, 1000), (0, 2000), (0, 3000), (0, 4000)] + \
        all_bytes(5000)


def test_disclosure_tie_counts_as_failure(monkeypatch):
    tied = perfect_matrix(KEY)
    tied[0, 200] = 1.0  # byte 0 ties with a wrong candidate
    full_key, ranks, finalized = run_disclosure(monkeypatch, [(0, tied)], 2000,
                                                budget=2000)
    assert full_key == math.inf
    assert ranks[0] == 0.5
    assert ranks[1] == 0.0
    assert finalized == [(0, 1000)] + all_bytes(2000)


def test_disclosure_partial_then_full(monkeypatch):
    partial = perfect_matrix(KEY)
    partial[3] = 0.0  # byte 3 undecided early
    full_key, ranks, finalized = run_disclosure(
        monkeypatch, [(0, partial), (3000, perfect_matrix(KEY))], 6000,
        budget=6000)
    assert full_key == 3000
    assert ranks.tolist() == [0.0] * 16
    # byte 3 stops the first checkpoint and is scored first from then on;
    # the loop stops at the disclosing checkpoint
    assert finalized == [(b, 1000) for b in range(4)] + [(3, 2000)] + \
        [(b, 3000) for b in [3, 0, 1, 2] + list(range(4, 16))]


def test_disclosure_end_of_stream_checkpoint(monkeypatch):
    full_key, _, finalized = run_disclosure(
        monkeypatch, [(0, perfect_matrix(KEY))], 700)
    assert full_key == 700
    assert finalized == all_bytes(700)


BYTE_STATES = ["first"] * 4 + ["tie", "behind", "flat"]


def rigged_matrix(states, other):
    """One (16, 256) score matrix: byte b ranks first, ties with candidate
    other[b], trails it, or scores all-equal."""
    m = np.zeros((16, 256))
    for b, (state, o) in enumerate(zip(states, other)):
        o = (KEY[b] + 1 + o) % 256  # never the correct candidate
        if state == "flat":
            m[b] = 1.0
        else:
            m[b, KEY[b]] = 1.0 if state in ("first", "tie") else 0.0
            m[b, o] = 0.0 if state == "first" else 1.0
    return m


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_early_exit_matches_all_byte_reference(data):
    n = data.draw(st.integers(0, 40), label="n")
    interval = data.draw(st.integers(1, 12), label="interval")
    budget = data.draw(st.none() | st.integers(0, 45), label="budget")
    thresholds = data.draw(st.lists(st.integers(1, 40), max_size=4),
                           label="thresholds")
    entries = []
    for threshold in [0] + sorted(thresholds):
        states = data.draw(st.lists(st.sampled_from(BYTE_STATES),
                                    min_size=16, max_size=16))
        other = data.draw(st.lists(st.integers(0, 254), min_size=16,
                                   max_size=16))
        entries.append((threshold, rigged_matrix(states, other)))
    with pytest.MonkeyPatch.context() as mp:
        want, want_ranks, _ = run_disclosure(
            mp, entries, n, interval, budget, reference=True)
        got, got_ranks, finalized = run_disclosure(mp, entries, n, interval,
                                                   budget)
    assert got == want and type(got) is type(want)
    assert got_ranks.tolist() == want_ranks.tolist()
    # never more finalizes than scoring every byte at every checkpoint
    limit = n if budget is None else min(n, budget)
    assert len(finalized) <= 16 * -(-limit // interval)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_class_loop_matches_gemm_reference_loop(data):
    """On leaky random traces the class-sum loop gives exactly the
    disclosure and final ranks of the all-16-byte GEMM reference. The
    sbox-output target is used because sbox-input guesses k and k ^ 0xff
    correlate as r and -r, exact ties that rounding breaks either way; and
    every checkpoint scores at least 24 traces, since over a handful of
    traces many guesses correlate exactly alike."""
    n = data.draw(st.integers(24, 150), label="n")
    interval = data.draw(st.integers(24, 60), label="interval")
    budget = data.draw(st.none() | st.integers(24, 160), label="budget")
    m = data.draw(st.integers(1, 6), label="m")
    amplitude = data.draw(st.sampled_from([0.0, 0.3, 1.0, 4.0]),
                          label="leak amplitude")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    key = rng.integers(0, 256, 16, dtype=np.uint8)
    P = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    hw = HW_TABLE[SBOX[P ^ key]]  # (n, 16) true sbox-output weights
    X = rng.normal(size=(n, m))
    for j in range(16):  # with m < 16, bytes share leaking columns
        X[:, j % m] += amplitude * hw[:, j]
    X = X.astype(np.float32)
    want, want_ranks = reference_run_cpa_position(
        X, P, FIRST_ROUND_SBOX_OUTPUT, key.tolist(), budget, interval)
    got, got_ranks = evaluation._run_cpa_position(
        X[:budget], P[:budget], FIRST_ROUND_SBOX_OUTPUT, key.tolist(), interval)
    assert got == want and type(got) is type(want)
    assert got_ranks.tolist() == want_ranks.tolist()


@pytest.mark.parametrize("kind", FIRST_ROUND_KINDS)
def test_first_round_cpa_peak_memory_independent_of_interval(kind):
    """First-round CPA over 1000 traces of m = 500 peaks at about the same
    memory whatever the checkpoint interval: the class sums are fixed in
    size, and an update widens at most one (256, m) block of samples at a
    time. The GEMM path held a (4096, b) uint8 hypothesis matrix and a
    (256, b) float64 buffer for a slice of b traces."""
    n, m = 1000, 500
    rng = np.random.default_rng(5)
    X = rng.normal(size=(n, m)).astype(np.float32)
    P = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    peaks = {}
    for interval in (250, 1000):
        tracemalloc.start()
        try:
            disclosure, _ = evaluation._run_cpa_position(X, P, kind, KEY,
                                                         interval)
            _, peaks[interval] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert disclosure == math.inf
    assert abs(peaks[1000] - peaks[250]) <= 256 * m * 8, peaks
