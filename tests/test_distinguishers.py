"""Statistical-core tests: hand-computed Welford values, closed-form SNR,
batch Pearson oracles, merge laws, rank conventions, and the disclosure loop
of evaluation._run_cpa_position."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emgrid import evaluation
from emgrid.distinguishers import (
    CpaAccumulator,
    SnrAccumulator,
    cpa_scores,
    rank_of,
)
from emgrid.errors import AnalysisError
from emgrid.leakage import FIRST_ROUND_SBOX_INPUT


# ---------------------------------------------------------------- SNR

def test_welford_single_update():
    acc = SnrAccumulator(num_classes=4, m=3)
    acc.update(2, np.array([1.0, -1.0, 5.0]))
    assert acc.counts[2] == 1
    assert np.array_equal(acc.mean[2], [1.0, -1.0, 5.0])
    assert np.array_equal(acc.m2[2], [0.0, 0.0, 0.0])


def test_welford_hand_values():
    # Samples 2 then 4 in one class: mean 3, M2 = (2-3)^2 + (4-3)^2 = 2.
    acc = SnrAccumulator(num_classes=2, m=1)
    acc.update(0, [2.0]).update(0, [4.0])
    assert acc.counts[0] == 2
    assert acc.mean[0][0] == 3.0
    assert acc.m2[0][0] == 2.0


def test_snr_closed_form():
    # Class A {-1,0,1}: mean 0, unbiased var 1. Class B {1,2,3}: mean 2,
    # var 1. Population variance of means {0,2} is 1, so SNR = 1 exactly.
    acc = SnrAccumulator(num_classes=2, m=1)
    for v in (-1.0, 0.0, 1.0):
        acc.update(0, [v])
    for v in (1.0, 2.0, 3.0):
        acc.update(1, [v])
    snr = acc.finalize()
    assert snr.shape == (1,)
    assert snr[0] == pytest.approx(1.0, abs=1e-12)


def test_snr_order_invariance():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, 60)
    xs = rng.normal(size=(60, 5))
    a = SnrAccumulator(4, 5)
    b = SnrAccumulator(4, 5)
    for i in range(60):
        a.update(labels[i], xs[i])
    for i in rng.permutation(60):
        b.update(labels[i], xs[i])
    np.testing.assert_allclose(a.finalize(), b.finalize(), rtol=1e-12)


def test_snr_near_zero_when_classes_identical():
    rng = np.random.default_rng(1)
    acc = SnrAccumulator(2, 4)
    acc.update_batch(np.zeros(10_000, dtype=int), rng.normal(size=(10_000, 4)))
    acc.update_batch(np.ones(10_000, dtype=int), rng.normal(size=(10_000, 4)))
    assert np.all(acc.finalize() < 0.05)


def test_snr_infinite_sentinel_on_noiseless_signal():
    acc = SnrAccumulator(2, 2)
    for _ in range(3):
        acc.update(0, [1.0, 7.0])
        acc.update(1, [2.0, 7.0])
    snr = acc.finalize()
    assert snr[0] == np.inf  # class-dependent, zero noise
    assert snr[1] == 0.0     # constant everywhere: no signal, no noise


def test_snr_insufficient_data():
    acc = SnrAccumulator(3, 2)
    acc.update(0, [1.0, 2.0]).update(0, [2.0, 3.0]).update(1, [0.0, 1.0])
    with pytest.raises(AnalysisError):
        acc.finalize()  # only one class reaches 2 traces
    with pytest.raises(AnalysisError):
        acc.update(3, [0.0, 0.0])


def test_snr_batch_equals_single_updates():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 9, 300)
    xs = rng.normal(size=(300, 7))
    a = SnrAccumulator(9, 7)
    for i in range(300):
        a.update(labels[i], xs[i])
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


# ---------------------------------------------------------------- CPA

def batch_pearson(H, X):
    """Two-pass oracle: plain centered Pearson per (hypothesis, sample)."""
    Hc = H - H.mean(axis=1, keepdims=True)
    Xc = X - X.mean(axis=0, keepdims=True)
    num = Hc @ Xc
    den = np.sqrt((Hc ** 2).sum(axis=1)[:, None] * (Xc ** 2).sum(axis=0)[None, :])
    return num / den


def test_cpa_single_trace_errors():
    acc = CpaAccumulator(m=3)
    acc.update(np.arange(256), [1.0, 2.0, 3.0])
    with pytest.raises(AnalysisError):
        acc.finalize()


def test_cpa_matches_batch_pearson_oracle():
    rng = np.random.default_rng(4)
    H = rng.integers(0, 9, (256, 100))
    X = rng.normal(size=(100, 12))
    acc = CpaAccumulator(m=12)
    for i in range(100):
        acc.update(H[:, i], X[i])
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
        a.update(H[:, i], X[i])
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
    for v in (1.0, 2.0, 5.0):
        acc.update([v, -v], [v])
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


# ---------------------------------------------------------- scores/ranks

def test_rank_of_examples():
    scores = np.zeros(256)
    scores[7] = 1.0
    assert rank_of(scores, 7) == 0.0
    assert rank_of(np.full(256, 0.25), 3) == 127.5
    scores = np.ones(256)
    scores[9] = -1.0
    assert rank_of(scores, 9) == 255.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=256, max_size=256))
def test_mid_rank_sum_invariant(vals):
    scores = np.array(vals, dtype=float)
    total = sum(rank_of(scores, c) for c in range(256))
    assert total == 256 * 255 / 2


# ------------------------------------------------------ disclosure loop

KEY = list(range(16))


class FakeScorer:
    """Stands in for evaluation.cpa_scores and returns rigged score rows.

    The disclosure loop scores the 16 bytes in order once per slice, so call
    k belongs to byte k % 16 of score pass k // 16. Passes end at multiples
    of the checkpoint interval and at the end of the budgeted stream; each
    pass gets the rows of the last plan entry whose threshold it reached.
    """

    def __init__(self, plan, interval, limit):
        self.plan = plan  # list of (threshold, (16, 256) matrix), ascending
        self.interval = interval
        self.limit = limit
        self.calls = 0

    @property
    def passes(self):
        return self.calls // 16

    def __call__(self, corr):
        k = self.calls
        self.calls += 1
        processed = min((k // 16 + 1) * self.interval, self.limit)
        current = self.plan[0][1]
        for threshold, matrix in self.plan:
            if processed >= threshold:
                current = matrix
        return current[k % 16]


def run_disclosure(monkeypatch, plan, n, interval=1000, budget=None):
    """Drive evaluation._run_cpa_position over n random traces with rigged
    scores; returns (disclosure, final ranks, scorer)."""
    scorer = FakeScorer(plan, interval, n if budget is None else min(n, budget))
    monkeypatch.setattr(evaluation, "cpa_scores", scorer)
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(n, 2)).astype(np.float32)
    publics = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    disclosure, ranks = evaluation._run_cpa_position(
        samples, publics, FIRST_ROUND_SBOX_INPUT, KEY, budget, interval)
    return disclosure, ranks, scorer


def perfect_matrix(key):
    m = np.zeros((16, 256))
    for b in range(16):
        m[b, key[b]] = 1.0
    return m


def test_disclosure_immediate(monkeypatch):
    full_key, ranks, scorer = run_disclosure(
        monkeypatch, [(0, perfect_matrix(KEY))], 1500, budget=3000)
    assert full_key == 1000 and isinstance(full_key, int)
    assert ranks.tolist() == [0.0] * 16
    assert scorer.passes == 1


def test_disclosure_never_uniform(monkeypatch):
    full_key, ranks, scorer = run_disclosure(
        monkeypatch, [(0, np.ones((16, 256)))], 10_000, budget=5000)
    assert full_key == math.inf
    assert ranks.tolist() == [127.5] * 16
    assert scorer.passes == 5  # the budget stops the stream at 5000


def test_disclosure_tie_counts_as_failure(monkeypatch):
    tied = perfect_matrix(KEY)
    tied[0, 200] = 1.0  # byte 0 ties with a wrong candidate
    full_key, ranks, _ = run_disclosure(monkeypatch, [(0, tied)], 2000,
                                        budget=2000)
    assert full_key == math.inf
    assert ranks[0] == 0.5
    assert ranks[1] == 0.0


def test_disclosure_partial_then_full(monkeypatch):
    partial = perfect_matrix(KEY)
    partial[3] = 0.0  # byte 3 undecided early
    full_key, ranks, scorer = run_disclosure(
        monkeypatch, [(0, partial), (3000, perfect_matrix(KEY))], 6000,
        budget=6000)
    assert full_key == 3000
    assert ranks.tolist() == [0.0] * 16
    assert scorer.passes == 3  # the loop stops at the disclosing checkpoint


def test_disclosure_end_of_stream_checkpoint(monkeypatch):
    full_key, _, scorer = run_disclosure(
        monkeypatch, [(0, perfect_matrix(KEY))], 700)
    assert full_key == 700
    assert scorer.passes == 1
