"""Streaming statistical engines: SNR and CPA accumulators, CPA scores and the
mid-rank of a key candidate. The traces-to-disclosure loop that drives them
lives in evaluation._run_cpa_position: one CpaAccumulator per position holds
all 16 key bytes' 256 hypotheses, is updated once per slice of traces, and
finalizes only as many bytes as the disclosure test needs.

Both accumulators follow the same contract: update with traces in any order,
optionally split into shards that merge into one, then finalize. The grid
sweep feeds one accumulator per position in order and never merges;
finalization is pure. All running sums are float64;
hypothesis values stay small integers so the closed-form Pearson sums remain
exactly representable.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError

_REL_DEGENERATE = 1e-10  # variance below this relative level counts as zero
_BLOCK_ROWS = 256  # hypothesis rows per CPA GEMM: one key byte's guesses


class SnrAccumulator:
    """Per-class, per-sample Welford accumulator for the class-mean SNR.

    SNR_t = Var_c(mu_{c,t}) / mean_c(sigma^2_{c,t}): population variance of
    the class means over the mean unbiased within-class variance. Classes
    with fewer than 2 traces are excluded from both statistics.
    """

    def __init__(self, num_classes: int, m: int):
        if num_classes < 2 or m < 1:
            raise AnalysisError("need >= 2 classes and >= 1 sample")
        self.num_classes = num_classes
        self.m = m
        self.counts = np.zeros(num_classes, dtype=np.int64)
        self.mean = np.zeros((num_classes, m), dtype=np.float64)
        self.m2 = np.zeros((num_classes, m), dtype=np.float64)

    def update_batch(self, class_labels: np.ndarray, samples: np.ndarray) -> "SnrAccumulator":
        """Consume a (b,) labels / (b, m) samples batch, grouped per class;
        equal, up to float tolerance, to b single-trace Welford updates."""
        labels = np.asarray(class_labels)
        x = np.asarray(samples, dtype=np.float64)
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= self.num_classes:
            raise AnalysisError("class label out of range")
        if x.ndim != 2 or x.shape != (len(labels), self.m):
            raise AnalysisError("samples must be (len(labels), m)")
        order = np.argsort(labels, kind="stable")
        sorted_labels = labels[order]
        classes, starts = np.unique(sorted_labels, return_index=True)
        bounds = np.append(starts, len(sorted_labels))
        for idx, c in enumerate(classes):
            rows = x[order[bounds[idx]:bounds[idx + 1]]]
            nb = rows.shape[0]
            mb = rows.mean(axis=0)
            m2b = ((rows - mb) ** 2).sum(axis=0)
            self._merge_class(int(c), nb, mb, m2b)
        return self

    def _merge_class(self, c: int, nb: int, mb: np.ndarray, m2b: np.ndarray):
        na = int(self.counts[c])
        if na == 0:
            self.counts[c] = nb
            self.mean[c] = mb
            self.m2[c] = m2b
            return
        tot = na + nb
        delta = mb - self.mean[c]
        self.mean[c] += delta * (nb / tot)
        self.m2[c] += m2b + delta * delta * (na * nb / tot)
        self.counts[c] = tot

    def merge(self, other: "SnrAccumulator") -> "SnrAccumulator":
        if (other.num_classes, other.m) != (self.num_classes, self.m):
            raise AnalysisError("cannot merge accumulators of different shapes")
        for c in np.nonzero(other.counts)[0]:
            self._merge_class(int(c), int(other.counts[c]), other.mean[c], other.m2[c])
        return self

    def finalize(self) -> np.ndarray:
        """Per-sample SNR vector; +inf where the noise floor is exactly zero
        but the class means still differ."""
        usable = self.counts >= 2
        k = int(usable.sum())
        if k < 2:
            raise AnalysisError("SNR needs at least 2 classes with >= 2 traces each")
        means = self.mean[usable]
        between = means.var(axis=0)  # population variance over class means
        within = (self.m2[usable] / (self.counts[usable, None] - 1)).mean(axis=0)
        snr = np.zeros(self.m, dtype=np.float64)
        ok = within > 0
        snr[ok] = between[ok] / within[ok]
        snr[~ok & (between > 0)] = np.inf
        return snr


@dataclass
class CpaResult:
    corr: np.ndarray                  # (rows, m) correlations, zeros where degenerate
    degenerate_hypotheses: np.ndarray  # (rows,) bool, constant hypothesis rows
    degenerate_samples: np.ndarray     # (m,) bool, constant sample columns


class CpaAccumulator:
    """Closed-form streaming Pearson sums for num_hypotheses hypotheses over
    m samples:
        r = (n*Shx - Sh*Sx) / sqrt((n*Sh2 - Sh^2) * (n*Sx2 - Sx^2))

    Memory is O(num_hypotheses * m) regardless of trace count. The disclosure
    loop keeps one accumulator of 16 * 256 hypotheses per position, byte j in
    rows 256*j .. 256*j + 255, and scores one byte with finalize(rows).
    """

    def __init__(self, m: int, num_hypotheses: int = 256):
        if m < 1:
            raise AnalysisError("need >= 1 sample")
        self.m = m
        self.num_hypotheses = num_hypotheses
        self.n = 0
        self.sum_h = np.zeros(num_hypotheses, dtype=np.float64)
        self.sum_h2 = np.zeros(num_hypotheses, dtype=np.float64)
        self.sum_x = np.zeros(m, dtype=np.float64)
        self.sum_x2 = np.zeros(m, dtype=np.float64)
        self.sum_hx = np.zeros((num_hypotheses, m), dtype=np.float64)

    def update_batch(self, hypotheses: np.ndarray, samples: np.ndarray) -> "CpaAccumulator":
        """hypotheses (num_hypotheses, b), samples (b, m).

        The sample sums are taken once. The hypotheses go through the GEMM in
        blocks of 256 rows, each cast into one float64 buffer and multiplied
        into one product buffer that every block of the batch reuses, so a
        block's sums are bit for bit those of a 256-hypothesis accumulator
        fed the same rows. The buffers live for one call only: kept between
        calls they raise a position's peak memory by their size.
        """
        H = np.asarray(hypotheses)
        X = np.asarray(samples, dtype=np.float64)
        if H.ndim != 2 or X.ndim != 2 or H.shape[0] != self.num_hypotheses \
                or H.shape[1] != X.shape[0] or X.shape[1] != self.m:
            raise AnalysisError("batch shapes do not match accumulator")
        self.n += X.shape[0]
        self.sum_x += X.sum(axis=0)
        self.sum_x2 += (X * X).sum(axis=0)
        block = min(_BLOCK_ROWS, self.num_hypotheses)
        h_buf = np.empty((block, X.shape[0]), dtype=np.float64)
        hx_buf = np.empty((block, self.m), dtype=np.float64)
        for lo in range(0, self.num_hypotheses, _BLOCK_ROWS):
            rows = slice(lo, min(lo + _BLOCK_ROWS, self.num_hypotheses))
            h = h_buf[:rows.stop - lo]
            hx = hx_buf[:rows.stop - lo]
            np.copyto(h, H[rows], casting="unsafe")
            self.sum_h[rows] += h.sum(axis=1)
            np.matmul(h, X, out=hx)
            self.sum_hx[rows] += hx
            np.multiply(h, h, out=h)
            self.sum_h2[rows] += h.sum(axis=1)
        return self

    def merge(self, other: "CpaAccumulator") -> "CpaAccumulator":
        if (other.m, other.num_hypotheses) != (self.m, self.num_hypotheses):
            raise AnalysisError("cannot merge accumulators of different shapes")
        self.n += other.n
        self.sum_h += other.sum_h
        self.sum_h2 += other.sum_h2
        self.sum_x += other.sum_x
        self.sum_x2 += other.sum_x2
        self.sum_hx += other.sum_hx
        return self

    def finalize(self, rows: slice = slice(None)) -> CpaResult:
        """Correlations of the hypotheses in `rows` (all of them by default);
        each element gets the same arithmetic whichever rows are asked for."""
        if self.n < 2:
            raise AnalysisError(f"correlation undefined for n={self.n} traces")
        n = float(self.n)
        sum_h, sum_h2 = self.sum_h[rows], self.sum_h2[rows]
        var_h = n * sum_h2 - sum_h ** 2
        var_x = n * self.sum_x2 - self.sum_x ** 2
        # Catastrophic cancellation can leave tiny non-zero residue on a
        # constant column; judge degeneracy relative to the raw magnitude.
        deg_h = var_h <= _REL_DEGENERATE * np.maximum(n * sum_h2, 1e-300)
        deg_x = var_x <= _REL_DEGENERATE * np.maximum(n * self.sum_x2, 1e-300)
        num = n * self.sum_hx[rows] - np.outer(sum_h, self.sum_x)
        den = np.sqrt(np.outer(np.where(deg_h, 1.0, var_h),
                               np.where(deg_x, 1.0, var_x)))
        corr = num / den
        corr[deg_h, :] = 0.0
        corr[:, deg_x] = 0.0
        return CpaResult(corr, deg_h, deg_x)


def cpa_scores(corr: np.ndarray) -> np.ndarray:
    """Per-hypothesis score: max over samples of |r|. Larger is more likely."""
    return np.abs(corr).max(axis=1)


def rank_of(scores: np.ndarray, correct: int) -> float:
    """Mid-rank of the correct candidate: strictly-greater count plus half
    the ties. All-equal scores give exactly 127.5, the random baseline."""
    s = np.asarray(scores, dtype=np.float64)
    sc = s[correct]
    greater = int(np.count_nonzero(s > sc))
    equal_others = int(np.count_nonzero(s == sc)) - 1
    return greater + equal_others / 2.0
