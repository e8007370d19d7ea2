"""Streaming statistical engines: SNR and CPA accumulators, CPA scores and the
mid-rank of a key candidate. The traces-to-disclosure loop that drives them
lives in evaluation._run_cpa_position: one accumulator per position holds
all 16 key bytes' 256 hypotheses, is updated once per slice of traces, and
finalizes only as many bytes as the disclosure test needs.

First-round targets use ClassCpaAccumulator: per-plaintext-byte class sums,
turned into hypothesis sums by the 256 x 256 leakage table only when a byte
is scored, so an update costs O(16 m) per trace instead of a GEMM over 4096
hypotheses. The last-round model, whose hypothesis depends on two
ciphertext bytes, uses CpaAccumulator and its blocked hypothesis GEMM. Both
derive from _PearsonSums, which owns the trace count, the sample sums and
finalize, one Pearson formula; each supplies only its hypothesis sums.

The SNR and GEMM CPA accumulators follow the same contract: update with
traces in any order, optionally split into shards that merge into one, then
finalize. The grid sweep feeds one accumulator per position in order and
never merges; finalization is pure. All running sums are float64;
hypothesis values stay small integers so the closed-form Pearson sums remain
exactly representable.

The SNR accumulator sums each class's rows in row order, looping in Python
over the rank of a row within its class (or over the classes, when there
are fewer of them) rather than over every class, and merges all classes of
a batch or shard in one vectorized pairwise update.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError

_REL_DEGENERATE = 1e-10  # variance below this relative level counts as zero
# hypothesis rows per CPA GEMM (one key byte's guesses), and sample rows a
# class-sum update widens to float64 at a time
_BLOCK_ROWS = 256
_BYTE_ROWS = 256 * np.arange(16, dtype=np.intp)  # first class row of each byte


class SnrAccumulator:
    """Per-class, per-sample Welford accumulator for the class-mean SNR.

    SNR_t = Var_c(mu_{c,t}) / mean_c(sigma^2_{c,t}): population variance of
    the class means over the mean unbiased within-class variance. Classes
    with fewer than 2 traces are excluded from both statistics.

    A batch's per-class sums run over each class's rows in row order, the
    order numpy's axis-0 sum takes. Python loops over whichever is shorter:
    the batch's classes, or the rows of its largest class, each step
    vectorized across the classes. All of the batch's classes then join the
    running statistics in one vectorized pairwise update (Chan, Golub and
    LeVeque 1979), which merge uses too. Counts, means and M2 are bit for
    bit those of numpy's mean and sum of squared deviations per class
    followed by one pairwise update per class.
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
        equal, up to float tolerance, to b single-trace Welford updates.

        float32 samples (what .emgd files hold) are widened to float64 one
        loop step's rows at a time, which gives the same float64 values as
        widening them all first; samples of any other dtype are converted
        to float64 once. Beyond those, the transients are the per-class
        statistics and one step's rows."""
        labels = np.asarray(class_labels)
        x = np.asarray(samples)
        if x.dtype != np.float32:
            x = x.astype(np.float64, copy=False)
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= self.num_classes:
            raise AnalysisError("class label out of range")
        if x.ndim != 2 or x.shape != (len(labels), self.m):
            raise AnalysisError("samples must be (len(labels), m)")
        if not len(labels):
            return self
        labels = labels.astype(np.intp, copy=False)
        per_class = np.bincount(labels, minlength=self.num_classes)
        classes = np.flatnonzero(per_class)
        counts = per_class[classes]
        # order[starts[k]:starts[k] + counts[k]]: class k's rows, in row order
        order = np.argsort(labels, kind="stable")
        starts = np.cumsum(counts) - counts
        if self.m == 1 or len(classes) <= counts.max():
            mean, m2 = _class_stats_by_class(x, order, starts, counts)
        else:
            # Largest class first, so the classes still holding a row r
            # are a prefix of this order.
            by_size = np.argsort(-counts, kind="stable")
            classes, starts, counts = classes[by_size], starts[by_size], counts[by_size]
            mean, m2 = _class_stats_by_row(x, order, starts, counts)
        self._merge(classes, counts, mean, m2)
        return self

    def _merge(self, classes, nb, mb, m2b):
        """Pairwise update of the (distinct) classes with count nb, mean mb
        and M2 m2b: copied where a class is still empty, else Chan's update,
        bit for bit the scalar arithmetic of one class at a time while
        na * nb < 2**53."""
        na = self.counts[classes]
        fresh = na == 0
        c = classes[fresh]
        self.counts[c] = nb[fresh]
        self.mean[c] = mb[fresh]
        self.m2[c] = m2b[fresh]
        old = ~fresh
        if not old.any():  # a sweep's one batch per position ends here
            return
        c, na, nb = classes[old], na[old], nb[old]
        tot = na + nb
        delta = mb[old] - self.mean[c]
        self.mean[c] += delta * (nb / tot)[:, None]
        self.m2[c] += m2b[old] + delta * delta * (na * nb / tot)[:, None]
        self.counts[c] = tot

    def merge(self, other: "SnrAccumulator") -> "SnrAccumulator":
        if (other.num_classes, other.m) != (self.num_classes, self.m):
            raise AnalysisError("cannot merge accumulators of different shapes")
        c = np.flatnonzero(other.counts)
        self._merge(c, other.counts[c], other.mean[c], other.m2[c])
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


def _class_stats_by_class(x, order, starts, counts):
    """Mean and M2 of each class's rows x[order[start:start + count]], one
    class at a time; the path for few classes, and for m == 1, where numpy
    sums a single column pairwise rather than in row order."""
    mean = np.empty((len(starts), x.shape[1]))
    m2 = np.empty_like(mean)
    for k, (lo, n) in enumerate(zip(starts.tolist(), counts.tolist())):
        rows = x[order[lo:lo + n]].astype(np.float64, copy=False)
        mb = rows.sum(axis=0, out=mean[k])
        mb /= n
        rows -= mb
        rows *= rows
        rows.sum(axis=0, out=m2[k])
    return mean, m2


def _class_stats_by_row(x, order, starts, counts):
    """The same statistics for counts sorted largest first and m >= 2, one
    row rank r at a time across every class holding an r-th row. Each sum
    starts at 0.0 and adds the class's rows in order, as numpy's axis-0 sum
    and mean do."""
    # live[r]: how many classes hold a row r (counts are non-increasing);
    # picks[r]: those rows, one per class
    live = np.searchsorted(-counts, -np.arange(counts[0]), side="left").tolist()
    picks = [order[starts[:k] + r] for r, k in enumerate(live)]
    mean = np.zeros((len(counts), x.shape[1]))
    for k, pick in zip(live, picks):
        mean[:k] += x[pick]
    mean /= counts[:, None]
    m2 = np.zeros_like(mean)
    for k, pick in zip(live, picks):
        dev = np.subtract(x[pick], mean[:k])  # float64, whatever x holds
        dev *= dev
        m2[:k] += dev
    return mean, m2


@dataclass
class CpaResult:
    corr: np.ndarray                  # (rows, m) correlations, zeros where degenerate
    degenerate_hypotheses: np.ndarray  # (rows,) bool, constant hypothesis rows
    degenerate_samples: np.ndarray     # (m,) bool, constant sample columns


class _PearsonSums:
    """The n, sum_x and sum_x2 of a streaming Pearson correlation over m
    samples, and its finalize:
        r = (n*Shx - Sh*Sx) / sqrt((n*Sh2 - Sh^2) * (n*Sx2 - Sx^2))
    A subclass keeps the hypothesis sums and returns one block of them,
    (sum_h, sum_h2, sum_hx), from _hypothesis_sums(rows)."""

    def __init__(self, m: int):
        if m < 1:
            raise AnalysisError("need >= 1 sample")
        self.m = m
        self.n = 0
        self.sum_x = np.zeros(m, dtype=np.float64)
        self.sum_x2 = np.zeros(m, dtype=np.float64)

    def _add_samples(self, x: np.ndarray) -> None:
        """Count the float64 sample rows x into n, sum_x and sum_x2."""
        self.n += x.shape[0]
        self.sum_x += x.sum(axis=0)
        self.sum_x2 += (x * x).sum(axis=0)

    def finalize(self, rows: slice = slice(None)) -> CpaResult:
        """Correlations of the hypotheses in `rows`; each element gets the
        same arithmetic whichever rows are asked for."""
        sum_h, sum_h2, sum_hx = self._hypothesis_sums(rows)
        return _pearson(self.n, sum_h, sum_h2, self.sum_x, self.sum_x2, sum_hx)


class CpaAccumulator(_PearsonSums):
    """Pearson sums of num_hypotheses hypotheses, fed their values. Memory
    is O(num_hypotheses * m) regardless of trace count. The disclosure loop
    keeps one accumulator of 16 * 256 hypotheses per position, byte j in
    rows 256*j .. 256*j + 255, and scores one byte with finalize(rows)."""

    def __init__(self, m: int, num_hypotheses: int = 256):
        super().__init__(m)
        self.num_hypotheses = num_hypotheses
        self.sum_h = np.zeros(num_hypotheses, dtype=np.float64)
        self.sum_h2 = np.zeros(num_hypotheses, dtype=np.float64)
        self.sum_hx = np.zeros((num_hypotheses, m), dtype=np.float64)

    def update_batch(self, hypotheses: np.ndarray, samples: np.ndarray) -> "CpaAccumulator":
        """hypotheses (num_hypotheses, b), samples (b, m).

        The sample sums are taken over the whole float64 batch. The
        hypotheses go through the GEMM in 256-row blocks, each widened to
        float64 in temporaries of its own, at most (256, b) and (256, m)
        float64 arrays at a time; a block's sums are bit for bit those of a
        256-hypothesis accumulator fed the same rows.
        """
        H = np.asarray(hypotheses)
        X = np.asarray(samples, dtype=np.float64)
        if H.ndim != 2 or X.ndim != 2 or H.shape[0] != self.num_hypotheses \
                or H.shape[1] != X.shape[0] or X.shape[1] != self.m:
            raise AnalysisError("batch shapes do not match accumulator")
        self._add_samples(X)
        for lo in range(0, self.num_hypotheses, _BLOCK_ROWS):
            rows = slice(lo, lo + _BLOCK_ROWS)
            h = H[rows].astype(np.float64)
            self.sum_h[rows] += h.sum(axis=1)
            self.sum_hx[rows] += h @ X
            self.sum_h2[rows] += (h * h).sum(axis=1)
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

    def _hypothesis_sums(self, rows: slice) -> tuple:
        return self.sum_h[rows], self.sum_h2[rows], self.sum_hx[rows]


class ClassCpaAccumulator(_PearsonSums):
    """Streaming CPA of all 16 key bytes under a first-round model, kept as
    class sums (conditional averaging; Brier, Clavier and Olivier, CHES
    2004) rather than hypothesis sums.

    A first-round hypothesis depends on one plaintext byte: under guess k,
    byte j predicts table[k, p_j]. So with c_j the trace count and S_j the
    summed samples of each value of plaintext byte j, the Pearson sums of
    CpaAccumulator(m, 16 * 256) fed build_hypothesis_matrix are
        sum_h = table c_j,  sum_h2 = (table * table) c_j,  sum_hx = table S_j.
    sum_h and sum_h2 are exact integers, so they equal the GEMM path's bit
    for bit; sum_hx differs from it only by rounding. Hypothesis rows are
    numbered as there (byte j's guesses in rows 256*j .. 256*j + 255), and
    finalize(rows) scores one byte's 256 rows at a time.

    Memory is O(16 * 256 * m) regardless of trace count and of batch size:
    an update widens at most _BLOCK_ROWS sample rows to float64 at a time.
    Each trace costs one gather-add-scatter of its samples into the 16
    class rows its plaintext selects. Scoring one byte costs one
    (256, 256) x (256, m) product, as many multiply-adds as 16 traces cost
    the 16-byte GEMM update; so checkpoint intervals below about 16 traces
    can spend more in these products than the GEMM they replace.
    """

    def __init__(self, m: int, table: np.ndarray):
        super().__init__(m)
        self.table = np.asarray(table, dtype=np.float64)
        self.table_sq = self.table * self.table
        self.counts = np.zeros(16 * 256, dtype=np.int64)
        self.sums = np.zeros((16 * 256, m), dtype=np.float64)

    def update_batch(self, plaintexts: np.ndarray, samples: np.ndarray) -> "ClassCpaAccumulator":
        """plaintexts (b, 16) bytes, samples (b, m)."""
        P = np.asarray(plaintexts, dtype=np.uint8)
        X = np.asarray(samples)
        if P.ndim != 2 or X.ndim != 2 or P.shape[1] != 16 \
                or P.shape[0] != X.shape[0] or X.shape[1] != self.m:
            raise AnalysisError("batch shapes do not match accumulator")
        # class row of trace i's byte j: distinct within a trace, so one
        # fancy-indexed add per trace never meets a duplicate index
        rows = P.astype(np.intp) + _BYTE_ROWS
        self.counts += np.bincount(rows.ravel(), minlength=16 * 256)
        for lo in range(0, len(X), _BLOCK_ROWS):
            x = X[lo:lo + _BLOCK_ROWS].astype(np.float64)
            self._add_samples(x)
            for r, xi in zip(rows[lo:lo + _BLOCK_ROWS], x):
                self.sums[r] += xi
        return self

    def _hypothesis_sums(self, rows: slice) -> tuple:
        byte, rest = divmod(rows.start, 256)
        if rest or rows.stop != rows.start + 256 or not 0 <= byte < 16:
            raise AnalysisError("rows must be one key byte's 256 hypotheses")
        c = self.counts[rows].astype(np.float64)
        return self.table @ c, self.table_sq @ c, self.table @ self.sums[rows]


def _pearson(n, sum_h, sum_h2, sum_x, sum_x2, sum_hx) -> CpaResult:
    """The closed-form Pearson correlation from n traces' running sums:
    sum_h, sum_h2 (rows,), sum_x, sum_x2 (m,) and sum_hx (rows, m)."""
    if n < 2:
        raise AnalysisError(f"correlation undefined for n={n} traces")
    n = float(n)
    var_h = n * sum_h2 - sum_h ** 2
    var_x = n * sum_x2 - sum_x ** 2
    # Catastrophic cancellation can leave tiny non-zero residue on a
    # constant column; judge degeneracy relative to the raw magnitude.
    deg_h = var_h <= _REL_DEGENERATE * np.maximum(n * sum_h2, 1e-300)
    deg_x = var_x <= _REL_DEGENERATE * np.maximum(n * sum_x2, 1e-300)
    corr = np.multiply(n, sum_hx)
    buf = np.outer(sum_h, sum_x)
    corr -= buf
    np.outer(np.where(deg_h, 1.0, var_h), np.where(deg_x, 1.0, var_x), out=buf)
    corr /= np.sqrt(buf, out=buf)
    corr[deg_h, :] = 0.0
    corr[:, deg_x] = 0.0
    return CpaResult(corr, deg_h, deg_x)


def cpa_scores(corr: np.ndarray) -> np.ndarray:
    """Per-hypothesis score: max over samples of |r|. Larger is more likely."""
    return np.abs(corr).max(axis=1)


def rank_of(scores: np.ndarray, correct):
    """Mid-rank of the correct candidate: strictly-greater count plus half
    the other ties. One score row (C,) and one index give one rank; rows
    (n, C) and n indices give one rank per row. All-equal scores of 256
    candidates give exactly 127.5, the random baseline."""
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim == 1:  # count_nonzero's whole-array count is the fast one
        own, axis = s[correct], None
    else:
        own, axis = s[np.arange(len(s)), correct][:, None], 1
    greater = np.count_nonzero(s > own, axis)
    equal_others = np.count_nonzero(s == own, axis) - 1
    return greater + equal_others / 2.0
