"""Data and instruction reuse-distance analysis (paper Table 1).

The *reuse distance* (LRU stack distance) of an access is the number of
distinct elements touched since the previous access to the same element.
For data accesses the element is a cache line; for instructions it is the
static program counter.  The distribution of reuse distances is the
canonical hardware-independent description of temporal locality: a fully
associative LRU cache of capacity ``C`` lines hits exactly the accesses with
reuse distance < ``C``.

The computation kernel (Mattson's stack algorithm as a move-to-front
list or a Fenwick tree, compiled through :mod:`repro.native`) lives in
:mod:`repro.ir.stackdist` and returns each stream's distances counted by
bit length; this module folds those counts into feature histograms.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .. import native
from ..ir import InstructionTrace, TraceColumns, columns_of
from ..ir.stackdist import (  # noqa: F401  (re-exported public API)
    COLD_DISTANCE,
    bit_length_counts,
    reuse_distances,
)
from .features import (
    DATA_REUSE_BUCKETS,
    INSTR_REUSE_CDF_BUCKETS,
    INSTR_REUSE_PDF_BUCKETS,
    REUSE_SAMPLE_LIMIT,
    REUSE_STREAMS,
    block_view,
    group_span,
)


@dataclass(frozen=True)
class ReuseDistanceHistogram:
    """Bucketed reuse-distance distribution.

    ``counts[i]`` is the number of accesses with distance in
    ``[2^(i-1), 2^i)`` (bucket 0 holds distance 0), ``cold`` the number of
    first touches, and ``total`` all accesses in the stream.
    """

    counts: np.ndarray
    cold: int
    total: int

    @classmethod
    def from_bit_lengths(
        cls, counts: np.ndarray, cold: int, n_buckets: int
    ) -> "ReuseDistanceHistogram":
        """The histogram of :func:`bit_length_counts` ``counts`` and ``cold``
        first touches; distances past the last bucket count in it."""
        buckets = np.zeros(n_buckets, dtype=np.int64)
        k = min(n_buckets, len(counts))
        buckets[:k - 1] = counts[:k - 1]
        buckets[k - 1] = counts[k - 1:].sum()
        return cls(counts=buckets, cold=int(cold), total=int(cold + counts.sum()))

    @classmethod
    def from_distances(
        cls, distances: np.ndarray, n_buckets: int
    ) -> "ReuseDistanceHistogram":
        cold = np.count_nonzero(distances == COLD_DISTANCE)
        return cls.from_bit_lengths(bit_length_counts(distances), cold, n_buckets)

    @cached_property
    def _cumulative(self) -> np.ndarray:
        return np.cumsum(self.counts)

    def cdf(self) -> np.ndarray:
        """P(distance < 2^i) over reused accesses plus cold misses.

        Cold accesses never hit, so they are excluded from the numerator and
        included in the denominator: ``cdf[i]`` is the hit ratio of an ideal
        fully-associative LRU cache of 2^i elements.
        """
        if self.total == 0:
            return np.zeros(len(self.counts))
        # cdf[i] = P(d < 2^i) = buckets 0..i  (bucket i covers up to 2^i - 1)
        return self._cumulative / self.total

    def pdf(self) -> np.ndarray:
        """Fraction of all accesses per distance bucket."""
        if self.total == 0:
            return np.zeros(len(self.counts))
        return self.counts / self.total

    def miss_ratio(self, capacity: int) -> float:
        """Miss ratio of a fully-associative LRU cache of ``capacity`` lines."""
        return float(self.miss_ratios([capacity])[0])

    def miss_ratios(self, capacities: Sequence[int]) -> np.ndarray:
        """:meth:`miss_ratio` of each of ``capacities``, in one lookup."""
        if self.total == 0:
            return np.zeros(len(capacities))
        # Largest i with 2^i <= capacity.
        cutoff = [max(c, 1).bit_length() - 1 for c in capacities]
        hits = self._cumulative[np.minimum(cutoff, len(self.counts) - 1)]
        # Approximation within the cutoff bucket is conservative: bucket
        # boundaries are powers of two, capacity is rounded down.
        return np.where(np.less_equal(capacities, 0), 1.0, 1.0 - hits / self.total)

    def mean_log2(self) -> float:
        """Mean of log2(1 + distance) over reused accesses."""
        if self.total == self.cold or self.total == 0:
            return float(len(self.counts))  # no reuse at all: maximal
        centers = np.arange(len(self.counts), dtype=np.float64)
        reused = self.counts.sum()
        return float((self.counts * centers).sum() / reused)

    def median_log2(self) -> float:
        """Median bucket index (log2 scale) over reused accesses."""
        reused = int(self.counts.sum())
        if reused == 0:
            return float(len(self.counts))
        half = reused / 2.0
        return float(np.searchsorted(self._cumulative, half, side="left"))


#: Rows of a :class:`ReuseMatrix`: the data streams, then the pcs.
DATA_ROWS = slice(0, len(REUSE_STREAMS))
INSTR_ROW = len(REUSE_STREAMS)
_DATA_SLICE = group_span(f"data_reuse_cdf_{REUSE_STREAMS[0]}", "data_reuse_stats")
_INSTR_SLICE = group_span("instr_reuse_cdf", "instr_reuse_stats")
#: Each bucket's index: the log2 scale of mean_log2.
_CENTERS = np.arange(DATA_REUSE_BUCKETS, dtype=np.int64)
assert INSTR_REUSE_CDF_BUCKETS == DATA_REUSE_BUCKETS >= INSTR_REUSE_PDF_BUCKETS


class ReuseMatrix(NamedTuple):
    """The reuse streams of a trace as rows of one bucket matrix: the
    data streams (:data:`~repro.profiler.features.REUSE_STREAMS`), then
    the instruction pcs.  Row ``r`` is a :class:`ReuseDistanceHistogram`
    of :data:`~repro.profiler.features.DATA_REUSE_BUCKETS` buckets."""

    counts: np.ndarray  #: (rows, buckets) int64
    cumulative: np.ndarray  #: counts summed along each row
    total: np.ndarray  #: int64 accesses of each row, cold ones included

    @classmethod
    def of(cls, counts: np.ndarray, total: np.ndarray) -> "ReuseMatrix":
        return cls(counts, np.cumsum(counts, axis=1), total)

    def histogram(self, row: int) -> ReuseDistanceHistogram:
        total = int(self.total[row])
        cold = total - int(self.cumulative[row, -1])
        return ReuseDistanceHistogram(self.counts[row], cold, total)


def reuse_matrix(trace: InstructionTrace | TraceColumns) -> ReuseMatrix:
    """The reuse matrix of a trace's first
    :data:`~repro.profiler.features.REUSE_SAMPLE_LIMIT` accesses and pcs.

    Data distances are computed once over the combined (interleaved)
    access stream at cache-line granularity, then attributed to the read
    and write sub-streams — matching how reads and writes share a real
    cache.  Distances past the last bucket count in it.
    """
    cols = columns_of(trace)
    kernel = native.resolve("reuse_distances")[0]
    is_write = cols.accesses[2][:REUSE_SAMPLE_LIMIT]
    uniq, _first, lines = cols.lines
    data, data_cold, _ = kernel(lines[:REUSE_SAMPLE_LIMIT], len(uniq), is_write)
    pcs, n_pcs = cols.pcs
    instr, instr_cold, _ = kernel(pcs[:REUSE_SAMPLE_LIMIT], n_pcs)
    bits = np.concatenate((data, data.sum(axis=0, keepdims=True), instr))
    cold = np.concatenate((data_cold, [data_cold.sum()], instr_cold))
    last = DATA_REUSE_BUCKETS - 1
    counts = bits[:, :DATA_REUSE_BUCKETS].copy()
    counts[:, last] = bits[:, last:].sum(axis=1)
    return ReuseMatrix.of(counts, cold + bits.sum(axis=1))


def _stats(matrix: ReuseMatrix, rows: slice) -> np.ndarray:
    """(mean_log2, median_log2) of each of ``rows``, as columns."""
    counts, cum = matrix.counts[rows], matrix.cumulative[rows]
    reused = cum[:, -1]
    none = float(counts.shape[1])  # no reuse at all: maximal
    out = np.full((len(reused), 2), none)
    some = reused > 0
    out[some, 0] = (counts[some] @ _CENTERS) / reused[some]
    out[some, 1] = (cum[some] < (reused[some] / 2.0)[:, None]).sum(axis=1)
    return out


def write_data_reuse(out: np.ndarray, matrix: ReuseMatrix) -> None:
    """Write the data reuse block into ``out``: each stream's cdf rows,
    then its pdf rows, then its mean and median."""
    k = len(REUSE_STREAMS)
    block = out[_DATA_SLICE]
    span = k * DATA_REUSE_BUCKETS
    denom = np.maximum(matrix.total[DATA_ROWS], 1)[:, None]
    np.divide(matrix.cumulative[DATA_ROWS], denom, out=block[:span].reshape(k, -1))
    np.divide(matrix.counts[DATA_ROWS], denom, out=block[span:2 * span].reshape(k, -1))
    block[2 * span:] = _stats(matrix, DATA_ROWS).ravel()


def write_instr_reuse(out: np.ndarray, matrix: ReuseMatrix) -> None:
    """Write the instruction reuse block into ``out``: cdf, pdf (over
    :data:`~repro.profiler.features.INSTR_REUSE_PDF_BUCKETS` buckets,
    the last holding every longer distance), mean and median."""
    block = out[_INSTR_SLICE]
    counts, cum = matrix.counts[INSTR_ROW], matrix.cumulative[INSTR_ROW]
    total = max(int(matrix.total[INSTR_ROW]), 1)
    n_cdf, last = INSTR_REUSE_CDF_BUCKETS, INSTR_REUSE_PDF_BUCKETS - 1
    np.divide(cum, total, out=block[:n_cdf])
    np.divide(counts[:last], total, out=block[n_cdf:n_cdf + last])
    block[n_cdf + last] = (cum[-1] - cum[last - 1]) / total
    block[-2:] = _stats(matrix, slice(INSTR_ROW, INSTR_ROW + 1))[0]


def data_reuse_features(
    trace: InstructionTrace | TraceColumns,
) -> tuple[dict[str, float], dict[str, ReuseDistanceHistogram]]:
    """Data reuse-distance features for read/write/all streams (see
    :func:`reuse_matrix`).

    Returns the feature dict and the per-stream histograms (reused by the
    memory-traffic analysis).
    """
    matrix = reuse_matrix(trace)
    hists = {stream: matrix.histogram(i) for i, stream in enumerate(REUSE_STREAMS)}
    return block_view(_DATA_SLICE, write_data_reuse, matrix), hists


def instruction_reuse_features(
    trace: InstructionTrace | TraceColumns,
) -> dict[str, float]:
    """Instruction reuse-distance features over the static PC stream (its
    first :data:`~repro.profiler.features.REUSE_SAMPLE_LIMIT` pcs)."""
    return block_view(_INSTR_SLICE, write_instr_reuse, reuse_matrix(trace))
