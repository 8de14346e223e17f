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


def data_reuse_features(
    trace: InstructionTrace | TraceColumns,
) -> tuple[dict[str, float], dict[str, ReuseDistanceHistogram]]:
    """Data reuse-distance features for read/write/all streams.

    Distances are computed once over the combined (interleaved) access
    stream at cache-line granularity, then attributed to the read and write
    sub-streams — matching how reads and writes share a real cache.  Only
    the first :data:`~repro.profiler.features.REUSE_SAMPLE_LIMIT` accesses
    count.

    Returns the feature dict and the per-stream histograms (reused by the
    memory-traffic analysis).
    """
    cols = columns_of(trace)
    is_write = cols.accesses[2][:REUSE_SAMPLE_LIMIT]
    uniq, _first, lines = cols.lines
    hist, cold, _ = native.resolve("reuse_distances")[0](
        lines[:REUSE_SAMPLE_LIMIT], len(uniq), is_write
    )
    counts = {"read": hist[0], "write": hist[1], "all": hist.sum(axis=0)}
    colds = {"read": cold[0], "write": cold[1], "all": cold.sum()}
    out: dict[str, float] = {}
    hists: dict[str, ReuseDistanceHistogram] = {}
    for stream in REUSE_STREAMS:
        hist = ReuseDistanceHistogram.from_bit_lengths(
            counts[stream], colds[stream], DATA_REUSE_BUCKETS
        )
        hists[stream] = hist
        cdf = hist.cdf()
        pdf = hist.pdf()
        for i in range(DATA_REUSE_BUCKETS):
            out[f"drd.{stream}.cdf_{i}"] = float(cdf[i])
            out[f"drd.{stream}.pdf_{i}"] = float(pdf[i])
        out[f"drd.{stream}.mean_log2"] = hist.mean_log2()
        out[f"drd.{stream}.median_log2"] = hist.median_log2()
    return out, hists


def instruction_reuse_features(
    trace: InstructionTrace | TraceColumns,
) -> dict[str, float]:
    """Instruction reuse-distance features over the static PC stream (its
    first :data:`~repro.profiler.features.REUSE_SAMPLE_LIMIT` pcs)."""
    pcs, n_pcs = columns_of(trace).pcs
    (counts,), (cold,), _ = native.resolve("reuse_distances")[0](
        pcs[:REUSE_SAMPLE_LIMIT], n_pcs
    )
    hist = ReuseDistanceHistogram.from_bit_lengths(
        counts, cold, INSTR_REUSE_CDF_BUCKETS
    )
    cdf = hist.cdf()
    out: dict[str, float] = {}
    for i in range(INSTR_REUSE_CDF_BUCKETS):
        out[f"ird.cdf_{i}"] = float(cdf[i])
    pdf_hist = ReuseDistanceHistogram.from_bit_lengths(
        counts, cold, INSTR_REUSE_PDF_BUCKETS
    )
    pdf = pdf_hist.pdf()
    for i in range(INSTR_REUSE_PDF_BUCKETS):
        out[f"ird.pdf_{i}"] = float(pdf[i])
    out["ird.mean_log2"] = hist.mean_log2()
    out["ird.median_log2"] = hist.median_log2()
    return out
