"""Memory-traffic features (paper Table 1, "Memory traffic").

"Percentage of memory reads/writes that need to access memory" for a range
of cache sizes: derived analytically from the reuse-distance histograms — an
access escapes a fully-associative LRU cache of ``C`` lines iff its reuse
distance is ≥ ``C`` (cold accesses always escape).

For each cache size we report the read miss fraction, write miss fraction,
and the fraction of total accessed bytes that goes to memory.
"""

from __future__ import annotations

import numpy as np

from ..ir import InstructionTrace
from .features import (
    DATA_REUSE_BUCKETS, GROUP_SLICES, LINE_BYTES, REUSE_STREAMS,
    TRAFFIC_CACHE_SIZES, block_view,
)
from .reuse_distance import DATA_ROWS, ReuseDistanceHistogram, ReuseMatrix

_SLICE = GROUP_SLICES["traffic"]
# Each cache size's kinds are the data streams' miss fractions, in order.
assert REUSE_STREAMS == ("read", "write", "all")

#: The cumulative bucket that holds a cache size's hits: the largest i
#: with 2^i <= its capacity in lines (rounded down: conservative).
_CUTOFF = np.minimum(
    [max(1, size // LINE_BYTES).bit_length() - 1 for size in TRAFFIC_CACHE_SIZES],
    DATA_REUSE_BUCKETS - 1,
)


def write_traffic(out: np.ndarray, matrix: ReuseMatrix) -> None:
    """Write the traffic block into ``out``: per cache size, the read,
    write and byte miss fractions (cold misses included: they always
    go to memory; a stream with no accesses misses nothing)."""
    total = matrix.total[DATA_ROWS][:, None]
    hits = matrix.cumulative[DATA_ROWS][:, _CUTOFF]
    miss = np.where(total > 0, 1.0 - hits / np.maximum(total, 1), 0.0)
    out[_SLICE].reshape(len(TRAFFIC_CACHE_SIZES), -1)[...] = miss.T


def memory_traffic_features(
    trace: InstructionTrace,
    hists: dict[str, ReuseDistanceHistogram],
) -> dict[str, float]:
    """Traffic escape fractions at :data:`TRAFFIC_CACHE_SIZES` cache sizes
    of the data streams' histograms."""
    matrix = ReuseMatrix.of(
        np.array([hists[s].counts for s in REUSE_STREAMS]),
        np.array([hists[s].total for s in REUSE_STREAMS]),
    )
    return block_view(_SLICE, write_traffic, matrix)
