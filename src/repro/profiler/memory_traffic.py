"""Memory-traffic features (paper Table 1, "Memory traffic").

"Percentage of memory reads/writes that need to access memory" for a range
of cache sizes: derived analytically from the reuse-distance histograms — an
access escapes a fully-associative LRU cache of ``C`` lines iff its reuse
distance is ≥ ``C`` (cold accesses always escape).

For each cache size we report the read miss fraction, write miss fraction,
and the fraction of total accessed bytes that goes to memory.
"""

from __future__ import annotations

from ..ir import InstructionTrace
from .features import LINE_BYTES, TRAFFIC_CACHE_SIZES
from .reuse_distance import ReuseDistanceHistogram

#: (feature kind, reuse-distance stream) of each traffic feature.
_KINDS = (("read_miss", "read"), ("write_miss", "write"), ("bytes", "all"))


def memory_traffic_features(
    trace: InstructionTrace,
    hists: dict[str, ReuseDistanceHistogram],
) -> dict[str, float]:
    """Traffic escape fractions at :data:`TRAFFIC_CACHE_SIZES` cache sizes
    (cold misses included: they always go to memory)."""
    capacities = [max(1, size // LINE_BYTES) for size in TRAFFIC_CACHE_SIZES]
    out: dict[str, float] = {}
    for kind, stream in _KINDS:
        ratios = hists[stream].miss_ratios(capacities).tolist()
        for size, ratio in zip(TRAFFIC_CACHE_SIZES, ratios):
            out[f"traffic.{kind}_{size}"] = ratio
    return out
