"""Fixed-bucket log-scaled histograms with exact snapshot/diff/merge.

The metrics registry's third primitive (after counters and timer spans):
a :class:`Histogram` buckets observations — request latencies, batch
sizes, simulated kernel times — into a *fixed* log-scaled bound ladder
so that histograms recorded in different processes are always
bucket-compatible and can be merged exactly.

Delta-shipping contract (the same one counters and timers honour):
bucket counts are integers, so ``diff``/``merge`` arithmetic is exact
under any merge order — a ``--jobs N`` campaign produces histogram
snapshots **bit-identical** to a serial run of the same work.  The sum
of observations would normally break that promise (float addition is
not associative), so the histogram keeps the sum as an *exact* integer
in units of 2^-1074 (the smallest positive double): every finite float
converts losslessly, integer addition is associative, and the float
``sum`` every snapshot reports is that exact value correctly rounded
once.

Exemplars: an observation may attach a small JSON dict (request id,
trace id) to its bucket — one exemplar per bucket, newest wins — so a
latency histogram can point straight at a concrete slow request.
Exemplars are annotations, not samples: they are carried through
``merge`` (newest timestamp wins) but never participate in the
bit-identity contract.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Mapping, Sequence

#: Scale turning any finite double into an exact integer (2^1074 is the
#: reciprocal of the smallest positive subnormal double).
_SUM_SCALE_BITS = 1074
_SUM_SCALE = 1 << _SUM_SCALE_BITS


def _to_scaled(value: float) -> int:
    """``value`` as an exact integer multiple of 2^-1074.

    A finite double is ``n / 2**k`` with ``k <= 1074``, so the multiple
    is ``n << (1074 - k)``; ``2**k`` has ``k + 1`` bits.
    """
    n, d = value.as_integer_ratio()
    return n << (_SUM_SCALE_BITS + 1 - d.bit_length())


def _from_scaled(scaled: int) -> float:
    """The float nearest ``scaled`` * 2^-1074 (one correct rounding)."""
    return float(Fraction(scaled, _SUM_SCALE))


def log_bounds(
    lo: float, hi: float, *, per_decade: int = 4
) -> tuple[float, ...]:
    """Log-spaced bucket upper bounds from ``lo`` to at least ``hi``.

    ``per_decade`` bounds per factor of 10; the ladder is computed from
    integer decade exponents so every process derives bit-identical
    bounds.
    """
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    start = round(per_decade * math.log10(lo))
    bounds = []
    k = start
    while True:
        bound = 10.0 ** (k / per_decade)
        bounds.append(bound)
        if bound >= hi:
            break
        k += 1
    return tuple(bounds)


#: The default ladder for wall-clock latencies in seconds: 10 us to
#: ~100 s, four buckets per decade (+ the implicit overflow bucket).
DEFAULT_LATENCY_BOUNDS_S = log_bounds(1e-5, 100.0, per_decade=4)

#: Small-integer ladder for size-like observations (rows per batch).
DEFAULT_SIZE_BOUNDS = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
    1024.0, 2048.0, 4096.0, 8192.0, 16384.0, 65536.0,
)


class Histogram:
    """Counts of observations in fixed buckets, with an exact sum.

    ``bounds`` are inclusive upper bounds; one extra overflow bucket
    catches everything above the last bound.  Not thread-safe on its
    own — the :class:`~repro.obs.metrics.MetricsRegistry` serializes
    access under its lock.
    """

    __slots__ = (
        "bounds", "counts", "count", "_sum_scaled", "min", "max",
        "exemplars",
    )

    def __init__(
        self, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS_S
    ) -> None:
        # A tuple of floats is kept as given, so the registry knows an
        # observer passing the same ladder again by identity.
        if type(bounds) is not tuple or not all(
            type(b) is float for b in bounds
        ):
            bounds = tuple(float(b) for b in bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                "histogram bounds must be a non-empty strictly "
                "increasing sequence"
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self._sum_scaled = 0
        self.min: float | None = None
        self.max: float | None = None
        #: bucket index -> exemplar dict (newest observation wins).
        self.exemplars: dict[int, dict] = {}

    # ------------------------------------------------------------ recording

    def bucket_index(self, value: float) -> int:
        """The bucket ``value`` falls into (bounds are inclusive)."""
        return bisect.bisect_left(self.bounds, float(value))

    def observe(
        self, value: float, *, exemplar: Mapping | None = None
    ) -> int:
        """Record one observation; returns its bucket index."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(
                f"histograms accept finite observations, got {value!r}"
            )
        index = self.bucket_index(value)
        self.counts[index] += 1
        self.count += 1
        self._sum_scaled += _to_scaled(value)
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if exemplar is not None:
            self.exemplars[index] = {"value": value, **exemplar}
        return index

    # ------------------------------------------------------------ reading

    @property
    def sum(self) -> float:
        return _from_scaled(self._sum_scaled)

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile (0..1) by in-bucket interpolation.

        Prometheus-style: observations are assumed uniform inside their
        bucket; the overflow bucket answers with the observed maximum.
        Returns ``None`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile q must be in [0, 1]")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for index, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                if index >= len(self.bounds):
                    return self.max
                hi = self.bounds[index]
                lo = self.bounds[index - 1] if index > 0 else 0.0
                inside = max(0.0, rank - cumulative)
                return lo + (hi - lo) * (inside / n)
            cumulative += n
        return self.max

    # ----------------------------------------------------------- snapshots

    def snapshot(self) -> dict:
        """JSON-serializable state (``sum_scaled`` keeps it exact)."""
        snap = {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "sum_scaled": self._sum_scaled,
            "min": self.min,
            "max": self.max,
        }
        if self.exemplars:
            snap["exemplars"] = {
                str(i): dict(e) for i, e in sorted(self.exemplars.items())
            }
        return snap

    @classmethod
    def from_snapshot(cls, snap: Mapping) -> "Histogram":
        hist = cls(snap["bounds"])
        hist.merge(snap)
        return hist

    def diff(self, baseline: Mapping | None) -> dict:
        """Activity since ``baseline`` (an earlier :meth:`snapshot`).

        Bucket counts and the scaled sum subtract exactly; min/max are
        taken from the current state (conservative bounds, the same
        convention timer deltas use).
        """
        if baseline is None:
            return self.snapshot()
        if tuple(baseline.get("bounds", ())) != self.bounds:
            raise ValueError(
                "cannot diff histograms with different bucket bounds"
            )
        base_counts = baseline["counts"]
        snap = self.snapshot()
        snap["counts"] = [
            n - b for n, b in zip(snap["counts"], base_counts)
        ]
        snap["count"] = self.count - baseline["count"]
        snap["sum_scaled"] = (
            self._sum_scaled - baseline["sum_scaled"]
        )
        snap["sum"] = _from_scaled(snap["sum_scaled"])
        return snap

    def merge(self, snap: Mapping) -> "Histogram":
        """Fold another histogram's snapshot (or diff) into this one."""
        if tuple(snap.get("bounds", ())) != self.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        for index, n in enumerate(snap["counts"]):
            self.counts[index] += n
        self.count += snap["count"]
        self._sum_scaled += snap["sum_scaled"]
        for key, pick in (("min", min), ("max", max)):
            theirs = snap.get(key)
            if theirs is not None:
                mine = getattr(self, key)
                setattr(
                    self, key,
                    theirs if mine is None else pick(mine, theirs),
                )
        for raw_index, exemplar in (snap.get("exemplars") or {}).items():
            index = int(raw_index)
            mine = self.exemplars.get(index)
            if mine is None or exemplar.get("ts", 0) >= mine.get("ts", 0):
                self.exemplars[index] = dict(exemplar)
        return self
