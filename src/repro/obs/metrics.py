"""Lightweight metrics: monotonic timers and counters with a registry.

The registry is the process-global accounting surface every long-running
layer reports through: campaign points, cache hits/misses, simulator runs,
tuning combinations, LOOCV folds, prediction calls.  Two primitives:

* **counters** — monotonically increasing integers (``inc(name)``);
* **timer spans** — context managers around a phase (``timer(name)``),
  recording count / total / min / max seconds on a monotonic clock.
  Spans nest (a ``phase.train`` span may contain ``ml.grid_search``
  spans) and may overlap across threads and asyncio tasks: each span
  records once, when it exits, and keeps no shared state while open.

Two more primitives round out the surface:

* **histograms** — fixed-bucket log-scaled distributions
  (``observe(name, value)``), see :mod:`repro.obs.histogram`; bucket
  counts and the exact scaled-integer sum make their snapshots
  *bit-identical* between serial and ``--jobs N`` runs of the same work;
* **gauges** — last-write-wins floats (``set_gauge(name, value)``) for
  point-in-time readings like queue depth or reload generation.

Every recording primitive takes an optional ``labels={...}`` mapping.
Labeled series are stored under a canonical encoded key —
``name{k="v",k2="v2"}`` with label keys sorted — produced by
:func:`labeled_name` and decoded by :func:`split_metric_key`, so the
snapshot/diff/merge machinery stays plain string-keyed dicts.

Snapshots are plain JSON-serializable dicts.  Cross-process aggregation
works by *delta shipping*: a pool worker snapshots the registry before a
job, runs it, and ships ``diff(before)`` back with the result; the parent
merges the delta with :meth:`merge_snapshot`.  Counter and span *counts*
therefore come out identical between serial and parallel runs of the same
work (wall-clock totals naturally differ).
"""

from __future__ import annotations

import threading
import time
from typing import Mapping

from .histogram import DEFAULT_LATENCY_BOUNDS_S, Histogram
from .trace import tracer

#: The metric-name convention, served verbatim as the ``schema`` field of
#: ``GET /metrics`` JSON so scrapers can discover how to parse keys.
METRICS_SCHEMA = {
    "version": 2,
    "name_convention": (
        "dot.separated lowercase names; labeled series are encoded as "
        'name{key="value",key2="value2"} with label keys sorted'
    ),
    "kinds": {
        "counters": "monotonic integer counts",
        "timers": "phase spans: {count, total_s, min_s, max_s} seconds",
        "histograms": (
            "fixed log-bucket distributions: {bounds, counts, count, "
            "sum, sum_scaled, min, max[, exemplars]}; counts[i] covers "
            "(bounds[i-1], bounds[i]], the last entry is overflow; "
            "sum_scaled is the exact sum in units of 2^-1074"
        ),
        "gauges": "last-write-wins floats (point-in-time readings)",
    },
}


def labeled_name(name: str, labels: Mapping[str, object] | None) -> str:
    """Canonical storage key for ``name`` under ``labels``.

    ``labeled_name("x", {"b": 1, "a": "y"})`` == ``'x{a="y",b="1"}'``:
    label keys sort so every writer produces the same series key.
    """
    if not labels:
        return name
    if "{" in name:
        raise ValueError(f"metric name {name!r} already carries labels")
    body = ",".join(
        f'{key}="{_escape_label(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return f"{name}{{{body}}}"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_label(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append("\n" if nxt == "n" else nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def split_metric_key(key: str) -> tuple[str, dict[str, str]]:
    """Decode a storage key back into ``(name, labels)``.

    The inverse of :func:`labeled_name`; bare names return ``{}``.
    """
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, body = key.partition("{")
    labels: dict[str, str] = {}
    i = 0
    body = body[:-1]
    while i < len(body):
        eq = body.index("=", i)
        label_key = body[i:eq]
        assert body[eq + 1] == '"', f"malformed metric key {key!r}"
        j = eq + 2
        raw = []
        while body[j] != '"':
            if body[j] == "\\":
                raw.append(body[j : j + 2])
                j += 2
            else:
                raw.append(body[j])
                j += 1
        labels[label_key] = _unescape_label("".join(raw))
        i = j + 1
        if i < len(body) and body[i] == ",":
            i += 1
    return name, labels


def _new_timer_stat() -> dict:
    return {"count": 0, "total_s": 0.0, "min_s": None, "max_s": None}


class TimerSpan:
    """One active ``with registry.timer(name):`` span."""

    __slots__ = ("registry", "name", "_start", "elapsed_s")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self.registry = registry
        self.name = name
        self._start: float | None = None
        self.elapsed_s: float | None = None

    def __enter__(self) -> "TimerSpan":
        self._start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._start is not None, "span exited before being entered"
        self.elapsed_s = time.monotonic() - self._start
        self.registry._record(self.name, self.elapsed_s)
        # Mirror the span onto the event trace (no-op unless --trace /
        # REPRO_TRACE is active), so Perfetto lanes carry exactly the
        # phase.* names the run manifest reports as aggregate timings.
        t = tracer()
        if t.enabled:
            t.complete(
                self.name,
                t.to_ts_us(self._start),
                self.elapsed_s * 1e6,
                cat="metrics",
            )


class MetricsRegistry:
    """Counters + timer statistics with snapshot/merge/diff support."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._timers: dict[str, dict] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, float] = {}

    # ----------------------------------------------------------- recording

    def inc(
        self,
        name: str,
        n: int = 1,
        labels: Mapping[str, object] | None = None,
    ) -> int:
        """Increment counter ``name`` by ``n``; returns the new value."""
        key = labeled_name(name, labels)
        with self._lock:
            value = self._counters.get(key, 0) + n
            self._counters[key] = value
            return value

    def count(
        self, name: str, labels: Mapping[str, object] | None = None
    ) -> int:
        return self._counters.get(labeled_name(name, labels), 0)

    def timer(
        self, name: str, labels: Mapping[str, object] | None = None
    ) -> TimerSpan:
        """A context-manager span recording under ``name`` on exit."""
        return TimerSpan(self, labeled_name(name, labels))

    def observe(
        self,
        name: str,
        value: float,
        labels: Mapping[str, object] | None = None,
        *,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_S,
        exemplar: Mapping | None = None,
    ) -> None:
        """Record ``value`` into histogram ``name``.

        ``bounds`` only takes effect when the series is first created;
        later observers must agree (mismatched bounds raise, because
        silently re-bucketing would corrupt merges).  ``exemplar``
        attaches an annotation dict to the hit bucket (newest wins) —
        use it sparingly and never on deterministic pipeline paths,
        since exemplars carry wall-clock context.
        """
        key = labeled_name(name, labels)
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram(bounds)
            elif bounds is not hist.bounds and (
                hist.bounds != tuple(float(b) for b in bounds)
            ):
                raise ValueError(
                    f"histogram {key!r} already exists with different "
                    "bucket bounds"
                )
            hist.observe(value, exemplar=exemplar)

    def histogram(
        self, name: str, labels: Mapping[str, object] | None = None
    ) -> Histogram | None:
        """The live histogram for ``name`` (None if never observed)."""
        return self._histograms.get(labeled_name(name, labels))

    def set_gauge(
        self,
        name: str,
        value: float,
        labels: Mapping[str, object] | None = None,
    ) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        key = labeled_name(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def gauge(
        self, name: str, labels: Mapping[str, object] | None = None
    ) -> float | None:
        return self._gauges.get(labeled_name(name, labels))

    def _record(self, name: str, elapsed_s: float) -> None:
        with self._lock:
            stat = self._timers.setdefault(name, _new_timer_stat())
            stat["count"] += 1
            stat["total_s"] += elapsed_s
            stat["min_s"] = (
                elapsed_s if stat["min_s"] is None
                else min(stat["min_s"], elapsed_s)
            )
            stat["max_s"] = (
                elapsed_s if stat["max_s"] is None
                else max(stat["max_s"], elapsed_s)
            )

    # ---------------------------------------------------------- snapshots

    def snapshot(self) -> dict:
        """JSON-serializable state, deterministically key-ordered.

        Keys: ``counters``, ``timers``, ``histograms``, ``gauges`` —
        every level sorted so two identical registries serialize to
        byte-identical JSON.
        """
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: hist.snapshot()
                    for name, hist in sorted(self._histograms.items())
                },
                "timers": {
                    name: dict(stat)
                    for name, stat in sorted(self._timers.items())
                },
            }

    def diff(self, baseline: dict) -> dict:
        """The activity since ``baseline`` (an earlier :meth:`snapshot`).

        Counter and timer counts/totals subtract exactly; a delta's
        min/max seconds are taken from the current stats (the registry
        does not retain per-span history), which keeps merged minima and
        maxima conservative bounds rather than exact values.
        """
        now = self.snapshot()
        base_counters = baseline.get("counters", {})
        base_timers = baseline.get("timers", {})
        base_hists = baseline.get("histograms", {})
        base_gauges = baseline.get("gauges", {})
        counters = {}
        for name, value in now["counters"].items():
            delta = value - base_counters.get(name, 0)
            if delta:
                counters[name] = delta
        timers = {}
        for name, stat in now["timers"].items():
            base = base_timers.get(name, _new_timer_stat())
            count = stat["count"] - base["count"]
            if count:
                timers[name] = {
                    "count": count,
                    "total_s": stat["total_s"] - base["total_s"],
                    "min_s": stat["min_s"],
                    "max_s": stat["max_s"],
                }
        histograms = {}
        with self._lock:
            for name in sorted(self._histograms):
                delta = self._histograms[name].diff(base_hists.get(name))
                if delta["count"]:
                    histograms[name] = delta
        gauges = {
            name: value
            for name, value in now["gauges"].items()
            if name not in base_gauges or base_gauges[name] != value
        }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "timers": timers,
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another registry's snapshot (or diff) into this one.

        Counters/timers/histogram buckets add; gauges are last-write-
        wins readings, so the incoming value overwrites.
        """
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, stat in snap.get("timers", {}).items():
                mine = self._timers.setdefault(name, _new_timer_stat())
                mine["count"] += stat["count"]
                mine["total_s"] += stat["total_s"]
                for key, pick in (("min_s", min), ("max_s", max)):
                    if stat.get(key) is not None:
                        mine[key] = (
                            stat[key] if mine[key] is None
                            else pick(mine[key], stat[key])
                        )
            for name, hist_snap in snap.get("histograms", {}).items():
                mine_hist = self._histograms.get(name)
                if mine_hist is None:
                    self._histograms[name] = Histogram.from_snapshot(
                        hist_snap
                    )
                else:
                    mine_hist.merge(hist_snap)
            for name, value in snap.get("gauges", {}).items():
                self._gauges[name] = value

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._timers.clear()
            self._histograms.clear()
            self._gauges.clear()


#: The process-global registry all instrumentation records into.
_GLOBAL = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return _GLOBAL


def phase_timings(snapshot: dict) -> dict[str, float]:
    """Per-phase wall seconds from a snapshot (the ``phase.*`` timers)."""
    out: dict[str, float] = {}
    for name, stat in snapshot.get("timers", {}).items():
        if name.startswith("phase."):
            out[name.removeprefix("phase.")] = round(stat["total_s"], 6)
    return out
