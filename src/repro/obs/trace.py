"""Event-level tracing: Chrome-trace / Perfetto timelines of a run.

Where :mod:`repro.obs.metrics` records *aggregate* counters and timer
totals, this module records *events*: every ``phase.*`` span, campaign
point, cache hit, tuning combination and LOOCV fold becomes a timed entry
in a `Chrome trace-event JSON
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
document that loads directly in ``ui.perfetto.dev`` or
``chrome://tracing``.

Two timelines, two clock domains:

* **pipeline** — wall-clock events (``ts`` = microseconds since the
  tracer's epoch on the monotonic clock).  Every
  :class:`~repro.obs.metrics.TimerSpan` exit mirrors itself here, so the
  Perfetto lanes carry exactly the ``phase.*`` names the run manifest
  reports as aggregate timings.
* **nmcsim** — opt-in simulated-hardware events on the *simulated*
  nanosecond clock (``ts`` = simulated microseconds since kernel start),
  kept on a separate synthetic process (:data:`HW_PID`) so the two clock
  domains never share a lane.  Per-PE busy/stall slices, DRAM vault
  occupancy windows and L1 miss counter tracks; an event-count sampling
  cap (:data:`DEFAULT_HW_CAP`) per simulation keeps store-heavy kernels
  from blowing up the buffer.

Activation is explicit (``repro ... --trace PATH`` or ``REPRO_TRACE=PATH``
in the environment); with tracing disabled every recording call is a
single attribute check.  The buffer is bounded (:data:`DEFAULT_MAX_EVENTS`
events); overflowing events are counted in :attr:`Tracer.dropped`, never
silently lost.

Parallel runs reuse the executor's delta-shipping channel: a pool worker
:meth:`marks <Tracer.mark>` its buffer before a job, ships
:meth:`events_since <Tracer.events_since>` back with the result, and the
parent :meth:`adopts <Tracer.adopt>` them onto a stable ``pid``-per-worker
lane — so a ``--jobs N`` trace contains exactly the same event names and
counts as a serial run of the same work, one lane per worker.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..errors import TracingError
# A module import, not a name import: repro.store imports repro.obs.
from .. import store

#: Environment variable holding the trace output path (activates tracing).
TRACE_ENV_VAR = "REPRO_TRACE"
#: Set truthy to include the simulated-hardware (nmcsim) timeline.
TRACE_HW_ENV_VAR = "REPRO_TRACE_HW"
#: Shared monotonic epoch so worker processes align with the parent.
TRACE_EPOCH_ENV_VAR = "REPRO_TRACE_EPOCH"

#: Default bound on the in-memory event buffer (per process).
DEFAULT_MAX_EVENTS = 1_000_000
#: Default hardware-timeline event cap per simulation run.
DEFAULT_HW_CAP = 20_000

#: Synthetic pid of the simulated-hardware clock domain.  Above any real
#: Linux pid (pid_max <= 2^22), so it can never collide with a worker.
HW_PID = 1 << 26
#: Synthetic pid base for remapped worker lanes (lane n -> base + n).
WORKER_PID_BASE = 1 << 25
#: Hardware-timeline tid of DRAM vault ``v`` is ``HW_TID_VAULT_BASE + v``
#: (PE ``p`` uses tid ``p`` directly).
HW_TID_VAULT_BASE = 1000

#: Event phases this tracer emits / the validator accepts.
KNOWN_PHASES = frozenset({"X", "B", "E", "i", "I", "C", "M"})

#: pid stride separating the lanes of different files in a merged trace.
MERGE_PID_STRIDE = 1 << 28


class TraceSpan:
    """One ``with tracer.span(name):`` duration; emits an ``X`` event."""

    __slots__ = ("tracer", "name", "cat", "args", "_start_us")

    def __init__(
        self, tracer: "Tracer", name: str, cat: str, args: dict | None
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._start_us: float = 0.0

    def __enter__(self) -> "TraceSpan":
        self._start_us = self.tracer.now_us()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer.complete(
            self.name,
            self._start_us,
            self.tracer.now_us() - self._start_us,
            cat=self.cat,
            args=self.args,
        )


class _NullSpan:
    """No-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Bounded buffer of Chrome trace events with snapshot shipping.

    All recording methods are no-ops while :attr:`enabled` is false, so
    instrumentation can stay unconditional in hot paths.  Thread-safe:
    the buffer append is the only shared mutation and takes a lock.
    """

    def __init__(
        self,
        *,
        max_events: int | None = None,
        epoch: float | None = None,
    ) -> None:
        self._lock = threading.Lock()
        self._events: list[dict] = []
        #: Events rejected because the buffer bound was hit.
        self.dropped = 0
        #: Hardware-timeline events rejected by per-simulation caps.
        self.hw_dropped = 0
        self.path: Path | None = None
        self.max_events = (
            max_events if max_events is not None else DEFAULT_MAX_EVENTS
        )
        if epoch is None:
            raw = os.environ.get(TRACE_EPOCH_ENV_VAR, "").strip()
            try:
                epoch = float(raw) if raw else None
            except ValueError:
                epoch = None
        self._epoch = epoch if epoch is not None else time.monotonic()
        self._tids: dict[int, int] = {}
        env_path = os.environ.get(TRACE_ENV_VAR, "").strip()
        self._enabled = bool(env_path)
        if env_path:
            self.path = Path(env_path)

    # --------------------------------------------------------- activation

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self, path: str | Path | None = None) -> None:
        if path is not None:
            self.path = Path(path)
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    @property
    def hw_enabled(self) -> bool:
        """Whether the opt-in simulated-hardware timeline is active."""
        return self._enabled and bool(
            os.environ.get(TRACE_HW_ENV_VAR, "").strip()
        )

    # ------------------------------------------------------------- clocks

    def now_us(self) -> float:
        """Pipeline-clock timestamp: microseconds since the epoch."""
        return (time.monotonic() - self._epoch) * 1e6

    def to_ts_us(self, monotonic_s: float) -> float:
        """Convert a :func:`time.monotonic` reading to a trace timestamp."""
        return (monotonic_s - self._epoch) * 1e6

    def _tid(self) -> int:
        """Small stable per-thread lane id (0 = first thread seen)."""
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    # ---------------------------------------------------------- recording

    def _append(self, event: dict) -> bool:
        with self._lock:
            if len(self._events) >= self.max_events:
                self.dropped += 1
                return False
            self._events.append(event)
            return True

    def complete(
        self,
        name: str,
        start_us: float,
        dur_us: float,
        *,
        cat: str = "pipeline",
        args: Mapping | None = None,
        pid: int | None = None,
        tid: int | None = None,
    ) -> None:
        """Record one ``X`` (complete duration) event."""
        if not self._enabled:
            return
        event = {
            "ph": "X",
            "name": name,
            "cat": cat,
            "ts": round(start_us, 3),
            "dur": round(max(0.0, dur_us), 3),
            "pid": os.getpid() if pid is None else pid,
            "tid": self._tid() if tid is None else tid,
        }
        if args:
            event["args"] = dict(args)
        self._append(event)

    def span(self, name: str, *, cat: str = "pipeline", **args):
        """Context manager emitting an ``X`` event on exit."""
        if not self._enabled:
            return _NULL_SPAN
        return TraceSpan(self, name, cat, args or None)

    def instant(
        self,
        name: str,
        *,
        cat: str = "pipeline",
        args: Mapping | None = None,
        scope: str = "t",
    ) -> None:
        """Record one ``i`` (instant) event."""
        if not self._enabled:
            return
        event = {
            "ph": "i",
            "name": name,
            "cat": cat,
            "ts": round(self.now_us(), 3),
            "s": scope,
            "pid": os.getpid(),
            "tid": self._tid(),
        }
        if args:
            event["args"] = dict(args)
        self._append(event)

    def counter(
        self,
        name: str,
        values: Mapping[str, float],
        *,
        ts_us: float | None = None,
        cat: str = "pipeline",
        pid: int | None = None,
    ) -> None:
        """Record one ``C`` (counter-track sample) event."""
        if not self._enabled:
            return
        self._append({
            "ph": "C",
            "name": name,
            "cat": cat,
            "ts": round(self.now_us() if ts_us is None else ts_us, 3),
            "pid": os.getpid() if pid is None else pid,
            "tid": 0,
            "args": {k: float(v) for k, v in values.items()},
        })

    def hw_timeline(self) -> "HardwareTimeline | None":
        """A fresh per-simulation hardware timeline, or None when off."""
        if not self.hw_enabled:
            return None
        return HardwareTimeline(self, cap=DEFAULT_HW_CAP)

    # ----------------------------------------------------- delta shipping

    def mark(self) -> int:
        """Current buffer length; pass to :meth:`events_since` later."""
        with self._lock:
            return len(self._events)

    def events_since(self, mark: int) -> list[dict]:
        """Copies of the events recorded since :meth:`mark` was taken."""
        with self._lock:
            return [dict(e) for e in self._events[mark:]]

    def adopt(self, events: Iterable[Mapping], *, lane: int | None = None) -> None:
        """Merge events shipped from a worker process into this buffer.

        Pipeline events (real worker pids) are remapped onto the stable
        synthetic lane ``WORKER_PID_BASE + lane``; hardware-timeline
        events (``pid >= HW_PID``) keep their clock-domain pid so the
        simulated lanes stay separate from the wall-clock ones.
        """
        if not self._enabled:
            return
        for event in events:
            event = dict(event)
            pid = event.get("pid")
            if (
                lane is not None
                and isinstance(pid, int)
                and pid < HW_PID
            ):
                event["pid"] = WORKER_PID_BASE + lane
            self._append(event)

    # ------------------------------------------------------------- output

    @property
    def event_count(self) -> int:
        with self._lock:
            return len(self._events)

    def _metadata_events(self, events: Sequence[Mapping]) -> list[dict]:
        """Process/thread-name ``M`` events derived from the buffer."""
        out: list[dict] = []
        pids = sorted(
            {e["pid"] for e in events if isinstance(e.get("pid"), int)}
        )
        for pid in pids:
            if pid == HW_PID:
                name = "nmcsim (simulated time; 1 us = 1 simulated us)"
            elif WORKER_PID_BASE <= pid < HW_PID:
                name = f"worker {pid - WORKER_PID_BASE}"
            else:
                name = "repro pipeline"
            out.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": name},
            })
        hw_tids = sorted({
            e["tid"] for e in events
            if e.get("pid") == HW_PID and isinstance(e.get("tid"), int)
        })
        for tid in hw_tids:
            lane = (
                f"vault {tid - HW_TID_VAULT_BASE}"
                if tid >= HW_TID_VAULT_BASE else f"pe {tid}"
            )
            out.append({
                "ph": "M", "name": "thread_name", "pid": HW_PID, "tid": tid,
                "args": {"name": lane},
            })
        return out

    def _document(self, events: list[dict], dropped: int, **other) -> dict:
        """The trace document of ``events``; ``other`` adds to
        ``otherData``."""
        from .. import __version__

        return {
            "traceEvents": self._metadata_events(events) + events,
            "displayTimeUnit": "ms",
            "otherData": {
                "repro_version": __version__,
                "clock_domains": {
                    "pipeline": "wall-clock us since tracer epoch",
                    "nmcsim": "simulated us since kernel start "
                              f"(pid {HW_PID})",
                },
                **other,
                "events": len(events),
                "dropped": dropped,
                "hw_dropped": self.hw_dropped,
            },
        }

    def to_json_dict(self) -> dict:
        """The complete trace document (Chrome trace-event JSON object)."""
        with self._lock:
            events = [dict(e) for e in self._events]
        return self._document(events, self.dropped)

    def write(self, path: str | Path | None = None) -> Path:
        """Atomically write the trace JSON; returns the path written."""
        path = Path(path) if path is not None else self.path
        if path is None:
            raise TracingError(
                "no trace output path configured (pass one to write() or "
                f"activate tracing with --trace / {TRACE_ENV_VAR})"
            )
        return store.atomic_write_text(path, json.dumps(self.to_json_dict()) + "\n")

    def rotate(self, path: str | Path) -> Path:
        """Write the buffered events to ``path`` and clear the buffer.

        The take-and-clear is atomic under the buffer lock, so events
        recorded concurrently with a rotation land in the *next* file
        rather than being lost or duplicated.  Long-running processes
        (``repro serve --trace``) call this when the buffer approaches
        its bound, producing a numbered sequence of trace files that
        ``repro trace --merge`` can stitch back together.
        """
        with self._lock:
            events = self._events
            self._events = []
            dropped, self.dropped = self.dropped, 0
        doc = self._document(events, dropped, rotated=True)
        return store.atomic_write_text(path, json.dumps(doc) + "\n")


class HardwareTimeline:
    """Per-simulation emitter of simulated-clock (nmcsim) events.

    Timestamps are simulated nanoseconds converted to trace microseconds
    (``ts = ns / 1000``), attached to the :data:`HW_PID` synthetic
    process.  ``cap`` bounds the number of events one simulation may
    emit; excess events are counted, not buffered, and folded into
    :attr:`Tracer.hw_dropped` by :meth:`close`.
    """

    __slots__ = ("tracer", "cap", "emitted", "dropped")

    def __init__(self, tracer: Tracer, *, cap: int = DEFAULT_HW_CAP) -> None:
        self.tracer = tracer
        self.cap = cap
        self.emitted = 0
        self.dropped = 0

    def _budget(self) -> bool:
        if self.emitted >= self.cap:
            self.dropped += 1
            return False
        self.emitted += 1
        return True

    def slice(
        self,
        tid: int,
        name: str,
        start_ns: float,
        end_ns: float,
        **args,
    ) -> None:
        """One busy/stall/occupancy interval on hardware lane ``tid``."""
        if not self._budget():
            return
        self.tracer.complete(
            name,
            start_ns / 1e3,
            (end_ns - start_ns) / 1e3,
            cat="nmcsim",
            args=args or None,
            pid=HW_PID,
            tid=tid,
        )

    def counter(
        self, name: str, values: Mapping[str, float], ts_ns: float
    ) -> None:
        """One counter-track sample on the simulated clock."""
        if not self._budget():
            return
        self.tracer.counter(
            name, values, ts_us=ts_ns / 1e3, cat="nmcsim", pid=HW_PID
        )

    def close(self) -> None:
        """Fold this simulation's drop count into the tracer's total."""
        if self.dropped:
            self.tracer.hw_dropped += self.dropped
            self.dropped = 0


# ------------------------------------------------------------- the global

_GLOBAL: Tracer | None = None
_GLOBAL_LOCK = threading.Lock()


def tracer() -> Tracer:
    """The process-global :class:`Tracer` (created lazily)."""
    global _GLOBAL
    if _GLOBAL is None:
        with _GLOBAL_LOCK:
            if _GLOBAL is None:
                _GLOBAL = Tracer()
    return _GLOBAL


def activate_tracing(
    path: str | Path, *, hw: bool = False
) -> Tracer:
    """Enable the global tracer writing to ``path``.

    Exports ``REPRO_TRACE`` (and the shared epoch) into the environment
    so pool worker processes — fork *or* spawn — activate themselves and
    timestamp against the same monotonic origin.
    """
    t = tracer()
    os.environ[TRACE_ENV_VAR] = str(path)
    os.environ[TRACE_EPOCH_ENV_VAR] = repr(t._epoch)
    if hw:
        os.environ[TRACE_HW_ENV_VAR] = "1"
    t.enable(path)
    return t


def reset_tracing() -> None:
    """Disable tracing, drop the global buffer and clear the env vars."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        _GLOBAL = None
    for var in (TRACE_ENV_VAR, TRACE_HW_ENV_VAR, TRACE_EPOCH_ENV_VAR):
        os.environ.pop(var, None)


# --------------------------------------------------- trace-file utilities

def _trace_events(data) -> list:
    """The event list of a loaded trace (object or bare-array format)."""
    if isinstance(data, list):
        return data
    if isinstance(data, Mapping) and isinstance(
        data.get("traceEvents"), list
    ):
        return data["traceEvents"]
    raise TracingError(
        "not a Chrome trace: expected a JSON object with a 'traceEvents' "
        "list (or a bare event array)"
    )


def validate_trace(data, *, source: str = "<trace>") -> int:
    """Check ``data`` against the Chrome trace-event schema.

    Returns the number of events; raises :class:`TracingError` naming the
    first offending events otherwise.
    """
    events = _trace_events(data)
    errors: list[str] = []
    for i, event in enumerate(events):
        if len(errors) >= 5:
            errors.append("... (further errors suppressed)")
            break
        if not isinstance(event, Mapping):
            errors.append(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if ph not in KNOWN_PHASES:
            errors.append(f"event {i}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            errors.append(f"event {i} (ph={ph}): missing or empty 'name'")
        for key in ("pid", "tid"):
            if key in event and not isinstance(event[key], int):
                errors.append(f"event {i}: {key!r} is not an integer")
        if ph in ("X", "i", "I", "C", "B", "E"):
            if not isinstance(event.get("ts"), (int, float)):
                errors.append(f"event {i} (ph={ph}): missing numeric 'ts'")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(
                    f"event {i} (ph=X): 'dur' must be a number >= 0"
                )
        if ph == "C" and not isinstance(event.get("args"), Mapping):
            errors.append(f"event {i} (ph=C): counter needs an 'args' map")
    if errors:
        raise TracingError(
            f"{source}: invalid trace ({len(errors)} problem(s)):\n  "
            + "\n  ".join(errors)
        )
    return len(events)


def merge_traces(docs: Sequence, *, sources: Sequence[str] = ()) -> dict:
    """Merge several trace documents into one.

    Each input's pids are offset by :data:`MERGE_PID_STRIDE` x its index,
    so the files' lanes stay separate in the merged timeline.
    """
    merged: list[dict] = []
    for idx, doc in enumerate(docs):
        source = sources[idx] if idx < len(sources) else f"trace {idx}"
        for event in _trace_events(doc):
            event = dict(event)
            if isinstance(event.get("pid"), int):
                event["pid"] = event["pid"] + idx * MERGE_PID_STRIDE
            if event.get("ph") == "M" and event.get("name") == "process_name":
                args = dict(event.get("args") or {})
                args["name"] = f"{args.get('name', 'process')} [{source}]"
                event["args"] = args
            merged.append(event)
    return {"traceEvents": merged, "displayTimeUnit": "ms"}


def summarize_trace(data, *, top: int = 15) -> list[dict]:
    """Top-``top`` span names by *self time* (duration minus children).

    Nesting is reconstructed per ``(pid, tid)`` lane from the ``X``
    events' timestamps, so a ``phase.train`` span's self time excludes
    the ``ml.grid_search`` spans it contains.
    """
    lanes: dict[tuple, list[dict]] = {}
    for event in _trace_events(data):
        if event.get("ph") != "X":
            continue
        lanes.setdefault(
            (event.get("pid", 0), event.get("tid", 0)), []
        ).append(event)
    stats: dict[str, dict] = {}
    for events in lanes.values():
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: list[tuple[str, float]] = []
        for event in events:
            name, ts, dur = event["name"], event["ts"], event["dur"]
            while stack and stack[-1][1] <= ts + 1e-9:
                stack.pop()
            stat = stats.setdefault(
                name, {"name": name, "count": 0, "total_us": 0.0,
                       "self_us": 0.0}
            )
            stat["count"] += 1
            stat["total_us"] += dur
            stat["self_us"] += dur
            if stack:
                stats[stack[-1][0]]["self_us"] -= dur
            stack.append((name, ts + dur))
    ranked = sorted(stats.values(), key=lambda s: -s["self_us"])[:top]
    for stat in ranked:
        stat["total_us"] = round(stat["total_us"], 3)
        stat["self_us"] = round(stat["self_us"], 3)
    return ranked


def summarize_serve_requests(data) -> dict:
    """Request/batch statistics of a ``repro serve --trace`` file.

    Reads the ``serve.request`` spans (args carry ``request_id``,
    ``model``, ``route``, ``status`` and, when microbatched,
    ``batch_id``) and the ``serve.predict_batch`` spans (args carry
    ``batch_id`` + the coalesced ``request_ids``), checks that the
    parent->batch links are consistent both ways, and aggregates
    latency per ``model x route x status`` group.
    """
    requests: list[dict] = []
    batches: dict[str, dict] = {}
    for event in _trace_events(data):
        if event.get("ph") != "X":
            continue
        args = event.get("args") or {}
        if event.get("name") == "serve.request":
            # The serve.request *timer* span mirrors into the trace too
            # (cat "metrics", no args); only the server's request spans
            # carry a request_id and belong in this summary.
            if not args.get("request_id"):
                continue
            requests.append({**args, "dur_us": event.get("dur", 0.0)})
        elif event.get("name") == "serve.predict_batch":
            batch_id = args.get("batch_id")
            if batch_id:
                batches[batch_id] = {
                    "request_ids": list(args.get("request_ids") or ()),
                    "rows": args.get("rows", 0),
                    "dur_us": event.get("dur", 0.0),
                }
    groups: dict[tuple, dict] = {}
    unlinked = 0
    for req in requests:
        key = (
            req.get("model") or "-",
            req.get("route") or "-",
            str(req.get("status", "-")),
        )
        group = groups.setdefault(
            key,
            {
                "model": key[0], "route": key[1], "status": key[2],
                "count": 0, "total_us": 0.0, "max_us": 0.0,
            },
        )
        group["count"] += 1
        group["total_us"] += req["dur_us"]
        group["max_us"] = max(group["max_us"], req["dur_us"])
        batch_id = req.get("batch_id")
        if batch_id:
            batch = batches.get(batch_id)
            if batch is None or (
                req.get("request_id") not in batch["request_ids"]
            ):
                unlinked += 1
    for group in groups.values():
        group["total_us"] = round(group["total_us"], 3)
        group["max_us"] = round(group["max_us"], 3)
    batch_sizes = [len(b["request_ids"]) for b in batches.values()]
    return {
        "requests": len(requests),
        "batches": len(batches),
        "mean_requests_per_batch": (
            round(sum(batch_sizes) / len(batch_sizes), 2)
            if batch_sizes else None
        ),
        "unlinked_requests": unlinked,
        "groups": sorted(
            groups.values(),
            key=lambda g: (g["model"], g["route"], g["status"]),
        ),
    }


def load_trace(path: str | Path) -> dict:
    """Load a trace file; raises :class:`TracingError` on unreadable JSON."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise TracingError(f"cannot read trace {path}: {exc}") from exc
    except ValueError as exc:
        raise TracingError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise TracingError(f"{path} is nested too deeply to read") from exc
