"""The trace-driven NMC simulator (paper phase 2).

Execution model, matching the Table 3 NMC system and the modelling level of
Ramulator-PIM for this paper's experiments:

* each software thread is statically assigned to a PE (round-robin when
  there are more threads than PEs; extra threads time-multiplex);
* PEs are single-issue and in-order: every instruction occupies the pipe
  for its opcode latency, and memory instructions *block* until the L1 (or
  the stacked DRAM, on a miss) returns the line;
* per-PE L1s are write-back/write-allocate; misses and dirty evictions go
  to the vault whose address range they fall into;
* vault/bank contention between PEs is resolved exactly, by processing all
  PEs' memory events in global time order (heap-driven).

Two engines implement this model with identical results:

* ``reference`` — one heap event per memory access, stepping the
  :class:`~repro.nmcsim.cache.Cache` model per access (the original,
  obviously-correct formulation);
* ``fast`` (default) — two-phase: **phase A** classifies every PE
  stream's hits, misses, writebacks and end-of-kernel flushes up front
  with the vectorized stack-distance classifier
  (:mod:`repro.nmcsim.classify`, exact for any associativity), then
  **phase B** runs the exact contention loop over *only* the
  miss/writeback events, with hit latencies folded into the compute
  segments.

Event times in both engines are computed from the same prefix-sum
expressions (``base_t + (pref[k+1] - pref[base+1]) + n_hits * l1``), so
the engines agree bit for bit — not merely within tolerance.

Two further levers sit on top of the fast engine:

* **geometry memos** — phase A's products are pure functions of
  (trace, architecture-slice): PE streams depend only on the PE count /
  issue width / frequency / line size, classifications only on the L1
  geometry, and the packed phase-B event arrays on the DRAM geometry and
  clock as well.  Each is cached on the trace's ``_memo`` side table
  under its own key, so DoE campaign points that share a slice skip the
  corresponding work entirely (``sim.memo.*`` counters).
* **compiled phase B** — the contention loop is one multi-point kernel
  (:mod:`repro.nmcsim._native`) that a single run and a batched
  campaign replay both call.  It is built with the system C compiler on
  first use whenever one is found (cached under
  ``$REPRO_SIM_JIT_CACHE``) and falls back to a pure-Python loop
  otherwise; the two are byte-identical.

The simulator returns IPC (total instructions / makespan cycles),
execution time and the full energy breakdown — the labels NAPEL trains
on.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import time
import weakref
from collections import OrderedDict
from typing import Mapping, Sequence

import numpy as np

from ..config import SIM_ENGINES, NMCConfig, default_nmc_config
from ..errors import ConfigError, SimulationError
from ..ir import OPCODE_LATENCY, InstructionTrace, Opcode
from ..obs import get_logger, metrics, tracer
from . import _native
from .cache import Cache, CacheStats
from .classify import classify_lru
from .dram import StackedMemory
from .energy import compute_energy
from ..store import FORMAT_VERSION, MemoStore, discard, lru_get_or_build
from .results import SimulationResult

log = get_logger("repro.nmcsim")

#: Environment variable selecting the simulation engine.
ENGINE_ENV_VAR = "REPRO_SIM_ENGINE"

#: Valid engine names; ``fast`` is the default.
ENGINES = SIM_ENGINES


def resolve_engine(engine: str | None = None) -> str:
    """The effective engine name: argument, ``$REPRO_SIM_ENGINE``, or fast."""
    if engine is None:
        engine = os.environ.get(ENGINE_ENV_VAR, "").strip() or "fast"
    if engine not in ENGINES:
        raise ConfigError(
            f"unknown simulation engine {engine!r}; "
            f"expected one of {', '.join(ENGINES)}"
        )
    return engine


def jit_status() -> dict:
    """Phase-B kernel provenance for manifests and benchmark records.

    ``backend`` is ``"cc"`` when the compiled kernel is in use and
    ``"python"`` on hosts where it could not be built.
    """
    return {"backend": _native.resolve_kernel()[1]}


# --------------------------------------------------------------- memos

_MEMO_KINDS = ("streams", "classify", "events")

#: ``repro.obs`` counter names fed by the phase-A memo layers — the
#: in-process geometry memos plus the persistent cross-process store
#: (exported so the campaign runner can aggregate worker deltas into
#: manifests).
MEMO_COUNTER_NAMES = tuple(
    f"sim.memo.{kind}.{outcome}"
    for kind in _MEMO_KINDS
    for outcome in ("hits", "misses")
) + tuple(
    f"sim.memo.store.{outcome}"
    for outcome in ("hits", "misses", "writes", "errors")
)

#: Per-trace LRU capacity of each memo kind.  Streams only vary with the
#: coarse PE slice (few distinct values per campaign); classification and
#: event bundles track swept geometries, so they keep a few more entries.
_MEMO_CAPS = {"streams": 2, "classify": 4, "events": 4}

#: Traces carrying live memo side tables, tracked weakly so
#: :func:`simulation_memo_summary` can report approximate byte sizes
#: without extending any trace's lifetime.
_MEMO_TRACES: "weakref.WeakSet[InstructionTrace]" = weakref.WeakSet()


def _memo_lookup(trace: InstructionTrace, kind: str, key: tuple, build):
    """Geometry-keyed lookup in the trace's ``_memo`` side table.

    Each kind gets its own small LRU (:data:`_MEMO_CAPS`); hits and
    misses are counted as ``sim.memo.<kind>.<hits|misses>``.  The memo
    lives on the trace object, so its lifetime is bounded by the
    campaign-level trace memo that already bounds trace lifetimes.
    """
    _MEMO_TRACES.add(trace)
    memo: OrderedDict = trace._memo.setdefault(f"sim.{kind}", OrderedDict())
    value, hit = lru_get_or_build(memo, key, build, _MEMO_CAPS[kind])
    metrics().inc(f"sim.memo.{kind}.{'hits' if hit else 'misses'}")
    return value


def _memo_touch(trace: InstructionTrace, kind: str, key: tuple) -> None:
    """Refresh (and count) a memo entry if present; never builds.

    The events memo subsumes the streams and classify products, so a hit
    on it means those kinds' work was skipped too — touching them keeps
    their LRU order and hit counters identical to the pre-batched flow,
    which looked all three up every run.  Entries absent because the
    product came from the persistent store are silently left absent.
    """
    memo = trace._memo.get(f"sim.{kind}")
    if memo is not None and key in memo:
        memo.move_to_end(key)
        metrics().inc(f"sim.memo.{kind}.hits")


# ------------------------------------------------- persistent memo store
#
# The in-process memos die with the process: every ``--jobs N`` worker,
# and every fresh campaign process, would recompute the phase-A products
# its siblings already built.  The final phase-A product (packed event
# bundle plus aggregate cache statistics) is therefore also persisted as
# one :class:`~repro.store.MemoStore` entry per (trace contents,
# architecture slice) under a shared directory, off by default.

#: Environment variable pointing at the shared store directory.
STORE_ENV_VAR = "REPRO_SIM_MEMO_DIR"

#: Programmatic override of the store directory (wins over the env var).
#: ``""`` means "explicitly disabled"; None means "not configured here".
_OVERRIDE_DIR: str | None = None


def store_key(trace: InstructionTrace, slice_key: tuple) -> str:
    """Entry key of one (trace, architecture-slice) phase-A product.

    A SHA-256 over the store format version, the trace's full column
    contents (:meth:`~repro.ir.InstructionTrace.content_hash`) and the
    events-memo key tuple (every architecture field phase A reads), so a
    changed trace, geometry or layout never aliases a stale entry.
    """
    payload = f"{FORMAT_VERSION}|{trace.content_hash()}|{slice_key!r}"
    return hashlib.sha256(payload.encode()).hexdigest()


def configure_store(path: str | os.PathLike | None) -> None:
    """Set (or clear, with None) the process-wide store directory.

    Overrides ``$REPRO_SIM_MEMO_DIR``.  Picklable entry point for pool
    ``worker_init`` hooks: the campaign ships
    ``functools.partial(configure_store, dir)`` so workers join the
    parent's store even under a spawn start method.
    """
    global _OVERRIDE_DIR
    _OVERRIDE_DIR = os.fspath(path) if path is not None else None


def store_dir() -> str | None:
    """The effective store directory, or None when the store is off."""
    if _OVERRIDE_DIR is not None:
        return _OVERRIDE_DIR or None
    env = os.environ.get(STORE_ENV_VAR, "").strip()
    return env or None


def active_store() -> MemoStore | None:
    """The configured :class:`~repro.store.MemoStore`, or None when off."""
    root = store_dir()
    return MemoStore(root) if root is not None else None


def store_status() -> dict:
    """Store counters + configuration for manifests and bench records."""
    m = metrics()
    return {
        "dir": store_dir(),
        "hits": m.count("sim.memo.store.hits"),
        "misses": m.count("sim.memo.store.misses"),
        "writes": m.count("sim.memo.store.writes"),
        "errors": m.count("sim.memo.store.errors"),
    }


def _approx_nbytes(obj, _depth: int = 0) -> int:
    """Rough resident size of a memo value (arrays dominate by design).

    Walks arrays, containers and slotted objects; long homogeneous lists
    are extrapolated from their first element instead of walked, keeping
    the report cheap.
    """
    if _depth > 6 or obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (str, bytes)):
        return len(obj)
    if isinstance(obj, (int, float, bool, np.generic)):
        return 8
    if isinstance(obj, dict):
        return 16 * len(obj) + sum(
            _approx_nbytes(v, _depth + 1) for v in obj.values()
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        n = len(obj)
        if n > 256:
            first = next(iter(obj), None)
            return 8 * n + n * _approx_nbytes(first, _depth + 1)
        return 8 * n + sum(_approx_nbytes(v, _depth + 1) for v in obj)
    slots = getattr(type(obj), "__slots__", None)
    if slots:
        return sum(
            _approx_nbytes(getattr(obj, name, None), _depth + 1)
            for name in slots
            if name != "__weakref__"
        )
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return sum(_approx_nbytes(v, _depth + 1) for v in attrs.values())
    return 8


def simulation_memo_bytes() -> dict[str, int]:
    """Approximate resident bytes per memo kind across live traces."""
    totals = dict.fromkeys(_MEMO_KINDS, 0)
    for trace in list(_MEMO_TRACES):
        for kind in _MEMO_KINDS:
            memo = trace._memo.get(f"sim.{kind}")
            if memo:
                totals[kind] += _approx_nbytes(memo)
    return totals


def simulation_memo_summary() -> dict:
    """Memo hit/miss counters as a manifest-ready mapping.

    ``classification_hit_ratio`` is the headline number: the fraction of
    simulation runs whose phase-A classification was served from the
    geometry memo instead of recomputed.  ``store`` carries the
    persistent cross-process store's counters (zero when disabled) and
    ``bytes`` the approximate resident size of each in-process kind.
    """
    m = metrics()
    out: dict = {}
    for kind in _MEMO_KINDS:
        out[kind] = {
            "hits": m.count(f"sim.memo.{kind}.hits"),
            "misses": m.count(f"sim.memo.{kind}.misses"),
        }
    total = out["classify"]["hits"] + out["classify"]["misses"]
    out["classification_hit_ratio"] = (
        out["classify"]["hits"] / total if total else 0.0
    )
    out["store"] = store_status()
    out["bytes"] = simulation_memo_bytes()
    return out


def simulation_batch_summary() -> dict:
    """Batched-replay counters as a manifest-ready mapping."""
    m = metrics()
    calls = m.count("sim.batch.calls")
    points = m.count("sim.batch.points")
    return {
        "calls": calls,
        "points": points,
        "points_per_call": points / calls if calls else 0.0,
    }


#: numpy lookup table: opcode value -> execute latency (cycles).
_LATENCY_LUT = np.zeros(max(int(op) for op in Opcode) + 1, dtype=np.int64)
for _op, _lat in OPCODE_LATENCY.items():
    _LATENCY_LUT[int(_op)] = _lat

_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_ATOMIC = int(Opcode.ATOMIC)


class _PEStream:
    """Pre-digested per-PE instruction stream.

    ``compute_ns[k]`` is the non-memory execution time preceding memory op
    ``k`` (entry ``n_mem`` is the tail after the last memory op); ``pref``
    is its prefix sum (``pref[k+1]`` = compute time before op ``k``
    completes its preceding segment); ``lines`` and ``writes`` describe
    the memory ops themselves and stay NumPy arrays end to end.  The
    array columns are the memoizable *digest* (shared across runs via
    the streams memo); everything else is per-run mutable state.

    Timing state is normalized to *miss anchors*: ``base_t`` is the
    completion time of the last miss (0.0 initially) and ``base_k`` its
    op index (-1 initially); every later event time derives from them via
    :meth:`issue_ns`, which is the expression both engines share.
    ``outstanding`` is a min-heap of in-flight miss completion times for
    the out-of-order PE model.
    """

    __slots__ = (
        "pe", "next_op", "compute_ns", "pref", "lines", "writes",
        "cache", "finish_ns", "n_instructions", "outstanding",
        "base_t", "base_k",
    )

    def __init__(
        self,
        pe: int,
        compute_ns: np.ndarray,
        pref: np.ndarray,
        lines: np.ndarray,
        writes: np.ndarray,
        n_instructions: int,
    ) -> None:
        self.pe = pe
        self.next_op = 0
        self.compute_ns = compute_ns
        self.pref = pref
        self.lines = lines
        self.writes = writes
        self.cache: Cache | None = None
        self.finish_ns = 0.0
        self.n_instructions = n_instructions
        self.outstanding: list[float] = []
        self.base_t = 0.0
        self.base_k = -1

    @property
    def n_mem(self) -> int:
        return len(self.lines)

    def issue_ns(self, k: int, l1_cycle_ns: float) -> float:
        """Issue time of memory op ``k`` (``k == n_mem``: kernel finish).

        All ops in ``(base_k, k)`` are hits by construction, each adding
        one L1 cycle; the expression (and its floating-point evaluation
        order) is shared verbatim with the fast engine's vectorized
        delta computation, which is what makes the engines bit-identical.
        """
        return self.base_t + (
            (self.pref[k + 1] - self.pref[self.base_k + 1])
            + (k - self.base_k - 1) * l1_cycle_ns
        )


def _stream_digest(
    pe: int,
    opcode: np.ndarray,
    addr: np.ndarray,
    cycle_ns: float,
    line_shift: int,
    issue_width: int = 1,
) -> tuple:
    """The immutable array columns of one PE stream (memoizable)."""
    lat = _LATENCY_LUT[opcode]
    is_mem = (opcode == _LOAD) | (opcode == _STORE) | (opcode == _ATOMIC)
    mem_pos = np.flatnonzero(is_mem)
    lat_nonmem = np.where(is_mem, 0, lat)
    if issue_width > 1:
        # Multi-issue cores retire several independent ops per cycle;
        # first-order model: compute segments shrink by the issue width.
        lat_nonmem = lat_nonmem / issue_width
    pref = np.concatenate(([0], np.cumsum(lat_nonmem)))
    # Compute time between consecutive memory ops (and before the first /
    # after the last).  lat_nonmem is zero at memory positions, so prefix
    # differences at the positions give exactly the in-between sums.
    bounds = np.concatenate(([0], mem_pos, [len(opcode)]))
    compute_cycles = pref[bounds[1:]] - pref[bounds[:-1]]
    lines = (addr[mem_pos] >> np.uint64(line_shift)).astype(np.int64)
    writes = (opcode[mem_pos] == _STORE) | (opcode[mem_pos] == _ATOMIC)
    compute_ns = compute_cycles.astype(np.float64) * cycle_ns
    return (
        pe,
        compute_ns,
        np.concatenate(([0.0], np.cumsum(compute_ns))),
        lines,
        writes,
        len(opcode),
    )


class _EventBundle:
    """Packed phase-B inputs for one (trace, architecture-slice) pair.

    Miss/writeback events of all streams concatenated into flat arrays
    (``off`` holds per-packed-stream bounds, ``sidx`` maps packed slots
    back to stream indices), plus the order-independent aggregates that
    phase A pre-counts (DRAM traffic, no-miss stream finish times).
    Everything here is immutable across runs — the bundle is what the
    events memo caches.
    """

    __slots__ = (
        "sidx", "off", "block", "vault", "bank",
        "wblock", "wvault", "wbank", "dnext", "t0", "tail",
        "finish0", "n_reads", "n_writes", "vault_counts", "__weakref__",
    )

    def __init__(self) -> None:
        # Built as a list, normalised to an int64 array at the end of
        # _build_events (and on store decode) — batched replay indexes
        # and concatenates it.
        self.sidx: list[int] | np.ndarray = []
        self.finish0: dict[int, float] = {}
        self.n_reads = 0
        self.n_writes = 0

    @property
    def n_packed(self) -> int:
        return len(self.sidx)


class _PhaseA:
    """The complete phase-A product of one (trace, architecture-slice).

    Everything the fast engine needs downstream of classification: the
    packed event bundle, the aggregate L1 statistics, the end-of-kernel
    flush write count and the stream count.  This is the unit both the
    in-process events memo and the persistent cross-process store cache —
    a warm hit skips stream digestion, classification *and* event
    packing entirely.
    """

    __slots__ = ("bundle", "stats", "flush_writes", "n_streams")

    def __init__(
        self,
        bundle: _EventBundle,
        stats: tuple[int, int, int, int],
        flush_writes: int,
        n_streams: int,
    ) -> None:
        self.bundle = bundle
        #: (hits, misses, writebacks, flushes) — CacheStats field order.
        self.stats = stats
        self.flush_writes = flush_writes
        self.n_streams = n_streams


def _events_key(cfg: NMCConfig) -> tuple:
    """The architecture slice phase A depends on (events-memo key)."""
    return (
        cfg.backend,
        cfg.n_pes, cfg.line_bytes, cfg.l1_sets, cfg.l1_ways,
        cfg.issue_width, cfg.frequency_ghz, cfg.n_vaults,
        cfg.banks_per_vault, cfg.row_buffer_bytes,
    )


_BUNDLE_INT_COLS = (
    "sidx", "off", "block", "vault", "bank", "wblock", "wvault", "wbank",
)
_BUNDLE_FLOAT_COLS = ("dnext", "t0", "tail")

#: Segment order inside a store entry's two flat blobs.  Every int64
#: array (bundle columns, finish0 indices, vault counts, scalar metadata)
#: concatenates into ``ints`` and every float64 array into ``floats``,
#: with a ``lens`` header to split them back — loading 3 archive members
#: per entry instead of 16 keeps warm-store lookups cheap.
_STORE_INT_SEGS = _BUNDLE_INT_COLS + ("f0_idx", "vault_counts", "meta")
_STORE_FLOAT_SEGS = _BUNDLE_FLOAT_COLS + ("f0_val",)
_META_LEN = 8  # n_streams, n_reads, n_writes, flush_writes, 4 stats


def _encode_phase_a(product: _PhaseA) -> dict[str, np.ndarray]:
    """Flatten a phase-A product into three arrays for the memo store."""
    b = product.bundle
    n0 = len(b.finish0)
    parts = {name: getattr(b, name) for name in _BUNDLE_INT_COLS}
    parts.update({name: getattr(b, name) for name in _BUNDLE_FLOAT_COLS})
    parts["f0_idx"] = np.fromiter(b.finish0.keys(), dtype=np.int64, count=n0)
    parts["f0_val"] = np.fromiter(b.finish0.values(), dtype=np.float64, count=n0)
    parts["vault_counts"] = b.vault_counts
    parts["meta"] = np.asarray(
        [
            product.n_streams, b.n_reads, b.n_writes,
            product.flush_writes, *product.stats,
        ],
        dtype=np.int64,
    )
    ints = [
        np.ascontiguousarray(parts[name], dtype=np.int64)
        for name in _STORE_INT_SEGS
    ]
    floats = [
        np.ascontiguousarray(parts[name], dtype=np.float64)
        for name in _STORE_FLOAT_SEGS
    ]
    return {
        "lens": np.asarray(
            [len(a) for a in ints] + [len(a) for a in floats],
            dtype=np.int64,
        ),
        "ints": np.concatenate(ints) if ints else np.empty(0, np.int64),
        "floats": (
            np.concatenate(floats) if floats else np.empty(0, np.float64)
        ),
    }


def _split_segments(
    blob: np.ndarray, lens: Sequence[int]
) -> list[np.ndarray]:
    """Split a flat blob back into its segments (views, no copies)."""
    if len(lens) and min(lens) < 0:
        raise ValueError(f"negative segment length in {list(lens)}")
    if sum(lens) != len(blob):
        raise ValueError(
            f"segment lengths {list(lens)} do not cover blob of {len(blob)}"
        )
    bounds = np.cumsum([0, *lens])
    return [blob[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _decode_phase_a(data: Mapping[str, np.ndarray]) -> _PhaseA | None:
    """Rebuild a phase-A product from store arrays (None on bad shape)."""
    try:
        lens = np.ascontiguousarray(data["lens"], dtype=np.int64)
        if len(lens) != len(_STORE_INT_SEGS) + len(_STORE_FLOAT_SEGS):
            raise ValueError(f"bad segment count {len(lens)}")
        n_ints = len(_STORE_INT_SEGS)
        ints = _split_segments(
            np.ascontiguousarray(data["ints"], dtype=np.int64),
            lens[:n_ints],
        )
        floats = _split_segments(
            np.ascontiguousarray(data["floats"], dtype=np.float64),
            lens[n_ints:],
        )
        parts = dict(zip(_STORE_INT_SEGS, ints))
        parts.update(zip(_STORE_FLOAT_SEGS, floats))
        bundle = _EventBundle()
        for name in _BUNDLE_INT_COLS + _BUNDLE_FLOAT_COLS:
            setattr(bundle, name, parts[name])
        bundle.finish0 = {
            int(i): float(v)
            for i, v in zip(parts["f0_idx"], parts["f0_val"])
        }
        bundle.vault_counts = parts["vault_counts"]
        meta = parts["meta"]
        if len(meta) != _META_LEN:
            raise ValueError(f"bad metadata length {len(meta)}")
        bundle.n_reads = int(meta[1])
        bundle.n_writes = int(meta[2])
        return _PhaseA(
            bundle,
            (int(meta[4]), int(meta[5]), int(meta[6]), int(meta[7])),
            int(meta[3]),
            int(meta[0]),
        )
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        discard(
            f"sim memo store entry decoded to an invalid phase-A product "
            f"({exc!r}); recomputing",
            counter="sim.memo.store.errors",
        )
        return None


class NMCSimulator:
    """Simulates kernel traces on one NMC architecture configuration.

    ``engine`` selects the execution engine (``"fast"`` two-phase or
    ``"reference"`` per-access; ``None`` honours ``$REPRO_SIM_ENGINE``,
    default fast).  Both engines produce identical
    :class:`SimulationResult` values; see :mod:`repro.nmcsim.classify`.
    """

    def __init__(
        self,
        config: NMCConfig | None = None,
        *,
        engine: str | None = None,
    ) -> None:
        self.config = config or default_nmc_config()
        self.config.validate()
        self.engine = resolve_engine(engine)

    def run(
        self,
        trace: InstructionTrace,
        *,
        workload: str = "",
        parameters: Mapping[str, float] | None = None,
    ) -> SimulationResult:
        """Simulate one trace; returns IPC, time and energy."""
        if len(trace) == 0:
            raise SimulationError("cannot simulate an empty trace")
        with metrics().timer("phase.simulate") as span:
            result = self._run(trace, workload=workload, parameters=parameters)
        metrics().inc("nmcsim.runs")
        log.debug(
            "simulation done",
            extra={"ctx": {
                "workload": workload or "(unnamed)",
                "engine": self.engine,
                "instructions": result.instructions,
                "cycles": result.cycles,
                "seconds": round(span.elapsed_s or 0.0, 3),
            }},
        )
        return result

    # ----------------------------------------------------------- shared

    def _stream_digests(self, trace: InstructionTrace) -> list[tuple]:
        """Round-robin threads onto PEs; threads sharing a PE execute
        back-to-back (time multiplexed)."""
        cfg = self.config
        line_shift = cfg.line_bytes.bit_length() - 1
        tids = trace.thread_ids
        # One stable argsort groups the trace by thread id while keeping
        # per-thread program order — same sub-arrays as a boolean mask
        # per tid, without T full-column scans.
        order = np.argsort(trace.tid, kind="stable")
        sorted_tid = trace.tid[order]
        starts = np.searchsorted(sorted_tid, tids, side="left")
        ends = np.searchsorted(sorted_tid, tids, side="right")
        per_pe_cols: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for idx, tid in enumerate(tids):
            pe = idx % cfg.n_pes
            sel = order[starts[idx]:ends[idx]]
            per_pe_cols.setdefault(pe, []).append(
                (trace.opcode[sel], trace.addr[sel])
            )
        digests: list[tuple] = []
        for pe, parts in sorted(per_pe_cols.items()):
            opcode = np.concatenate([p[0] for p in parts])
            addr = np.concatenate([p[1] for p in parts])
            digests.append(
                _stream_digest(
                    pe, opcode, addr, cfg.cycle_ns, line_shift,
                    issue_width=cfg.issue_width,
                )
            )
        return digests

    def _build_streams(self, trace: InstructionTrace) -> list[_PEStream]:
        cfg = self.config
        digests = _memo_lookup(
            trace,
            "streams",
            (cfg.n_pes, cfg.issue_width, cfg.frequency_ghz, cfg.line_bytes),
            lambda: self._stream_digests(trace),
        )
        # Fresh per-run wrappers around the shared (immutable) columns.
        return [_PEStream(*d) for d in digests]

    def _run(
        self,
        trace: InstructionTrace,
        *,
        workload: str = "",
        parameters: Mapping[str, float] | None = None,
    ) -> SimulationResult:
        # Opt-in simulated-hardware timeline (None unless REPRO_TRACE_HW
        # is set): per-PE busy/stall slices, vault occupancy and cache
        # counter tracks, all on the simulated nanosecond clock.  The
        # timeline needs one event per access, which is exactly what the
        # fast engine elides — so hardware-traced runs always take the
        # reference path (results are identical either way).
        hw = tracer().hw_timeline()
        engine = self.engine
        if hw is not None and engine == "fast":
            engine = "reference"
        memory = StackedMemory(self.config, timeline=hw)

        if engine == "fast":
            product = self._phase_a(trace, memory)
            bundle = product.bundle
            memory.add_counts(
                reads=bundle.n_reads,
                writes=bundle.n_writes,
                vault_counts=bundle.vault_counts,
            )
            packed_finish = None
            if bundle.n_packed:
                with metrics().timer("phase.simulate.contend"):
                    (packed_finish,) = _contend_native_multi(
                        [(bundle, memory, self.config)]
                    )
            return self._finalize(
                trace, memory, product, packed_finish, workload, parameters
            )

        streams = self._build_streams(trace)
        cache_stats, flush_writes = self._contend_reference(
            streams, memory, hw
        )
        memory.writes += flush_writes
        makespan_ns = max(s.finish_ns for s in streams)
        return self._result(
            trace, memory, cache_stats, makespan_ns, len(streams),
            workload, parameters, hw=hw, streams=streams,
        )

    def _finalize(
        self,
        trace: InstructionTrace,
        memory: StackedMemory,
        product: _PhaseA,
        packed_finish: np.ndarray | None,
        workload: str,
        parameters: Mapping[str, float] | None,
    ) -> SimulationResult:
        """Turn a phase-A product + phase-B finish times into a result.

        Shared by the per-point fast path and the batched replay path —
        literally the same code, which is half of the bit-equivalence
        argument (the other half being the kernels themselves).
        """
        memory.writes += product.flush_writes
        makespan_ns = 0.0
        for v in product.bundle.finish0.values():
            if v > makespan_ns:
                makespan_ns = v
        if packed_finish is not None and len(packed_finish):
            peak = float(packed_finish.max())
            if peak > makespan_ns:
                makespan_ns = peak
        return self._result(
            trace, memory, CacheStats(*product.stats), makespan_ns,
            product.n_streams, workload, parameters,
        )

    def _result(
        self,
        trace: InstructionTrace,
        memory: StackedMemory,
        cache_stats: CacheStats,
        makespan_ns: float,
        n_pes_used: int,
        workload: str,
        parameters: Mapping[str, float] | None,
        *,
        hw=None,
        streams: list[_PEStream] | None = None,
    ) -> SimulationResult:
        cfg = self.config
        cycle_ns = cfg.cycle_ns
        line_shift = cfg.line_bytes.bit_length() - 1
        if makespan_ns <= 0:
            raise SimulationError("simulation produced a non-positive makespan")
        cycles = max(1, int(round(makespan_ns / cycle_ns)))
        instructions = len(trace)
        ipc = instructions / cycles

        dram_stats = memory.stats()
        if hw is not None and streams is not None:
            for s in streams:
                assert s.cache is not None
                hw.counter(
                    f"pe{s.pe}.cache",
                    s.cache.stats.counter_values(),
                    makespan_ns,
                )
            hw.close()

        offload_bytes = float(
            trace.footprint_lines(line_shift) * cfg.line_bytes
        )

        time_s = makespan_ns * 1e-9
        energy = compute_energy(
            cfg,
            trace.opcode_counts(),
            l1_accesses=cache_stats.accesses,
            dram_accesses=dram_stats.accesses,
            exec_time_s=time_s,
            offload_bytes=offload_bytes,
            dram_writes=dram_stats.writes,
        )
        return SimulationResult(
            workload=workload,
            instructions=instructions,
            cycles=cycles,
            time_s=time_s,
            ipc=ipc,
            energy=energy,
            cache=cache_stats,
            dram=dram_stats,
            n_pes_used=n_pes_used,
            parameters=dict(parameters or {}),
        )

    # -------------------------------------------------- reference engine

    def _contend_reference(
        self,
        streams: list[_PEStream],
        memory: StackedMemory,
        hw,
    ) -> tuple[CacheStats, int]:
        """One heap event per memory access, stepping the Cache model.

        In-order PEs block on every miss.  Out-of-order PEs ("ooo") keep
        issuing past misses until their MSHRs fill; when the MSHR file is
        full, the PE stalls until the oldest outstanding miss returns.
        """
        cfg = self.config
        line_shift = cfg.line_bytes.bit_length() - 1
        l1_cycle_ns = cfg.cycle_ns  # one-cycle L1 access
        ooo = cfg.pe_type == "ooo"
        mshrs = cfg.mshr_entries
        heap: list[tuple[float, int]] = []
        for i, s in enumerate(streams):
            s.cache = Cache.l1_for(cfg)
            if s.n_mem:
                heapq.heappush(heap, (s.issue_ns(0, l1_cycle_ns), i))
            else:
                s.finish_ns = float(s.compute_ns[0])
        l1_misses = 0
        # Event loop: always advance the PE whose next memory access comes
        # earliest in global time, so bank/bus contention is seen in order.
        while heap:
            t, i = heapq.heappop(heap)
            s = streams[i]
            k = s.next_op
            if hw is not None:
                compute = float(s.compute_ns[k])
                if compute > 0:
                    hw.slice(s.pe, "pe.busy", t - compute, t)
            line = int(s.lines[k])
            is_write = bool(s.writes[k])
            hit, writeback = s.cache.access(line, is_write)
            if hit:
                pass  # one L1 cycle, folded into the issue expression
            else:
                done = memory.access(t, line << line_shift, is_write)
                if not ooo:
                    if hw is not None:
                        l1_misses += 1
                        hw.slice(s.pe, "pe.stall", t, done, reason="l1_miss")
                        hw.counter("l1.misses", {"misses": l1_misses}, done)
                    t = done + l1_cycle_ns
                else:
                    if hw is not None:
                        l1_misses += 1
                        hw.counter("l1.misses", {"misses": l1_misses}, done)
                    heapq.heappush(s.outstanding, done)
                    if len(s.outstanding) >= mshrs:
                        # MSHRs full: stall until the oldest miss completes.
                        oldest = heapq.heappop(s.outstanding)
                        if hw is not None and oldest > t:
                            hw.slice(
                                s.pe, "pe.stall", t, oldest,
                                reason="mshr_full",
                            )
                        t = max(t, oldest) + l1_cycle_ns
                    else:
                        t += l1_cycle_ns  # issue continues under the miss
                # The miss completion re-anchors all later event times.
                s.base_t = t
                s.base_k = k
                if writeback is not None:
                    # Dirty eviction: posted write, does not block the PE
                    # but occupies the bank (and pays the backend's
                    # write-asymmetry penalty, if any).
                    memory.access(
                        t, writeback << line_shift, True, is_writeback=True
                    )
            s.next_op = k + 1
            if s.next_op < s.n_mem:
                heapq.heappush(
                    heap, (s.issue_ns(s.next_op, l1_cycle_ns), i)
                )
            else:
                finish = s.issue_ns(s.n_mem, l1_cycle_ns)
                if s.outstanding:
                    finish = max(finish, max(s.outstanding))
                    s.outstanding.clear()
                s.finish_ns = finish

        # Dirty lines still resident are flushed back at kernel completion:
        # flush() counts each line once in the cache's writeback stats, and
        # the matching DRAM write traffic (and thus DRAM access energy) is
        # added by the caller — once per flushed line, same as an eviction.
        flush_writes = 0
        cache_stats = CacheStats()
        for s in streams:
            assert s.cache is not None
            flush_writes += s.cache.flush()
            cache_stats.merge(s.cache.stats)
        return cache_stats, flush_writes

    # ------------------------------------------------------- fast engine

    def _build_events(
        self,
        streams: list[_PEStream],
        cls_list: list,
        memory: StackedMemory,
    ) -> _EventBundle:
        """Pack every stream's miss/writeback events into flat arrays.

        Everything deterministic is computed here, vectorized: issue-gap
        deltas (the exact :meth:`_PEStream.issue_ns` operations), DRAM
        routing (the Fibonacci hash is stateless, so ``route_array``
        covers misses and victims alike) and the order-independent
        traffic totals.  Only bank/bus timing is left for phase B.
        """
        cfg = self.config
        line_shift = cfg.line_bytes.bit_length() - 1
        l1_cycle_ns = cfg.cycle_ns
        banks_pv = cfg.banks_per_vault
        shift = np.uint64(line_shift)
        bundle = _EventBundle()
        vault_counts = np.zeros(cfg.n_vaults, dtype=np.int64)
        cols: list[tuple] = []
        t0: list[float] = []
        tail: list[float] = []
        for i, s in enumerate(streams):
            cls = cls_list[i]
            mp = np.flatnonzero(~cls.hit)
            if not len(mp):
                # No misses: purely deterministic stream (base_t = 0).
                bundle.finish0[i] = (
                    float(s.compute_ns[0]) if s.n_mem == 0
                    else float(s.issue_ns(s.n_mem, l1_cycle_ns))
                )
                continue
            # Deterministic gap from the previous miss completion to this
            # miss's issue: the in-between compute segments plus one L1
            # cycle per intervening hit — evaluated with the exact
            # operations of issue_ns().
            mp1 = mp + 1
            comp = s.pref[mp1] - s.pref[np.concatenate(([0], mp1[:-1]))]
            gaps = np.diff(np.concatenate(([-1], mp))) - 1
            delta = comp + gaps * l1_cycle_ns
            dnext = np.empty(len(mp), dtype=np.float64)
            dnext[:-1] = delta[1:]
            dnext[-1] = 0.0
            mv, mb, mblk = memory.route_array(
                s.lines[mp].astype(np.uint64) << shift
            )
            wb = cls.wb_line[mp]
            has_wb = wb >= 0
            wv, wbk, wblk = memory.route_array(
                np.where(has_wb, wb, 0).astype(np.uint64) << shift
            )
            bundle.sidx.append(i)
            t0.append(float(delta[0]))
            tail.append(float(
                (s.pref[s.n_mem + 1] - s.pref[mp[-1] + 1])
                + (s.n_mem - 1 - mp[-1]) * l1_cycle_ns
            ))
            cols.append((
                mblk, mv, mv * banks_pv + mb,
                wblk, wv, np.where(has_wb, wv * banks_pv + wbk, -1),
                dnext,
            ))
            # DRAM traffic totals are order-independent: count them once
            # here rather than per event.
            miss_writes = int(np.count_nonzero(s.writes[mp]))
            n_wb = int(np.count_nonzero(has_wb))
            bundle.n_reads += len(mp) - miss_writes
            bundle.n_writes += miss_writes + n_wb
            vault_counts += np.bincount(mv, minlength=len(vault_counts))
            vault_counts += np.bincount(
                wv[has_wb], minlength=len(vault_counts)
            )
        bundle.vault_counts = vault_counts
        n_events = [len(c[0]) for c in cols]
        bundle.off = np.concatenate(
            ([0], np.cumsum(np.asarray(n_events, dtype=np.int64)))
        ).astype(np.int64)
        names = ("block", "vault", "bank", "wblock", "wvault", "wbank")
        for col, name in enumerate(names):
            packed = (
                np.concatenate([c[col] for c in cols]).astype(np.int64)
                if cols else np.empty(0, dtype=np.int64)
            )
            setattr(bundle, name, packed)
        bundle.dnext = (
            np.concatenate([c[6] for c in cols])
            if cols else np.empty(0, dtype=np.float64)
        )
        bundle.t0 = np.asarray(t0, dtype=np.float64)
        bundle.tail = np.asarray(tail, dtype=np.float64)
        bundle.sidx = np.asarray(bundle.sidx, dtype=np.int64)
        return bundle

    def _compute_phase_a(self, trace: InstructionTrace) -> _PhaseA:
        """Run phase A from scratch: digest, classify, pack events.

        Phase A classifies every stream's accesses against its L1 (hits,
        misses, dirty-victim writebacks, flush set) without any timing
        and packs the miss events.  Phase B then replays only the misses
        through the global-time heap — the same issue-time expressions
        and the same sequence of memory-pipeline updates as the
        reference engine, because hits never touch shared state.
        """
        cfg = self.config
        streams = self._build_streams(trace)
        cls_list = _memo_lookup(
            trace,
            "classify",
            (cfg.n_pes, cfg.line_bytes, cfg.l1_sets, cfg.l1_ways),
            lambda: [
                classify_lru(
                    s.lines, s.writes,
                    n_sets=cfg.l1_sets, ways=cfg.l1_ways,
                )
                for s in streams
            ],
        )
        cache_stats = CacheStats()
        flush_writes = 0
        for cls in cls_list:
            cache_stats.merge(cls.stats)
            flush_writes += len(cls.flush_lines)
        # Routing only reads immutable geometry, so a throwaway memory
        # instance serves (the caller's StackedMemory carries run state).
        bundle = self._build_events(streams, cls_list, StackedMemory(cfg))
        return _PhaseA(
            bundle,
            (
                cache_stats.hits, cache_stats.misses,
                cache_stats.writebacks, cache_stats.flushes,
            ),
            flush_writes,
            len(streams),
        )

    def _phase_a(self, trace: InstructionTrace, memory: StackedMemory) -> _PhaseA:
        """The phase-A product, via the memo stack.

        Lookup order: in-process events memo on the trace, then the
        persistent cross-process store (when configured), then a fresh
        computation (which also populates the store).  All three paths
        yield the identical product — the store round-trips the exact
        float64/int64 arrays.
        """
        del memory  # routing state is geometry-only; see _compute_phase_a
        cfg = self.config
        key = _events_key(cfg)
        built = False

        def build() -> _PhaseA:
            nonlocal built
            built = True
            store = active_store()
            if store is None:
                return self._compute_phase_a(trace)
            skey = store_key(trace, key)
            data = store.get(skey)
            if data is not None:
                product = _decode_phase_a(data)
                if product is not None:
                    return product
            product = self._compute_phase_a(trace)
            store.put(skey, _encode_phase_a(product))
            return product

        with metrics().timer("phase.simulate.classify"):
            product = _memo_lookup(trace, "events", key, build)
            if not built:
                _memo_touch(
                    trace, "streams",
                    (cfg.n_pes, cfg.issue_width, cfg.frequency_ghz,
                     cfg.line_bytes),
                )
                _memo_touch(
                    trace, "classify",
                    (cfg.n_pes, cfg.line_bytes, cfg.l1_sets, cfg.l1_ways),
                )
            return product


def simulate(
    trace: InstructionTrace,
    config: NMCConfig | None = None,
    *,
    workload: str = "",
    parameters: Mapping[str, float] | None = None,
    engine: str | None = None,
) -> SimulationResult:
    """Convenience wrapper: simulate ``trace`` on ``config`` (Table 3 default)."""
    return NMCSimulator(config, engine=engine).run(
        trace, workload=workload, parameters=parameters
    )


# ------------------------------------------------------- batched replay

#: Bucket bounds of the ``sim.batch.points_per_call`` histogram (batch
#: sizes, not latencies).
_BATCH_SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def _contend_native_multi(
    entries: Sequence[tuple[_EventBundle, StackedMemory, NMCConfig]],
) -> list[np.ndarray]:
    """Replay every entry's phase B in ONE kernel invocation.

    Tabulates the per-point float/int parameters
    (:data:`repro.nmcsim._native.PARAM_FIELDS` /
    :data:`~repro.nmcsim._native.IPARAM_FIELDS`) and hands the kernel
    the points' packed event bundles as they are.  The kernel replays
    each point from the idle-memory state a fresh :class:`StackedMemory`
    holds, so the batch is bit-identical to N separate calls.  Returns
    each point's finish-time slice.
    """
    params = np.array(
        [
            (
                memory._t_cl, memory._t_bl, memory._t_rp, memory._hop,
                memory._linger, memory._closed, memory._occupancy,
                memory._wr_extra, cfg.cycle_ns,
            )
            for _b, memory, cfg in entries
        ],
        dtype=np.float64,
    )
    iparams = np.array(
        [
            (
                1 if cfg.pe_type == "ooo" else 0,
                cfg.mshr_entries,
                cfg.n_vaults * cfg.banks_per_vault,
                cfg.n_vaults,
                bundle.n_packed,
            )
            for bundle, _m, cfg in entries
        ],
        dtype=np.int64,
    )
    kernel, _backend = _native.resolve_kernel()
    finish = kernel([e[0] for e in entries], params, iparams)
    bounds = np.cumsum(iparams[:, 4]).tolist()
    return [
        finish[lo:hi] for lo, hi in zip([0] + bounds[:-1], bounds)
    ]


def simulate_batch(
    points: Sequence[
        tuple[InstructionTrace, NMCConfig | None, str, Mapping[str, float] | None]
    ],
    *,
    engine: str | None = None,
) -> list[SimulationResult]:
    """Simulate many design points with phase B batched into one call.

    ``points`` holds ``(trace, config, workload, parameters)`` tuples
    (``config=None`` means the Table 3 default).  Results are returned
    in input order and are bit-identical to running each point through
    :meth:`NMCSimulator.run` — the batching only amortises kernel
    dispatch, never changes event order (points are independent: each
    replays against its own idle memory state).

    Per point, the usual ``phase.simulate`` span (wrapping phase A) and
    ``nmcsim.runs`` count are emitted, so campaign-level observability
    contracts hold in both modes; the shared phase-B invocation is
    instrumented with ``sim.batch.*`` counters/histograms only.

    Non-fast engines and hardware-timeline runs fall back to per-point
    :meth:`~NMCSimulator.run` calls (identical results, no batching).
    """
    if not points:
        return []
    resolved = resolve_engine(engine)
    sims: dict[int, NMCSimulator] = {}

    def sim_for(cfg: NMCConfig | None) -> NMCSimulator:
        sim = sims.get(id(cfg))
        if sim is None:
            sim = NMCSimulator(cfg, engine=resolved)
            sims[id(cfg)] = sim
        return sim

    if resolved != "fast" or tracer().hw_enabled:
        return [
            sim_for(cfg).run(trace, workload=workload, parameters=parameters)
            for trace, cfg, workload, parameters in points
        ]

    # Schedule phase A so points sharing a trace (and then an
    # architecture slice) run back to back: the per-trace memo LRUs
    # stay warm however the caller ordered the sweep.
    trace_rank: dict[int, int] = {}
    for trace, _cfg, _w, _p in points:
        trace_rank.setdefault(id(trace), len(trace_rank))

    def order_key(i: int):
        trace, cfg, _w, _p = points[i]
        c = sim_for(cfg).config
        return (
            trace_rank[id(trace)],
            (c.n_pes, c.line_bytes, c.l1_sets, c.l1_ways),
            _events_key(c),
            i,
        )

    prepared: list[tuple[NMCSimulator, StackedMemory, _PhaseA] | None] = (
        [None] * len(points)
    )
    for i in sorted(range(len(points)), key=order_key):
        trace, cfg, _workload, _parameters = points[i]
        if len(trace) == 0:
            raise SimulationError("cannot simulate an empty trace")
        sim = sim_for(cfg)
        with metrics().timer("phase.simulate"):
            memory = StackedMemory(sim.config)
            product = sim._phase_a(trace, memory)
            bundle = product.bundle
            memory.add_counts(
                reads=bundle.n_reads,
                writes=bundle.n_writes,
                vault_counts=bundle.vault_counts,
            )
        prepared[i] = (sim, memory, product)

    packed = [
        i for i in range(len(points))
        if prepared[i][2].bundle.n_packed  # type: ignore[index]
    ]
    m = metrics()
    t_start = time.perf_counter()
    finishes: dict[int, np.ndarray] = {}
    if packed:
        entries = [
            (prepared[i][2].bundle, prepared[i][1], prepared[i][0].config)
            for i in packed
        ]
        finishes = dict(zip(packed, _contend_native_multi(entries)))
    m.inc("sim.batch.calls")
    m.inc("sim.batch.points", len(points))
    m.observe(
        "sim.batch.points_per_call", float(len(points)),
        bounds=_BATCH_SIZE_BOUNDS,
    )
    m.observe("sim.batch.contend_s", time.perf_counter() - t_start)

    results: list[SimulationResult] = []
    for i, (trace, _cfg, workload, parameters) in enumerate(points):
        sim, memory, product = prepared[i]
        results.append(
            sim._finalize(
                trace, memory, product, finishes.get(i), workload, parameters
            )
        )
        m.inc("nmcsim.runs")
    return results
