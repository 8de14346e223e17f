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
  obviously-correct formulation).  It is the oracle the tests hold the
  fast engine to (``NMCSimulator(config, engine="reference")``) and the
  path of hardware-traced runs, whose timeline needs one event per
  access;
* ``fast`` (the default, and the engine of every campaign) — two-phase:
  **phase A** is one pass per design point over all its PE streams,
  concatenated: one classifier call
  (:mod:`repro.nmcsim.classify`) walks every stream through its own L1
  for hits, misses, writebacks and end-of-kernel flushes, and one
  packer call turns the misses into phase-B events; then
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
  geometry, and the phase-A product (:class:`_PhaseA`: the packed
  phase-B events and the aggregate counts, two flat arrays) on the DRAM
  geometry and clock as well.  Each is cached on the trace's ``_memo``
  side table under its own key, so DoE campaign points that share a
  slice skip the corresponding work entirely (``sim.memo.*`` counters).
  The product's arrays are what the phase-B kernel reads, as they are.
* **compiled kernels** — stream digestion is one kernel call per
  (trace, PE slice), the L1 walk and the event packing one each per
  point, and the contention loop one multi-point kernel
  (:mod:`repro.nmcsim._native`), invoked once per
  :func:`simulate_batch` call (a single run is a batch of one).  All
  run from the shared kernel library :mod:`repro.native` builds with
  the system C compiler on first use whenever one is found (cached
  under ``$REPRO_SIM_JIT_CACHE``) and fall back to pure-Python loops
  otherwise; the two forms are byte-identical.

The simulator returns IPC (total instructions / makespan cycles),
execution time and the full energy breakdown — the labels NAPEL trains
on.
"""

from __future__ import annotations

import ctypes
import heapq
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..config import NMCConfig, default_nmc_config
from ..errors import ConfigError, SimulationError
from ..ir import OPCODE_LATENCY, InstructionTrace, Opcode
from ..obs import get_logger, metrics, tracer
from .. import native
from . import _native
from .cache import Cache, CacheStats
from .classify import LRUClassification, classify_streams
from .dram import StackedMemory, VaultStats, route_addresses
from .dram.hmc import timing_constants
from .energy import compute_energy
from ..store import lru_get_or_build
from .results import SimulationResult

log = get_logger("repro.nmcsim")

# --------------------------------------------------------------- memos

_MEMO_KINDS = ("streams", "classify", "events")

#: Per-trace LRU capacity of each memo kind.  Streams only vary with the
#: coarse PE slice (few distinct values per campaign); classifications
#: and phase-A products track swept geometries, so they keep a few more
#: entries.
_MEMO_CAPS = {"streams": 2, "classify": 4, "events": 4}

#: Traces carrying live memo side tables, tracked weakly so
#: :func:`simulation_memo_bytes` can report their array bytes without
#: extending any trace's lifetime.
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
    which looked all three up every run.  Entries their own memo has
    already evicted are left absent.
    """
    memo = trace._memo.get(f"sim.{kind}")
    if memo is not None and key in memo:
        memo.move_to_end(key)
        metrics().inc(f"sim.memo.{kind}.hits")


def simulation_memo_bytes() -> dict[str, int]:
    """Resident array bytes per memo kind across live traces."""
    totals = dict.fromkeys(_MEMO_KINDS, 0)
    for trace in list(_MEMO_TRACES):
        for kind in _MEMO_KINDS:
            memo = trace._memo.get(f"sim.{kind}")
            if memo:
                totals[kind] += sum(value.nbytes for value in memo.values())
    return totals


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
    opcode: np.ndarray,
    addr: np.ndarray,
    cycle_ns: float,
    line_shift: int,
    issue_width: int,
) -> tuple:
    """``(compute_ns, pref, lines, writes)`` of one PE stream."""
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
    pref_ns = np.concatenate(([0.0], np.cumsum(compute_ns)))
    return compute_ns, pref_ns, lines, writes


@dataclass(frozen=True, eq=False, slots=True)
class _Streams:
    """Every PE stream of one (trace, PE slice), concatenated.

    Stream ``i`` runs on PE ``pe[i]`` and owns memory ops
    ``off[i]:off[i + 1]`` of ``lines`` / ``writes``; its
    ``n_mem + 1`` compute segments start at ``compute_ns[off[i] + i]``
    and its ``n_mem + 2`` prefix sums at ``pref[off[i] + 2 * i]`` (see
    :class:`_PEStream`).  Immutable — one ``stream_digests`` call builds
    it, the streams memo caches it, and phase A reads it in one pass.
    """

    pe: list[int]
    n_instructions: list[int]
    off: np.ndarray
    lines: np.ndarray
    writes: np.ndarray
    compute_ns: np.ndarray
    pref: np.ndarray

    def __len__(self) -> int:
        return len(self.pe)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (
            self.off, self.lines, self.writes, self.compute_ns, self.pref
        ))

    def stream(self, i: int) -> _PEStream:
        """A fresh per-run :class:`_PEStream` over stream ``i``'s views."""
        lo, hi = int(self.off[i]), int(self.off[i + 1])
        return _PEStream(
            self.pe[i],
            self.compute_ns[lo + i:hi + i + 1],
            self.pref[lo + 2 * i:hi + 2 * i + 2],
            self.lines[lo:hi],
            self.writes[lo:hi],
            self.n_instructions[i],
        )


def _digest_streams(
    opcode: np.ndarray, addr: np.ndarray, tid: np.ndarray, *,
    n_pes: int, cycle_ns: float, line_shift: int, issue_width: int,
) -> _Streams:
    """Python form of the ``stream_digests`` kernel.  Threads go
    round-robin onto PEs in tid order; threads sharing a PE execute back
    to back (time multiplexed), each in program order.  With more PEs
    than threads, each thread gets a PE of its own and the rest stay
    unused (one stream per thread).

    Index contract, which the C form does not check: the three columns
    have one entry per instruction, at least one (``_simulate`` refuses
    an empty trace first); every opcode indexes :data:`_LATENCY_LUT`
    (:meth:`~repro.ir.InstructionTrace.check_opcodes`); ``tid`` is
    uint16, so the C form's per-thread scratch, sized ``tid.max() + 1``,
    has at most 65536 slots however sparse the ids; ``n_pes >= 1``,
    ``issue_width >= 1`` and ``0 <= line_shift < 64``.
    """
    rank = np.unique(tid, return_inverse=True)[1]
    pe_of = rank % n_pes
    order = np.lexsort((rank, pe_of))  # stable: PE, thread rank, program
    n_instructions = np.bincount(pe_of).tolist()
    digests = [
        _stream_digest(opcode[sel], addr[sel], cycle_ns, line_shift, issue_width)
        for sel in np.split(order, np.cumsum(n_instructions)[:-1])
    ]
    off = np.cumsum([0] + [len(d[2]) for d in digests], dtype=np.int64)
    compute_ns, pref, lines, writes = map(np.concatenate, zip(*digests))
    return _Streams(list(range(len(digests))), n_instructions, off,
                    lines, writes, compute_ns, pref)


#: Per-opcode bits of the C form: 1 a memory op, 2 a memory write.
_DIGEST_KIND = np.zeros(len(_LATENCY_LUT), dtype=np.uint8)
_DIGEST_KIND[[_LOAD, _STORE, _ATOMIC]] = (1, 3, 3)


def _digest_streams_cc(lib: native.Library):
    fn = lib.stream_digests
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p] * 14 + [ctypes.c_int64] * 3 + [
        ctypes.c_double, ctypes.c_int64, ctypes.c_int64]

    def kernel(opcode, addr, tid, *, n_pes, cycle_ns, line_shift, issue_width):
        n, n_tid = len(opcode), int(tid.max()) + 1  # scratch sized by the trace
        rank, sizes = np.empty(n_tid + 1, np.int64), np.empty(2, np.int64)
        ins = [opcode, addr, tid, _LATENCY_LUT, _DIGEST_KIND,
               np.empty(n_tid, np.int64), rank, np.empty(n, np.int64), sizes]
        args = (n, n_tid, n_pes, cycle_ns, line_shift, issue_width)
        fn(*[a.ctypes.data for a in ins], *[None] * 5, *args)  # the plan
        ns, nm = sizes.tolist()
        outs = [np.empty(ns + 1, np.int64), np.empty(nm, np.int64),
                np.empty(nm, bool), np.empty(nm + ns), np.empty(nm + 2 * ns)]
        fn(*[a.ctypes.data for a in ins + outs], *args)
        return _Streams(
            list(range(ns)), np.diff(rank[:ns + 1]).tolist(), *outs
        )

    return kernel


native.register("stream_digests", _digest_streams, _digest_streams_cc)


#: The named segments of a phase-A product, in the order ``pack_events``
#: lays them out: the int64 ones fill ``ints``, the float64 ones
#: ``floats``.  ``sidx`` maps each packed stream (one with at least one
#: miss) to its stream index and ``off`` bounds its events; ``block``,
#: ``vault``, ``bank``, the ``w`` writeback routing and ``dnext`` hold
#: one entry per event, ``t0`` / ``tail`` one per packed stream (see
#: :data:`repro.nmcsim._native.COLUMNS`).  ``f0_idx`` / ``f0_val`` are
#: the streams without a miss and their finish times.
_INT_SEGS = (
    "sidx", "off", "block", "vault", "bank", "wblock", "wvault", "wbank",
    "f0_idx", "vault_counts", "meta",
)
_FLOAT_SEGS = ("dnext", "t0", "tail", "f0_val")
_SEGS = _INT_SEGS + _FLOAT_SEGS
#: ``meta``: n_streams, n_reads, n_writes, flush_writes, then the L1
#: hits, misses, writebacks and flushes (CacheStats field order).
_META_LEN = 8


class _PhaseA:
    """The phase-A product of one (trace, architecture-slice): two arrays.

    Everything the fast engine needs downstream of classification lives
    in ``ints`` (int64) and ``floats`` (float64); ``lens`` splits them
    into the :data:`_SEGS` segments, exposed as attributes that are views
    into the two arrays.  This one object is what the events memo holds
    and what phase B reads: ``addresses`` holds the base addresses of
    the :data:`~repro.nmcsim._native.COLUMNS` segments for the compiled
    kernel.  A warm hit skips stream digestion, classification *and*
    event packing.  The arrays are taken as ``pack_events`` returns
    them, unchecked: both of its forms write that layout.
    """

    __slots__ = ("lens", "ints", "floats", "addresses") + _SEGS

    def __init__(
        self, lens: np.ndarray, ints: np.ndarray, floats: np.ndarray
    ) -> None:
        address = {}
        n = iter(lens.tolist())
        for blob, names in ((ints, _INT_SEGS), (floats, _FLOAT_SEGS)):
            at, base = 0, blob.ctypes.data
            for name in names:
                k = next(n)
                setattr(self, name, blob[at:at + k])
                address[name] = base + 8 * at
                at += k
        self.lens, self.ints, self.floats = lens, ints, floats
        self.addresses = [address[name] for name in _native.COLUMNS]

    @property
    def nbytes(self) -> int:
        return self.lens.nbytes + self.ints.nbytes + self.floats.nbytes


def _pack_events(
    streams: _Streams, cls: LRUClassification, *, line_shift: int,
    block_shift: int, n_vaults: int, banks_per_vault: int, l1_cycle_ns: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Python form of the ``pack_events`` kernel: one point's phase-A
    product ``(lens, ints, floats)`` (see :class:`_PhaseA`).

    One vectorized pass over the concatenated streams computes
    everything deterministic: issue-gap deltas (the exact
    :meth:`_PEStream.issue_ns` operations, element by element), DRAM
    routing (the stateless Fibonacci hash of
    :func:`~repro.nmcsim.dram.hmc.route_addresses`, for misses and
    victims alike) and the order-independent traffic totals.  Only
    bank/bus timing is left for phase B.  The C form sizes both arrays
    from ``cls.stats`` and fills every segment in place, in one pass.

    Index contract, which the C form does not check: ``streams`` has
    the :class:`_Streams` layout (``off`` rises from 0 to
    ``len(lines)``; ``writes`` is as long as ``lines``, ``compute_ns``
    has ``len(lines) + n_streams`` entries and ``pref`` ``len(lines) +
    2 * n_streams``) and ``cls`` is its classification: ``hit`` and
    ``wb_line`` as long as ``lines``, ``stats`` one row per stream
    whose misses column counts that stream's false ``hit`` entries.
    ``0 <= line_shift, block_shift < 64`` and ``n_vaults``,
    ``banks_per_vault >= 1``; every routed vault and bank is reduced
    modulo those counts, so ``vault_counts`` (``n_vaults`` slots) and
    the bank indices stay in range.  Zero streams, streams without
    memory ops and one-access streams are valid.
    """
    shift = np.uint64(line_shift)
    off, pref = streams.off, streams.pref
    # Misses by concatenated op index k, and the stream i owning
    # each; op k's prefix sum pref[k - off[i] + 1] of stream i sits
    # at pref[k + 2 i + 1] of the concatenation.
    miss = np.flatnonzero(~cls.hit)
    owner = np.searchsorted(off, miss, side="right") - 1
    n_miss = np.bincount(owner, minlength=len(streams))
    sidx = np.flatnonzero(n_miss)
    ev_off = np.zeros(len(sidx) + 1, dtype=np.int64)
    np.cumsum(n_miss[sidx], out=ev_off[1:])
    first, last = ev_off[:-1], ev_off[1:] - 1

    # Deterministic gap from the previous miss completion (op -1 for
    # a stream's first miss) to this miss's issue: the in-between
    # compute segments plus one L1 cycle per intervening hit.
    prev = np.empty_like(miss)
    prev[1:] = miss[:-1]
    prev[first] = off[sidx] - 1
    comp = pref[miss + 2 * owner + 1] - pref[prev + 2 * owner + 1]
    delta = comp + (miss - prev - 1) * l1_cycle_ns
    dnext = np.empty(len(miss), dtype=np.float64)
    dnext[:-1] = delta[1:]
    dnext[last] = 0.0
    last_miss = miss[last]
    tail = (
        pref[off[sidx + 1] + 2 * sidx + 1]
        - pref[last_miss + 2 * sidx + 1]
    ) + (off[sidx + 1] - 1 - last_miss) * l1_cycle_ns

    # Every L1 starts empty, so only a stream without memory ops has
    # no miss; it finishes after its one compute segment.
    quiet = np.flatnonzero(n_miss == 0)
    finish0 = streams.compute_ns[off[quiet] + quiet]

    def route(lines):
        addrs = lines.astype(np.uint64) << shift
        return route_addresses(addrs, block_shift, n_vaults, banks_per_vault)

    mv, mb, mblk = route(streams.lines[miss])
    wb = cls.wb_line[miss]
    has_wb = wb >= 0
    wv, wbk, wblk = route(np.where(has_wb, wb, 0))
    # DRAM traffic totals are order-independent: count them once
    # here rather than per event.
    miss_writes = int(np.count_nonzero(streams.writes[miss]))
    stats = cls.total()
    meta = [
        len(streams), len(miss) - miss_writes,
        miss_writes + int(np.count_nonzero(has_wb)), stats.flushes,
        stats.hits, stats.misses, stats.writebacks, stats.flushes,
    ]
    seg = {
        "sidx": sidx, "off": ev_off,
        "block": mblk, "vault": mv, "bank": mv * banks_per_vault + mb,
        "wblock": wblk, "wvault": wv,
        "wbank": np.where(has_wb, wv * banks_per_vault + wbk, -1),
        "f0_idx": quiet,
        "vault_counts": np.bincount(mv, minlength=n_vaults)
        + np.bincount(wv[has_wb], minlength=n_vaults),
        "meta": np.array(meta, dtype=np.int64),
        "dnext": dnext, "t0": delta[first], "tail": tail,
        "f0_val": finish0,
    }
    return (
        np.array([len(seg[name]) for name in _SEGS], dtype=np.int64),
        np.concatenate([seg[name] for name in _INT_SEGS]),
        np.concatenate([seg[name] for name in _FLOAT_SEGS]),
    )


def _pack_events_cc(lib: native.Library):
    fn = lib.pack_events
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p] * 8 + [ctypes.c_int64] * 5 + [
        ctypes.c_double] + [ctypes.c_void_p] * 3

    def kernel(streams, cls, *, line_shift, block_shift, n_vaults,
               banks_per_vault, l1_cycle_ns):
        misses = cls.stats[:, 1]
        n_events = int(misses.sum())
        n_packed = int(np.count_nonzero(misses))
        n_quiet = len(misses) - n_packed
        size = {
            "sidx": n_packed, "off": n_packed + 1, "f0_idx": n_quiet,
            "vault_counts": n_vaults, "meta": _META_LEN,
            "t0": n_packed, "tail": n_packed, "f0_val": n_quiet,
        }
        n = [size.get(name, n_events) for name in _SEGS]
        lens = np.array(n, dtype=np.int64)
        ints = np.empty(sum(n[:len(_INT_SEGS)]), dtype=np.int64)
        floats = np.empty(sum(n[len(_INT_SEGS):]), dtype=np.float64)
        fn(
            streams.off.ctypes.data, streams.lines.ctypes.data,
            streams.writes.ctypes.data, streams.compute_ns.ctypes.data,
            streams.pref.ctypes.data, cls.hit.ctypes.data,
            cls.wb_line.ctypes.data, cls.stats.ctypes.data,
            len(misses), line_shift, block_shift, n_vaults,
            banks_per_vault, l1_cycle_ns,
            lens.ctypes.data, ints.ctypes.data, floats.ctypes.data,
        )
        return lens, ints, floats

    return kernel


native.register("pack_events", _pack_events, _pack_events_cc)


def _events_key(cfg: NMCConfig) -> tuple:
    """The architecture slice phase A depends on (events-memo key)."""
    return (
        cfg.backend,
        cfg.n_pes, cfg.line_bytes, cfg.l1_sets, cfg.l1_ways,
        cfg.issue_width, cfg.frequency_ghz, cfg.n_vaults,
        cfg.banks_per_vault, cfg.row_buffer_bytes,
    )


class NMCSimulator:
    """Simulates kernel traces on one NMC architecture configuration.

    ``engine`` selects the execution engine: ``"fast"`` (two-phase, the
    default) or ``"reference"`` (per-access, the oracle the fast engine
    is tested against).  Both engines produce identical
    :class:`SimulationResult` values; see :mod:`repro.nmcsim.classify`.
    """

    def __init__(
        self,
        config: NMCConfig | None = None,
        *,
        engine: str = "fast",
    ) -> None:
        self.config = config or default_nmc_config()
        self.config.validate()
        if engine not in ("fast", "reference"):
            raise ConfigError(
                f"unknown simulation engine {engine!r}; "
                "expected fast or reference"
            )
        self.engine = engine

    def run(
        self,
        trace: InstructionTrace,
        *,
        workload: str = "",
        parameters: Mapping[str, float] | None = None,
    ) -> SimulationResult:
        """Simulate one trace; returns IPC, time and energy.

        A batch of one through :func:`simulate_batch`'s implementation.
        """
        start = time.perf_counter()
        (result,) = _simulate(
            [(trace, self.config, workload, parameters)],
            per_access=self.engine == "reference",
        )
        log.debug(
            "simulation done",
            extra={"ctx": {
                "workload": workload or "(unnamed)",
                "engine": self.engine,
                "instructions": result.instructions,
                "cycles": result.cycles,
                "seconds": round(time.perf_counter() - start, 3),
            }},
        )
        return result

    # ----------------------------------------------------------- shared

    def _streams(self, trace: InstructionTrace) -> _Streams:
        """The trace's PE streams on this architecture, via the memo."""
        cfg = self.config
        trace.check_opcodes()
        return _memo_lookup(
            trace,
            "streams",
            (cfg.n_pes, cfg.issue_width, cfg.frequency_ghz, cfg.line_bytes),
            lambda: native.resolve("stream_digests")[0](
                trace.opcode, trace.addr, trace.tid, n_pes=cfg.n_pes,
                cycle_ns=cfg.cycle_ns, issue_width=cfg.issue_width,
                line_shift=cfg.line_bytes.bit_length() - 1,
            ),
        )

    def _build_streams(self, trace: InstructionTrace) -> list[_PEStream]:
        # Fresh per-run wrappers around the shared (immutable) columns.
        streams = self._streams(trace)
        return [streams.stream(i) for i in range(len(streams))]

    def _run_reference(
        self,
        trace: InstructionTrace,
        workload: str,
        parameters: Mapping[str, float] | None,
    ) -> SimulationResult:
        """One whole run on the per-access reference engine.

        Also the path of hardware-traced runs: the opt-in
        simulated-hardware timeline (None unless ``REPRO_TRACE_HW`` is
        set) records per-PE busy/stall slices, vault occupancy and cache
        counter tracks on the simulated nanosecond clock, which needs
        one event per access — exactly what the fast engine elides.
        """
        hw = tracer().hw_timeline()
        memory = StackedMemory(self.config, timeline=hw)
        streams = self._build_streams(trace)
        cache_stats, flush_writes = self._contend_reference(
            streams, memory, hw
        )
        memory.writes += flush_writes
        makespan_ns = max(s.finish_ns for s in streams)
        return self._result(
            trace, memory.stats(), cache_stats, makespan_ns, len(streams),
            workload, parameters, hw=hw, streams=streams,
        )

    def _finalize(
        self,
        trace: InstructionTrace,
        product: _PhaseA,
        packed_finish: np.ndarray | None,
        workload: str,
        parameters: Mapping[str, float] | None,
    ) -> SimulationResult:
        """Turn a phase-A product + phase-B finish times into a result.

        Called once per point by :func:`simulate_batch`, whatever the
        batch size, so a batch of one and a batch of many share every
        line from phase A to the result.
        """
        n_streams, n_reads, n_writes, flush_writes, *stats = (
            product.meta.tolist()
        )
        # DRAM traffic totals are order-independent: phase A counted them.
        writes = n_writes + flush_writes
        dram_stats = VaultStats(
            accesses=n_reads + writes, reads=n_reads, writes=writes,
            max_vault_accesses=int(product.vault_counts.max(initial=0)),
        )
        finish = product.f0_val
        if packed_finish is not None:
            finish = np.concatenate((finish, packed_finish))
        return self._result(
            trace, dram_stats, CacheStats(*stats), float(finish.max(initial=0.0)),
            n_streams, workload, parameters,
        )

    def _result(
        self,
        trace: InstructionTrace,
        dram_stats: VaultStats,
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

    def _compute_phase_a(self, trace: InstructionTrace) -> _PhaseA:
        """Run phase A from scratch: digest, classify, pack events.

        Phase A classifies every stream's accesses against its L1 (hits,
        misses, dirty-victim writebacks, flush set) without any timing
        and packs the miss events, one pass over all streams per step.
        Phase B then replays only the misses through the global-time
        heap — the same issue-time expressions and the same sequence of
        memory-pipeline updates as the reference engine, because hits
        never touch shared state.  The three steps are timed as
        ``phase.simulate.classify.{digest,lru,pack}``.
        """
        cfg = self.config
        m = metrics()
        with m.timer("phase.simulate.classify.digest"):
            streams = self._streams(trace)
        with m.timer("phase.simulate.classify.lru"):
            cls = _memo_lookup(
                trace,
                "classify",
                (cfg.n_pes, cfg.line_bytes, cfg.l1_sets, cfg.l1_ways),
                lambda: classify_streams(
                    streams.lines, streams.writes, streams.off,
                    n_sets=cfg.l1_sets, ways=cfg.l1_ways,
                ),
            )
        with m.timer("phase.simulate.classify.pack"):
            return _PhaseA(*native.resolve("pack_events")[0](
                streams, cls,
                line_shift=cfg.line_bytes.bit_length() - 1,
                block_shift=cfg.row_buffer_bytes.bit_length() - 1,
                n_vaults=cfg.n_vaults,
                banks_per_vault=cfg.banks_per_vault,
                l1_cycle_ns=cfg.cycle_ns,
            ))

    def _phase_a(self, trace: InstructionTrace) -> _PhaseA:
        """The phase-A product, from the trace's events memo or fresh.

        A miss computes it (:meth:`_compute_phase_a`); a hit also
        refreshes the streams and classify memos it subsumes.
        """
        cfg = self.config
        key = _events_key(cfg)
        built = False

        def build() -> _PhaseA:
            nonlocal built
            built = True
            return self._compute_phase_a(trace)

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


# ------------------------------------------------------- batched replay

#: Bucket bounds of the ``sim.batch.points_per_call`` histogram (batch
#: sizes, not latencies).
_BATCH_SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def _contend_native_multi(
    entries: Sequence[tuple[_PhaseA, NMCConfig]],
) -> list[np.ndarray]:
    """Replay every entry's phase B in ONE kernel invocation.

    Tabulates the per-point float/int parameters
    (:data:`repro.nmcsim._native.PARAM_FIELDS` /
    :data:`~repro.nmcsim._native.IPARAM_FIELDS`) and hands the kernel
    the points' phase-A products as they are.  The kernel replays
    each point from the idle-memory state a fresh :class:`StackedMemory`
    holds, so the batch is bit-identical to N separate calls.  Returns
    each point's finish-time slice.
    """
    params = np.array(
        [(*timing_constants(cfg.timing), cfg.cycle_ns) for _p, cfg in entries],
        dtype=np.float64,
    )
    iparams = np.array(
        [
            (
                1 if cfg.pe_type == "ooo" else 0,
                cfg.mshr_entries,
                cfg.n_vaults * cfg.banks_per_vault,
                cfg.n_vaults,
                len(product.sidx),
            )
            for product, cfg in entries
        ],
        dtype=np.int64,
    )
    kernel, _backend = native.resolve("contend_packed_multi")
    finish = kernel([e[0] for e in entries], params, iparams)
    bounds = np.cumsum(iparams[:, 4]).tolist()
    return [
        finish[lo:hi] for lo, hi in zip([0] + bounds[:-1], bounds)
    ]


def simulate_batch(
    points: Sequence[
        tuple[InstructionTrace, NMCConfig | None, str, Mapping[str, float] | None]
    ],
) -> list[SimulationResult]:
    """Simulate design points; the one place a simulation is orchestrated.

    ``points`` holds ``(trace, config, workload, parameters)`` tuples
    (``config=None`` means the Table 3 default); results come back in
    input order.  :meth:`NMCSimulator.run` is a batch of one.  Every
    point's phase B is replayed in one kernel
    invocation — the batching only amortises kernel dispatch, never
    changes event order (points are independent: each replays against
    its own idle memory state), so a batch of many is bit-identical to
    the same points run one at a time.

    Per point, one ``phase.simulate`` span (phase A on the fast engine,
    the whole run on the reference engine) and one ``nmcsim.runs``
    count are emitted; the shared phase-B invocation is instrumented
    with ``sim.batch.*`` counters/histograms only.

    While the simulated-hardware timeline is enabled, every point steps
    through the per-access reference engine instead (identical results,
    no batching): the timeline needs one event per access.
    """
    return _simulate(points, per_access=False)


def _simulate(
    points: Sequence[
        tuple[InstructionTrace, NMCConfig | None, str, Mapping[str, float] | None]
    ],
    *,
    per_access: bool,
) -> list[SimulationResult]:
    """:func:`simulate_batch`, on the reference engine if ``per_access``."""
    if not points:
        return []
    if any(len(trace) == 0 for trace, _c, _w, _p in points):
        raise SimulationError("cannot simulate an empty trace")
    m = metrics()
    sims: dict[int, NMCSimulator] = {}

    def sim_for(cfg: NMCConfig | None) -> NMCSimulator:
        sim = sims.get(id(cfg))
        if sim is None:
            sim = NMCSimulator(cfg)
            sims[id(cfg)] = sim
        return sim

    if per_access or tracer().hw_enabled:
        results: list[SimulationResult] = []
        for trace, cfg, workload, parameters in points:
            with m.timer("phase.simulate"):
                results.append(
                    sim_for(cfg)._run_reference(trace, workload, parameters)
                )
            m.inc("nmcsim.runs")
        return results

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

    prepared: list[tuple[NMCSimulator, _PhaseA] | None] = [None] * len(points)
    for i in sorted(range(len(points)), key=order_key):
        trace, cfg, _workload, _parameters = points[i]
        sim = sim_for(cfg)
        with m.timer("phase.simulate"):
            product = sim._phase_a(trace)
        prepared[i] = (sim, product)

    packed = [
        i for i in range(len(points))
        if len(prepared[i][1].sidx)  # type: ignore[index]
    ]
    t_start = time.perf_counter()
    finishes: dict[int, np.ndarray] = {}
    if packed:
        entries = [(prepared[i][1], prepared[i][0].config) for i in packed]
        finishes = dict(zip(packed, _contend_native_multi(entries)))
    m.inc("sim.batch.calls")
    m.inc("sim.batch.points", len(points))
    m.observe(
        "sim.batch.points_per_call", float(len(points)),
        bounds=_BATCH_SIZE_BOUNDS,
    )
    m.observe("sim.batch.contend_s", time.perf_counter() - t_start)

    results = []
    for i, (trace, _cfg, workload, parameters) in enumerate(points):
        sim, product = prepared[i]
        results.append(
            sim._finalize(trace, product, finishes.get(i), workload, parameters)
        )
        m.inc("nmcsim.runs")
    return results
