"""The fast engine's phase-B contention kernel: one multi-point loop.

Phase B of the fast engine (:mod:`repro.nmcsim.simulator`) replays the
miss/writeback event stream in global time order.  Its one caller,
:func:`~repro.nmcsim.simulate_batch` (a single
:meth:`~repro.nmcsim.NMCSimulator.run` is a batch of one), hands this
module one phase-A product per design point (two flat arrays whose
segments include the per-stream event columns, see :data:`COLUMNS`)
and gets every packed stream's finish time back from one kernel call.
The compiled kernel reads the segments in place, at the addresses each
product recorded when it was built; nothing is concatenated or copied
per call.

The kernel is registered with :mod:`repro.native` as
``contend_packed_multi`` in two forms: the C function of the shared
kernel library (wrapped here with :mod:`ctypes`), used whenever a
compiler is found, and :func:`contend_packed_multi`, the pure-Python
loop, on hosts without one.  Both keep the exact floating-point
operation order of ``StackedMemory.access``, so the two forms — and the
per-access reference engine — produce byte-identical results.
"""

from __future__ import annotations

import ctypes
import heapq
from typing import Callable, Sequence

import numpy as np

from .. import native

#: Column order of the per-point float parameter table handed to the
#: kernel (one row per design point).
PARAM_FIELDS = (
    "t_cl", "t_bl", "t_rp", "hop", "linger", "closed", "occupancy",
    "wr_extra", "l1_cycle",
)

#: Column order of the per-point integer parameter table: the PE model
#: switches, the idle-memory extents (bank / vault counts) and the
#: point's packed-stream count.
IPARAM_FIELDS = ("ooo", "mshrs", "n_banks", "n_vaults", "n_streams")

#: The packed event columns the kernel reads from each point's product:
#: per-stream event bounds (``off``, ``n_streams + 1`` entries), the
#: per-event miss and writeback routing (``wbank < 0`` marks a clean
#: eviction) and issue gap to the next miss, and the per-stream first
#: issue time and tail.  All are contiguous int64 arrays except the last
#: three, which are float64.
COLUMNS = (
    "off", "block", "vault", "bank", "wblock", "wvault", "wbank",
    "dnext", "t0", "tail",
)


def contend_packed_multi(
    points: Sequence, params: np.ndarray, iparams: np.ndarray
) -> np.ndarray:
    """Pure-Python phase B over many design points.

    ``points`` holds one phase-A product per design point (any object
    with the :data:`COLUMNS` attributes, which the compiled form reads
    through its ``addresses``: the columns' base addresses in
    :data:`COLUMNS` order); ``params`` /
    ``iparams`` hold one row per point, laid out as
    :data:`PARAM_FIELDS` / :data:`IPARAM_FIELDS`.  Returns the finish
    time of every packed stream, concatenated in point order.  Each
    point replays against the idle memory state a fresh
    :class:`~repro.nmcsim.dram.StackedMemory` holds, so one batched call
    equals N separate ones.

    Index contract, which the compiled form does not check (both forms
    of ``pack_events`` write products that keep it): per point, ``off``
    rises strictly from 0 to the event count, so every stream owns at
    least one event, and ``t0``/``tail`` hold ``n_streams`` entries;
    every event has ``0 <= bank < n_banks`` and ``0 <= vault <
    n_vaults``; a writeback
    (``wbank >= 0``; ``-1`` marks none) has ``wbank < n_banks`` and
    ``0 <= wvault < n_vaults``; ``mshrs >= 1`` when ``ooo``; times are
    finite and non-negative.  A point with zero streams is valid and
    skipped, and an empty batch returns an empty array.

    The columns are converted to Python scalars one point at a time
    (``.tolist()`` plus one tuple per event), which keeps the inner loop
    on cheap list indexing without holding a whole batch as tuples.
    """
    finish = np.empty(int(iparams[:, 4].sum()), dtype=np.float64)
    s = 0
    for b, prm, iprm in zip(points, params.tolist(), iparams.tolist()):
        n = iprm[4]
        if not n:
            continue
        events = list(zip(
            b.block.tolist(), b.vault.tolist(), b.bank.tolist(),
            b.wblock.tolist(), b.wvault.tolist(), b.wbank.tolist(),
            b.dnext.tolist(),
        ))
        finish[s:s + n] = _contend_point(
            events, b.off.tolist(), b.t0.tolist(), b.tail.tolist(),
            prm, iprm,
        )
        s += n
    return finish


def _contend_point(
    events: list[tuple],
    ends: list[int],
    t0: list[float],
    tails: list[float],
    params: list[float],
    iparams: list[int],
) -> list[float]:
    """One design point's phase B (the body of :func:`contend_packed_multi`).

    Stream ``i`` owns ``events[ends[i]:ends[i + 1]]``.  The heap orders
    events by (time, stream); streams are packed in increasing original
    PE-stream order, so ties break exactly as in the reference engine.
    The C kernel picks the same (time, stream) minimum with a loser
    tree, so the two forms agree bit for bit.
    """
    t_cl, t_bl, t_rp, hop, linger, closed, occupancy, wr_extra, l1_cycle = (
        params
    )
    ooo, mshrs, n_banks, n_vaults, n = iparams
    bank_ready = [0.0] * n_banks
    bank_row = [-1] * n_banks
    bank_until = [-1.0] * n_banks
    bus_ready = [0.0] * n_vaults
    next_evt = ends[:-1]
    outstanding: list[list[float]] = [[] for _ in range(n)]
    finish = [0.0] * n

    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    # The heap root is always the globally next (time, stream) event;
    # after each event the stream's entry is replaced by its next miss
    # (nearly every event hands the floor to another stream).
    heap = [(t0[i], i) for i in range(n)]
    heapq.heapify(heap)
    while heap:
        t, i = heap[0]
        j = next_evt[i]
        blk, v, bi, wblk, wv, wbi, dn = events[j]
        # Miss access: the timing half of StackedMemory.access, inlined;
        # routing and traffic counts come from phase A.
        now = t + hop
        ready = bank_ready[bi]
        start = now if now > ready else ready
        open_row = bank_row[bi]
        row_open = open_row >= 0 and start <= bank_until[bi]
        if row_open and blk == open_row:
            data_at = start + t_cl + t_bl
            bank_ready[bi] = start + t_bl
        else:
            pre = t_rp if row_open else 0.0
            data_at = start + pre + closed
            bank_ready[bi] = start + pre + occupancy
        bank_row[bi] = blk
        bank_until[bi] = data_at + linger
        br = bus_ready[v]
        if data_at - t_bl < br:
            data_at = br + t_bl
        bus_ready[v] = data_at
        done = data_at + hop
        if not ooo:
            t = done + l1_cycle
        else:
            out_i = outstanding[i]
            heappush(out_i, done)
            if len(out_i) >= mshrs:
                oldest = heappop(out_i)
                t = (t if t >= oldest else oldest) + l1_cycle
            else:
                t = t + l1_cycle
        if wbi >= 0:
            # Dirty-victim writeback: same pipeline, posted at the miss
            # completion time; does not block the PE.
            now = t + hop
            ready = bank_ready[wbi]
            start = now if now > ready else ready
            open_row = bank_row[wbi]
            row_open = open_row >= 0 and start <= bank_until[wbi]
            if row_open and wblk == open_row:
                data_at = start + t_cl + t_bl
                bank_ready[wbi] = start + t_bl
            else:
                pre = t_rp if row_open else 0.0
                data_at = start + pre + closed
                bank_ready[wbi] = start + pre + occupancy
            if wr_extra:
                # Posted-write asymmetry (NAND-class backends).
                data_at = data_at + wr_extra
                bank_ready[wbi] = bank_ready[wbi] + wr_extra
            bank_row[wbi] = wblk
            bank_until[wbi] = data_at + linger
            br = bus_ready[wv]
            if data_at - t_bl < br:
                data_at = br + t_bl
            bus_ready[wv] = data_at
        j += 1
        if j < ends[i + 1]:
            next_evt[i] = j
            heapreplace(heap, (t + dn, i))
            continue
        fin = t + tails[i]
        for done in outstanding[i]:
            if done > fin:
                fin = done
        finish[i] = fin
        heappop(heap)
    return finish


def _build_cc(lib: native.Library) -> Callable:
    """The C kernel behind :func:`contend_packed_multi`'s signature."""
    fn = lib.contend_packed_multi
    fn.restype = None
    dp = ctypes.POINTER(ctypes.c_double)
    ip = ctypes.POINTER(ctypes.c_int64)
    fn.argtypes = (
        [ctypes.POINTER(ctypes.c_uint64), dp, ip, dp]
        + [dp, ip, dp, dp]
        + [dp, ip]
        + [dp, ip, ip, ctypes.c_int64]
    )

    def _as(arr: np.ndarray, ptr_type):
        return arr.ctypes.data_as(ptr_type)

    def kernel(points, params, iparams) -> np.ndarray:
        if not len(points):
            return np.empty(0, dtype=np.float64)
        cols = np.fromiter(
            (a for point in points for a in point.addresses),
            dtype=np.uint64, count=len(points) * len(COLUMNS),
        )
        params = np.ascontiguousarray(params, dtype=np.float64)
        iparams = np.ascontiguousarray(iparams, dtype=np.int64)
        # Scratch is sized for the largest point; the kernel resets the
        # memory state and rebuilds the stream tree per point.
        n_streams = iparams[:, 4]
        max_streams = int(n_streams.max())
        leaves = 1 << max(max_streams - 1, 0).bit_length()
        max_banks = int(iparams[:, 2].max())
        finish = np.empty(int(n_streams.sum()), dtype=np.float64)
        fn(
            _as(cols, ctypes.POINTER(ctypes.c_uint64)),
            _as(params, dp), _as(iparams, ip), _as(finish, dp),
            _as(np.empty(max_banks, dtype=np.float64), dp),
            _as(np.empty(max_banks, dtype=np.int64), ip),
            _as(np.empty(max_banks, dtype=np.float64), dp),
            _as(np.empty(int(iparams[:, 3].max()), dtype=np.float64), dp),
            _as(
                np.empty(int((n_streams * iparams[:, 1]).max()),
                         dtype=np.float64),
                dp,
            ),
            _as(np.empty(max_streams, dtype=np.int64), ip),
            _as(np.empty(leaves, dtype=np.float64), dp),
            _as(np.empty(2 * leaves, dtype=np.int64), ip),
            _as(np.empty(max_streams, dtype=np.int64), ip),
            len(points),
        )
        return finish

    return kernel


native.register("contend_packed_multi", contend_packed_multi, _build_cc)
