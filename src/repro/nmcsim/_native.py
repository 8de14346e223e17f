"""The fast engine's phase-B contention kernel: one multi-point loop.

Phase B of the fast engine (:mod:`repro.nmcsim.simulator`) replays the
miss/writeback event stream in global time order.  Every caller —
a single :meth:`~repro.nmcsim.NMCSimulator.run` (a batch of one) and
:func:`~repro.nmcsim.simulate_batch` — hands this module one packed
event bundle per design point (flat per-stream event columns, see
:data:`COLUMNS`) and gets every packed stream's finish time back from
one kernel call.  The compiled kernel reads the bundles' arrays in
place; nothing is concatenated or copied per call.

The kernel comes in two forms, chosen by :func:`resolve_kernel` on the
first phase-B call of a process:

* ``cc`` — the C translation in this module, built with the system C
  compiler (``cc``, ``gcc`` or ``clang``; ``-O2 -fPIC -shared
  -ffp-contract=off``) into a source-hash-keyed shared object under
  ``$REPRO_SIM_JIT_CACHE`` (default: ``repro-simjit`` in the temp
  directory) and loaded with :mod:`ctypes`.  This is the default
  whenever a compiler is found; the build is race-free across processes
  and a damaged cached object is rebuilt;
* ``python`` — :func:`contend_packed_multi`, the pure-Python loop, on
  hosts without a compiler (or when the build fails).

Bit-equivalence contract: both forms keep the exact floating-point
operation order of ``StackedMemory.access``.  C ``double`` and CPython
``float`` are both IEEE-754 binary64, and ``-ffp-contract=off`` forbids
FMA contraction, so the two forms — and the per-access reference
engine — produce byte-identical results.  The equivalence suite asserts
this, it is not assumed.
"""

from __future__ import annotations

import ctypes
import hashlib
import heapq
import os
import shutil
import subprocess
import tempfile
import weakref
from typing import Callable, Sequence

import numpy as np

from ..obs import get_logger
from ..store import discard, replacing

log = get_logger("repro.nmcsim.native")

#: Environment variable selecting the shared-object cache directory.
CACHE_ENV_VAR = "REPRO_SIM_JIT_CACHE"

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

#: The packed event columns the kernel reads from each point's bundle:
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

    ``points`` holds one packed event bundle per design point (any
    object with the :data:`COLUMNS` attributes); ``params`` /
    ``iparams`` hold one row per point, laid out as
    :data:`PARAM_FIELDS` / :data:`IPARAM_FIELDS`.  Returns the finish
    time of every packed stream, concatenated in point order.  Each
    point replays against the idle memory state a fresh
    :class:`~repro.nmcsim.dram.StackedMemory` holds, so one batched call
    equals N separate ones.

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


_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <math.h>

typedef int64_t i64;

static inline i64 key_bits(double x)
{
    i64 b;
    memcpy(&b, &x, sizeof b);
    return b;
}

/* One design point's phase B.  Events run in global (time, stream)
   order: key[s] is stream s's next event time (+inf once exhausted) and
   lose[] is a loser tree over P >= n_streams leaves (a power of two;
   padding leaves hold +inf), so re-selecting the minimum after an event
   replays one leaf-to-root path with no data-dependent branches.
   key needs P entries, lose 2P (its upper half holds the subtree
   winners while the tree is built).  The replay compares keys by their
   bit patterns: event times are sums of non-negative terms (never -0.0
   or NaN), and such doubles order exactly like their bits as int64. */
static void contend_packed(
    const i64 *off,
    const i64 *block, const i64 *vault, const i64 *bank,
    const i64 *wblock, const i64 *wvault, const i64 *wbank,
    const double *dnext, const double *t0, const double *tail,
    double *finish,
    double *bank_ready, i64 *bank_row, double *bank_until,
    double *bus_ready,
    double t_cl, double t_bl, double t_rp, double hop,
    double linger, double closed, double occupancy, double wr_extra,
    double l1_cycle,
    i64 ooo, i64 mshrs, double *mshr_buf, i64 *mshr_len,
    double *key, i64 *lose, i64 *pos, i64 n_streams)
{
    i64 P = 1;
    while (P < n_streams) P <<= 1;
    for (i64 s = 0; s < P; s++) key[s] = s < n_streams ? t0[s] : INFINITY;
    for (i64 s = 0; s < n_streams; s++) {
        pos[s] = off[s];
        mshr_len[s] = 0;
    }
    i64 *win = lose + P;
    for (i64 m = P - 1; m >= 1; m--) {
        i64 a = 2 * m >= P ? 2 * m - P : win[2 * m];
        i64 b = 2 * m + 1 >= P ? 2 * m + 1 - P : win[2 * m + 1];
        int a_first = key[a] < key[b] || (key[a] == key[b] && a < b);
        win[m] = a_first ? a : b;
        lose[m] = a_first ? b : a;
    }
    i64 i = P > 1 ? win[1] : 0;
    for (i64 active = n_streams; active > 0;) {
        double t = key[i];
        i64 j = pos[i];
        double *mbuf = mshr_buf + i * mshrs;
        i64 mlen = mshr_len[i];
        i64 blk = block[j];
        i64 v = vault[j];
        i64 bi = bank[j];
        double now = t + hop;
        double ready = bank_ready[bi];
        double start = now > ready ? now : ready;
        i64 open_row = bank_row[bi];
        int row_open = open_row >= 0 && start <= bank_until[bi];
        double data_at;
        if (row_open && blk == open_row) {
            data_at = start + t_cl + t_bl;
            bank_ready[bi] = start + t_bl;
        } else {
            double pre = row_open ? t_rp : 0.0;
            data_at = start + pre + closed;
            bank_ready[bi] = start + pre + occupancy;
        }
        bank_row[bi] = blk;
        bank_until[bi] = data_at + linger;
        double br = bus_ready[v];
        if (data_at - t_bl < br) data_at = br + t_bl;
        bus_ready[v] = data_at;
        double done = data_at + hop;
        if (!ooo) {
            t = done + l1_cycle;
        } else {
            /* per-stream MSHR min-heap of completion times */
            i64 k = mlen++;
            while (k > 0) {
                i64 p = (k - 1) / 2;
                if (done < mbuf[p]) { mbuf[k] = mbuf[p]; k = p; }
                else break;
            }
            mbuf[k] = done;
            if (mlen >= mshrs) {
                double oldest = mbuf[0];
                mlen--;
                if (mlen > 0) {
                    double last = mbuf[mlen];
                    k = 0;
                    for (;;) {
                        i64 c = 2 * k + 1;
                        if (c >= mlen) break;
                        if (c + 1 < mlen && mbuf[c + 1] < mbuf[c]) c++;
                        if (mbuf[c] < last) { mbuf[k] = mbuf[c]; k = c; }
                        else break;
                    }
                    mbuf[k] = last;
                }
                t = (t >= oldest ? t : oldest) + l1_cycle;
            } else {
                t = t + l1_cycle;
            }
            mshr_len[i] = mlen;
        }
        i64 wbi = wbank[j];
        if (wbi >= 0) {
            i64 wblk = wblock[j];
            i64 wv = wvault[j];
            now = t + hop;
            ready = bank_ready[wbi];
            start = now > ready ? now : ready;
            open_row = bank_row[wbi];
            row_open = open_row >= 0 && start <= bank_until[wbi];
            if (row_open && wblk == open_row) {
                data_at = start + t_cl + t_bl;
                bank_ready[wbi] = start + t_bl;
            } else {
                double pre = row_open ? t_rp : 0.0;
                data_at = start + pre + closed;
                bank_ready[wbi] = start + pre + occupancy;
            }
            if (wr_extra != 0.0) {
                /* posted-write asymmetry (NAND-class backends) */
                data_at = data_at + wr_extra;
                bank_ready[wbi] = bank_ready[wbi] + wr_extra;
            }
            bank_row[wbi] = wblk;
            bank_until[wbi] = data_at + linger;
            br = bus_ready[wv];
            if (data_at - t_bl < br) data_at = br + t_bl;
            bus_ready[wv] = data_at;
        }
        if (j + 1 < off[i + 1]) {
            pos[i] = j + 1;
            key[i] = t + dnext[j];
        } else {
            double fin = t + tail[i];
            for (i64 q = 0; q < mlen; q++)
                if (mbuf[q] > fin) fin = mbuf[q];
            finish[i] = fin;
            key[i] = INFINITY;
            active--;
        }
        /* Replay stream i's leaf-to-root path; the survivor is next. */
        i64 cand = i;
        i64 ck = key_bits(key[i]);
        for (i64 m = (P + i) >> 1; m >= 1; m >>= 1) {
            i64 l = lose[m];
            i64 lk = key_bits(key[l]);
            i64 swap = -(i64)((lk < ck) | ((lk == ck) & (l < cand)));
            lose[m] = (cand & swap) | (l & ~swap);
            cand = (l & swap) | (cand & ~swap);
            ck = (lk & swap) | (ck & ~swap);
        }
        i = cand;
    }
}

void contend_packed_multi(
    const uint64_t *cols,
    const double *params, const i64 *iparams,
    double *finish,
    double *bank_ready, i64 *bank_row, double *bank_until,
    double *bus_ready,
    double *mshr_buf, i64 *mshr_len,
    double *key, i64 *lose, i64 *pos, i64 n_points)
{
    for (i64 p = 0; p < n_points; p++) {
        const uint64_t *c = cols + p * 10;
        const double *pp = params + p * 9;
        const i64 *ip = iparams + p * 5;
        i64 nb = ip[2];
        i64 nv = ip[3];
        i64 n = ip[4];
        if (n == 0) continue;
        for (i64 b = 0; b < nb; b++) {
            bank_ready[b] = 0.0;
            bank_row[b] = -1;
            bank_until[b] = -1.0;
        }
        for (i64 v = 0; v < nv; v++) bus_ready[v] = 0.0;
        contend_packed(
            (const i64 *)c[0], (const i64 *)c[1], (const i64 *)c[2],
            (const i64 *)c[3], (const i64 *)c[4], (const i64 *)c[5],
            (const i64 *)c[6], (const double *)c[7], (const double *)c[8],
            (const double *)c[9], finish,
            bank_ready, bank_row, bank_until, bus_ready,
            pp[0], pp[1], pp[2], pp[3], pp[4], pp[5], pp[6], pp[7], pp[8],
            ip[0], ip[1], mshr_buf, mshr_len,
            key, lose, pos, n);
        finish += n;
    }
}
"""


def _cache_dir() -> str:
    path = os.environ.get(CACHE_ENV_VAR, "").strip() or os.path.join(
        tempfile.gettempdir(), "repro-simjit"
    )
    os.makedirs(path, exist_ok=True)
    return path


def _so_path() -> str:
    """The cached shared object built from the current C source."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    return os.path.join(_cache_dir(), f"contend-{digest}.so")


def _compile(compiler: str, so_path: str) -> None:
    """Build the shared object at ``so_path`` without racing other builds.

    Source and object are written to names unique to this build and the
    object lands through :func:`repro.store.replacing`, so concurrent
    first builds (``--jobs N`` workers on a cold cache) never see each
    other's half-written files; the last one in wins with identical
    bytes.
    """
    fd, src_path = tempfile.mkstemp(
        prefix=os.path.basename(so_path)[:-3] + "-",
        suffix=".c",
        dir=os.path.dirname(so_path),
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(_C_SOURCE)
        # -ffp-contract=off: no FMA contraction, so the doubles match
        # CPython's float arithmetic operation for operation.
        with replacing(so_path) as tmp_path:
            subprocess.run(
                [
                    compiler, "-O2", "-fPIC", "-shared",
                    "-ffp-contract=off", "-o", str(tmp_path), src_path,
                ],
                check=True,
                capture_output=True,
                timeout=120,
            )
    finally:
        os.remove(src_path)


def _load_cc_lib() -> ctypes.CDLL | None:
    """Compile (once per cache directory) and load the C kernel.

    A cached object that fails to load (truncated, overwritten, built
    for another platform) is reported, deleted and rebuilt once instead
    of being trusted.  None when no compiler is found or the build
    fails; the caller then uses the pure-Python loop.
    """
    compiler = (
        shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    )
    if compiler is None:
        return None
    try:
        so_path = _so_path()
        if not os.path.exists(so_path):
            _compile(compiler, so_path)
        try:
            return ctypes.CDLL(so_path)
        except OSError as exc:
            discard(
                f"cached C kernel {so_path} failed to load ({exc}); "
                "discarding and rebuilding it"
            )
            _compile(compiler, so_path)
            return ctypes.CDLL(so_path)
    except (OSError, subprocess.SubprocessError) as exc:
        log.warning(
            "C kernel build failed; falling back to the Python loop",
            extra={"ctx": {"compiler": compiler, "error": str(exc)}},
        )
        return None


#: Per-bundle column addresses handed to the C kernel, computed once per
#: bundle (bundles are immutable and reused across design points).
_ADDRESSES: "weakref.WeakKeyDictionary[object, list[int]]" = (
    weakref.WeakKeyDictionary()
)


def _addresses(point) -> list[int]:
    """The :data:`COLUMNS` base addresses of one bundle (cached)."""
    addr = _ADDRESSES.get(point)
    if addr is None:
        addr = []
        for name in COLUMNS:
            arr = getattr(point, name)
            dtype = np.float64 if name in ("dnext", "t0", "tail") else np.int64
            if arr.dtype != dtype or not arr.flags.c_contiguous:
                raise ValueError(
                    f"packed column {name!r} must be a contiguous {dtype.__name__} "
                    f"array, got {arr.dtype} (contiguous={arr.flags.c_contiguous})"
                )
            addr.append(arr.ctypes.data)
        _ADDRESSES[point] = addr
    return addr


def _build_cc() -> Callable | None:
    """The C kernel behind :func:`contend_packed_multi`'s signature."""
    lib = _load_cc_lib()
    if lib is None:
        return None
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
        cols = np.fromiter(
            (a for point in points for a in _addresses(point)),
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


_RESOLVED: tuple[Callable, str] | None = None


def resolve_kernel() -> tuple[Callable, str]:
    """The phase-B kernel of this process as ``(callable, backend)``.

    Resolved once, on first use: the C build (``"cc"``) when a compiler
    is found and the build loads, else the pure-Python
    :func:`contend_packed_multi` (``"python"``).  Both take the same
    arguments and return the packed finish times.
    """
    global _RESOLVED
    if _RESOLVED is None:
        kernel = _build_cc()
        _RESOLVED = (
            (kernel, "cc") if kernel is not None
            else (contend_packed_multi, "python")
        )
        log.info(
            "phase-B contention kernel ready",
            extra={"ctx": {"backend": _RESOLVED[1]}},
        )
    return _RESOLVED
