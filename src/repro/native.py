"""Compiled kernels: one C translation unit, one cached shared object.

The hot per-element loops of the pipeline have two forms each: a C
function in :data:`_C_SOURCE` and a pure-Python form, which is both the
test oracle and the fallback on hosts without a compiler.  The modules
that own a loop :func:`register` both forms under one name:

* ``fill_trace`` — every column of every template group of a trace
  in one call (:mod:`repro.ir.builder`);
* ``contend_packed_multi`` — the fast engine's phase-B contention
  (:mod:`repro.nmcsim._native`);
* ``stream_digests`` — phase A's stream digestion: every PE stream of
  a trace in one call (:mod:`repro.nmcsim.simulator`);
* ``classify_streams`` — the fast engine's phase A: every PE stream
  of a design point through its own LRU L1 in one call
  (:mod:`repro.nmcsim.classify`);
* ``pack_events`` — phase A's event packer: a design point's misses
  and dirty victims, routed and timed, straight into its phase-A
  product in one call (:mod:`repro.nmcsim.simulator`);
* ``trace_columns`` — every derived column the profiler reads (memory
  mask, accesses, dense register, pc and cache-line ids, thread count)
  of one trace in one call, the distinct lines hashed and then ordered
  by an LSD radix sort, plus the integer tallies the profile's scalar
  families divide (opcode, operand, byte, control-op and control-site
  counts, and the lines first touched before each working-set
  cut-off) (:mod:`repro.ir.trace`);
* ``reuse_distances`` — LRU stack distances, counted per stream by bit
  length as they are found, through a one-pass move-to-front list up
  to 512 ids and a Fenwick tree past that (:mod:`repro.ir.stackdist`),
  for the profiler's reuse-distance families;
* ``pc_strides`` — the profiler's per-PC stride walk
  (:mod:`repro.profiler.stride`);
* ``ilp_depths`` — the profiler's dependence-DAG depths under the
  infinite and every windowed machine, in one walk over producer links
  that reads the column table in place (:mod:`repro.profiler.ilp`);
* ``build_trees`` — every CART regression tree of one bootstrap plan
  (the random forest's base learners that share a sample) in one call,
  over one presort of the plan's rows per rank class of columns, each
  class's order brought up to date only at the nodes that draw it (a
  node of at most 16 rows sorts its rows directly) and each split's
  candidate features drawn in C from its tree's generator
  (:mod:`repro.ml.tree`);
* ``descend`` — the leaf every row reaches in every tree of a forest's
  node table, after a check of the table's indices
  (:mod:`repro.ml.tree`).

:func:`resolve` hands out one form per call.  The C source is built on
the first kernel call of a process (never at import) with the system C
compiler (``cc``, ``gcc`` or ``clang``; ``-O2 -fPIC -shared
-ffp-contract=off``) into a source-hash-keyed shared object under
``$REPRO_SIM_JIT_CACHE`` (default: ``repro-simjit`` in the temp
directory) and loaded with :mod:`ctypes`.  The build is race-free across
processes and a damaged cached object is discarded and rebuilt.  When
no compiler is found every kernel runs its Python form; when a compiler
is found and the build fails, every kernel call raises
:class:`~repro.errors.KernelBuildError` with the compiler's error
output.  :func:`jit_status` says which form runs.

Bit-equivalence contract: each C function keeps its Python form's exact
arithmetic.  The trace fill, the profiler and phase-A L1 kernels are
integer-only (the stride walk wraps mod 2**64, as numpy's int64
differences do); the stream digests keep integer prefix sums and
sequential double sums, as ``np.cumsum`` does; the event packer hashes
in uint64 (the Fibonacci routing wraps mod 2**64, as numpy's does) and
evaluates each gap as the same sequential double expression, one
element at a time; phase B keeps the floating-point operation order of
``StackedMemory.access`` (C ``double`` and CPython ``float`` are both
IEEE-754 binary64, and ``-ffp-contract=off`` forbids FMA contraction);
the tree builder replays numpy's: pairwise summation for node sums, libm
``pow`` for a scalar square, sequential prefix sums and ``argmin``'s tie
and NaN rules; the descent compares as numpy's ``<=`` does (NaN goes
right).  It also replays ``Generator.choice(p, k, replace=False)``
(Floyd's algorithm or a tail shuffle over Lemire-bounded draws) through
the generator's public ``bitgen_t`` interface, so a tree consumes its
generator exactly as the Python form does; that replay is checked
against ``choice`` when the kernel is built, and on a mismatch trees
are built by the Python form.  The differential suites assert all of
this, it is not assumed.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Callable

from .errors import KernelBuildError
from .obs import get_logger
from .store import discard, replacing

log = get_logger("repro.native")

#: Environment variable selecting the shared-object cache directory.
CACHE_ENV_VAR = "REPRO_SIM_JIT_CACHE"

_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* ---------------------------------------------------- trace fill */

/* Every TraceBuilder.threads() group into the eight trace columns.
   groups: per group (first position, segments, first tid, first run,
   runs); runs: per run (first body row, ops, pc base, first count,
   first slot); body: per op (opcode, dst, src1, src2, size, slot
   ordinal or -1); slots: each run's address arrays, one per addressed
   op.  For each segment, each run emits its count of iterations under
   the segment's tid; cursor (one per run) walks its address arrays. */
void fill_trace(
    uint8_t *opcode, int32_t *dst, int32_t *src1, int32_t *src2,
    uint64_t *addr, uint16_t *size, uint32_t *pc, uint16_t *tid,
    const i64 *groups, i64 n_groups, const uint16_t *tids,
    const i64 *runs, const i64 *counts, const i64 *body,
    const uint64_t *const *slots, i64 *cursor)
{
    for (const i64 *g = groups; g < groups + 5 * n_groups; g += 5) {
        i64 at = g[0];
        const i64 *grun = runs + 5 * g[3];
        for (i64 r = 0; r < g[4]; r++) cursor[r] = 0;
        for (i64 s = 0; s < g[1]; s++) {
            for (i64 r = 0; r < g[4]; r++) {
                const i64 *run = grun + 5 * r;
                const i64 *ops = body + 6 * run[0];
                const uint64_t *const *sl = slots + run[4];
                i64 k = run[1], first = cursor[r];
                i64 last = first + counts[run[3] + s];
                uint32_t pc0 = (uint32_t)run[2];
                uint16_t t = tids[g[2] + s];
                for (i64 i = first; i < last; i++)
                    for (i64 j = 0; j < k; j++, at++) {
                        const i64 *op = ops + 6 * j;
                        opcode[at] = (uint8_t)op[0];
                        dst[at] = (int32_t)op[1];
                        src1[at] = (int32_t)op[2];
                        src2[at] = (int32_t)op[3];
                        size[at] = (uint16_t)op[4];
                        addr[at] = op[5] < 0 ? 0 : sl[op[5]][i];
                        pc[at] = pc0 + (uint32_t)j;
                        tid[at] = t;
                    }
                cursor[r] = last;
            }
        }
    }
}

/* ------------------------------------------------ phase-B contention */

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

/* ------------------------------------------------ phase-A stream digests */

/* Every PE stream of a trace: the thread of tid rank r runs on PE
   r % n_pes, each used PE's stream (in PE order) runs its threads in
   rank order.  kind[op]: bit 0 a memory op, bit 1 a write.  A first call
   with lines NULL plans on the scratch (cnt: n_tid, rank: n_tid + 1,
   order: n): sizes gets the stream and memory-op counts, rank[0..
   streams] the stream bounds.  A second fills outputs of those exact
   sizes (layout: _Streams).  Cycles sum as int64 at issue_width 1, else
   as sequential doubles of lat / issue_width; time sums are sequential. */
void stream_digests(
    const unsigned char *opcode, const uint64_t *addr, const uint16_t *tid,
    const i64 *lat, const unsigned char *kind,
    i64 *cnt, i64 *rank, i64 *order, i64 *sizes, i64 *off, i64 *lines,
    unsigned char *writes, double *compute_ns, double *pref,
    i64 n, i64 n_tid, i64 n_pes, double cycle_ns, i64 line_shift,
    i64 issue_width)
{
    if (!lines) {
        memset(cnt, 0, (size_t)n_tid * sizeof *cnt);
        sizes[1] = 0;
        for (i64 i = 0; i < n; i++) {
            cnt[tid[i]]++;
            sizes[1] += kind[opcode[i]] & 1;
        }
        i64 nt = 0, pos = 0;
        for (i64 t = 0; t < n_tid; t++)
            if (cnt[t]) rank[nt++] = t;
        sizes[0] = nt < n_pes ? nt : n_pes;
        /* cnt[t] becomes thread t's first slot in stream order, rank[s]
           (last read by stream s) stream s's first slot */
        for (i64 s = 0; s < sizes[0]; s++) {
            i64 first = pos;
            for (i64 r = s; r < nt; r += n_pes) {
                i64 c = cnt[rank[r]];
                cnt[rank[r]] = pos;
                pos += c;
            }
            rank[s] = first;
        }
        rank[sizes[0]] = pos;
        return;
    }
    for (i64 i = 0; i < n; i++) order[cnt[tid[i]]++] = i;
    i64 m = 0, c = 0;
    for (i64 s = 0; s < sizes[0]; s++) {
        off[s] = m;
        i64 cyc = 0, cyc0 = 0;
        double acc = 0.0, acc0 = 0.0, sum = 0.0;
        pref[c + s] = 0.0;
        for (i64 j = rank[s]; j <= rank[s + 1]; j++) {
            i64 x = j < rank[s + 1] ? order[j] : -1;  /* -1: stream end */
            unsigned char k = x < 0 ? 1 : kind[opcode[x]];
            if (!(k & 1)) {
                if (issue_width > 1)
                    acc = acc + (double)lat[opcode[x]] / (double)issue_width;
                else
                    cyc += lat[opcode[x]];
                continue;
            }
            compute_ns[c] = issue_width > 1 ? (acc - acc0) * cycle_ns
                                            : (double)(cyc - cyc0) * cycle_ns;
            acc0 = acc;
            cyc0 = cyc;
            sum = sum + compute_ns[c];
            pref[c++ + s + 1] = sum;
            if (x >= 0) {
                lines[m] = (i64)(addr[x] >> line_shift);
                writes[m++] = k >> 1;
            }
        }
    }
    off[sizes[0]] = m;
}

/* ------------------------------------------------ phase-A L1 walk */

/* Walk each stream lines/writes[off[s] .. off[s + 1]) through its own
   fresh n_sets x ways write-back, write-allocate LRU cache, as
   Cache.access does: the set is Python's floor modulo line % n_sets,
   each set keeps its lines least recent first, a hit moves its line to
   the back and ORs in the write, and a miss on a full set evicts slot
   0, reported in wb_line only when dirty (-1 otherwise).  stats[4 s ..]
   gets each stream's hits, misses, writebacks (evictions plus flushes)
   and flushes (its dirty residents at the end).  set_line and
   set_dirty hold n_sets * ways slots, set_len n_sets. */
void classify_streams(
    const i64 *lines, const unsigned char *writes, const i64 *off,
    i64 n_streams, i64 n_sets, i64 ways,
    unsigned char *hit, i64 *wb_line, i64 *stats,
    i64 *set_line, unsigned char *set_dirty, i64 *set_len)
{
    for (i64 s = 0; s < n_streams; s++) {
        memset(set_len, 0, (size_t)n_sets * sizeof *set_len);
        i64 hits = 0, evicted = 0;
        for (i64 k = off[s]; k < off[s + 1]; k++) {
            i64 line = lines[k];
            i64 si = line % n_sets;
            if (si < 0) si += n_sets;
            i64 *sl = set_line + si * ways;
            unsigned char *sd = set_dirty + si * ways;
            i64 len = set_len[si];
            i64 q = len - 1;
            while (q >= 0 && sl[q] != line) q--;
            wb_line[k] = -1;
            if (q >= 0) {
                unsigned char d = sd[q] | writes[k];
                for (; q + 1 < len; q++) {
                    sl[q] = sl[q + 1];
                    sd[q] = sd[q + 1];
                }
                sl[q] = line;
                sd[q] = d;
                hit[k] = 1;
                hits++;
                continue;
            }
            hit[k] = 0;
            if (len >= ways) {
                if (sd[0]) {
                    wb_line[k] = sl[0];
                    evicted++;
                }
                for (q = 0; q + 1 < len; q++) {
                    sl[q] = sl[q + 1];
                    sd[q] = sd[q + 1];
                }
                len--;
            }
            sl[len] = line;
            sd[len] = writes[k];
            set_len[si] = len + 1;
        }
        i64 flushes = 0;
        for (i64 si = 0; si < n_sets; si++)
            for (i64 q = 0; q < set_len[si]; q++)
                if (set_dirty[si * ways + q])
                    flushes++;
        i64 *st = stats + 4 * s;
        st[0] = hits;
        st[1] = off[s + 1] - off[s] - hits;
        st[2] = evicted + flushes;
        st[3] = flushes;
    }
}

/* ---------------------------------------------- phase-A event packer */

/* The line's DRAM routing, as nmcsim.dram.route_addresses computes it:
   the row-buffer block of its byte address, Fibonacci-hashed mod 2**64,
   bits 17..48 spread over vaults, then banks. */
static inline void route(
    i64 line, i64 line_shift, i64 block_shift, i64 n_vaults, i64 banks_pv,
    i64 *vault, i64 *bank, i64 *block)
{
    uint64_t b = ((uint64_t)line << line_shift) >> block_shift;
    uint64_t folded = ((b * 0x9E3779B97F4A7C15ull) >> 17) & 0xFFFFFFFFull;
    uint64_t q = folded / (uint64_t)n_vaults;
    *vault = (i64)(folded - q * (uint64_t)n_vaults);
    *bank = *vault * banks_pv + (i64)(q % (uint64_t)banks_pv);
    *block = (i64)b;
}

/* One design point's phase-A product from its streams (layout:
   _Streams) and their L1 classification: the op index k of stream s
   reads its prefix sum at pref[k + 2 s + 1], and stats[4 s + 1] is the
   stream's miss count.  lens holds the _SEGS lengths the miss counts
   imply; the segments are filled in place of ints and floats, in _SEGS
   order.  A stream without a miss is quiet: it finishes after its
   first compute segment.  Gaps keep the Python form's expression,
   (pref[k] - pref[prev]) + (double)(k - prev - 1) * l1_cycle_ns; a
   clean eviction (wb_line < 0) routes address 0, with wbank -1. */
void pack_events(
    const i64 *off, const i64 *lines, const unsigned char *writes,
    const double *compute_ns, const double *pref,
    const unsigned char *hit, const i64 *wb_line, const i64 *stats,
    i64 n_streams, i64 line_shift, i64 block_shift, i64 n_vaults,
    i64 banks_pv, double l1_cycle_ns,
    const i64 *lens, i64 *ints, double *floats)
{
    i64 *seg[11];
    double *fseg[4];
    for (i64 i = 0, at = 0; i < 11; at += lens[i++]) seg[i] = ints + at;
    for (i64 i = 0, at = 0; i < 4; at += lens[11 + i++]) fseg[i] = floats + at;
    i64 *sidx = seg[0], *eoff = seg[1], *block = seg[2], *vault = seg[3],
        *bank = seg[4], *wblock = seg[5], *wvault = seg[6], *wbank = seg[7],
        *f0_idx = seg[8], *vault_counts = seg[9], *meta = seg[10];
    double *dnext = fseg[0], *t0 = fseg[1], *tail = fseg[2],
           *f0_val = fseg[3];
    i64 p = 0, q = 0, e = 0, writes_missed = 0, n_wb = 0,
        total[4] = {0, 0, 0, 0};
    memset(vault_counts, 0, (size_t)n_vaults * sizeof *vault_counts);
    eoff[0] = 0;
    for (i64 s = 0; s < n_streams; s++) {
        const i64 *st = stats + 4 * s;
        for (int c = 0; c < 4; c++) total[c] += st[c];
        if (!st[1]) {
            f0_idx[q] = s;
            f0_val[q++] = compute_ns[off[s] + s];
            continue;
        }
        const double *ps = pref + 2 * s + 1;
        i64 prev = off[s] - 1;
        for (i64 k = off[s]; k < off[s + 1]; k++) {
            if (hit[k]) continue;
            double delta = (ps[k] - ps[prev])
                + (double)(k - prev - 1) * l1_cycle_ns;
            if (prev < off[s]) t0[p] = delta;
            else dnext[e - 1] = delta;
            route(lines[k], line_shift, block_shift, n_vaults, banks_pv,
                  vault + e, bank + e, block + e);
            vault_counts[vault[e]]++;
            writes_missed += writes[k];
            i64 wb = wb_line[k] < 0 ? 0 : wb_line[k];
            route(wb, line_shift, block_shift, n_vaults, banks_pv,
                  wvault + e, wbank + e, wblock + e);
            if (wb_line[k] < 0) {
                wbank[e] = -1;
            } else {
                vault_counts[wvault[e]]++;
                n_wb++;
            }
            prev = k;
            e++;
        }
        dnext[e - 1] = 0.0;
        tail[p] = (ps[off[s + 1]] - ps[prev])
            + (double)(off[s + 1] - 1 - prev) * l1_cycle_ns;
        sidx[p++] = s;
        eoff[p] = e;
    }
    meta[0] = n_streams;
    meta[1] = e - writes_missed;
    meta[2] = writes_missed + n_wb;
    meta[3] = total[3];
    for (int c = 0; c < 4; c++) meta[4 + c] = total[c];
}

/* ------------------------------------------------ profiler columns */

/* Ranks a presence table of span slots (nonzero: value lo + s occurs)
   in place, as np.unique does: each present slot gets its value's rank.
   Returns the distinct count; *below gets the count of negative ones. */
static i64 rank_table(i64 *table, i64 span, i64 lo, i64 *below)
{
    i64 r = 0;
    *below = 0;
    for (i64 s = 0; s < span; s++) {
        if (!table[s]) continue;
        table[s] = r++;
        *below += lo + s < 0;
    }
    return r;
}

typedef struct { uint64_t line; i64 prov; } LineSlot;

/* The slot of line in the 2^bits open-addressing table: its own, or
   the empty one where it belongs. */
static inline i64 *line_slot(
    i64 *slots, i64 bits, const LineSlot *pairs, uint64_t line)
{
    uint64_t h = (line * 0x9E3779B97F4A7C15ull) >> (64 - bits);
    uint64_t wrap = ((uint64_t)1 << bits) - 1;
    while (slots[h] && pairs[slots[h] - 1].line != line) h = (h + 1) & wrap;
    return slots + h;
}

/* pairs[0..n) sorted by line: an LSD radix sort over 8-bit digits,
   between pairs and tmp, that skips every digit on which all lines
   agree.  Returns the buffer holding the sorted pairs. */
static LineSlot *sort_lines(LineSlot *pairs, LineSlot *tmp, i64 n)
{
    i64 count[8][256];
    memset(count, 0, sizeof count);
    for (i64 q = 0; q < n; q++)
        for (int d = 0; d < 8; d++) count[d][(pairs[q].line >> 8 * d) & 255]++;
    for (int d = 0; d < 8; d++) {
        i64 *c = count[d], sum = 0;
        if (c[(pairs[0].line >> 8 * d) & 255] == n) continue;
        for (int b = 0; b < 256; b++) {
            i64 k = c[b];
            c[b] = sum;
            sum += k;
        }
        for (i64 q = 0; q < n; q++)
            tmp[c[(pairs[q].line >> 8 * d) & 255]++] = pairs[q];
        LineSlot *t = pairs;
        pairs = tmp;
        tmp = t;
    }
    return pairs;
}

/* Every derived column of one n-instruction trace in one pass (layout:
   repro.ir.trace._Columns).  kind[op]: bit 0 a memory op, bit 1 a
   write, bit 2 a control op.  The m memory ops' mask, address, size and
   write flag; the dense ids of dst/src1/src2 as three rows of regs
   (register ids -1 and below are -1); dense pc ids; the accesses' cache
   lines (addr >> line_shift) as sorted uniques, first access index and
   per-access id, found through an open-addressing hash and a radix sort
   of the uniques.  counts gets m, the register table size, the distinct
   register count (-1 excluded), the pc count, the line count and the
   thread count.  tally (layout: repro.ir.trace._Tallies) gets the count
   of each of the 256 opcode bytes, the src1/src2 values and the dst
   values other than -1, the bytes read and written, the control ops,
   the distinct pcs of control ops and, for each of n_cuts cut-offs
   (c + 1) * m / n_cuts, the lines first touched by an access before it.
   Returns 0, or -1 (-2) when the register (pc) values span more than
   max_reg_span (max_pc_span) slots, or -3 out of memory; then no output
   is valid. */
i64 trace_columns(
    const unsigned char *opcode, const int32_t *dst, const int32_t *src1,
    const int32_t *src2, const uint64_t *addr, const uint16_t *size,
    const uint32_t *pc, const uint16_t *tid, i64 n,
    const unsigned char *kind, i64 line_shift, i64 max_reg_span,
    i64 max_pc_span, i64 n_cuts,
    unsigned char *mask, uint64_t *acc_addr, uint16_t *acc_size,
    unsigned char *acc_write, i64 *regs, i64 *pcs, uint64_t *line_uniq,
    i64 *line_first, i64 *line_ids, i64 *counts, i64 *tally)
{
    memset(counts, 0, 6 * sizeof *counts);
    memset(tally, 0, (256 + 6 + n_cuts) * sizeof *tally);
    if (n == 0) return 0;
    i64 rlo = dst[0], rhi = dst[0], plo = pc[0], phi = pc[0];
    i64 reads = 0, writes = 0;
    for (i64 i = 0; i < n; i++) {
        i64 a = dst[i], b = src1[i], c = src2[i], p = pc[i];
        reads += (b != -1) + (c != -1);
        writes += a != -1;
        i64 lo = a < b ? a : b, hi = a < b ? b : a;
        lo = c < lo ? c : lo;
        hi = c > hi ? c : hi;
        rlo = lo < rlo ? lo : rlo;
        rhi = hi > rhi ? hi : rhi;
        plo = p < plo ? p : plo;
        phi = p > phi ? p : phi;
    }
    if (rhi - rlo + 1 > max_reg_span) return -1;
    if (phi - plo + 1 > max_pc_span) return -2;

    i64 status = -3, m = 0, n_lines = 0, threads = 0;
    i64 *rtab = calloc((size_t)(rhi - rlo + 1), sizeof *rtab);
    i64 *ptab = calloc((size_t)(phi - plo + 1), sizeof *ptab);
    uint64_t seen[1024] = {0};   /* one bit per uint16 tid */
    i64 *slots = NULL, *first = NULL, *rank = NULL;
    LineSlot *pairs = NULL, *tmp = NULL;
    /* Four opcode histograms, so that runs of one opcode do not chain
       their increments through one counter. */
    i64 ops[4][256] = {{0}}, bytes[2] = {0}, *t = tally + 256, *touched = tally + 262;
    if (!rtab || !ptab) goto done;

    for (i64 i = 0; i < n; i++) {
        unsigned char k = kind[opcode[i]];
        ops[i & 3][opcode[i]]++;
        mask[i] = k & 1;
        if (k & 1) {
            acc_addr[m] = addr[i];
            acc_size[m] = size[i];
            acc_write[m++] = k >> 1 & 1;
            bytes[k >> 1 & 1] += size[i];
        }
        uint64_t bit = (uint64_t)1 << (tid[i] & 63);
        threads += !(seen[tid[i] >> 6] & bit);
        seen[tid[i] >> 6] |= bit;
        rtab[dst[i] - rlo] = rtab[src1[i] - rlo] = rtab[src2[i] - rlo] = 1;
        ptab[pc[i] - plo] |= 1 | (k & 4) >> 1;   /* bit 1: a control op's */
    }
    counts[0] = m;
    counts[5] = threads;
    for (int op = 0; op < 256; op++) {
        tally[op] = ops[0][op] + ops[1][op] + ops[2][op] + ops[3][op];
        t[4] += kind[op] & 4 ? tally[op] : 0;
    }
    t[0] = reads;
    t[1] = writes;
    t[2] = bytes[0];
    t[3] = bytes[1];

    /* The three register rows rank as one concatenated column, shifted
       down past the negative values (which all become -1). */
    i64 rspan = rhi - rlo + 1, pspan = phi - plo + 1, below;
    i64 has_m1 = rlo <= -1 && -1 <= rhi && rtab[-1 - rlo];
    i64 r = rank_table(rtab, rspan, rlo, &below);
    for (i64 s = 0; s < rspan; s++)
        rtab[s] = rtab[s] - below < -1 ? -1 : rtab[s] - below;
    counts[1] = r - below;
    counts[2] = r - has_m1;
    for (i64 s = 0; s < pspan; s++) t[5] += ptab[s] >> 1;
    counts[3] = rank_table(ptab, pspan, plo, &below);
    for (i64 i = 0; i < n; i++) {
        regs[i] = rtab[dst[i] - rlo];
        regs[n + i] = rtab[src1[i] - rlo];
        regs[2 * n + i] = rtab[src2[i] - rlo];
        pcs[i] = ptab[pc[i] - plo];
    }

    if (m) {
        /* Open addressing over slots (provisional id + 1, 0: empty),
           doubled whenever it would pass half full. */
        i64 bits = 8;
        slots = calloc((size_t)1 << bits, sizeof *slots);
        first = malloc((size_t)m * sizeof *first);
        rank = malloc((size_t)m * sizeof *rank);
        pairs = malloc((size_t)m * sizeof *pairs);
        tmp = malloc((size_t)m * sizeof *tmp);
        if (!slots || !first || !rank || !pairs || !tmp) goto done;
        i64 c = 0;   /* the next cut-off */
        for (i64 j = 0; j < m; j++) {
            while (c < n_cuts && (c + 1) * m / n_cuts <= j) touched[c++] = n_lines;
            if (2 * n_lines >= (i64)1 << bits) {
                free(slots);
                slots = calloc((size_t)1 << ++bits, sizeof *slots);
                if (!slots) goto done;
                for (i64 q = 0; q < n_lines; q++)
                    *line_slot(slots, bits, pairs, pairs[q].line) = q + 1;
            }
            uint64_t line = acc_addr[j] >> line_shift;
            i64 *slot = line_slot(slots, bits, pairs, line);
            if (!*slot) {
                pairs[n_lines].line = line;
                pairs[n_lines].prov = n_lines;
                first[n_lines] = j;
                *slot = ++n_lines;
            }
            line_ids[j] = *slot - 1;
        }
        while (c < n_cuts) touched[c++] = n_lines;
        const LineSlot *sorted = sort_lines(pairs, tmp, n_lines);
        for (i64 q = 0; q < n_lines; q++) {
            line_uniq[q] = sorted[q].line;
            line_first[q] = first[sorted[q].prov];
            rank[sorted[q].prov] = q;
        }
        for (i64 j = 0; j < m; j++) line_ids[j] = rank[line_ids[j]];
    }
    counts[4] = n_lines;
    status = 0;
done:
    free(rtab);
    free(ptab);
    free(slots);
    free(first);
    free(rank);
    free(pairs);
    free(tmp);
    return status;
}

/* ------------------------------------------------ LRU stack distances */

static inline i64 bit_length(i64 d)
{
    return d ? 64 - __builtin_clzll((unsigned long long)d) : 0;
}

/* LRU stack distance of every access of ids[0..n) (dense element ids
   below n_ids): the number of distinct elements touched since the
   previous access to the same element, -1 on a first touch.  Access t
   belongs to stream s = is_write[t] (s = 0 when is_write is NULL): its
   distance d adds one to hist[64 s + bit_length(d)], a first touch one
   to cold[s] (both zeroed here), and out[t] = d unless out is NULL.  Up
   to 512 ids a move-to-front list in scratch[0..n_ids] (one sentinel
   slot) gives each distance as the element's list position, the
   entries before it shifting down in the same scan that finds it; past
   that, last[] = scratch[0..n_ids) holds each element's last access
   time and tree[] = scratch[n_ids..n_ids + n + 1) a Fenwick tree over
   access times counting each element's most recent access. */
void reuse_distances(
    const i64 *ids, i64 n, i64 n_ids, const unsigned char *is_write,
    i64 *scratch, i64 *out, i64 *hist, i64 *cold)
{
    memset(hist, 0, (is_write ? 128 : 64) * sizeof *hist);
    memset(cold, 0, (is_write ? 2 : 1) * sizeof *cold);
    i64 *list = scratch, len = 0;
    i64 *last = scratch, *tree = scratch + n_ids;
    int mtf = n_ids <= 512;
    if (!mtf) {
        for (i64 k = 0; k < n_ids; k++) last[k] = -1;
        memset(tree, 0, (size_t)(n + 1) * sizeof *tree);
    }
    for (i64 t = 0; t < n; t++) {
        i64 k = ids[t], d;
        if (mtf) {
            /* One pass: each entry moves down one slot until k is found,
               at the latest in the sentinel slot past the list. */
            i64 p = 0, carry = k, x;
            list[len] = k;
            while ((x = list[p]) != k) {
                list[p++] = carry;
                carry = x;
            }
            list[p] = carry;
            d = p < len ? p : -1;
            len += p == len;
        } else {
            i64 prev = last[k];
            d = -1;
            if (prev >= 0) {
                /* live slots in (prev, t): prefix(t - 1) - prefix(prev) */
                d = 0;
                for (i64 p = t; p > 0; p -= p & -p) d += tree[p];
                for (i64 p = prev + 1; p > 0; p -= p & -p) d -= tree[p];
                for (i64 p = prev + 1; p <= n; p += p & -p) tree[p]--;
            }
            for (i64 p = t + 1; p <= n; p += p & -p) tree[p]++;
            last[k] = t;
        }
        i64 s = is_write ? is_write[t] : 0;
        if (d < 0) cold[s]++;
        else hist[64 * s + bit_length(d)]++;
        if (out) out[t] = d;
    }
}

/* ------------------------------------------------ per-PC strides */

/* The byte stride of every memory access against the previous access of
   the same static instruction, in time order.  Access j is memory op j
   of the n instructions (mask[i] set); pcs[i] is instruction i's dense
   pc id below n_pcs.  Strides wrap mod 2**64 and |stride| keeps numpy's
   abs(INT64_MIN) == INT64_MIN; abs_out gets every valid |stride| in
   time order.  le[b] counts those <= bounds[b]; regular[0..4) gets the
   read accesses whose stride repeats its pc's previous stride, the read
   accesses with a stride, then the same two for writes.  last (2 n_pcs
   slots: each pc's last address, then its last stride) and seen (n_pcs
   bytes, zeroed here) are scratch.  Returns the valid stride count. */
i64 pc_strides(
    const i64 *pcs, const unsigned char *mask, i64 n,
    const uint64_t *addrs, const unsigned char *is_write, i64 n_pcs,
    const i64 *bounds, i64 n_bounds, i64 *le, i64 *regular, i64 *abs_out,
    uint64_t *last, unsigned char *seen)
{
    uint64_t *stride = last + n_pcs;
    memset(seen, 0, (size_t)n_pcs);
    memset(le, 0, (size_t)n_bounds * sizeof *le);
    memset(regular, 0, 4 * sizeof *regular);
    i64 v = 0;
    for (i64 i = 0, j = 0; i < n; i++) {
        if (!mask[i]) continue;
        i64 p = pcs[i];
        uint64_t a = addrs[j];
        unsigned char w = is_write[j++];
        if (seen[p]) {
            uint64_t s = a - last[p];
            i64 mag = (i64)((i64)s < 0 ? 0 - s : s);
            for (i64 b = 0; b < n_bounds; b++) le[b] += mag <= bounds[b];
            abs_out[v++] = mag;
            regular[2 * w + 1]++;
            if (seen[p] > 1) regular[2 * w] += s == stride[p];
            stride[p] = s;
            seen[p] = 2;
        } else {
            seen[p] = 1;
        }
        last[p] = a;
    }
    return v;
}

/* ------------------------------------------------------ ILP depths */

/* kind[op]: bits 0-1 the op class (0 other, 1 int, 2 fp, 3 memory), bit
   2 reads memory (load/atomic), bit 3 writes memory (store/atomic). */
#define K_CLASS 3
#define K_INT 1
#define K_FP 2
#define K_MEM 3
#define K_READ 4
#define K_WRITE 8

/* Lanes go in groups of ILP_GROUP, the lane count padded with
   infinite windows, so each group's levels are one fixed-length loop
   the compiler turns into one 128-bit vector of four 32-bit levels
   (on the 92 campaign traces groups of 4 beat groups of 8 or 16 and a
   lane count set at run time). */
#define ILP_GROUP 4

/* One op's entries in a group of lanes from its producers' rows r1, r2
   and r3 (distinct from its own row) and the group's chunk starts; top
   tracks each lane's deepest entry. */
static inline void ilp_levels(
    int32_t *restrict row, const int32_t *restrict r1,
    const int32_t *restrict r2, const int32_t *restrict r3,
    const int32_t *restrict start, int32_t *restrict top)
{
    for (int l = 0; l < ILP_GROUP; l++) {
        int32_t v = start[l];
        v = r1[l] > v ? r1[l] : v;
        v = r2[l] > v ? r2[l] : v;
        v = r3[l] > v ? r3[l] : v;
        row[l] = ++v;
        top[l] = v > top[l] ? v : top[l];
    }
}

/* Serialized dependence-DAG depths of the first n instructions, under
   the infinite window (lane 0) and each of windows[0..n_windows)
   (lane 1 + w), in one walk over producer links: each op's producers
   are the last writer of each source register and, for a read, the
   last store to its line (index n: none).  Under a window of `step`
   the ops run in chunks [c, c + step) and only producers inside the
   op's chunk count.  Lane l of row i of the (n + 1) x lanes table holds
   op i's level plus its chunk start c: a producer from an earlier
   chunk stores at most that chunk's start plus its length, which is
   at most c, so 1 + max(c, the producers' entries) is op i's entry
   without testing where a producer lies.  Row n is all zeros.  Chunk
   starts move once per segment, up to the next boundary of any lane.
   The int and fp chains (own level tables per register: a register
   last written by another class keeps its old chain level) and the
   memory chain run on lane 0. */
static void ilp_walk(
    const unsigned char *opcode, const unsigned char *kind,
    const i64 *dst, const i64 *src1, const i64 *src2,
    const unsigned char *mask, const i64 *line_ids, i64 n, i64 n_regs,
    i64 lanes, const i64 *step, i64 *total, int32_t *start, int32_t *lv,
    i64 *last_reg, i64 *last_store, i64 *int_level, i64 *chains)
{
    int32_t *top = start + lanes;
    i64 *fp_level = int_level + n_regs;
    i64 c_int = 0, c_fp = 0, mem_serial = 0;
    memset(lv + n * lanes, 0, (size_t)lanes * sizeof *lv);
    for (i64 l = 0; l < lanes; l++) total[l] = start[l] = top[l] = 0;
    for (i64 i = 0, j = 0; i < n; ) {
        i64 end = n;
        for (i64 l = 0; l < lanes; l++)
            if (start[l] + step[l] < end) end = start[l] + step[l];
        for (; i < end; i++) {
            i64 kd = kind[opcode[i]], s1 = src1[i], s2 = src2[i], d = dst[i];
            i64 p1 = s1 >= 0 ? last_reg[s1] : n;
            i64 p2 = s2 >= 0 ? last_reg[s2] : n, p3 = n;
            if (mask[i]) {
                i64 line = line_ids[j++];
                if (kd & K_READ) p3 = last_store[line];
                if (kd & K_WRITE) last_store[line] = i;
            }
            if (d >= 0) last_reg[d] = i;
            const int32_t *r1 = lv + p1 * lanes, *r2 = lv + p2 * lanes;
            const int32_t *r3 = lv + p3 * lanes;
            int32_t *row = lv + i * lanes;
            for (i64 g = 0; g < lanes; g += ILP_GROUP)
                ilp_levels(row + g, r1 + g, r2 + g, r3 + g, start + g, top + g);
            i64 cls = kd & K_CLASS;
            if (cls == K_INT || cls == K_FP) {
                i64 *lvc = cls == K_INT ? int_level : fp_level;
                i64 cl = 0;
                if (s1 >= 0) cl = lvc[s1];
                if (s2 >= 0 && lvc[s2] > cl) cl = lvc[s2];
                cl++;
                if (d >= 0) lvc[d] = cl;
                if (cls == K_INT) { if (cl > c_int) c_int = cl; }
                else if (cl > c_fp) c_fp = cl;
            } else if (cls == K_MEM && row[0] > mem_serial) {
                mem_serial = row[0];
            }
        }
        for (i64 l = 0; l < lanes; l++) {
            if (start[l] + step[l] != end && end != n) continue;
            total[l] += top[l] - start[l];
            start[l] = top[l] = (int32_t)end;
        }
    }
    chains[0] = c_int;
    chains[1] = c_fp;
    chains[2] = total[0] < mem_serial ? total[0] : mem_serial;
}

/* out[0] the infinite-window depth, out[1..4) the int/fp/memory chain
   depths, out[4..7) the int/fp/memory op counts, out[7 + w] the depth
   under windows[w] (a window <= 0 or past n is one chunk).  kind has
   n_kinds entries; registers are dense ids (negative: no register) and
   access j's line is line_ids[j], for the j-th op with mask set, of
   n_access.  Returns -1 when an opcode has no kind, a register id is
   n_regs or more, the mask disagrees with the kinds' memory bits or a
   line id is missing or outside [0, n_lines); -2 when n does not fit
   the 32-bit levels; -3 out of memory; 0 when done. */
i64 ilp_depths(
    const unsigned char *opcode, const unsigned char *kind, i64 n_kinds,
    const i64 *dst, const i64 *src1, const i64 *src2,
    const unsigned char *mask, const i64 *line_ids, i64 n_access, i64 n,
    i64 n_regs, i64 n_lines, const i64 *windows, i64 n_windows, i64 *out)
{
    memset(out, 0, (size_t)(7 + n_windows) * sizeof *out);
    for (i64 i = 0, j = 0; i < n; i++) {
        if (opcode[i] >= n_kinds) return -1;
        i64 kd = kind[opcode[i]];
        if (dst[i] >= n_regs || src1[i] >= n_regs || src2[i] >= n_regs)
            return -1;
        if (!mask[i] != !(kd & (K_READ | K_WRITE))) return -1;
        if (mask[i]) {
            if (j == n_access) return -1;
            i64 line = line_ids[j++];
            if (line < 0 || line >= n_lines) return -1;
        }
        if (kd & K_CLASS) out[3 + (kd & K_CLASS)]++;
    }
    if (n == 0) return 0;
    if (n > INT32_MAX / 2 - 1) return -2;
    i64 lanes = (n_windows + ILP_GROUP) / ILP_GROUP * ILP_GROUP;
    i64 status = -3;
    /* The level table; each lane's step, depth total, chunk start and
       deepest entry; each register's and line's last writer; the int
       and fp chain levels. */
    int32_t *lv = malloc((size_t)(n + 1) * lanes * sizeof *lv);
    i64 *step = malloc((size_t)lanes * 2 * sizeof *step);
    int32_t *start = malloc((size_t)lanes * 2 * sizeof *start);
    i64 *last = malloc((size_t)(n_regs + n_lines + 1) * sizeof *last);
    i64 *chain = calloc((size_t)(2 * n_regs + 1), sizeof *chain);
    if (!lv || !step || !start || !last || !chain) goto done;
    for (i64 k = 0; k < n_regs + n_lines; k++) last[k] = n;
    for (i64 l = 0; l < lanes; l++) step[l] = n;
    for (i64 w = 0; w < n_windows; w++)
        step[1 + w] = windows[w] > 0 && windows[w] < n ? windows[w] : n;
    i64 *total = step + lanes;
    ilp_walk(opcode, kind, dst, src1, src2, mask, line_ids, n, n_regs,
             lanes, step, total, start, lv, last, last + n_regs, chain,
             out + 1);
    out[0] = total[0];
    for (i64 w = 0; w < n_windows; w++) out[7 + w] = total[1 + w];
    status = 0;
done:
    free(lv);
    free(step);
    free(start);
    free(last);
    free(chain);
    return status;
}

/* -------------------------------------- numpy's Generator.choice */

/* The leading fields of numpy's bitgen_t (numpy/random/bitgen.h), the
   public C interface of a BitGenerator: what
   rng.bit_generator.ctypes.bit_generator points to. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
} bitgen_t;

/* A uniform integer in [0, rng] for rng < 2^32 - 1: numpy's
   random_bounded_uint64, i.e. Lemire's multiply-and-reject over
   uint32 draws (rng = 0 draws nothing). */
static uint64_t bounded(bitgen_t *g, uint64_t rng)
{
    if (rng == 0) return 0;
    uint32_t excl = (uint32_t)rng + 1;
    uint64_t m = (uint64_t)g->next_uint32(g->state) * excl;
    uint32_t leftover = (uint32_t)m;
    if (leftover < excl) {
        uint32_t threshold = (UINT32_MAX - (uint32_t)rng) % excl;
        while (leftover < threshold) {
            m = (uint64_t)g->next_uint32(g->state) * excl;
            leftover = (uint32_t)m;
        }
    }
    return m >> 32;
}

/* numpy's _shuffle_int: swap data[i] with data[bounded(i)] for
   i = n - 1 down to first. */
static void shuffle_tail(bitgen_t *g, i64 n, i64 first, i64 *data)
{
    for (i64 i = n - 1; i >= first; i--) {
        i64 j = (i64)bounded(g, (uint64_t)i);
        i64 tmp = data[j];
        data[j] = data[i];
        data[i] = tmp;
    }
}

/* rng.choice(p, size=k, replace=False) into out[0..k), 1 <= k <= p <
   2^32 - 1.  Large populations tail-shuffle arange(p) (pool, p
   entries); the others run Floyd's algorithm (seen: p zeroed bytes,
   left zeroed) and shuffle the sample. */
void choice(
    bitgen_t *g, i64 p, i64 k, i64 *out, unsigned char *seen, i64 *pool)
{
    if (p > 10000 && k > p / 50) {
        for (i64 i = 0; i < p; i++) pool[i] = i;
        shuffle_tail(g, p, p - k > 1 ? p - k : 1, pool);
        memcpy(out, pool + (p - k), (size_t)k * sizeof *out);
        return;
    }
    for (i64 j = p - k; j < p; j++) {
        i64 v = (i64)bounded(g, (uint64_t)j);
        if (seen[v]) v = j;   /* every earlier pick is below j */
        seen[v] = 1;
        out[j - (p - k)] = v;
    }
    for (i64 i = 0; i < k; i++) seen[out[i]] = 0;
    shuffle_tail(g, k, 1, out);
}

/* ------------------------------------------------ CART tree fitting */

/* numpy's pairwise summation (the float64 add-reduce inner loop). */
static double pairwise(const double *a, i64 n)
{
    if (n < 8) {
        double res = 0.0;
        for (i64 i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++) r[j] = a[j];
        i64 i;
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++) r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i];
        return res;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* np.sum of a contiguous float64 array: the reduction starts from the
   add identity 0.0 (so an all -0.0 sum is +0.0). */
double np_sum(const double *a, i64 n)
{
    return 0.0 + pairwise(a, n);
}

/* A volatile exponent keeps the compiler from folding pow(x, 2.0) into
   x * x: numpy's scalar x**2 calls libm pow, which rounds differently
   on a few inputs. */
static volatile double two = 2.0;

/* Largest node whose rows sort_node sorts directly. */
#define SMALL_NODE 16

typedef struct {
    const double *X;            /* p x N: column f is X[f * N ..] */
    const i64 *sample;          /* n: the plan's rows of X */
    const i64 *cls;             /* p: each column's rank class */
    const i64 *R;               /* u x n: class ranks of the plan's rows */
    const double *y;            /* n: the plan's targets */
    const i64 *presort;         /* u x n: each class's order of the plan */
    i64 N, n, p, u;
    i64 k, max_depth, min_split, min_leaf;  /* the tree being fitted */
    bitgen_t *bitgen;           /* its generator: each split's k draws */
    i64 *drawn, *first;         /* p (k used) */
    unsigned char *seen;        /* p, zeroed: choice's scratch */
    i64 *pool;                  /* p, choice's scratch */
    i64 *order;                 /* (u + 1) x n, see build_trees */
    i64 *last, *last_level;     /* u: the node a class's order row is at */
    i64 *scanned, visit;        /* u: the last node that scanned a class */
    i64 *left_at;               /* n: the path level a plan row left at */
    /* per level of the path from the root to the node being grown: its
       node id, segment, left child's size and whether it goes left */
    i64 *path_id, *path_lo, *path_hi, *path_left, *path_goes_left;
    i64 *tmp, *cuts;            /* n */
    i64 small[SMALL_NODE];      /* sort_node's rows */
    double *ybuf, *lsum, *lsq;  /* n */
    i64 *feature, *left, *right;  /* the tree's output, cap entries */
    double *threshold, *value, *importance;
    i64 cap, count;
    i64 status;
} Tree;

/* left_at of a plan row still on the path (in the node being grown). */
#define ON_PATH INT64_MAX

/* Row-major rank of sse entry (cut, col) decides ties, and the first
   NaN wins outright: np.argmin over the (cut, col) matrix. */
static inline int sse_before(double v, i64 r, double best, i64 best_r)
{
    if (best_r < 0) return 1;
    if (best != best) return v != v && r < best_r;
    if (v != v) return 1;
    return v < best || (v == best && r < best_r);
}

/* Class q's order row brought up to date at the node being grown (id,
   path level L) and restricted to its segment.  Order rows are updated
   lazily: last[q] is the node the row was last current at (-1: not yet
   in this tree, so the presort is current at the root).  That node is
   on the path, at level s, or it lies in the left subtree of the
   deepest path node above it, whose split the row has then seen: the
   row is current at that node's right child, at level s on the path.
   The splits of levels s .. L - 1 are replayed in order, each a stable
   partition of its node's segment: at level l a row goes left where
   path_goes_left[l] XOR (left_at[row] == l). */
static const i64 *refresh(Tree *t, i64 q, i64 id, i64 L)
{
    i64 m = t->n;
    i64 *row = t->order + q * m;
    const i64 *src = row;
    i64 s, last = t->last[q];
    if (last < 0) {
        src = t->presort + q * m;
        if (L == 0) return src;
        s = 0;
    } else {
        s = t->last_level[q];
        if (s >= L || t->path_id[s] != last) {
            /* The deepest path level a < min(s, L) with path_id[a] <
               last; the root (id 0) is one, as last > 0. */
            i64 a = (s < L ? s : L) - 1;
            while (t->path_id[a] > last) a--;
            s = a + 1;
        }
    }
    t->last[q] = id;
    t->last_level[q] = L;
    const i64 *left_at = t->left_at;
    for (i64 l = s; l < L; l++, src = row) {
        i64 lo = t->path_lo[l], len = t->path_hi[l] - lo;
        const i64 *in = src + lo;
        i64 *seg = row + lo;
        i64 a = 0, b = 0, *tmp = t->tmp, goes_left = t->path_goes_left[l];
        for (i64 i = 0; i < len; i++) {
            i64 r = in[i], g = goes_left ^ (left_at[r] == l);
            seg[a] = r;
            tmp[b] = r;
            a += g;
            b += 1 - g;
        }
        memcpy(seg + a, tmp, (size_t)b * sizeof *seg);
    }
    return src + t->path_lo[L];
}

#define CE(a, b) do { \
        i64 x_ = k[a], y_ = k[b]; \
        k[a] = x_ < y_ ? x_ : y_; \
        k[b] = x_ < y_ ? y_ : x_; \
    } while (0)

/* The rows of a node of at most SMALL_NODE rows in class q's order,
   sorted directly instead of through the class's order row, which is
   left as it is: one rank << 32 | row key per row (both below 2^31),
   the keys padded to 4, 8 or 16 and put in order by Batcher's odd-even
   merge sort, whose first 5 and 19 exchanges sort 4 and 8 keys.  The
   network is branch-free; replaying splits into a node this small costs
   more. */
static const i64 *sort_node(Tree *t, i64 q, const i64 *rows, i64 n)
{
    const i64 *rq = t->R + q * t->n;
    i64 k[SMALL_NODE], size = n <= 4 ? 4 : n <= 8 ? 8 : SMALL_NODE;
    for (i64 i = 0; i < n; i++) k[i] = (rq[rows[i]] << 32) | rows[i];
    for (i64 i = n; i < size; i++) k[i] = INT64_MAX;
    CE(0, 1); CE(2, 3); CE(0, 2); CE(1, 3); CE(1, 2);
    if (n > 4) {
        CE(4, 5); CE(6, 7); CE(4, 6); CE(5, 7); CE(5, 6); CE(0, 4);
        CE(2, 6); CE(2, 4); CE(1, 5); CE(3, 7); CE(3, 5); CE(1, 2);
        CE(3, 4); CE(5, 6);
    }
    if (n > 8) {
        CE(8, 9); CE(10, 11); CE(8, 10); CE(9, 11); CE(9, 10); CE(12, 13);
        CE(14, 15); CE(12, 14); CE(13, 15); CE(13, 14); CE(8, 12);
        CE(10, 14); CE(10, 12); CE(9, 13); CE(11, 15); CE(11, 13);
        CE(9, 10); CE(11, 12); CE(13, 14); CE(0, 8); CE(4, 12); CE(4, 8);
        CE(2, 10); CE(6, 14); CE(6, 10); CE(2, 4); CE(6, 8); CE(10, 12);
        CE(1, 9); CE(5, 13); CE(5, 9); CE(3, 11); CE(7, 15); CE(7, 11);
        CE(3, 5); CE(7, 9); CE(11, 13); CE(1, 2); CE(3, 4); CE(5, 6);
        CE(7, 8); CE(9, 10); CE(11, 12); CE(13, 14);
    }
    for (i64 i = 0; i < n; i++) t->small[i] = k[i] & 0xffffffff;
    return t->small;
}

/* Grow the node over order segment [lo, hi) at `depth`; returns its
   preorder id.  Mirrors the Python form's _build/_best_split: a class's
   order row, once current at a node, holds the node's rows in their
   presorted order, which is the node's stable argsort of each column
   in the class.  The plan-rows row (row u) is kept current at every
   node, so the node sums read it. */
static i64 grow(Tree *t, i64 lo, i64 hi, i64 depth)
{
    if (t->count >= t->cap) { t->status = -2; return -1; }
    i64 id = t->count++;
    i64 n = hi - lo, m = t->n, u = t->u, k = t->k;
    const double *y = t->y;
    i64 *rows = t->order + u * m + lo;
    double *yb = t->ybuf;
    for (i64 i = 0; i < n; i++) yb[i] = y[rows[i]];
    double sum = np_sum(yb, n);
    t->value[id] = sum / (double)n;
    t->feature[id] = -1;
    t->threshold[id] = 0.0;
    t->left[id] = t->right[id] = -1;
    if (n < t->min_split || (t->max_depth >= 0 && depth >= t->max_depth))
        return id;
    double mn = yb[0], mx = yb[0];
    for (i64 i = 1; i < n; i++) {
        if (yb[i] < mn) mn = yb[i];
        if (yb[i] > mx) mx = yb[i];
    }
    if (mx - mn == 0.0) return id;

    for (i64 i = 0; i < n; i++) yb[i] = yb[i] * yb[i];
    double sq = np_sum(yb, n);
    double sse_parent = sq - pow(sum, two) / (double)n;
    choice(t->bitgen, t->p, k, t->drawn, t->seen, t->pool);
    if (n < 2 * t->min_leaf) return id;   /* no cut is valid */
    t->path_id[depth] = id;
    t->path_lo[depth] = lo;
    t->path_hi[depth] = hi;

    /* Each drawn class's argmin under numpy's rule, merged into the
       node's by r = c * k + j.  Cut c (after position c + 1) is valid
       where the ranks (so the values) of its two sides differ and both
       sides hold min_leaf rows: lo_cut <= c < hi_cut.  An invalid cut's
       SSE is +inf, so a column whose minimum is +inf (a constant class:
       its first and last ranks are equal) has it at c = 0. */
    i64 lo_cut = t->min_leaf - 1, hi_cut = n - t->min_leaf;
    i64 n_valid = 0;
    double best = 0.0;
    i64 best_r = -1, best_row = -1;
    i64 visit = ++t->visit;
    double *ls = t->lsum, *lq = t->lsq;
    i64 *cuts = t->cuts;
    /* The drawn classes, each at its first column: a later column of
       the same class has the same SSE at every cut under a higher r =
       c * k + j, so it loses every tie and comes after any NaN. */
    i64 nq = 0, *first = t->first;
    for (i64 j = 0; j < k; j++) {   /* branch-free */
        i64 q = t->cls[t->drawn[j]];
        first[nq] = j;
        nq += t->scanned[q] != visit;
        t->scanned[q] = visit;
    }
    for (i64 iq = 0; iq < nq; iq++) {
        i64 j = first[iq], q = t->cls[t->drawn[j]];
        double v = INFINITY;
        i64 c_best = 0;
        const i64 *rq = t->R + q * m;
        const i64 *o = n <= SMALL_NODE ? sort_node(t, q, rows, n)
            : refresh(t, q, id, depth);
        if (rq[o[0]] != rq[o[n - 1]]) {   /* not constant at the node */
            /* Pass 1, branch-free: the sequential prefix sums along the
               class order and the valid cuts. */
            double a = y[o[0]], b = a * a;
            ls[0] = a;
            lq[0] = b;
            i64 nv = 0, prev = rq[o[0]];
            for (i64 c = 1; c < hi_cut; c++) {
                i64 row = o[c], rank = rq[row];
                double yv = y[row];
                a = a + yv;
                b = b + yv * yv;
                ls[c] = a;
                lq[c] = b;
                cuts[nv] = c - 1;
                nv += (rank != prev) & (c > lo_cut);
                prev = rank;
            }
            cuts[nv] = hi_cut - 1;
            nv += (rq[o[hi_cut]] != prev) & (hi_cut > lo_cut);
            n_valid += nv;
            /* Pass 2: the SSE at the valid cuts, in numpy's expression
               order; the first minimum, or the first NaN. */
            i64 c_nan = -1;
            for (i64 i = 0; i < nv; i++) {
                i64 c = cuts[i], pos = c + 1;
                double rs = sum - ls[c], rsq = sq - lq[c];
                double sse = ((lq[c] - ls[c] * ls[c] / (double)pos) + rsq)
                    - rs * rs / (double)(n - pos);
                int lt = sse < v;
                v = lt ? sse : v;
                c_best = lt ? c : c_best;
                c_nan = c_nan < 0 && sse != sse ? c : c_nan;
            }
            if (c_nan >= 0) {
                v = NAN;
                c_best = c_nan;
            }
        }
        i64 r = c_best * k + j;
        if (sse_before(v, r, best, best_r)) {
            best = v;
            best_r = r;
            best_row = o[c_best];
        }
    }
    if (!n_valid) return id;
    double gain = sse_parent - best;
    if (gain <= 1e-12) return id;
    /* The threshold and the partition read the chosen column itself. */
    i64 f = t->drawn[best_r % k];
    const double *xf = t->X + f * t->N;
    const i64 *s = t->sample;
    double thr = xf[s[best_row]];
    t->importance[f] += gain;
    t->feature[id] = f;
    t->threshold[id] = thr;

    /* Stable partition of the plan rows, `x <= threshold` first; the
       rows going right leave the path here on the way down the left
       child. */
    i64 n_left = 0, n_right = 0, *left_at = t->left_at;
    for (i64 i = 0; i < n; i++) {   /* branch-free */
        i64 r = rows[i];
        i64 g = xf[s[r]] <= thr;
        rows[n_left] = r;
        t->tmp[n_right] = r;
        n_left += g;
        n_right += 1 - g;
        left_at[r] = g ? ON_PATH : depth;
    }
    memcpy(rows + n_left, t->tmp, (size_t)n_right * sizeof *rows);
    t->path_left[depth] = n_left;
    t->path_goes_left[depth] = 1;
    i64 l_id = grow(t, lo, lo + n_left, depth + 1);
    if (t->status) return -1;
    t->path_goes_left[depth] = 0;
    for (i64 i = 0; i < n_left; i++) left_at[rows[i]] = depth;
    for (i64 i = n_left; i < n; i++) left_at[rows[i]] = ON_PATH;
    i64 r_id = grow(t, lo + n_left, hi, depth + 1);
    if (t->status) return -1;
    t->left[id] = l_id;
    t->right[id] = r_id;
    return id;
}

/* Fit the n_trees regression trees of one bootstrap plan: the n rows
   sample[0..n) of the N samples of p features, one tree per params
   row (k, max_depth, min_split, min_leaf; max_depth < 0 is unbounded)
   and generator bitgens[t].

   Index contract, checked before anything is read (-4 otherwise):
   1 <= n < 2^31, N < 2^31, 1 <= k <= p, every sample[i] < N, every
   cls[f] < u and every rank < N.  X (p x N) and y (N) are the whole
   data; ranks (u x N) are the dense value ranks of each rank class
   (ties share a rank), and column f belongs to class cls[f]: columns
   with equal rank rows share a class, whose stable order is each
   member's np.argsort(kind="stable").  So one counting sort per class
   presorts the plan's rows once into u order rows, shared by the
   trees.  Each tree keeps (u + 1) x n order rows of its own, the last
   one the plan rows themselves, and every node owns the same [lo, hi)
   segment of each; a class's row is filled from the presort and
   brought up to date only at the nodes that draw the class (see
   refresh), and a node of at most SMALL_NODE rows sorts its rows
   directly (see sort_node).  Each split search draws its k candidate
   columns from bitgens[t] as rng.choice(p, size=k, replace=False)
   would.

   The trees' nodes land back to back in preorder in the output arrays
   (cap entries in all, counts[t] for tree t, child ids tree-local,
   leaves: feature -1, children -1); importance[t * p + f] accumulates
   tree t's split gains on column f.  Returns 0; -2 past cap nodes, -3
   out of memory, -4 an index out of range. */
i64 build_trees(
    const double *X, const double *y, const i64 *ranks, const i64 *cls,
    const i64 *sample, i64 N, i64 n, i64 p, i64 u, i64 n_trees,
    const i64 *params, bitgen_t *const *bitgens,
    i64 *feature, double *threshold, i64 *left, i64 *right, double *value,
    double *importance, i64 *counts, i64 cap)
{
    if (n < 1 || n > INT32_MAX || N > INT32_MAX || p < 1 || u < 1)
        return -4;
    for (i64 f = 0; f < p; f++)
        if (cls[f] < 0 || cls[f] >= u) return -4;
    for (i64 i = 0; i < n; i++)
        if (sample[i] < 0 || sample[i] >= N) return -4;
    for (i64 t = 0; t < n_trees; t++)
        if (params[4 * t] < 1 || params[4 * t] > p) return -4;
    Tree t = {
        .X = X, .sample = sample, .cls = cls, .N = N, .n = n, .p = p,
        .u = u,
    };
    size_t un = (size_t)u * (size_t)n, sz = sizeof(i64);
    i64 *R = malloc(un * sz);
    double *yp = malloc((size_t)n * sizeof *yp);
    i64 *presort = malloc(un * sz);
    t.order = malloc(un * sz + (size_t)n * sz);
    t.last = malloc((size_t)u * sz);
    t.last_level = malloc((size_t)u * sz);
    t.scanned = calloc((size_t)u, sz);
    i64 *ibuf = malloc((size_t)n * 8 * sz);
    double *dbuf = malloc((size_t)n * 3 * sizeof *dbuf);
    t.drawn = malloc((size_t)p * sz);
    t.first = malloc((size_t)p * sz);
    t.seen = calloc((size_t)p, 1);
    t.pool = malloc((size_t)p * sz);
    i64 *cnt = malloc((size_t)N * sz);
    i64 result = -3;
    if (!(R && yp && presort && t.order && t.last && t.last_level
            && t.scanned && ibuf && dbuf && t.drawn && t.first && t.seen
            && t.pool && cnt))
        goto done;
    i64 **ib[] = {
        &t.left_at, &t.path_id, &t.path_lo, &t.path_hi, &t.path_left,
        &t.path_goes_left, &t.tmp, &t.cuts,
    };
    for (int b = 0; b < 8; b++) *ib[b] = ibuf + b * n;
    t.ybuf = dbuf;
    t.lsum = dbuf + n;
    t.lsq = dbuf + 2 * n;
    result = -4;
    for (i64 i = 0; i < n; i++) yp[i] = y[sample[i]];
    for (i64 q = 0; q < u; q++) {
        const i64 *rs = ranks + q * N;
        i64 *rq = R + q * n;
        for (i64 i = 0; i < n; i++) {
            i64 r = rs[sample[i]];
            if (r < 0 || r >= N) goto done;
            rq[i] = r;
        }
        memset(cnt, 0, (size_t)N * sizeof *cnt);
        for (i64 i = 0; i < n; i++) cnt[rq[i]]++;
        for (i64 r = 0, acc = 0; r < N; r++) {
            i64 c = cnt[r];
            cnt[r] = acc;
            acc += c;
        }
        i64 *row = presort + q * n;
        for (i64 i = 0; i < n; i++) row[cnt[rq[i]]++] = i;
    }
    t.R = R;
    t.y = yp;
    t.presort = presort;
    result = 0;
    i64 start = 0;
    for (i64 tree = 0; tree < n_trees && !result; tree++) {
        const i64 *prm = params + 4 * tree;
        t.k = prm[0];
        t.max_depth = prm[1];
        t.min_split = prm[2];
        t.min_leaf = prm[3];
        t.bitgen = bitgens[tree];
        t.feature = feature + start;
        t.threshold = threshold + start;
        t.left = left + start;
        t.right = right + start;
        t.value = value + start;
        t.importance = importance + tree * p;
        t.cap = cap - start;
        t.count = 0;
        for (i64 q = 0; q < u; q++) t.last[q] = -1;
        for (i64 i = 0; i < n; i++) {
            t.order[u * n + i] = i;
            t.left_at[i] = ON_PATH;
        }
        grow(&t, 0, n, 0);
        result = t.status;
        counts[tree] = t.count;
        start += t.count;
    }
done:
    free(R);
    free(yp);
    free(presort);
    free(t.order);
    free(t.last);
    free(t.last_level);
    free(t.scanned);
    free(ibuf);
    free(dbuf);
    free(t.drawn);
    free(t.first);
    free(t.seen);
    free(t.pool);
    free(cnt);
    return result;
}

/* ---------------------------------------------- forest descent */

/* The leaf every row of X reaches in every tree of a node table, into
   out[t * n + i] for root roots[t] and row i, whose feature f is
   X[i * rs + f * cs]: a split sends a row to its left child where x <=
   threshold (so NaN goes right), and left[node] < 0 marks a leaf.
   Checked before any read (-4 otherwise): every split's feature is
   < p, both its child ids lie above its own id and below n_nodes, and
   every root lies below n_nodes; so every walk ends inside the table.
   Returns 0. */
i64 descend(
    const i64 *feature, const double *threshold, const i64 *left,
    const i64 *right, i64 n_nodes, const i64 *roots, i64 n_roots,
    const double *X, i64 n, i64 p, i64 rs, i64 cs, i64 *out)
{
    for (i64 i = 0; i < n_nodes; i++)
        if (left[i] >= 0 && (feature[i] < 0 || feature[i] >= p
                || left[i] <= i || left[i] >= n_nodes
                || right[i] <= i || right[i] >= n_nodes))
            return -4;
    for (i64 t = 0; t < n_roots; t++)
        if (roots[t] < 0 || roots[t] >= n_nodes) return -4;
    for (i64 t = 0; t < n_roots; t++) {
        i64 *o = out + t * n;
        for (i64 i = 0; i < n; i++) {
            const double *x = X + i * rs;
            i64 node = roots[t];
            while (left[node] >= 0)
                node = x[feature[node] * cs] <= threshold[node]
                    ? left[node] : right[node];
            o[i] = node;
        }
    }
    return 0;
}
"""

#: The loaded shared object handed to each kernel's C-form builder.
Library = ctypes.CDLL

#: Kernel name -> (Python form, builder of the C form from the library).
_REGISTRY: dict[str, tuple[Callable, Callable[[Library], Callable | None]]] = {}

_UNSET = object()
#: The loaded shared object, None on a host without a compiler, or the
#: :class:`~repro.errors.KernelBuildError` of a failed build.
_LIB: Library | KernelBuildError | None | object = _UNSET
#: C forms already wrapped over :data:`_LIB`, by kernel name (None: the
#: C form was refused and the Python form runs).
_CC: dict[str, Callable | None] = {}


def register(
    name: str, python: Callable, cc: Callable[[Library], Callable | None]
) -> None:
    """Register kernel ``name``: its Python form and its C-form builder.

    ``cc(lib)`` declares the ctypes signature of the C function in the
    loaded library and returns a callable with ``python``'s signature,
    or None when the C form cannot be trusted on this host (the Python
    form then runs).
    """
    _REGISTRY[name] = (python, cc)


def python_form(name: str) -> Callable:
    """The registered pure-Python form (the oracle) of kernel ``name``."""
    return _REGISTRY[name][0]


def resolve(name: str) -> tuple[Callable, str]:
    """Kernel ``name`` of this process as ``(callable, backend)``.

    ``backend`` is ``"cc"`` when the shared object built (on the first
    call of the process) and ``"python"`` on a host without a C
    compiler; both forms take the same arguments and return identical
    results.  A failed build raises
    :class:`~repro.errors.KernelBuildError` here, on every call.
    """
    python, cc = _REGISTRY[name]
    lib = _library()
    if lib is None:
        return python, "python"
    if name not in _CC:
        _CC[name] = cc(lib)
    fn = _CC[name]
    return (python, "python") if fn is None else (fn, "cc")


def jit_status() -> dict:
    """Kernel provenance for manifests and benchmark records.

    ``backend`` is ``"cc"`` when the shared object is built and
    ``"python"`` on hosts without a C compiler (a failed build raises
    :class:`~repro.errors.KernelBuildError`).  Under ``"cc"`` a kernel
    whose C form fails its build-time check still runs its Python form
    (with a warning; only ``build_trees`` has such a check).
    """
    return {"backend": "python" if _library() is None else "cc"}


def _library() -> Library | None:
    """The loaded shared object, built on first use (None: no compiler)."""
    global _LIB
    if _LIB is _UNSET:
        try:
            _LIB = _load_cc_lib()
        except KernelBuildError as exc:
            _LIB = exc
        else:
            log.info(
                "native kernels ready",
                extra={"ctx": {"backend": "python" if _LIB is None else "cc"}},
            )
    if isinstance(_LIB, KernelBuildError):
        raise _LIB.with_traceback(None)
    return _LIB


def find_compiler() -> str | None:
    """The C compiler the kernels build with (``cc``, ``gcc`` or
    ``clang`` on ``PATH``), or None."""
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def _cache_dir() -> str:
    path = os.environ.get(CACHE_ENV_VAR, "").strip() or os.path.join(
        tempfile.gettempdir(), "repro-simjit"
    )
    os.makedirs(path, exist_ok=True)
    return path


def _so_path() -> str:
    """The cached shared object built from the current C source."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    return os.path.join(_cache_dir(), f"kernels-{digest}.so")


def _compile(compiler: str, so_path: str) -> None:
    """Build the shared object at ``so_path`` without racing other builds.

    Source and object are written to names unique to this build and the
    object lands through :func:`repro.store.replacing`, so concurrent
    first builds (``--jobs N`` workers on a cold cache) never see each
    other's half-written files; the last one in wins with identical
    bytes.  A failed build raises :class:`~repro.errors.KernelBuildError`
    with the compiler's error output.
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
                    "-lm",
                ],
                check=True,
                capture_output=True,
                text=True,
                timeout=120,
            )
    except subprocess.CalledProcessError as exc:
        raise KernelBuildError(
            f"C kernel build with {compiler} failed (exit {exc.returncode}):\n"
            f"{exc.stderr.strip()}"
        ) from None
    except (OSError, subprocess.SubprocessError) as exc:
        raise KernelBuildError(f"C kernel build with {compiler} failed: {exc}") from exc
    finally:
        os.remove(src_path)


def _load_cc_lib() -> Library | None:
    """Compile (once per cache directory) and load the shared object.

    A cached object that fails to load (truncated, overwritten, built
    for another platform) is reported, deleted and rebuilt once instead
    of being trusted.  None when no compiler is found (every kernel then
    runs its Python form); a build or load that fails with a compiler at
    hand raises :class:`~repro.errors.KernelBuildError`.
    """
    compiler = find_compiler()
    if compiler is None:
        return None
    try:
        so_path = _so_path()
    except OSError as exc:
        raise KernelBuildError(f"C kernel cache directory unusable: {exc}") from exc
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
    try:
        return ctypes.CDLL(so_path)
    except OSError as exc:
        raise KernelBuildError(f"rebuilt C kernel {so_path} failed to load: {exc}") from exc
