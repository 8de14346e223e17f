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
* ``reuse_distances`` — LRU stack distances
  (:mod:`repro.ir.stackdist`) for the profiler's reuse-distance
  families;
* ``ilp_depths`` — the profiler's dependence-DAG depths
  (:mod:`repro.profiler.ilp`);
* ``build_tree`` — one whole CART regression tree per call, the
  random forest's base learner, each split's candidate features drawn
  in C from the tree's generator (:mod:`repro.ml.tree`).

:func:`resolve` hands out one form per call.  The C source is built on
the first kernel call of a process (never at import) with the system C
compiler (``cc``, ``gcc`` or ``clang``; ``-O2 -fPIC -shared
-ffp-contract=off``) into a source-hash-keyed shared object under
``$REPRO_SIM_JIT_CACHE`` (default: ``repro-simjit`` in the temp
directory) and loaded with :mod:`ctypes`.  The build is race-free across
processes and a damaged cached object is discarded and rebuilt; when no
compiler is found or the build fails, every kernel runs its Python form.
:func:`jit_status` says which.

Bit-equivalence contract: each C function keeps its Python form's exact
arithmetic.  The trace fill, the profiler and phase-A L1 kernels are
integer-only; the stream digests keep integer prefix sums and
sequential double sums, as ``np.cumsum`` does; phase B keeps the floating-point operation order of
``StackedMemory.access`` (C ``double`` and CPython ``float`` are both
IEEE-754 binary64, and ``-ffp-contract=off`` forbids FMA contraction);
the tree builder replays numpy's: pairwise summation for node sums, libm
``pow`` for a scalar square, sequential prefix sums and ``argmin``'s tie
and NaN rules.  It also replays ``Generator.choice(p, k, replace=False)``
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

/* ------------------------------------------------ LRU stack distances */

/* Stack distance of every access of ids[0..n) (dense element ids): the
   number of distinct elements touched since the previous access to the
   same element, -1 on a first touch.  tree[1..n] is a Fenwick tree over
   access times counting each element's most recent access; it must be
   zeroed, and last[] (one slot per id) filled with -1. */
void reuse_distances(
    const i64 *ids, i64 n, i64 *last, i64 *tree, i64 *out)
{
    for (i64 t = 0; t < n; t++) {
        i64 k = ids[t];
        i64 prev = last[k];
        if (prev < 0) {
            out[t] = -1;
        } else {
            /* live slots in (prev, t): prefix(t - 1) - prefix(prev) */
            i64 s = 0;
            for (i64 p = t; p > 0; p -= p & -p) s += tree[p];
            for (i64 p = prev + 1; p > 0; p -= p & -p) s -= tree[p];
            out[t] = s;
            for (i64 p = prev + 1; p <= n; p += p & -p) tree[p]--;
        }
        for (i64 p = t + 1; p <= n; p += p & -p) tree[p]++;
        last[k] = t;
    }
}

/* ------------------------------------------------------ ILP depths */

/* kind[i]: bits 0-1 the op class (0 other, 1 int, 2 fp, 3 memory), bit
   2 reads memory (load/atomic), bit 3 writes memory (store/atomic). */
#define K_CLASS 3
#define K_INT 1
#define K_FP 2
#define K_MEM 3
#define K_READ 4
#define K_WRITE 8

/* Serialized dependence-DAG depth of chunks of `step` instructions.
   The register and store tables are valid only where their stamp equals
   the current chunk's epoch (a fresh epoch per chunk replaces clearing
   them).  With chains non-NULL (one chunk over the whole sample, on
   zeroed int and fp tables) the per-class chain depths are added into
   chains[0..3); the int and fp tables are separate from the register
   table because a register last written by another class keeps its old
   chain level. */
static i64 ilp_pass(
    i64 n, i64 step, const i64 *kind, const i64 *dst, const i64 *src1,
    const i64 *src2, const i64 *line,
    i64 *reg_level, i64 *reg_stamp, i64 *store_level, i64 *store_stamp,
    i64 *int_level, i64 *fp_level, i64 *epoch, i64 *chains)
{
    i64 total = 0;
    for (i64 start = 0; start < n; start += step) {
        i64 end = start + step < n ? start + step : n;
        i64 e = ++*epoch;
        i64 depth = 0, c_int = 0, c_fp = 0, mem_serial = 0;
        for (i64 i = start; i < end; i++) {
            i64 kd = kind[i], s1 = src1[i], s2 = src2[i], d = dst[i];
            i64 level = 0;
            if (s1 >= 0 && reg_stamp[s1] == e) level = reg_level[s1];
            if (s2 >= 0 && reg_stamp[s2] == e && reg_level[s2] > level)
                level = reg_level[s2];
            if ((kd & K_READ) && store_stamp[line[i]] == e
                    && store_level[line[i]] > level)
                level = store_level[line[i]];
            level++;
            if (level > depth) depth = level;
            if (d >= 0) { reg_level[d] = level; reg_stamp[d] = e; }
            if (kd & K_WRITE) {
                store_level[line[i]] = level;
                store_stamp[line[i]] = e;
            }
            if (!chains) continue;
            i64 cls = kd & K_CLASS;
            if (cls == K_INT || cls == K_FP) {
                i64 *lv = cls == K_INT ? int_level : fp_level;
                i64 cl = 0;
                if (s1 >= 0) cl = lv[s1];
                if (s2 >= 0 && lv[s2] > cl) cl = lv[s2];
                cl++;
                if (d >= 0) lv[d] = cl;
                if (cls == K_INT) { if (cl > c_int) c_int = cl; }
                else if (cl > c_fp) c_fp = cl;
            } else if (cls == K_MEM && level > mem_serial) {
                mem_serial = level;
            }
        }
        total += depth;
        if (chains) {
            chains[0] += c_int;
            chains[1] += c_fp;
            chains[2] += depth < mem_serial ? depth : mem_serial;
        }
    }
    return total;
}

/* out[0] the infinite-window depth, out[1..4) the int/fp/memory chain
   depths, out[4..7) the int/fp/memory op counts, out[7 + w] the depth
   under windows[w].  Registers and lines are dense ids (-1: no
   register); the tables hold n_regs / n_lines slots, all zeroed. */
void ilp_depths(
    const i64 *kind, const i64 *dst, const i64 *src1, const i64 *src2,
    const i64 *line, i64 n, const i64 *windows, i64 n_windows,
    i64 *reg_level, i64 *reg_stamp, i64 *store_level, i64 *store_stamp,
    i64 *int_level, i64 *fp_level, i64 *out)
{
    i64 epoch = 0;
    memset(out, 0, (size_t)(7 + n_windows) * sizeof *out);
    for (i64 i = 0; i < n; i++) {
        i64 cls = kind[i] & K_CLASS;
        if (cls) out[3 + cls]++;
    }
    if (n == 0) return;
    out[0] = ilp_pass(
        n, n, kind, dst, src1, src2, line, reg_level, reg_stamp,
        store_level, store_stamp, int_level, fp_level, &epoch, out + 1);
    for (i64 w = 0; w < n_windows; w++)
        out[7 + w] = ilp_pass(
            n, windows[w] > 0 ? windows[w] : n, kind, dst, src1, src2, line,
            reg_level, reg_stamp, store_level, store_stamp, NULL, NULL,
            &epoch, NULL);
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

typedef struct {
    const double *X, *y;        /* p x n: column f is X[f * n ..] */
    i64 n, p, k, max_depth, min_split, min_leaf;
    bitgen_t *bitgen;           /* draws each split's k features */
    i64 *drawn;                 /* k */
    unsigned char *seen;        /* p, zeroed: choice's scratch */
    i64 *pool;                  /* p, choice's scratch */
    i64 *order;                 /* (p + 1) x n, see build_tree */
    i64 *feats, *slot;          /* feature permutation and its inverse */
    i64 *tmp;                   /* n */
    double *ybuf;               /* n */
    unsigned char *goes_left;   /* n, by sample row */
    i64 *feature, *left, *right;
    double *threshold, *value, *importance;
    i64 cap, count;
    i64 status;
} Tree;

/* Row-major rank of sse entry (cut, col) decides ties, and the first
   NaN wins outright: np.argmin over the (cut, col) matrix. */
static inline int sse_before(double v, i64 r, double best, i64 best_r)
{
    if (best_r < 0) return 1;
    if (best != best) return v != v && r < best_r;
    if (v != v) return 1;
    return v < best || (v == best && r < best_r);
}

/* Grow the node over order segment [lo, hi) at `depth`; returns its
   preorder id.  Mirrors the Python form's _build/_best_split: every
   order row restricted to a node keeps its presorted order, which is
   the node's stable argsort. */
static i64 grow(Tree *t, i64 lo, i64 hi, i64 depth, i64 n_const)
{
    if (t->count >= t->cap) { t->status = -2; return -1; }
    i64 id = t->count++;
    i64 n = hi - lo, N = t->n, p = t->p;
    const double *X = t->X, *y = t->y;
    const i64 *rows = t->order + p * N + lo;
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
    choice(t->bitgen, p, t->k, t->drawn, t->seen, t->pool);
    if (n < 2 * t->min_leaf) return id;   /* no cut is valid */

    /* feats[0..n_const) are constant over the node: all their cuts are
       ties.  A feature found constant here joins them, and stays
       there for every descendant. */
    for (i64 i = n_const; i < p; i++) {
        i64 f = t->feats[i];
        const i64 *o = t->order + f * N + lo;
        if (X[f * N + o[0]] == X[f * N + o[n - 1]]) {
            i64 g = t->feats[n_const];
            t->feats[n_const] = f;
            t->feats[i] = g;
            t->slot[f] = n_const++;
            t->slot[g] = i;
        }
    }

    /* Cut scan: sequential prefix sums along each drawn feature's
       order, the SSE of every cut in numpy's expression order. */
    int any_valid = 0;
    double best = 0.0;
    i64 best_r = -1;
    for (i64 j = 0; j < t->k; j++) {
        i64 f = t->drawn[j];
        if (t->slot[f] < n_const) {
            /* all +inf: the column's first entry is its argmin */
            if (sse_before(INFINITY, j, best, best_r)) {
                best = INFINITY;
                best_r = j;
            }
            continue;
        }
        const i64 *o = t->order + f * N + lo;
        const double *xf = X + f * N;
        double ls = 0.0, lq = 0.0;
        for (i64 c = 0; c + 1 < n; c++) {
            double yv = y[o[c]];
            if (c == 0) { ls = yv; lq = yv * yv; }
            else { ls = ls + yv; lq = lq + yv * yv; }
            i64 pos = c + 1;
            double sse = INFINITY;
            if (xf[o[c + 1]] != xf[o[c]]
                    && pos >= t->min_leaf && n - pos >= t->min_leaf) {
                any_valid = 1;
                double rs = sum - ls, rq = sq - lq;
                sse = ((lq - ls * ls / (double)pos) + rq)
                    - rs * rs / (double)(n - pos);
            }
            i64 r = c * t->k + j;
            if (sse_before(sse, r, best, best_r)) { best = sse; best_r = r; }
        }
    }
    if (!any_valid) return id;
    double gain = sse_parent - best;
    if (gain <= 1e-12) return id;
    i64 f = t->drawn[best_r % t->k];
    const double *xf = X + f * N;
    double thr = xf[t->order[f * N + lo + best_r / t->k]];
    t->importance[f] += gain;
    t->feature[id] = f;
    t->threshold[id] = thr;

    /* Stable partition of the rows and the non-constant feature order
       rows, `x <= threshold` first. */
    i64 n_left = 0;
    for (i64 i = 0; i < n; i++) {
        unsigned char l = xf[rows[i]] <= thr;
        t->goes_left[rows[i]] = l;
        n_left += l;
    }
    for (i64 q = n_const; q <= p; q++) {
        i64 *seg = t->order + (q < p ? t->feats[q] : p) * N + lo;
        i64 a = 0, b = 0;
        for (i64 i = 0; i < n; i++) {   /* branch-free */
            i64 r = seg[i];
            i64 g = t->goes_left[r];
            seg[a] = r;
            t->tmp[b] = r;
            a += g;
            b += 1 - g;
        }
        memcpy(seg + a, t->tmp, (size_t)b * sizeof *seg);
    }
    i64 l_id = grow(t, lo, lo + n_left, depth + 1, n_const);
    if (t->status) return -1;
    i64 r_id = grow(t, lo + n_left, hi, depth + 1, n_const);
    if (t->status) return -1;
    t->left[id] = l_id;
    t->right[id] = r_id;
    return id;
}

/* Fit one regression tree over n samples of p features.  X and ranks
   are feature-major (X[f * n + i] is sample i's feature f); ranks are
   dense per-feature value ranks (ties share a rank, all below
   n_ranks), so a stable counting sort by rank gives each feature's
   np.argsort(kind="stable") order once per tree.  order holds those p
   rows plus a (p + 1)-th row of ascending sample indices, and every
   node owns the same [lo, hi) segment of each row.  max_depth < 0 is
   unbounded.  Each split search draws its k candidate features from
   bitgen as rng.choice(p, size=k, replace=False) would.  The nodes
   land in preorder in the output arrays (cap entries each, leaves:
   feature -1, children -1) and importance[f] accumulates every
   split's gain.  Returns the node count; -2 past cap nodes, -3 out of
   memory. */
i64 build_tree(
    const double *X, const double *y, const i64 *ranks, i64 n, i64 p,
    i64 n_ranks, i64 k, i64 max_depth, i64 min_split, i64 min_leaf,
    bitgen_t *bitgen,
    i64 *feature, double *threshold, i64 *left, i64 *right, double *value,
    double *importance, i64 cap)
{
    Tree t = {
        .X = X, .y = y, .n = n, .p = p, .k = k, .max_depth = max_depth,
        .min_split = min_split, .min_leaf = min_leaf, .bitgen = bitgen,
        .feature = feature, .left = left, .right = right,
        .threshold = threshold, .value = value, .importance = importance,
        .cap = cap,
    };
    t.order = malloc((size_t)(p + 1) * (size_t)n * sizeof *t.order);
    /* p + 1: malloc(0) may return NULL */
    t.feats = malloc((size_t)(p + 1) * sizeof *t.feats);
    t.slot = malloc((size_t)(p + 1) * sizeof *t.slot);
    t.tmp = malloc((size_t)n * sizeof *t.tmp);
    t.ybuf = malloc((size_t)n * sizeof *t.ybuf);
    t.goes_left = malloc((size_t)n);
    t.drawn = malloc((size_t)k * sizeof *t.drawn);
    t.seen = calloc((size_t)p + 1, 1);
    t.pool = malloc((size_t)(p + 1) * sizeof *t.pool);
    i64 *cnt = malloc((size_t)n_ranks * sizeof *cnt);
    i64 result = -3;
    if (t.order && t.feats && t.slot && t.tmp && t.ybuf && t.goes_left
            && t.drawn && t.seen && t.pool && cnt) {
        for (i64 f = 0; f < p; f++) {
            memset(cnt, 0, (size_t)n_ranks * sizeof *cnt);
            const i64 *rf = ranks + f * n;
            for (i64 i = 0; i < n; i++) cnt[rf[i]]++;
            for (i64 r = 0, acc = 0; r < n_ranks; r++) {
                i64 c = cnt[r];
                cnt[r] = acc;
                acc += c;
            }
            i64 *row = t.order + f * n;
            for (i64 i = 0; i < n; i++) row[cnt[rf[i]]++] = i;
        }
        for (i64 f = 0; f < p; f++) t.feats[f] = t.slot[f] = f;
        for (i64 i = 0; i < n; i++) t.order[p * n + i] = i;
        grow(&t, 0, n, 0, 0);
        result = t.status ? t.status : t.count;
    }
    free(t.order);
    free(t.feats);
    free(t.slot);
    free(t.tmp);
    free(t.ybuf);
    free(t.goes_left);
    free(t.drawn);
    free(t.seen);
    free(t.pool);
    free(cnt);
    return result;
}
"""

#: The loaded shared object handed to each kernel's C-form builder.
Library = ctypes.CDLL

#: Kernel name -> (Python form, builder of the C form from the library).
_REGISTRY: dict[str, tuple[Callable, Callable[[Library], Callable | None]]] = {}

_UNSET = object()
#: The loaded shared object, None once a build proved impossible.
_LIB: Library | None | object = _UNSET
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
    call of the process) and ``"python"`` otherwise; both forms take the
    same arguments and return identical results.
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
    ``"python"`` on hosts where it could not be.  Under ``"cc"`` a kernel
    whose C form fails its build-time check still runs its Python form
    (with a warning; only ``build_tree`` has such a check).
    """
    return {"backend": "python" if _library() is None else "cc"}


def _library() -> Library | None:
    """The loaded shared object, built on first use (None: no build)."""
    global _LIB
    if _LIB is _UNSET:
        _LIB = _load_cc_lib()
        log.info(
            "native kernels ready",
            extra={"ctx": {"backend": "python" if _LIB is None else "cc"}},
        )
    return _LIB


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
                    "-lm",
                ],
                check=True,
                capture_output=True,
                timeout=120,
            )
    finally:
        os.remove(src_path)


def _load_cc_lib() -> Library | None:
    """Compile (once per cache directory) and load the shared object.

    A cached object that fails to load (truncated, overwritten, built
    for another platform) is reported, deleted and rebuilt once instead
    of being trusted.  None when no compiler is found or the build
    fails; every kernel then runs its Python form.
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
            "C kernel build failed; falling back to the Python forms",
            extra={"ctx": {"compiler": compiler, "error": str(exc)}},
        )
        return None
