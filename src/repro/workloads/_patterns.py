"""Shared loop-body templates used by the workload trace generators.

Each template mirrors what an optimizing compiler emits for the
corresponding C inner loop: the loads/stores of the statement, the FP
arithmetic, the induction-variable update and the back-edge branch.
Register numbering encodes the true dependence structure (see
:mod:`repro.ir.builder`): accumulators read their own previous value
(loop-carried chain), streaming statements do not.

Each constructor builds its template once per process and hands the same
(read-only) object to every generator.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ..ir import LoopTemplate, Opcode, TemplateOp

# Virtual register conventions: r1-r7 scratch, r8+ accumulators/carried.
_ACC = 8
_IV = 9  # induction variable


@cache
def dot_product() -> LoopTemplate:
    """acc += a[i] * x[i]  — two loads, serial FP accumulation chain."""
    return LoopTemplate([
        TemplateOp(Opcode.LOAD, dst=1, addr="a"),
        TemplateOp(Opcode.LOAD, dst=2, addr="x"),
        TemplateOp(Opcode.FMUL, dst=3, src1=1, src2=2),
        TemplateOp(Opcode.FALU, dst=_ACC, src1=_ACC, src2=3),
        TemplateOp(Opcode.IALU, dst=_IV, src1=_IV),
        TemplateOp(Opcode.BRANCH, src1=_IV),
    ])


@cache
def dual_dot() -> LoopTemplate:
    """tmp += A[i]*x[i]; acc += B[i]*x[i]  — gesummv's fused inner loop.

    Three simultaneous read streams (A, B, x) in one loop body, exactly as
    PolyBench's ``kernel_gesummv`` nest accesses them.
    """
    return LoopTemplate([
        TemplateOp(Opcode.LOAD, dst=1, addr="a"),
        TemplateOp(Opcode.LOAD, dst=2, addr="b"),
        TemplateOp(Opcode.LOAD, dst=3, addr="x"),
        TemplateOp(Opcode.FMUL, dst=4, src1=1, src2=3),
        TemplateOp(Opcode.FALU, dst=_ACC, src1=_ACC, src2=4),
        TemplateOp(Opcode.FMUL, dst=5, src1=2, src2=3),
        TemplateOp(Opcode.FALU, dst=_ACC + 1, src1=_ACC + 1, src2=5),
        TemplateOp(Opcode.IALU, dst=_IV, src1=_IV),
        TemplateOp(Opcode.BRANCH, src1=_IV),
    ])


@cache
def stream_update() -> LoopTemplate:
    """a[i] = f(a[i])  — read-modify-write stream."""
    return LoopTemplate([
        TemplateOp(Opcode.LOAD, dst=1, addr="a"),
        TemplateOp(Opcode.FMUL, dst=2, src1=1, src2=7),
        TemplateOp(Opcode.FALU, dst=3, src1=2, src2=7),
        TemplateOp(Opcode.STORE, src1=3, addr="a_out"),
        TemplateOp(Opcode.IALU, dst=_IV, src1=_IV),
        TemplateOp(Opcode.BRANCH, src1=_IV),
    ])


@cache
def gather_reduce() -> LoopTemplate:
    """acc += data[idx[i]]  — indexed gather, address depends on a load."""
    return LoopTemplate([
        TemplateOp(Opcode.LOAD, dst=1, addr="idx", size=4),
        TemplateOp(Opcode.IALU, dst=2, src1=1),
        # The gathered load consumes the computed address register, creating
        # a load->load dependence chain (pointer-chasing signature).
        TemplateOp(Opcode.LOAD, dst=3, src1=2, addr="data"),
        TemplateOp(Opcode.FALU, dst=_ACC, src1=_ACC, src2=3),
        TemplateOp(Opcode.CMP, dst=4, src1=3),
        TemplateOp(Opcode.BRANCH, src1=4),
    ])


@cache
def gather_update() -> LoopTemplate:
    """data[idx[i]] op= v  — indexed scatter/update (irregular writes)."""
    return LoopTemplate([
        TemplateOp(Opcode.LOAD, dst=1, addr="idx", size=4),
        TemplateOp(Opcode.IALU, dst=2, src1=1),
        TemplateOp(Opcode.LOAD, dst=3, src1=2, addr="data"),
        TemplateOp(Opcode.FALU, dst=4, src1=3, src2=7),
        TemplateOp(Opcode.STORE, src1=4, addr="data_out"),
        TemplateOp(Opcode.BRANCH, src1=2),
    ])


@cache
def atomic_update() -> LoopTemplate:
    """data[idx[i]] atomic+= v  — contended parallel reduction.

    The shared-accumulator pattern of Rodinia's parallel kernels (k-means
    centroid sums, BFS cost relaxation): on the host these read-modify-
    writes bounce the target line between cores; near memory they execute
    locally at the vault — one of the classic NMC advantages.
    """
    return LoopTemplate([
        TemplateOp(Opcode.LOAD, dst=1, addr="idx", size=4),
        TemplateOp(Opcode.IALU, dst=2, src1=1),
        TemplateOp(Opcode.ATOMIC, dst=3, src1=2, addr="data"),
        TemplateOp(Opcode.FALU, dst=4, src1=3, src2=7),
        TemplateOp(Opcode.BRANCH, src1=2),
    ])


@cache
def distance_accumulate() -> LoopTemplate:
    """acc += (p[i] - c[i])^2  — k-means distance inner loop."""
    return LoopTemplate([
        TemplateOp(Opcode.LOAD, dst=1, addr="p"),
        TemplateOp(Opcode.LOAD, dst=2, addr="c"),
        TemplateOp(Opcode.FALU, dst=3, src1=1, src2=2),
        TemplateOp(Opcode.FMUL, dst=4, src1=3, src2=3),
        TemplateOp(Opcode.FALU, dst=_ACC, src1=_ACC, src2=4),
        TemplateOp(Opcode.BRANCH, src1=_IV),
    ])


@cache
def rank1_update() -> LoopTemplate:
    """a[i,j] -= l[i] * u[j]  — LU / Cholesky trailing update."""
    return LoopTemplate([
        TemplateOp(Opcode.LOAD, dst=1, addr="l"),
        TemplateOp(Opcode.LOAD, dst=2, addr="u"),
        TemplateOp(Opcode.FMUL, dst=3, src1=1, src2=2),
        TemplateOp(Opcode.LOAD, dst=4, addr="a"),
        TemplateOp(Opcode.FALU, dst=5, src1=4, src2=3),
        TemplateOp(Opcode.STORE, src1=5, addr="a_out"),
        TemplateOp(Opcode.IALU, dst=_IV, src1=_IV),
        TemplateOp(Opcode.BRANCH, src1=_IV),
    ])


@cache
def scaled_update() -> LoopTemplate:
    """a[i] -= s * b[i]  — update with a register-resident scalar ``s``.

    Like :func:`rank1_update` but the multiplier is loop-invariant and
    lives in a register (r7), the way any compiler treats ``delta[h]`` in
    bp's weight update or ``r[k][j]`` in Gram-Schmidt's projection.
    """
    return LoopTemplate([
        TemplateOp(Opcode.LOAD, dst=1, addr="b"),
        TemplateOp(Opcode.FMUL, dst=2, src1=1, src2=7),
        TemplateOp(Opcode.LOAD, dst=3, addr="a"),
        TemplateOp(Opcode.FALU, dst=4, src1=3, src2=2),
        TemplateOp(Opcode.STORE, src1=4, addr="a_out"),
        TemplateOp(Opcode.IALU, dst=_IV, src1=_IV),
        TemplateOp(Opcode.BRANCH, src1=_IV),
    ])


@cache
def scalar_divide() -> LoopTemplate:
    """x[i] = x[i] / d  — normalisation loop with FP divides."""
    return LoopTemplate([
        TemplateOp(Opcode.LOAD, dst=1, addr="x"),
        TemplateOp(Opcode.FDIV, dst=2, src1=1, src2=7),
        TemplateOp(Opcode.STORE, src1=2, addr="x_out"),
        TemplateOp(Opcode.BRANCH, src1=_IV),
    ])


def row_major(base: int, i: np.ndarray, j: np.ndarray, ncols: int,
              elem: int = 8) -> np.ndarray:
    """Addresses of A[i, j] for a row-major matrix at ``base``."""
    return base + (i.astype(np.int64) * ncols + j.astype(np.int64)) * elem


def vector_addr(base: int, i: np.ndarray, elem: int = 8) -> np.ndarray:
    """Addresses of v[i] for a dense vector at ``base``."""
    return base + i.astype(np.int64) * elem


def tile_ij(i_values: np.ndarray, j_count: int) -> tuple[np.ndarray, np.ndarray]:
    """All (i, j) pairs with i from ``i_values`` and j in range(j_count).

    Returns arrays of equal length len(i_values) * j_count, i-major
    (the natural nesting of a row loop over an inner column loop).
    """
    i = np.repeat(i_values.astype(np.int64), j_count)
    j = np.tile(np.arange(j_count, dtype=np.int64), len(i_values))
    return i, j


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without a Python loop."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
