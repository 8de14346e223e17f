"""``atax`` — matrix transpose and vector multiplication (PolyBench).

Computes ``y = A^T (A x)``.  Phase 1 (``tmp = A x``) streams the matrix
row-major — high spatial locality, prefetch-friendly.  Phase 2
(``y = A^T tmp``) walks the matrix column-major with an ``n``-element
stride — every access touches a new cache line.  This half-regular,
half-transposed structure is why the paper calls atax a borderline NMC
candidate (Section 3.4, observation five).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir import InstructionTrace, TraceBuilder
from . import _patterns as pat
from .base import AddressSpace, DoEParameter, SizeMapping, Workload, partition_counts


class Atax(Workload):
    name = "atax"
    description = "Matrix Transpose and Vector Multiplication"

    _DIM = SizeMapping(alpha=2.0, beta=0.5, minimum=8)
    _THREADS = SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False)

    @property
    def parameters(self) -> tuple[DoEParameter, ...]:
        return (
            DoEParameter("dimensions", (500, 1250, 1500, 2000, 2300), 8000, self._DIM),
            DoEParameter("threads", (4, 8, 16, 32, 64), 32, self._THREADS),
        )

    def _generate(
        self,
        sizes: Mapping[str, int],
        raw: Mapping[str, float],
        rng: np.random.Generator,
    ) -> InstructionTrace:
        n = sizes["dimensions"]
        # The matrix keeps its *virtual* (paper-scale) row pitch: the kernel
        # visits an n x n sub-grid of the full v x v matrix, so the phase-2
        # column walk strides by the full-scale row length (v * 8 bytes) —
        # far beyond any prefetcher's reach, exactly as at full scale.
        v = max(n, int(raw["dimensions"]))
        threads = min(sizes["threads"], n)
        space = AddressSpace()
        a_base = space.alloc(n * v * 8)
        x_base = space.alloc(n * 8)
        tmp_base = space.alloc(n * 8)
        y_base = space.alloc(n * 8)

        dot = pat.dot_product()
        update = pat.stream_update()
        builder = TraceBuilder()
        tids = np.arange(threads)
        counts = partition_counts(n, threads)
        rows = np.arange(n)
        i, j = pat.tile_ij(rows, n)
        tmp = pat.vector_addr(tmp_base, rows)
        y = pat.vector_addr(y_base, rows)
        # Phase 1: tmp[i] = sum_j A[i][j] * x[j] — row-parallel, each thread
        # streams its rows with unit stride (prefetch-friendly).
        builder.threads(tids, [
            (dot, counts * n, {
                "a": pat.row_major(a_base, i, j, v),
                "x": pat.vector_addr(x_base, j),
            }, 0),
            (update, counts, {"a": tmp, "a_out": tmp}, 16),
        ])
        # Phase 2: y[j] = sum_i A[i][j] * tmp[i] — column-parallel: every
        # thread walks whole columns of A top to bottom, striding by the
        # full-scale row pitch (v * 8 bytes) at every step.
        builder.threads(tids, [
            (dot, counts * n, {
                "a": pat.row_major(a_base, j, i, v),
                "x": pat.vector_addr(tmp_base, j),
            }, 32),
            (update, counts, {"a": y, "a_out": y}, 48),
        ])
        return builder.finish()
