"""``gemv`` — vector multiply and matrix addition (PolyBench ``gemver``).

Performs the gemver sequence: a rank-2 matrix update
``A += u1 v1^T + u2 v2^T`` followed by two matrix-vector products, all
row-major streams with unit stride.  The vectors stay cache-resident and
the matrix streams are perfectly prefetchable, so the host cache hierarchy
and prefetchers absorb nearly all memory latency — the paper finds gemver
*not* NMC-suitable (Section 3.4, observation three).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir import InstructionTrace, TraceBuilder
from . import _patterns as pat
from .base import AddressSpace, DoEParameter, SizeMapping, Workload, partition_counts


class Gemv(Workload):
    name = "gemv"
    description = "Vector Multiply and Matrix Addition"

    _DIM = SizeMapping(alpha=1.4, beta=0.5, minimum=8)
    _THREADS = SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False)
    _ITER = SizeMapping(alpha=0.016, beta=1.0, minimum=1, maximum=3)

    @property
    def parameters(self) -> tuple[DoEParameter, ...]:
        return (
            DoEParameter("dimensions", (500, 750, 1250, 2000, 2250), 8000, self._DIM),
            DoEParameter("threads", (4, 8, 16, 32, 64), 32, self._THREADS),
            DoEParameter("iterations", (50, 60, 80, 100, 150), 60, self._ITER),
        )

    def _generate(
        self,
        sizes: Mapping[str, int],
        raw: Mapping[str, float],
        rng: np.random.Generator,
    ) -> InstructionTrace:
        n = sizes["dimensions"]
        threads = min(sizes["threads"], n)
        repeats = sizes["iterations"]
        space = AddressSpace()
        a_base = space.alloc(n * n * 8)
        u_base = space.alloc(n * 8)
        v_base = space.alloc(n * 8)
        space.alloc(n * 8)  # x operand region
        w_base = space.alloc(n * 8)

        rank1 = pat.rank1_update()
        dot = pat.dot_product()
        builder = TraceBuilder()
        counts = partition_counts(n, threads) * n
        i, j = pat.tile_ij(np.arange(n), n)
        a_addrs = pat.row_major(a_base, i, j, n)
        phase = [
            # Phase 1: A[i][j] += u[i] * v[j]  (row-major RMW stream).
            (rank1, counts, {
                "l": pat.vector_addr(u_base, i),
                "u": pat.vector_addr(v_base, j),
                "a": a_addrs,
                "a_out": a_addrs,
            }, 0),
            # Phase 2: x[i] += A[i][j] * w[j]  (row-major read stream,
            # w vector fully cache-resident).
            (dot, counts, {"a": a_addrs, "x": pat.vector_addr(w_base, j)}, 16),
        ]
        for _rep in range(repeats):
            builder.threads(np.arange(threads), phase)
        return builder.finish()
