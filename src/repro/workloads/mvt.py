"""``mvt`` — matrix-vector product and transpose (PolyBench).

Computes ``x1 += A y1`` and ``x2 += A^T y2``.  Both products are emitted
row-major over ``A`` (the transposed product swaps the roles of the index
vectors rather than the traversal order, as the PolyBench loop nest does
after loop interchange), so the kernel is a pair of regular unit-stride
streams with cache-resident vectors — locality-friendly and not
NMC-suitable per the paper (Section 3.4, observation three).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir import InstructionTrace, TraceBuilder
from . import _patterns as pat
from .base import AddressSpace, DoEParameter, SizeMapping, Workload, partition_counts


class Mvt(Workload):
    name = "mvt"
    description = "Matrix Vector Product"

    _DIM = SizeMapping(alpha=1.4, beta=0.5, minimum=8)
    _THREADS = SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False)
    _ITER = SizeMapping(alpha=0.03, beta=1.0, minimum=1, maximum=3)

    @property
    def parameters(self) -> tuple[DoEParameter, ...]:
        return (
            DoEParameter("dimensions", (500, 750, 1250, 2000, 2250), 2000, self._DIM),
            DoEParameter("threads", (4, 8, 16, 32, 64), 32, self._THREADS),
            DoEParameter("iterations", (10, 20, 30, 50, 60), 40, self._ITER),
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
        y1_base = space.alloc(n * 8)
        y2_base = space.alloc(n * 8)

        dot = pat.dot_product()
        builder = TraceBuilder()
        counts = partition_counts(n, threads) * n
        i, j = pat.tile_ij(np.arange(n), n)
        a_addrs = pat.row_major(a_base, i, j, n)
        phase = [
            # x1[i] += A[i][j] * y1[j]
            (dot, counts, {"a": a_addrs, "x": pat.vector_addr(y1_base, j)}, 0),
            # x2[i] += A[j][i] * y2[j], interchanged to stream row-major.
            (dot, counts, {"a": a_addrs, "x": pat.vector_addr(y2_base, j)}, 16),
        ]
        for _rep in range(repeats):
            builder.threads(np.arange(threads), phase)
        return builder.finish()
