"""``gesu`` — scalar, vector and matrix multiplication (PolyBench
``gesummv``).

Computes ``y = alpha * A x + beta * B x``: two simultaneous row-major
matrix-vector streams sharing the cache-resident vector ``x``.  Like gemver
this is a perfectly regular, prefetch-friendly kernel with high data
locality on the shared vector; the paper finds it not NMC-suitable
(Section 3.4, observation three).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir import InstructionTrace, TraceBuilder
from . import _patterns as pat
from .base import AddressSpace, DoEParameter, SizeMapping, Workload, partition_counts


class Gesummv(Workload):
    name = "gesu"
    description = "Scalar, Vector, and Matrix Multiplication"

    _DIM = SizeMapping(alpha=1.4, beta=0.5, minimum=8)
    _THREADS = SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False)
    _ITER = SizeMapping(alpha=0.03, beta=1.0, minimum=1, maximum=3)

    @property
    def parameters(self) -> tuple[DoEParameter, ...]:
        return (
            DoEParameter("dimensions", (500, 750, 1250, 2000, 2250), 8000, self._DIM),
            DoEParameter("threads", (4, 8, 16, 32, 64), 32, self._THREADS),
            DoEParameter("iterations", (10, 20, 40, 50, 60), 50, self._ITER),
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
        b_base = space.alloc(n * n * 8)
        x_base = space.alloc(n * 8)
        y_base = space.alloc(n * 8)

        dual = pat.dual_dot()
        update = pat.stream_update()
        builder = TraceBuilder()
        counts = partition_counts(n, threads)
        rows = np.arange(n)
        i, j = pat.tile_ij(rows, n)
        y_addrs = pat.vector_addr(y_base, rows)
        phase = [
            # Fused: tmp[i] += A[i][j]*x[j]; y[i] += B[i][j]*x[j]
            (dual, counts * n, {
                "a": pat.row_major(a_base, i, j, n),
                "b": pat.row_major(b_base, i, j, n),
                "x": pat.vector_addr(x_base, j),
            }, 0),
            # y[i] = alpha * tmp[i] + beta * y[i]
            (update, counts, {"a": y_addrs, "a_out": y_addrs}, 32),
        ]
        for _rep in range(repeats):
            builder.threads(np.arange(threads), phase)
        return builder.finish()
