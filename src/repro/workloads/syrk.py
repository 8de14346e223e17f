"""``syrk`` — symmetric rank-k update (PolyBench).

Computes ``C = alpha * A A^T + beta * C``.  The inner product walks two
rows of ``A`` simultaneously (both unit-stride) and each row of ``A`` is
reused across a whole row of ``C`` — classic high-locality dense linear
algebra that the host cache hierarchy exploits fully; not NMC-suitable per
the paper (Section 3.4, observation three).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir import InstructionTrace, TraceBuilder
from . import _patterns as pat
from .base import AddressSpace, DoEParameter, SizeMapping, Workload, partition_counts


class Syrk(Workload):
    name = "syrk"
    description = "Symmetric Rank-k Operations"

    _DIM_I = SizeMapping(alpha=3.5, beta=1 / 3, minimum=8)
    _DIM_J = SizeMapping(alpha=3.0, beta=1 / 3, minimum=6)
    _THREADS = SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False)

    @property
    def parameters(self) -> tuple[DoEParameter, ...]:
        return (
            DoEParameter("dimension_i", (64, 128, 320, 512, 640), 2000, self._DIM_I),
            DoEParameter("dimension_j", (64, 128, 320, 512, 640), 2000, self._DIM_J),
            DoEParameter("threads", (4, 8, 16, 32, 64), 32, self._THREADS),
        )

    def _generate(
        self,
        sizes: Mapping[str, int],
        raw: Mapping[str, float],
        rng: np.random.Generator,
    ) -> InstructionTrace:
        n = sizes["dimension_i"]   # C is n x n
        k = sizes["dimension_j"]   # A is n x k
        threads = min(sizes["threads"], n)
        space = AddressSpace()
        a_base = space.alloc(n * k * 8)
        c_base = space.alloc(n * n * 8)

        dot = pat.dot_product()
        update = pat.stream_update()
        builder = TraceBuilder()
        # One segment per row i of C, on the thread that owns the row.
        owner = np.repeat(np.arange(threads), partition_counts(n, threads))
        width = np.arange(1, n + 1)  # row i updates C[i][0..i]
        js = pat.ragged_arange(width)
        i_of_j = np.repeat(np.arange(n), width)
        # C[i][j] += sum_l A[i][l] * A[j][l]  for j <= i
        jj = np.repeat(js, k)
        ll = np.tile(np.arange(k, dtype=np.int64), len(js))
        ii = np.repeat(i_of_j, k)
        # Scale and write the C row: C[i][j] = alpha*acc + beta*C[i][j]
        c_row = pat.row_major(c_base, i_of_j, js, n)
        builder.threads(owner, [
            (dot, width * k, {
                "a": pat.row_major(a_base, ii, ll, k),
                "x": pat.row_major(a_base, jj, ll, k),
            }, 0),
            (update, width, {"a": c_row, "a_out": c_row}, 16),
        ])
        return builder.finish()
