"""``trmm`` — triangular matrix multiply (PolyBench).

Computes ``B = alpha * A B`` with ``A`` lower-triangular.  The inner loop
streams a row of ``B`` (unit stride) while the triangular row of ``A``
stays hot in cache — another high-locality dense kernel the paper finds
unsuitable for NMC (Section 3.4, observation three).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir import InstructionTrace, TraceBuilder
from . import _patterns as pat
from .base import AddressSpace, DoEParameter, SizeMapping, Workload, partition_counts


class Trmm(Workload):
    name = "trmm"
    description = "Triangular Matrix Multiply"

    _DIM_I = SizeMapping(alpha=3.5, beta=1 / 3, minimum=8)
    _DIM_J = SizeMapping(alpha=3.0, beta=1 / 3, minimum=6)
    _THREADS = SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False)

    @property
    def parameters(self) -> tuple[DoEParameter, ...]:
        return (
            DoEParameter("dimension_i", (196, 256, 320, 420, 512), 2000, self._DIM_I),
            DoEParameter("dimension_j", (196, 256, 320, 420, 512), 2000, self._DIM_J),
            DoEParameter("threads", (4, 8, 16, 32, 64), 32, self._THREADS),
        )

    def _generate(
        self,
        sizes: Mapping[str, int],
        raw: Mapping[str, float],
        rng: np.random.Generator,
    ) -> InstructionTrace:
        ni = sizes["dimension_i"]   # A is ni x ni (triangular), B is ni x nj
        nj = sizes["dimension_j"]
        threads = min(sizes["threads"], ni)
        space = AddressSpace()
        a_base = space.alloc(ni * ni * 8)
        b_base = space.alloc(ni * nj * 8)

        rank1 = pat.rank1_update()
        builder = TraceBuilder()
        # One segment per row i of B, on the thread that owns the row:
        # B[i][j] += A[i][k] * B[k][j]  for k < i, all j (row stream).
        owner = np.repeat(np.arange(threads), partition_counts(ni, threads))
        rows = np.arange(ni)
        ks = pat.ragged_arange(rows)
        kk = np.repeat(ks, nj)
        jj = np.tile(np.arange(nj, dtype=np.int64), len(ks))
        ii = np.repeat(np.repeat(rows, rows), nj)
        b_row = pat.row_major(b_base, ii, jj, nj)
        builder.threads(owner, [
            (rank1, rows * nj, {
                "l": pat.row_major(a_base, ii, kk, ni),
                "u": pat.row_major(b_base, kk, jj, nj),
                "a": b_row,
                "a_out": b_row,
            }, 0),
        ])
        return builder.finish()
