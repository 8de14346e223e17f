"""``gram`` — Gram-Schmidt orthonormalisation (PolyBench).

Modified Gram-Schmidt over the columns of an ``ni x nj`` matrix: for each
column ``k`` the kernel normalises the column, then projects it out of all
later columns.  Every column operation strides by the full row length
(column-major walks of a row-major matrix) and columns are revisited many
times with large reuse distances — memory-intensive, irregular-stride
behaviour that the paper classifies as a good NMC fit (Section 3.4).

Note on Table 2: the paper prints the dimension levels as
``64 384 128 320 512`` (not monotone); we use the sorted levels
``(64, 128, 320, 384, 512)``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir import InstructionTrace, TraceBuilder
from . import _patterns as pat
from .base import AddressSpace, DoEParameter, SizeMapping, Workload, partition_counts

#: Byte spacing of scaled matrix elements (one 64 B line per element).
ELEM = 64


class GramSchmidt(Workload):
    name = "gram"
    description = "Gram-Schmidt Process"

    _DIM_I = SizeMapping(alpha=1.5, beta=0.45, minimum=8)
    _DIM_J = SizeMapping(alpha=4.0, beta=0.3, minimum=6)
    _THREADS = SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False)

    @property
    def parameters(self) -> tuple[DoEParameter, ...]:
        return (
            DoEParameter("dimension_i", (64, 128, 320, 384, 512), 2000, self._DIM_I),
            DoEParameter("dimension_j", (64, 128, 320, 384, 512), 2000, self._DIM_J),
            DoEParameter("threads", (4, 8, 16, 32, 64), 32, self._THREADS),
        )

    def _generate(
        self,
        sizes: Mapping[str, int],
        raw: Mapping[str, float],
        rng: np.random.Generator,
    ) -> InstructionTrace:
        ni = sizes["dimension_i"]   # rows (vector length)
        nj = sizes["dimension_j"]   # columns (number of vectors)
        threads = sizes["threads"]
        # Line-blocked element layout, as in cholesky: each scaled element
        # stands for a 64 B block of the full-size matrix.
        space = AddressSpace()
        a_base = space.alloc(ni * nj * ELEM)
        space.alloc(nj * nj * 8)  # R factor region

        dot = pat.dot_product()
        divide = pat.scalar_divide()
        update = pat.scaled_update()
        builder = TraceBuilder()
        tids = np.arange(threads)
        rows = np.arange(ni, dtype=np.int64)
        for k in range(nj):
            col_k = a_base + (rows * nj + k) * ELEM
            # Project column k out of all later columns, column-parallel:
            # A[i][j] -= r[k][j] * A[i][k]; r[k][j] stays in a register
            # across the i loop.
            later = np.arange(k + 1, nj, dtype=np.int64)
            j, i = pat.tile_ij(later, ni)
            col_j = pat.row_major(a_base, i, j, nj, elem=ELEM)
            idle = np.zeros_like(tids)
            builder.threads(np.r_[k % threads, tids], [
                # Norm of column k (column-major stride-nj walk), then its
                # normalisation, on thread k % threads alone.
                (dot, np.r_[ni, idle], {"a": col_k, "x": col_k}, 0),
                (divide, np.r_[ni, idle], {"x": col_k, "x_out": col_k}, 16),
                (update, np.r_[0, partition_counts(len(later), threads) * ni], {
                    "b": a_base + (i * nj + k) * ELEM,
                    "a": col_j,
                    "a_out": col_j,
                }, 32),
            ])
        return builder.finish()
