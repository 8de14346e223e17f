"""``lu`` — LU decomposition (PolyBench).

Right-looking LU without pivoting: for each pivot ``k``, scale the
sub-column, then rank-1-update the trailing submatrix.  Unlike our
Cholesky (which walks columns), this implementation processes the trailing
update *row-major with blocking*, the way PolyBench's loop nest streams —
consecutive ``j`` accesses are unit-stride and the pivot row stays
cache-resident.  The paper finds lu locality-friendly and therefore not
NMC-suitable (Section 3.4, observation three); the contrast with chol is
the access order, not the arithmetic.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir import InstructionTrace, TraceBuilder
from . import _patterns as pat
from .base import AddressSpace, DoEParameter, SizeMapping, Workload, partition_counts


class Lu(Workload):
    name = "lu"
    description = "LU Decomposition"

    _DIM = SizeMapping(alpha=3.5, beta=1 / 3, minimum=12)
    _THREADS = SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False)
    _ITER = SizeMapping(alpha=0.004, beta=1.0, minimum=1, maximum=2)

    @property
    def parameters(self) -> tuple[DoEParameter, ...]:
        return (
            DoEParameter("dimensions", (196, 256, 320, 420, 512), 2000, self._DIM),
            DoEParameter("threads", (4, 8, 16, 32, 64), 32, self._THREADS),
            DoEParameter("iterations", (98, 128, 256, 420, 512), 2000, self._ITER),
        )

    def _generate(
        self,
        sizes: Mapping[str, int],
        raw: Mapping[str, float],
        rng: np.random.Generator,
    ) -> InstructionTrace:
        n = sizes["dimensions"]
        threads = sizes["threads"]
        repeats = sizes["iterations"]
        space = AddressSpace()
        a_base = space.alloc(n * n * 8)

        divide = pat.scalar_divide()
        update = pat.rank1_update()
        builder = TraceBuilder()
        tids = np.arange(threads)
        for _rep in range(repeats):
            for k in range(n - 1):
                below = np.arange(k + 1, n, dtype=np.int64)
                m = len(below)
                # Row-major pivot-row scaling A[k][j] /= A[k][k]: unit
                # stride, on thread k % threads alone.
                row_k = a_base + (k * n + below) * 8
                # Trailing update, row-parallel, inner loop over j (unit
                # stride): A[i][j] -= A[i][k] * A[k][j].
                i, j = pat.tile_ij(below, m)
                j = below[j]
                a_ij = pat.row_major(a_base, i, j, n)
                builder.threads(np.r_[k % threads, tids], [
                    (divide, np.r_[m, np.zeros_like(tids)], {"x": row_k, "x_out": row_k}, 0),
                    (update, np.r_[0, partition_counts(m, threads) * m], {
                        "l": a_base + (i * n + k) * 8,
                        "u": a_base + (k * n + j) * 8,
                        "a": a_ij,
                        "a_out": a_ij,
                    }, 16),
                ])
        return builder.finish()
