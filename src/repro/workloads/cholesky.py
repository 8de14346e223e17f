"""``chol`` — Cholesky decomposition (PolyBench).

Left-looking Cholesky ``A = L L^T``: for every column ``k`` the kernel
divides the sub-column by the pivot, then applies a rank-1 update to the
trailing submatrix.  The trailing update repeatedly sweeps a shrinking but
large triangular region, and the column accesses stride by the full row
length — poor spatial locality over a working set that outgrows the host
caches quickly.  The paper finds cholesky memory-intensive with irregular
access and a good NMC fit (Section 3.4).

Note on Table 2: the paper prints chol's dimension levels as
``64 384 128 320 512``, which is not monotone in the min..max order; we use
the sorted levels ``(64, 128, 320, 384, 512)``.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir import InstructionTrace, TraceBuilder
from . import _patterns as pat
from .base import AddressSpace, DoEParameter, SizeMapping, Workload, partition_counts

#: Byte spacing of scaled matrix elements (one 64 B line per element).
ELEM = 64


class Cholesky(Workload):
    name = "chol"
    description = "Cholesky Decomposition"

    _DIM = SizeMapping(alpha=4.2, beta=1 / 3, minimum=12)
    _THREADS = SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False)
    _ITER = SizeMapping(alpha=0.04, beta=1.0, minimum=1, maximum=2)

    @property
    def parameters(self) -> tuple[DoEParameter, ...]:
        return (
            DoEParameter("dimensions", (64, 128, 320, 384, 512), 2000, self._DIM),
            DoEParameter("threads", (4, 8, 16, 32, 64), 32, self._THREADS),
            DoEParameter("iterations", (10, 20, 30, 50, 80), 60, self._ITER),
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
        # Each scaled matrix element stands for a cache-line-sized block of
        # the full-size matrix, so elements are laid out one line (64 B)
        # apart: the trailing-update working set measured in cache lines
        # matches the full-scale kernel's (see DESIGN.md, trace scaling).
        space = AddressSpace()
        a_base = space.alloc(n * n * ELEM)

        divide = pat.scalar_divide()
        update = pat.rank1_update()
        builder = TraceBuilder()
        for _rep in range(repeats):
            for k in range(n - 1):
                below = np.arange(k + 1, n, dtype=np.int64)
                # Column scaling: A[i][k] /= A[k][k] — stride-n column walk,
                # on thread k % threads alone.
                col_k = a_base + (below * n + k) * ELEM
                # Trailing rank-1 update of the lower triangle, row-parallel
                # (one segment per row): A[i][j] -= A[i][k] * A[j][k]  for
                # k < j <= i < n; row i updates columns k+1 .. i.
                owner = np.repeat(
                    np.arange(threads), partition_counts(len(below), threads)
                )
                i = np.repeat(below, below - k)
                j = k + 1 + pat.ragged_arange(below - k)
                a_ij = pat.row_major(a_base, i, j, n, elem=ELEM)
                builder.threads(np.r_[k % threads, owner], [
                    (divide, np.r_[len(below), np.zeros_like(below)],
                     {"x": col_k, "x_out": col_k}, 0),
                    (update, np.r_[0, below - k], {
                        "l": a_base + (i * n + k) * ELEM,
                        "u": a_base + (j * n + k) * ELEM,
                        "a": a_ij,
                        "a_out": a_ij,
                    }, 16),
                ])
        return builder.finish()
