"""``kme`` — k-means clustering (Rodinia).

Each iteration assigns every point to its nearest centroid (distance
computation over the feature dimensions) and accumulates the new centroid
sums.  Points are visited in a shuffled order over a multi-megabyte data
set (no temporal reuse of points within an iteration), and the centroid
updates are scattered read-modify-writes — memory-intensive with irregular
access, one of the paper's good NMC fits (Section 3.4).

Note on Table 2: the paper prints kme's thread levels as ``1 9 1 32 64``;
we use ``(1, 9, 16, 32, 64)`` (the same ladder as bfs, with the central
level restored to 16).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir import InstructionTrace, TraceBuilder
from . import _patterns as pat
from .base import AddressSpace, DoEParameter, SizeMapping, Workload, partition_counts

#: Feature dimensionality of each point (Rodinia kdd_cup uses 34; scaled).
FEATURES = 2


class KMeans(Workload):
    name = "kme"
    description = "K-Means Clustering"

    _POINTS = SizeMapping(alpha=1.2, beta=0.5, minimum=64)
    _CLUSTERS = SizeMapping(alpha=1.0, beta=1.0, minimum=1)
    _THREADS = SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False)
    _ITER = SizeMapping(alpha=0.05, beta=1.0, minimum=1, maximum=3)

    @property
    def parameters(self) -> tuple[DoEParameter, ...]:
        return (
            DoEParameter(
                "data_size", (100_000, 300_000, 700_000, 900_000, 1_200_000),
                819_000, self._POINTS,
            ),
            DoEParameter("clusters", (3, 5, 6, 7, 8), 5, self._CLUSTERS),
            DoEParameter("threads", (1, 9, 16, 32, 64), 32, self._THREADS),
            DoEParameter("iterations", (10, 20, 30, 40, 50), 30, self._ITER),
        )

    def _generate(
        self,
        sizes: Mapping[str, int],
        raw: Mapping[str, float],
        rng: np.random.Generator,
    ) -> InstructionTrace:
        n_points = sizes["data_size"]
        k = sizes["clusters"]
        threads = min(sizes["threads"], n_points)
        iters = sizes["iterations"]
        # The data set keeps its *virtual* (paper-scale) cardinality: each
        # iteration visits a random sample of n_points point ids out of the
        # full v-point space, so point accesses behave like the real
        # multi-megabyte scan (no reuse, no prefetchable stride) while the
        # centroid arrays stay small and hot.
        v = max(n_points, int(raw["data_size"]))
        space = AddressSpace()
        points_base = space.alloc(v * FEATURES * 8)
        centroids_base = space.alloc(k * FEATURES * 8)
        membership_base = space.alloc(v * 4)
        sums_base = space.alloc(k * FEATURES * 8)

        dist = pat.distance_accumulate()
        scatter = pat.atomic_update()
        builder = TraceBuilder()
        tids = np.arange(threads)
        counts = partition_counts(n_points, threads)
        # Distance to every centroid over every feature.
        c = np.tile(np.arange(k * FEATURES, dtype=np.int64), n_points)
        for _it in range(iters):
            order = rng.integers(0, v, size=n_points).astype(np.int64)
            p = np.repeat(order, k * FEATURES)
            nearest = rng.integers(0, k, size=n_points)
            builder.threads(tids, [
                (dist, counts * k * FEATURES, {
                    "p": points_base + (p * FEATURES + c % FEATURES) * 8,
                    "c": centroids_base + c * 8,
                }, 0),
                # Assignment write + scatter-accumulate into centroid sums.
                (scatter, counts, {
                    "idx": pat.vector_addr(membership_base, order, elem=4),
                    "data": sums_base + nearest * FEATURES * 8,
                }, 16),
            ])
        return builder.finish()
