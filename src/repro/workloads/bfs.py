"""``bfs`` — breadth-first search (Rodinia).

Frontier-based BFS over a random graph: for every frontier node the kernel
loads the node record, then *gathers* each neighbour's visited flag and cost
through an index array — data-dependent, effectively random accesses over a
multi-megabyte footprint.  This is the canonical NMC-friendly pattern: the
host's caches and prefetchers are useless, every edge visit is an off-chip
round trip (paper Section 3.4, observation four).

DoE parameters (paper Table 2): graph nodes, edge weights (average degree),
threads and kernel iterations.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir import InstructionTrace, TraceBuilder
from . import _patterns as pat
from .base import AddressSpace, DoEParameter, SizeMapping, Workload, partition_counts


class Bfs(Workload):
    name = "bfs"
    description = "Breadth-first Search"

    _NODES = SizeMapping(alpha=1.0, beta=0.5, minimum=64)
    _DEGREE = SizeMapping(alpha=1.0, beta=0.4, minimum=1, maximum=12)
    _THREADS = SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False)
    _ITER = SizeMapping(alpha=0.05, beta=1.0, minimum=1, maximum=8)

    @property
    def parameters(self) -> tuple[DoEParameter, ...]:
        return (
            DoEParameter(
                "nodes", (400_000, 800_000, 900_000, 1_200_000, 1_400_000),
                1_000_000, self._NODES,
            ),
            DoEParameter("weights", (1, 2, 4, 25, 49), 4, self._DEGREE),
            DoEParameter("threads", (1, 9, 16, 32, 64), 32, self._THREADS),
            DoEParameter("iterations", (30, 40, 65, 70, 80), 95, self._ITER),
        )

    def _generate(
        self,
        sizes: Mapping[str, int],
        raw: Mapping[str, float],
        rng: np.random.Generator,
    ) -> InstructionTrace:
        n_nodes = sizes["nodes"]
        degree = sizes["weights"]
        threads = min(sizes["threads"], n_nodes)
        repeats = sizes["iterations"]
        # The graph keeps its *virtual* (paper-scale) size: we visit a
        # sampled frontier of n_nodes nodes, but node ids — and therefore
        # all addresses — span the full v-node graph, so the reuse and
        # stride signature is that of a multi-megabyte irregular workload.
        v = max(n_nodes, int(raw["nodes"]))
        space = AddressSpace()
        nodes_base = space.alloc(v * 16)   # (edge offset, count) records
        edges_base = space.alloc(v * degree * 4)
        cost_base = space.alloc(v * 8)
        visited_base = space.alloc(v * 4)
        del nodes_base  # node records are implied by the edge-array walk

        gather = pat.gather_reduce()
        scatter = pat.atomic_update()
        builder = TraceBuilder()
        tids = np.arange(threads)
        counts = partition_counts(n_nodes, threads) * degree
        for _rep in range(repeats):
            # Node visit order is a BFS wavefront over the virtual graph:
            # a random sample of node ids from the full id space.
            order = rng.integers(0, v, size=n_nodes).astype(np.int64)
            # Expand each frontier node's `degree` neighbours.
            src = np.repeat(order, degree)
            neighbors = rng.integers(0, v, size=len(src)).astype(np.int64)
            # Edge-array walk (sequential within a node's edge list).
            edges = edges_base + 4 * (
                src * degree + np.tile(np.arange(degree, dtype=np.int64), n_nodes)
            )
            builder.threads(tids, [
                (gather, counts, {
                    "idx": edges,
                    "data": pat.vector_addr(visited_base, neighbors, elem=4),
                }, 0),
                # Update cost of newly discovered nodes (random scatter).
                (scatter, counts, {
                    "idx": edges,
                    "data": pat.vector_addr(cost_base, neighbors),
                }, 16),
            ])
        return builder.finish()
