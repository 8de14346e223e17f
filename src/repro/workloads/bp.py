"""``bp`` — back-propagation neural-network training (Rodinia).

One training pass over a two-layer perceptron with a very wide input layer:
the forward pass reads the input->hidden weight matrix *column-major*
(stride = hidden-layer width), the backward pass updates the same weights in
place.  The weight matrix footprint (layer size x hidden units) far exceeds
any cache, and the column-strided walk wastes most of every fetched line —
the paper finds bp memory-intensive and NMC-suitable (Section 3.4).

DoE parameters (paper Table 2): input layer size, RNG seed, threads,
iterations.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir import InstructionTrace, TraceBuilder
from . import _patterns as pat
from .base import AddressSpace, DoEParameter, SizeMapping, Workload, partition_counts

#: Hidden-layer width of the Rodinia bp network (fixed at 16 in the suite;
#: scaled to 4 here to keep traces tractable).
HIDDEN = 4

#: Byte spacing of scaled weight elements (one 64 B line per element).
ELEM = 64


class Bp(Workload):
    name = "bp"
    description = "Back-propagation"

    _LAYER = SizeMapping(alpha=0.7, beta=0.5, minimum=64)
    _SEED = SizeMapping(alpha=1.0, beta=1.0, minimum=1)
    _THREADS = SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False)
    _ITER = SizeMapping(alpha=0.2, beta=1.0, minimum=1, maximum=3)

    @property
    def parameters(self) -> tuple[DoEParameter, ...]:
        return (
            DoEParameter(
                "layer_size", (800_000, 1_000_000, 2_000_000, 3_500_000, 4_000_000),
                1_100_000, self._LAYER,
            ),
            DoEParameter("seed", (2, 4, 5, 10, 12), 5, self._SEED),
            DoEParameter("threads", (4, 8, 16, 32, 64), 32, self._THREADS),
            DoEParameter("iterations", (1, 3, 9, 16, 25), 9, self._ITER),
        )

    def _generate(
        self,
        sizes: Mapping[str, int],
        raw: Mapping[str, float],
        rng: np.random.Generator,
    ) -> InstructionTrace:
        layer = sizes["layer_size"]
        threads = min(sizes["threads"], layer)
        iters = sizes["iterations"]
        seed_offset = sizes["seed"]  # shifts which units are sampled
        # The network keeps its *virtual* (paper-scale) width: the kernel
        # touches a strided sample of `layer` input units out of the full
        # v-unit layer, so the weight-matrix walk spans the full
        # multi-megabyte footprint with page-scale strides.
        v = max(layer, int(raw["layer_size"]))
        stride = max(1, v // layer)
        # Weight elements are laid out one cache line apart: each scaled
        # (unit, hidden) weight stands for a line-sized block of the full
        # network's weight matrix (same blocking as cholesky, see DESIGN.md).
        space = AddressSpace()
        input_base = space.alloc(v * 8)
        weights_base = space.alloc(v * HIDDEN * ELEM)
        space.alloc(HIDDEN * 8)  # hidden-activation region

        dot = pat.dot_product()
        update = pat.scaled_update()
        builder = TraceBuilder()
        units = partition_counts(layer, threads)
        counts = units * HIDDEN
        # Each thread walks its units once per hidden neuron (h outer,
        # unit inner): its q-th step visits h = q // units, unit
        # first + q % units.
        q = pat.ragged_arange(counts)
        per = np.repeat(units, counts)
        h = q // per
        i = np.repeat(np.cumsum(units) - units, counts) + q % per
        i = np.minimum(i * stride + (seed_offset % HIDDEN), v - 1)
        weights = pat.row_major(weights_base, i, h, HIDDEN, elem=ELEM)
        x = pat.vector_addr(input_base, i)
        phase = [
            # Forward: hidden[h] += w[i][h] * in[i]; the weight matrix is
            # walked column-major (h outer, i inner) => stride HIDDEN*8.
            (dot, counts, {"a": weights, "x": x}, 0),
            # Backward: w[i][h] += delta[h] * in[i]; same column walk,
            # now a read-modify-write of the huge weight matrix.
            (update, counts, {"b": x, "a": weights, "a_out": weights}, 16),
        ]
        for _it in range(iters):
            builder.threads(np.arange(threads), phase)
        return builder.finish()
