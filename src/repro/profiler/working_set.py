"""Working-set growth features.

The trace is split into :data:`~repro.profiler.features.WORKING_SET_CHECKPOINTS`
equal segments; after each segment we record the fraction of the kernel's
final data footprint (distinct cache lines) that has already been touched.
Streaming kernels grow their working set linearly; kernels with a small hot
set saturate early.  This curve is a compact signature of temporal phase
behaviour that complements the reuse-distance CDF.
"""

from __future__ import annotations

from ..ir import InstructionTrace, TraceColumns, columns_of
from .features import WORKING_SET_CHECKPOINTS


def working_set_features(trace: InstructionTrace | TraceColumns) -> dict[str, float]:
    cols = columns_of(trace)
    names = [f"wset.frac_{i}" for i in range(WORKING_SET_CHECKPOINTS)]
    n = len(cols.accesses[0])
    if n == 0:
        return dict.fromkeys(names, 0.0)
    # First-touch positions of each distinct line (at least one).
    first_idx = cols.lines[1]
    out: dict[str, float] = {}
    for i in range(WORKING_SET_CHECKPOINTS):
        cutoff = (i + 1) * n // WORKING_SET_CHECKPOINTS
        out[names[i]] = int((first_idx < cutoff).sum()) / len(first_idx)
    return out
