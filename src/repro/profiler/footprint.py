"""Memory-footprint features (paper Table 1, "Memory footprint").

Total distinct memory touched by the kernel, at byte / cache-line / page
granularity, plus total read/write volume and the static-code footprint.
Footprints are reported in log2(1 + bytes) to keep the feature scale
comparable across datasets spanning orders of magnitude.
"""

from __future__ import annotations

import math

import numpy as np

from ..ir import InstructionTrace, TraceColumns, columns_of
from .features import GROUP_SLICES, LINE_BYTES, PAGE_BYTES, block_view


_SLICE = GROUP_SLICES["footprint"]


def _log_bytes(value: float) -> float:
    return math.log2(1.0 + value)


def write_footprint(out: np.ndarray, cols: TraceColumns) -> None:
    """Write the footprint block into ``out``."""
    m = len(cols.accesses[0])
    if m == 0:
        out[_SLICE] = 0.0
        return
    lines = cols.lines[0]
    # Pages from the sorted distinct lines: count where the page changes.
    pages = lines >> np.uint64(PAGE_BYTES.bit_length() - LINE_BYTES.bit_length())
    n_pages = 1 + int(np.count_nonzero(pages[1:] != pages[:-1]))
    # Distinct bytes approximated from distinct lines weighted by the mean
    # access size (exact byte tracking would cost O(footprint) memory).
    read_bytes, write_bytes = cols.tallies.read_bytes, cols.tallies.write_bytes
    mean_size = (read_bytes + write_bytes) / m
    data_bytes = len(lines) * min(float(LINE_BYTES), max(1.0, mean_size) * 2)
    # Static code footprint: one IR statement is ~4 bytes of "code".
    instr_bytes = 4.0 * cols.pcs[1]
    out[_SLICE] = [_log_bytes(v) for v in (
        data_bytes, len(lines), n_pages, instr_bytes, read_bytes, write_bytes,
    )]


def footprint_features(trace: InstructionTrace | TraceColumns) -> dict[str, float]:
    return block_view(_SLICE, write_footprint, columns_of(trace))
