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
from .features import FOOTPRINT_NAMES, LINE_BYTES, PAGE_BYTES


def _log_bytes(value: float) -> float:
    return math.log2(1.0 + value)


def footprint_features(trace: InstructionTrace | TraceColumns) -> dict[str, float]:
    cols = columns_of(trace)
    addrs, sizes, is_write = cols.accesses
    if len(addrs) == 0:
        return dict.fromkeys(FOOTPRINT_NAMES, 0.0)
    lines = cols.lines[0]
    # Pages from the sorted distinct lines: count where the page changes.
    pages = lines >> np.uint64(PAGE_BYTES.bit_length() - LINE_BYTES.bit_length())
    n_pages = 1 + int(np.count_nonzero(pages[1:] != pages[:-1]))
    # Distinct bytes approximated from distinct lines weighted by the mean
    # access size (exact byte tracking would cost O(footprint) memory).
    mean_size = float(sizes.mean())
    data_bytes = len(lines) * min(float(LINE_BYTES), max(1.0, mean_size) * 2)
    read_bytes = float(sizes[~is_write].sum())
    write_bytes = float(sizes[is_write].sum())
    # Static code footprint: one IR statement is ~4 bytes of "code".
    instr_bytes = 4.0 * cols.pcs[1]
    return {
        "footprint.data_bytes": _log_bytes(data_bytes),
        "footprint.data_lines": _log_bytes(float(len(lines))),
        "footprint.data_pages": _log_bytes(float(n_pages)),
        "footprint.instr_bytes": _log_bytes(instr_bytes),
        "footprint.read_bytes": _log_bytes(read_bytes),
        "footprint.write_bytes": _log_bytes(write_bytes),
    }
