"""Spatial-locality / stride features.

For every memory instruction we compute the byte stride with respect to the
previous dynamic access *of the same static instruction* (same PC) — the
classic per-PC stride stream a hardware stride prefetcher observes.  The
feature family captures how regular (prefetchable) the access pattern is,
which is the key differentiator between host-friendly streaming kernels and
NMC-friendly irregular kernels (paper Section 3.4).
"""

from __future__ import annotations

import numpy as np

from ..ir import InstructionTrace, TraceColumns, columns_of
from .features import STRIDE_BUCKETS, STRIDE_NAMES

#: Element size used to express stride buckets (8-byte doubles).
ELEMENT_BYTES = 8


def stride_features(trace: InstructionTrace | TraceColumns) -> dict[str, float]:
    cols = columns_of(trace)
    addrs, _sizes, is_write = cols.accesses
    addrs = addrs.astype(np.int64)
    ids, n_pcs = cols.pcs
    # The narrowest dtype for the ids: numpy radix-sorts 8- and 16-bit keys.
    pcs = ids[cols.memory_mask].astype(np.min_scalar_type(n_pcs))
    n = len(addrs)
    if n == 0:
        return dict.fromkeys(STRIDE_NAMES, 0.0)

    # Group accesses by PC (stable order keeps per-PC streams in time order).
    order = np.argsort(pcs, kind="stable")
    sorted_pcs = pcs[order]
    sorted_addrs = addrs[order]
    same_pc = np.empty(n, dtype=bool)
    same_pc[0] = False
    same_pc[1:] = sorted_pcs[1:] == sorted_pcs[:-1]
    strides = np.zeros(n, dtype=np.int64)
    strides[1:] = sorted_addrs[1:] - sorted_addrs[:-1]
    strides[~same_pc] = np.iinfo(np.int64).max  # first access of each PC
    valid = same_pc
    abs_strides = np.abs(strides[valid])

    out: dict[str, float] = {}
    n_valid = int(valid.sum())
    for s in STRIDE_BUCKETS:
        le = (abs_strides <= s * ELEMENT_BYTES).sum()
        out[f"stride.frac_le_{s}"] = float(le / n_valid) if n_valid else 0.0

    # Predictability: stride equals the previous stride of the same PC.
    predictable = np.zeros(n, dtype=bool)
    both = valid.copy()
    both[1:] &= valid[:-1]
    predictable[1:][both[1:]] = (
        strides[1:][both[1:]] == strides[:-1][both[1:]]
    )
    is_write_sorted = is_write[order]
    reads = ~is_write_sorted
    writes = is_write_sorted
    out["stride.regular_read"] = _fraction(predictable & reads, valid & reads)
    out["stride.regular_write"] = _fraction(predictable & writes, valid & writes)

    if n_valid:
        values, counts = np.unique(abs_strides, return_counts=True)
        out["stride.dominant_frac"] = float(counts.max() / n_valid)
        probs = counts / n_valid
        out["stride.entropy"] = float(-(probs * np.log2(probs)).sum())
    else:
        out["stride.dominant_frac"] = 0.0
        out["stride.entropy"] = 0.0
    return out


def _fraction(numer_mask: np.ndarray, denom_mask: np.ndarray) -> float:
    denom = int(denom_mask.sum())
    if denom == 0:
        return 0.0
    return float(numer_mask.sum() / denom)
