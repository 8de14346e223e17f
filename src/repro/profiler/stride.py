"""Spatial-locality / stride features.

For every memory instruction we compute the byte stride with respect to the
previous dynamic access *of the same static instruction* (same PC) — the
classic per-PC stride stream a hardware stride prefetcher observes.  The
feature family captures how regular (prefetchable) the access pattern is,
which is the key differentiator between host-friendly streaming kernels and
NMC-friendly irregular kernels (paper Section 3.4).
"""

from __future__ import annotations

import ctypes
from typing import Callable

import numpy as np

from .. import native
from ..ir import InstructionTrace, TraceColumns, columns_of
from .features import GROUP_SLICES, STRIDE_BUCKETS, block_view

#: Element size used to express stride buckets (8-byte doubles).
ELEMENT_BYTES = 8


#: The |stride| bound of each STRIDE_BUCKETS entry, in bytes.
_BOUNDS = np.array([s * ELEMENT_BYTES for s in STRIDE_BUCKETS], dtype=np.int64)


_SLICE = GROUP_SLICES["stride"]


def write_stride(out: np.ndarray, cols: TraceColumns) -> None:
    """Write the stride block into ``out``: the |stride| bucket
    fractions, the read and write regularity, and the dominant |stride|'s
    share and the entropy over the distinct |strides|."""
    ids, n_pcs = cols.pcs
    addrs, _sizes, is_write = cols.accesses
    le, regular, abs_strides = native.resolve("pc_strides")[0](
        ids, cols.memory_mask, addrs, is_write, n_pcs
    )
    block = out[_SLICE]
    n_valid = len(abs_strides)
    pred_read, read, pred_write, write = regular.tolist()
    block[len(le)] = pred_read / read if read else 0.0
    block[len(le) + 1] = pred_write / write if write else 0.0
    if n_valid:
        block[:len(le)] = le / n_valid
        # Counts of the distinct |strides| in ascending int64 order.
        counts = np.unique(abs_strides, return_counts=True)[1]
        probs = counts / n_valid
        block[-2] = counts.max() / n_valid
        block[-1] = -(probs * np.log2(probs)).sum()
    else:
        block[:len(le)] = 0.0
        block[-2:] = 0.0


def stride_features(trace: InstructionTrace | TraceColumns) -> dict[str, float]:
    return block_view(_SLICE, write_stride, columns_of(trace))


def _pc_strides_py(
    ids: np.ndarray,
    mask: np.ndarray,
    addrs: np.ndarray,
    is_write: np.ndarray,
    n_pcs: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Python form of the ``pc_strides`` kernel (the oracle).

    Over the memory ops (``mask``) of a trace with dense pc ``ids`` below
    ``n_pcs`` and their ``addrs``/``is_write``: ``(le, regular,
    abs_strides)`` — the count of valid |strides| within each
    :data:`_BOUNDS` entry, the read accesses whose stride repeats their
    pc's previous one, the read accesses with a stride, the same two
    for writes, and every valid |stride| in time order (``int64``;
    numpy's ``abs(INT64_MIN)`` stays negative).
    """
    addrs = addrs.astype(np.int64)
    # The narrowest dtype for the ids: numpy radix-sorts 8- and 16-bit keys.
    pcs = ids[mask].astype(np.min_scalar_type(n_pcs))
    n = len(addrs)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return np.zeros(len(_BOUNDS), dtype=np.int64), np.zeros(4, np.int64), empty

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
    # The valid |strides| in time order.
    in_time = np.empty(n, dtype=bool)
    in_time[order] = valid
    time_strides = np.empty(n, dtype=np.int64)
    time_strides[order] = strides
    abs_strides = np.abs(time_strides[in_time])
    le = np.array([(abs_strides <= b).sum() for b in _BOUNDS], dtype=np.int64)

    # Predictability: stride equals the previous stride of the same PC.
    predictable = np.zeros(n, dtype=bool)
    both = valid.copy()
    both[1:] &= valid[:-1]
    predictable[1:][both[1:]] = (
        strides[1:][both[1:]] == strides[:-1][both[1:]]
    )
    writes = is_write[order]
    reads = ~writes
    regular = np.array([
        np.count_nonzero(predictable & reads), np.count_nonzero(valid & reads),
        np.count_nonzero(predictable & writes), np.count_nonzero(valid & writes),
    ], dtype=np.int64)
    return le, regular, abs_strides


def _pc_strides_cc(lib: native.Library) -> Callable:
    """The library's ``pc_strides`` with the Python form's signature.

    Index contract, which the C form does not check: ``ids`` and ``mask``
    cover the trace's instructions, every id is in ``[0, n_pcs)``, and
    ``addrs`` and ``is_write`` hold one entry per set ``mask`` entry.
    """
    fn = lib.pc_strides
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        [ctypes.c_void_p] * 2 + [ctypes.c_int64] + [ctypes.c_void_p] * 2
        + [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
        + [ctypes.c_void_p] * 5
    )

    def kernel(ids, mask, addrs, is_write, n_pcs):
        le = np.empty(len(_BOUNDS), dtype=np.int64)
        regular = np.empty(4, dtype=np.int64)
        abs_strides = np.empty(len(addrs), dtype=np.int64)
        last = np.empty(2 * n_pcs, dtype=np.uint64)
        seen = np.empty(n_pcs, dtype=np.uint8)
        cols = [
            np.ascontiguousarray(ids, dtype=np.int64),
            np.ascontiguousarray(mask, dtype=bool),
        ]
        addrs = np.ascontiguousarray(addrs, dtype=np.uint64)
        is_write = np.ascontiguousarray(is_write, dtype=bool)
        n_valid = fn(
            *(c.ctypes.data for c in cols), len(mask), addrs.ctypes.data,
            is_write.ctypes.data, n_pcs, _BOUNDS.ctypes.data, len(_BOUNDS),
            le.ctypes.data, regular.ctypes.data, abs_strides.ctypes.data,
            last.ctypes.data, seen.ctypes.data,
        )
        return le, regular, abs_strides[:n_valid]

    return kernel


native.register("pc_strides", _pc_strides_py, _pc_strides_cc)
