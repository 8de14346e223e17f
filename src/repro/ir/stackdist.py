"""LRU stack-distance kernels over reference streams.

The *reuse distance* (LRU stack distance) of an access is the number of
distinct elements touched since the previous access to the same element.
It is the canonical hardware-independent description of temporal locality
(Mattson's stack algorithm): a fully-associative LRU cache of capacity
``C`` hits exactly the accesses with reuse distance < ``C``, and a
set-associative LRU cache of ``W`` ways hits exactly the accesses whose
*per-set* reuse distance is < ``W``.

This module holds two kernels: :func:`reuse_distances` (the classic
Fenwick-tree formulation, O(M log M) over M accesses), behind the
profiler's locality features, and :func:`grouped_reuse_distances`, its
per-set generalisation, which the set-associative L1 oracle of the
simulator tests uses to derive hits independently.  Both run as one call into the compiled kernel
library (:mod:`repro.native`) over dense element ids; the pure-Python
forms (a move-to-front list for small alphabets, a Fenwick tree
otherwise, and a loop over groups) are the oracles and the fallback on
hosts without a C compiler.  The simulator's L1 classification (phase
A, :mod:`repro.nmcsim.classify`) walks its caches directly and does not
use them.
"""

from __future__ import annotations

import ctypes
from typing import Callable

import numpy as np

from .. import native
from .trace import dense_ids

#: Distance value used for cold (first-touch) accesses.
COLD_DISTANCE = -1


def reuse_distances(keys: np.ndarray) -> np.ndarray:
    """Per-access LRU stack distances of a reference stream.

    Parameters
    ----------
    keys:
        Integer identifiers of the accessed elements (cache-line ids,
        program counters, ...), in access order.

    Returns
    -------
    ``int64`` array of the same length: number of distinct other elements
    accessed since the previous access to the same element, or
    :data:`COLD_DISTANCE` for first touches.
    """
    uniq, _first, ids = dense_ids(np.asarray(keys))
    return native.resolve("reuse_distances")[0](ids, len(uniq))


def _reuse_distances_py(ids: np.ndarray, n_ids: int) -> np.ndarray:
    """Pure-Python :func:`reuse_distances` over dense ids (the oracle)."""
    n = len(ids)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out

    # Fast path for small alphabets (instruction PC streams): an exact
    # move-to-front list — the stack distance of an access is simply the
    # key's position in the recency list.  O(n * |alphabet|) with small
    # constants beats the Fenwick tree up to a few hundred distinct keys.
    if n_ids <= 512:
        recency: list[int] = []
        index = recency.index
        remove = recency.remove
        insert = recency.insert
        for t, key in enumerate(ids.tolist()):
            try:
                pos = index(key)
            except ValueError:
                out[t] = COLD_DISTANCE
            else:
                out[t] = pos
                remove(key)
            insert(0, key)
        return out

    # Fenwick tree over access-time slots; tree[t] counts elements whose
    # most recent access was at time t.
    tree = [0] * (n + 1)

    def update(pos: int, delta: int) -> None:
        pos += 1
        while pos <= n:
            tree[pos] += delta
            pos += pos & (-pos)

    def prefix(pos: int) -> int:
        # sum of slots [0, pos]
        pos += 1
        s = 0
        while pos > 0:
            s += tree[pos]
            pos -= pos & (-pos)
        return s

    last_seen: dict[int, int] = {}
    for t, key in enumerate(ids.tolist()):
        prev = last_seen.get(key)
        if prev is None:
            out[t] = COLD_DISTANCE
        else:
            # Distinct elements accessed strictly between prev and t.
            out[t] = prefix(t - 1) - prefix(prev)
            update(prev, -1)
        update(t, +1)
        last_seen[key] = t
    return out


def grouped_reuse_distances(
    keys: np.ndarray, groups: np.ndarray
) -> np.ndarray:
    """Stack distances computed independently within each group.

    ``groups[t]`` assigns access ``t`` to a group (e.g. a cache set index);
    the distance of an access only counts distinct elements of the *same
    group* touched since the previous same-element access.  This is the
    per-set stream view of a set-associative cache: a ``W``-way LRU cache
    hits exactly the accesses with grouped distance < ``W``.

    Returns an ``int64`` array aligned with ``keys`` (order preserved).
    """
    keys = np.asarray(keys)
    groups = np.asarray(groups)
    if keys.shape != groups.shape:
        raise ValueError("keys and groups must have the same shape")
    uniq, _first, ids = dense_ids(keys)
    return native.resolve("grouped_reuse_distances")[0](ids, len(uniq), groups)


def _grouped_reuse_distances_py(
    ids: np.ndarray, n_ids: int, groups: np.ndarray
) -> np.ndarray:
    """Pure-Python :func:`grouped_reuse_distances` (the oracle)."""
    out = np.empty(len(ids), dtype=np.int64)
    if len(ids) == 0:
        return out
    if (groups == groups[0]).all():
        out[:] = _reuse_distances_py(ids, n_ids)
        return out
    # Stable sort by group keeps the access order within every group, so
    # each contiguous block is one group's sub-stream.
    order = np.argsort(groups, kind="stable")
    grouped = groups[order]
    starts = np.flatnonzero(
        np.concatenate(([True], grouped[1:] != grouped[:-1]))
    )
    bounds = np.concatenate((starts, [len(ids)]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        out[order[lo:hi]] = _reuse_distances_py(ids[order[lo:hi]], n_ids)
    return out


def _c_pass(lib: native.Library) -> Callable:
    """The library's ``reuse_distances`` as ``run(ids, n_ids, grouped=None)``.

    ``ids`` are dense element ids below ``n_ids``; ``grouped`` (int64,
    sorted so every group is one contiguous block) keeps distances
    inside their block.
    """
    fn = lib.reuse_distances
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] + [ctypes.c_void_p] * 3

    def run(ids: np.ndarray, n_ids: int, grouped=None) -> np.ndarray:
        n = len(ids)
        out = np.empty(n, dtype=np.int64)
        if n == 0:
            return out
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        last = np.full(n_ids, -1, dtype=np.int64)
        tree = np.zeros(n + 1, dtype=np.int64)
        fn(
            ids.ctypes.data, None if grouped is None else grouped.ctypes.data,
            n, last.ctypes.data, tree.ctypes.data, out.ctypes.data,
        )
        return out

    return run


def _grouped_reuse_distances_cc(lib: native.Library) -> Callable:
    run = _c_pass(lib)

    def kernel(ids: np.ndarray, n_ids: int, groups: np.ndarray) -> np.ndarray:
        # One pass over the stream stably sorted by group (each group's
        # sub-stream stays in access order), scattered back by order.
        order = np.argsort(groups, kind="stable")
        grouped = np.ascontiguousarray(groups[order], dtype=np.int64)
        out = np.empty(len(ids), dtype=np.int64)
        out[order] = run(ids[order], n_ids, grouped)
        return out

    return kernel


native.register("reuse_distances", _reuse_distances_py, _c_pass)
native.register(
    "grouped_reuse_distances",
    _grouped_reuse_distances_py,
    _grouped_reuse_distances_cc,
)
