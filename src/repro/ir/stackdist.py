"""LRU stack distances over reference streams.

The *reuse distance* (LRU stack distance) of an access is the number of
distinct elements touched since the previous access to the same element.
It is the canonical hardware-independent description of temporal locality
(Mattson's stack algorithm): a fully-associative LRU cache of capacity
``C`` hits exactly the accesses with reuse distance < ``C``.

This module holds one kernel, ``reuse_distances`` (a move-to-front list
for alphabets up to 512 elements, else the classic Fenwick-tree
formulation, O(M log M) over M accesses), behind the profiler's locality
features and the public :func:`reuse_distances`.  It runs as one call
into the compiled kernel library (:mod:`repro.native`) over dense
element ids and counts each stream's distances by bit length as it goes
(:func:`bit_length_counts`), so the profiler reads histograms, not
per-access arrays; the pure-Python form is the oracle and the fallback
on hosts without a C compiler.  The simulator's L1 classification
(phase A, :mod:`repro.nmcsim.classify`) walks its caches directly and
does not use it.
"""

from __future__ import annotations

import ctypes
from typing import Callable

import numpy as np

from .. import native
from .trace import dense_ids

#: Distance value used for cold (first-touch) accesses.
COLD_DISTANCE = -1

#: Bit-length buckets of a distance histogram: distances stay below
#: 2**63, so their bit lengths below 64.
BIT_LENGTHS = 64

#: Alphabets up to this size take the move-to-front walk.
_MTF_IDS = 512


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
    return native.resolve("reuse_distances")[0](ids, len(uniq), per_access=True)[2]


def bit_length_counts(distances: np.ndarray) -> np.ndarray:
    """``int64`` counts of ``bit_length(d)`` over the reused distances
    ``d >= 0`` (:data:`BIT_LENGTHS` entries: bucket 0 is d = 0, bucket
    ``b`` holds ``2**(b-1) <= d < 2**b``)."""
    seen = distances[distances >= 0]
    # floor(log2(d)) + 1 is bit_length(d); d = 0 reads as 0.5, one below 1.
    idx = np.floor(np.log2(np.maximum(seen, 0.5))).astype(np.int64) + 1
    return np.bincount(idx, minlength=BIT_LENGTHS)


def _reuse_distances_py(
    ids: np.ndarray,
    n_ids: int,
    is_write: np.ndarray | None = None,
    *,
    per_access: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Python form of the ``reuse_distances`` kernel (the oracle).

    Over dense ids below ``n_ids``: ``(hist, cold, distances)``, where
    ``hist[s]`` is stream ``s``'s :func:`bit_length_counts` and
    ``cold[s]`` its first-touch count; stream 0 is every access, or the
    reads and stream 1 the writes when ``is_write`` (bool, one flag per
    access) is given.  ``distances`` is the per-access array when
    ``per_access``, else None.
    """
    dists = _distances_py(ids, n_ids)
    streams = [dists] if is_write is None else [dists[~is_write], dists[is_write]]
    hist = np.array([bit_length_counts(d) for d in streams], dtype=np.int64)
    cold = np.array(
        [np.count_nonzero(d == COLD_DISTANCE) for d in streams], dtype=np.int64
    )
    return hist, cold, dists if per_access else None


def _distances_py(ids: np.ndarray, n_ids: int) -> np.ndarray:
    """Per-access stack distances over dense ids below ``n_ids``."""
    n = len(ids)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out

    # Fast path for small alphabets (instruction PC streams): an exact
    # move-to-front list — the stack distance of an access is simply the
    # key's position in the recency list.  O(n * |alphabet|) with small
    # constants beats the Fenwick tree up to a few hundred distinct keys.
    if n_ids <= _MTF_IDS:
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


def _c_pass(lib: native.Library) -> Callable:
    """The library's ``reuse_distances`` with the Python form's signature.

    Index contract, which the C form does not check: every id is in
    ``[0, n_ids)`` and ``is_write``, when given, has one flag per id.
    The scratch holds ``n_ids`` slots, plus a sentinel slot up to 512
    ids and ``len(ids) + 1`` Fenwick slots past that; every distance is
    below ``len(ids)``, so its bit length is below :data:`BIT_LENGTHS`.
    """
    fn = lib.reuse_distances
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p] + [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 5

    def run(ids, n_ids, is_write=None, *, per_access=False):
        n = len(ids)
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        flags = None if is_write is None else np.ascontiguousarray(is_write, bool)
        n_streams = 1 if flags is None else 2
        scratch = np.empty(n_ids + (n + 1 if n_ids > _MTF_IDS else 1), np.int64)
        out = np.empty(n, dtype=np.int64) if per_access else None
        hist = np.empty((n_streams, BIT_LENGTHS), dtype=np.int64)
        cold = np.empty(n_streams, dtype=np.int64)
        fn(
            ids.ctypes.data, n, n_ids, None if flags is None else flags.ctypes.data,
            scratch.ctypes.data, None if out is None else out.ctypes.data,
            hist.ctypes.data, cold.ctypes.data,
        )
        return hist, cold, out

    return run


native.register("reuse_distances", _reuse_distances_py, _c_pass)
