"""L1 classification of every PE stream of a design point (phase A).

A PE's L1 outcome — hit or miss, the dirty victim a miss evicts, the
number of dirty lines left for the end-of-kernel flush — depends on the
order of its own accesses alone, never on timing.  The fast engine
therefore classifies every PE stream up front and leaves only the
(typically small) miss and writeback event set for the exact
global-time contention loop (phase B, :mod:`repro.nmcsim.simulator`).

:func:`classify_streams` walks all of a point's streams, concatenated,
through one private W-way, write-back, write-allocate LRU L1 each, in
one call of the ``classify_streams`` kernel of :mod:`repro.native`.
Its two forms give identical results:

* the C function of the shared kernel library, a per-set recency array
  walk that follows :meth:`Cache.access <repro.nmcsim.cache.Cache.access>`
  step for step (Python's floor-modulo set index, LRU victim in slot 0);
* :func:`classify_steps`, the Python form — one
  :class:`~repro.nmcsim.cache.Cache` walk per stream.  It is both the
  oracle the C form is tested against and the fallback on hosts without
  a C compiler.
"""

from __future__ import annotations

import ctypes
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from .. import native
from ..errors import ConfigError
from .cache import Cache, CacheStats


@dataclass(frozen=True)
class LRUClassification:
    """Per-access outcome arrays of a batch of PE streams.

    The streams are the segments ``off[i]:off[i + 1]`` of the
    concatenated access arrays the classifier was given.  ``hit[k]``
    tells whether access ``k`` hits; ``wb_line[k]`` is the line of the
    dirty victim access ``k`` evicts (-1 when it hits, misses without
    eviction, or evicts a clean line).  ``stats`` (int64, one row per
    stream) holds stream ``i``'s step-wise :class:`Cache` counters
    *after* its end-of-kernel :meth:`~repro.nmcsim.cache.Cache.flush`,
    in :class:`CacheStats` field order (hits, misses, writebacks,
    flushes), so ``stats[i, 3]`` counts its dirty residents at kernel
    end, each flushed back once.
    """

    hit: np.ndarray
    wb_line: np.ndarray
    stats: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.hit.nbytes + self.wb_line.nbytes + self.stats.nbytes

    def total(self) -> CacheStats:
        """The counters of every stream, summed."""
        return CacheStats(*self.stats.sum(axis=0).tolist())


def _check_geometry(n_sets: int, ways: int) -> None:
    if n_sets < 1 or ways < 1:
        raise ConfigError("cache geometry needs >= 1 set and >= 1 way")


def classify_streams(
    lines: np.ndarray,
    writes: np.ndarray,
    off: np.ndarray,
    *,
    n_sets: int,
    ways: int,
) -> LRUClassification:
    """Classify every stream of a point against its own fresh L1.

    ``lines`` (int64 line ids) and ``writes`` (bool) hold the streams'
    accesses concatenated; ``off`` (int64, ``n_streams + 1`` entries)
    bounds each stream.  A geometry with fewer than one set or way
    raises :class:`~repro.errors.ConfigError`.

    Index contract, which the compiled form does not check: ``writes``
    is as long as ``lines``, and ``off`` rises (not strictly) from 0 to
    ``len(lines)``.  Zero streams (``off == [0]``) and empty or
    one-access streams are valid.  Any int64 line id is valid: its set
    is the floor modulo ``line % n_sets``, in ``[0, n_sets)`` for
    negative lines too, and indexes ``n_sets * ways`` slots of scratch.
    """
    return native.resolve("classify_streams")[0](
        np.ascontiguousarray(lines, dtype=np.int64),
        np.ascontiguousarray(writes, dtype=bool),
        np.ascontiguousarray(off, dtype=np.int64),
        n_sets=n_sets,
        ways=ways,
    )


def classify_steps(
    lines: np.ndarray,
    writes: np.ndarray,
    off: np.ndarray,
    *,
    n_sets: int,
    ways: int,
) -> LRUClassification:
    """Python form of :func:`classify_streams`: one :class:`Cache` walk
    per stream."""
    _check_geometry(n_sets, ways)
    hit = np.empty(len(lines), dtype=bool)
    wb_line = np.empty(len(lines), dtype=np.int64)
    stats = np.empty((len(off) - 1, 4), dtype=np.int64)
    for i, (lo, hi) in enumerate(zip(off[:-1].tolist(), off[1:].tolist())):
        cache = Cache(n_lines=n_sets * ways, ways=ways)
        hit[lo:hi], wb_line[lo:hi] = cache.classify(
            lines[lo:hi], writes[lo:hi]
        )
        cache.flush()
        stats[i] = astuple(cache.stats)
    return LRUClassification(hit, wb_line, stats)


def _classify_streams_cc(lib: native.Library) -> Callable:
    fn = lib.classify_streams
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 3 + [
        ctypes.c_void_p
    ] * 6

    def kernel(lines, writes, off, *, n_sets, ways):
        _check_geometry(n_sets, ways)
        n, n_streams = len(lines), len(off) - 1
        hit = np.empty(n, dtype=bool)
        wb_line = np.empty(n, dtype=np.int64)
        stats = np.empty((n_streams, 4), dtype=np.int64)
        set_line = np.empty(n_sets * ways, dtype=np.int64)
        set_dirty = np.empty(n_sets * ways, dtype=np.uint8)
        set_len = np.empty(n_sets, dtype=np.int64)
        fn(
            lines.ctypes.data, writes.ctypes.data, off.ctypes.data,
            n_streams, n_sets, ways,
            hit.ctypes.data, wb_line.ctypes.data, stats.ctypes.data,
            set_line.ctypes.data, set_dirty.ctypes.data, set_len.ctypes.data,
        )
        return LRUClassification(hit, wb_line, stats)

    return kernel


native.register("classify_streams", classify_steps, _classify_streams_cc)
