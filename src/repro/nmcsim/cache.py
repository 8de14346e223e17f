"""Set-associative write-back L1 cache model for the NMC PEs.

The paper's NMC PE cache is tiny — 2-way, two 64 B lines total (one set) —
but the model is a general set-associative LRU cache so the architecture
sweep examples can size it up (Section 3.4 suggests atax-like workloads
would benefit from a larger NMC cache).

Policy: write-back, write-allocate, LRU replacement.

Role in the engines: the *reference* simulation engine steps this model
per access, and the fast engine's phase-A classifier
(:mod:`repro.nmcsim.classify`) has it as its Python form:
:func:`~repro.nmcsim.classify.classify_steps` walks one instance per PE
stream.  That walk is the oracle the compiled classifier is tested
against and the fallback on hosts without a C compiler; the C walk
follows :meth:`Cache.access` step for step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import NMCConfig
from ..errors import ConfigError


@dataclass
class CacheStats:
    """Hit/miss/writeback counters of one cache instance.

    ``writebacks`` counts every dirty line written back to DRAM — both
    evictions during execution and the end-of-kernel flush of still-dirty
    resident lines (see :meth:`Cache.flush`).  ``flushes`` is the flush
    subset, kept separately so the eviction-only count stays recoverable.
    """

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.writebacks += other.writebacks
        self.flushes += other.flushes

    def counter_values(self) -> dict:
        """Counter-track sample of these stats (hardware-timeline tracing)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
        }


class Cache:
    """LRU set-associative cache operating on line addresses.

    ``access(line, is_write)`` returns ``(hit, writeback_line)`` where
    ``writeback_line`` is the line address of an evicted dirty victim (or
    ``None``).  The caller is responsible for timing; the cache only tracks
    contents and statistics.
    """

    def __init__(self, n_lines: int, ways: int) -> None:
        if n_lines < 1 or ways < 1:
            raise ConfigError("cache needs >= 1 line and >= 1 way")
        if n_lines % ways:
            raise ConfigError("n_lines must be a multiple of ways")
        self.ways = ways
        self.n_sets = n_lines // ways
        # Per set: list of [tag, dirty] in LRU order (index 0 = LRU).
        self._sets: list[list[list]] = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    @classmethod
    def l1_for(cls, config: NMCConfig) -> "Cache":
        """The per-PE L1 described by an :class:`~repro.config.NMCConfig`."""
        return cls(n_lines=config.l1_lines, ways=config.l1_ways)

    def access(self, line: int, is_write: bool) -> tuple[bool, int | None]:
        """Look up one line; returns (hit, evicted_dirty_line_or_None)."""
        set_idx = line % self.n_sets
        tag = line // self.n_sets
        entries = self._sets[set_idx]
        for pos, entry in enumerate(entries):
            if entry[0] == tag:
                entries.pop(pos)
                entries.append(entry)
                if is_write:
                    entry[1] = True
                self.stats.hits += 1
                return True, None
        # Miss: allocate (write-allocate policy); evict LRU if full.
        self.stats.misses += 1
        writeback: int | None = None
        if len(entries) >= self.ways:
            victim = entries.pop(0)
            if victim[1]:
                self.stats.writebacks += 1
                writeback = victim[0] * self.n_sets + set_idx
        entries.append([tag, is_write])
        return False, writeback

    def classify(
        self, lines: np.ndarray, writes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step-wise classification of a whole access stream into arrays.

        Walks :meth:`access` over ``lines``/``writes`` and returns
        ``(hit, wb_line)``: a boolean hit mask and the dirty victim line
        evicted by each access (-1 when none).  The cache state and
        statistics advance exactly as if :meth:`access` had been called
        per element — this is the array API the Python form of the
        phase-A classifier builds on.
        """
        n = len(lines)
        hit = np.empty(n, dtype=bool)
        wb_line = np.full(n, -1, dtype=np.int64)
        access = self.access
        for k, (line, is_write) in enumerate(
            zip(lines.tolist(), writes.tolist())
        ):
            h, wb = access(line, is_write)
            hit[k] = h
            if wb is not None:
                wb_line[k] = wb
        return hit, wb_line

    def flush(self) -> int:
        """Write back all resident dirty lines (end-of-kernel flush).

        Marks the lines clean and counts each once in
        ``stats.writebacks`` (and ``stats.flushes``); returns how many
        lines were flushed so the caller can add the matching DRAM write
        traffic.  Idempotent: a second flush finds nothing dirty.
        """
        flushed = 0
        for entries in self._sets:
            for entry in entries:
                if entry[1]:
                    entry[1] = False
                    flushed += 1
        self.stats.writebacks += flushed
        self.stats.flushes += flushed
        return flushed
