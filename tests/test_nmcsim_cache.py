"""Tests for the PE L1 cache model (repro.nmcsim.cache)."""

import pytest

from repro.config import default_nmc_config
from repro.errors import ConfigError
from repro.nmcsim import Cache
from repro.nmcsim.cache import CacheStats


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        cache = Cache(n_lines=2, ways=2)
        hit, wb = cache.access(5, is_write=False)
        assert not hit and wb is None
        hit, _ = cache.access(5, is_write=False)
        assert hit

    def test_lru_eviction_order(self):
        cache = Cache(n_lines=2, ways=2)  # one set, two ways
        cache.access(1, False)
        cache.access(2, False)
        cache.access(1, False)        # 1 becomes MRU
        cache.access(3, False)        # evicts 2 (LRU)
        hit, _ = cache.access(1, False)
        assert hit
        hit, _ = cache.access(2, False)
        assert not hit

    def test_dirty_eviction_produces_writeback(self):
        cache = Cache(n_lines=1, ways=1)
        cache.access(7, is_write=True)
        hit, wb = cache.access(8, is_write=False)
        assert not hit
        assert wb == 7

    def test_clean_eviction_no_writeback(self):
        cache = Cache(n_lines=1, ways=1)
        cache.access(7, is_write=False)
        _, wb = cache.access(8, is_write=False)
        assert wb is None

    def test_write_hit_marks_dirty(self):
        cache = Cache(n_lines=1, ways=1)
        cache.access(7, is_write=False)
        cache.access(7, is_write=True)   # hit, now dirty
        _, wb = cache.access(8, is_write=False)
        assert wb == 7

    def test_set_indexing(self):
        cache = Cache(n_lines=4, ways=1)  # 4 direct-mapped sets
        for line in range(4):
            cache.access(line, False)
        # All four lines coexist (distinct sets).
        for line in range(4):
            hit, _ = cache.access(line, False)
            assert hit

    def test_conflict_within_set(self):
        cache = Cache(n_lines=4, ways=1)
        cache.access(0, False)
        cache.access(4, False)  # maps to the same set, evicts 0
        hit, _ = cache.access(0, False)
        assert not hit

    def test_stats(self):
        cache = Cache(n_lines=2, ways=2)
        cache.access(1, False)
        cache.access(1, False)
        cache.access(2, True)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.accesses == 3
        assert cache.stats.miss_ratio == pytest.approx(2 / 3)

    def test_flush_dirty_count(self):
        cache = Cache(n_lines=4, ways=2)
        cache.access(0, True)
        cache.access(1, True)
        cache.access(2, False)
        assert cache.flush() == 2

    def test_l1_for_config(self):
        cache = Cache.l1_for(default_nmc_config())
        assert cache.ways == 2
        assert cache.n_sets == 1

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            Cache(n_lines=0, ways=1)
        with pytest.raises(ConfigError):
            Cache(n_lines=3, ways=2)

    def test_thrash_with_three_streams(self):
        """Three interleaved streams cannot live in a 2-line cache."""
        cache = Cache(n_lines=2, ways=2)
        for i in range(50):
            cache.access(100 + i, False)
            cache.access(200 + i, False)
            cache.access(300 + i, False)
        assert cache.stats.miss_ratio > 0.9


class TestCacheFlush:
    def test_flush_counts_each_dirty_line_once(self):
        cache = Cache(n_lines=4, ways=2)
        cache.access(0, True)
        cache.access(1, True)
        cache.access(2, False)
        assert cache.flush() == 2
        assert cache.stats.writebacks == 2
        assert cache.stats.flushes == 2
        assert cache.flush() == 0

    def test_flush_is_idempotent(self):
        cache = Cache(n_lines=2, ways=2)
        cache.access(0, True)
        assert cache.flush() == 1
        assert cache.flush() == 0
        assert cache.stats.writebacks == 1
        assert cache.stats.flushes == 1

    def test_store_sweep_writebacks_total_every_line(self):
        """N distinct stored lines come back to DRAM exactly N times:
        evictions while the sweep runs plus the end-of-kernel flush."""
        cache = Cache(n_lines=2, ways=2)  # one set, two ways
        n = 10
        for line in range(n):
            cache.access(line, True)
        assert cache.stats.writebacks == n - 2  # evictions so far
        assert cache.flush() == 2               # two lines still resident
        assert cache.stats.writebacks == n
        assert cache.stats.flushes == 2

    def test_rewrite_after_flush_dirties_again(self):
        cache = Cache(n_lines=2, ways=2)
        cache.access(0, True)
        cache.flush()
        cache.access(0, True)  # hit on the now-clean line, re-dirties it
        assert cache.flush() == 1
        assert cache.stats.flushes == 2

    def test_stats_merge_includes_flushes(self):
        a = CacheStats(hits=1, misses=2, writebacks=3, flushes=1)
        b = CacheStats(writebacks=2, flushes=2)
        a.merge(b)
        assert a.writebacks == 5
        assert a.flushes == 3
