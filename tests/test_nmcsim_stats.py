"""Tests for the simulation statistics report (repro.nmcsim.stats)."""

import pytest

from repro import NMCSimulator, default_nmc_config
from repro.errors import SimulationError
from repro.nmcsim import derive_stats, format_stats
from _helpers import build_random_trace, build_stream_trace


@pytest.fixture(scope="module")
def stream_result():
    return NMCSimulator().run(build_stream_trace(3000), workload="stream")


@pytest.fixture(scope="module")
def random_result():
    return NMCSimulator().run(build_random_trace(3000), workload="random")


class TestDeriveStats:
    def test_basic_consistency(self, stream_result):
        stats = derive_stats(stream_result)
        assert stats.ipc_per_pe == pytest.approx(
            stream_result.ipc / stream_result.n_pes_used
        )
        assert stats.l1_miss_ratio == stream_result.cache.miss_ratio
        assert stats.average_power_w == pytest.approx(stream_result.power_w)

    def test_bandwidth_positive_and_below_peak(self, stream_result):
        stats = derive_stats(stream_result)
        assert stats.dram_bandwidth_gbs > 0
        assert 0 < stats.bandwidth_utilisation <= 1.0

    def test_energy_shares_sum_to_one(self, random_result):
        stats = derive_stats(random_result)
        assert sum(stats.energy_shares.values()) == pytest.approx(1.0)
        assert set(stats.energy_shares) == {
            "core_dynamic_j", "cache_j", "dram_dynamic_j", "link_j",
            "static_j",
        }

    def test_random_spends_more_on_dram(self, stream_result, random_result):
        s_stream = derive_stats(stream_result)
        s_random = derive_stats(random_result)
        assert (
            s_random.energy_shares["dram_dynamic_j"]
            > s_stream.energy_shares["dram_dynamic_j"]
        )

    def test_mpki(self, random_result):
        stats = derive_stats(random_result)
        expected = 1000 * random_result.cache.misses / random_result.instructions
        assert stats.misses_per_kilo_instruction == pytest.approx(expected)

    def test_zero_time_rejected(self, stream_result):
        import dataclasses

        bad = dataclasses.replace(stream_result, time_s=0.0)
        with pytest.raises(SimulationError):
            derive_stats(bad)


class TestFormatStats:
    def test_report_renders(self, stream_result):
        text = format_stats(stream_result)
        assert "simulation report" in text
        assert "DRAM bandwidth" in text
        assert "energy share: dram_dynamic_j" in text
        assert "stream" in text

    def test_custom_config(self, stream_result):
        cfg = default_nmc_config().replace(n_vaults=16)
        a = derive_stats(stream_result)
        b = derive_stats(stream_result, cfg)
        # Half the vaults -> half the peak bandwidth -> double utilisation.
        assert b.bandwidth_utilisation == pytest.approx(
            2 * a.bandwidth_utilisation
        )
