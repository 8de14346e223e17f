"""Tests for the off-chip link model."""

import pytest

from repro import default_nmc_config
from repro.errors import ConfigError
from repro.nmcsim import LinkModel, offload_adjusted_edp
from repro.nmcsim.interconnect import PACKET_OVERHEAD, SETUP_LATENCY_S


class TestLinkModel:
    def test_effective_bandwidth(self):
        link = LinkModel(default_nmc_config())
        raw = default_nmc_config().link_gbytes_per_s * 1e9
        assert link.effective_bw == pytest.approx(raw * (1 - PACKET_OVERHEAD))

    def test_transfer_time_scales_linearly(self):
        link = LinkModel(default_nmc_config())
        t1 = link.transfer_time_s(1 << 20)
        t2 = link.transfer_time_s(2 << 20)
        assert t2 == pytest.approx(2 * t1)

    def test_negative_bytes_rejected(self):
        link = LinkModel(default_nmc_config())
        with pytest.raises(ConfigError):
            link.transfer_time_s(-1)

    def test_offload_cost_components(self):
        link = LinkModel(default_nmc_config())
        cost = link.offload_cost(upload_bytes=1 << 20, download_bytes=1 << 10)
        assert cost.total_s == pytest.approx(
            cost.upload_s + cost.download_s + SETUP_LATENCY_S
        )
        assert cost.upload_s > cost.download_s
        e = default_nmc_config().energy
        expected = ((1 << 20) + (1 << 10)) * 8 * e.link_pj_per_bit * 1e-12
        assert cost.energy_j == pytest.approx(expected)

    def test_offload_adjusted_edp_exceeds_kernel_edp(self):
        link = LinkModel(default_nmc_config())
        cost = link.offload_cost(1 << 20, 1 << 16)
        kernel_edp = 1e-4 * 1e-3
        adjusted = offload_adjusted_edp(1e-4, 1e-3, cost)
        assert adjusted > kernel_edp

    def test_small_kernel_dominated_by_offload(self):
        """Offload overheads can flip tiny kernels: the amortisation point
        the paper's 'once trained, the DoE simulation time is amortised'
        argument mirrors for data movement."""
        link = LinkModel(default_nmc_config())
        cost = link.offload_cost(64 << 20, 64 << 20)  # 128 MiB round trip
        tiny_kernel = offload_adjusted_edp(1e-6, 1e-6, cost)
        assert tiny_kernel > 100 * (1e-6 * 1e-6)
