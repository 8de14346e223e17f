"""Tests for report formatting and the config module."""


import pytest

from repro.backends import LinkParams
from repro.config import (
    DRAMTiming,
    HostConfig,
    NMCConfig,
    NMCEnergyParams,
    arch_feature_names,
    default_host_config,
    default_nmc_config,
)
from repro.core.reporting import format_bar_series, format_table
from repro.errors import ConfigError


class TestFormatTable:
    def test_alignment_and_content(self):
        out = format_table(
            ["app", "ipc"], [["atax", 1.5], ["bfs", 0.7]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "app" in lines[1] and "ipc" in lines[1]
        assert "atax" in lines[3]
        # Header separator has the same width as the header line.
        assert len(lines[2]) == len(lines[1])

    def test_wide_cells_expand_columns(self):
        out = format_table(["x"], [["averyverylongvalue"]])
        assert "averyverylongvalue" in out


class TestFormatBarSeries:
    def test_bars_scale(self):
        out = format_bar_series("speedup", {"a": 10.0, "b": 5.0}, unit="x")
        lines = out.splitlines()
        assert lines[0] == "speedup"
        bar_a = lines[1].count("#")
        bar_b = lines[2].count("#")
        assert bar_a == 2 * bar_b

    def test_empty(self):
        assert "(empty)" in format_bar_series("x", {})


class TestNMCConfig:
    def test_table3_defaults(self):
        cfg = default_nmc_config()
        assert cfg.n_pes == 32
        assert cfg.frequency_ghz == 1.25
        assert cfg.l1_bytes == 128          # 2 lines x 64 B
        assert cfg.n_vaults == 32
        assert cfg.n_layers == 8
        assert cfg.row_buffer_bytes == 256
        assert cfg.dram_bytes == 4 << 30
        assert cfg.closed_row

    def test_replace_validates(self):
        cfg = default_nmc_config()
        with pytest.raises(ConfigError):
            cfg.replace(n_pes=0)

    def test_feature_vector_alignment(self):
        cfg = default_nmc_config()
        vec = cfg.feature_vector()
        assert len(vec) == len(arch_feature_names())
        assert len(vec) > len(NMCConfig.ARCH_FEATURE_NAMES)
        assert vec[0] == 32.0  # n_pes first

    def test_invalid_geometries(self):
        with pytest.raises(ConfigError):
            NMCConfig(l1_lines=3, l1_ways=2).validate()
        with pytest.raises(ConfigError):
            NMCConfig(line_bytes=96).validate()
        with pytest.raises(ConfigError):
            NMCConfig(frequency_ghz=-1).validate()

    def test_cycle_time(self):
        assert default_nmc_config().cycle_ns == pytest.approx(0.8)

    def test_link_bandwidth(self):
        cfg = default_nmc_config()
        assert cfg.link_gbytes_per_s == pytest.approx(30.0)


class TestDRAMTiming:
    def test_closed_row_access(self):
        t = DRAMTiming()
        assert t.closed_row_access_ns() == pytest.approx(
            t.t_rcd_ns + t.t_cl_ns + t.t_bl_ns
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            DRAMTiming(t_rcd_ns=0).validate()
        DRAMTiming(row_linger_ns=0.0).validate()  # zero linger is legal
        with pytest.raises(ConfigError):
            DRAMTiming(row_linger_ns=-1.0).validate()


class TestHostConfig:
    def test_table3_defaults(self):
        cfg = default_host_config()
        assert cfg.n_cores == 16
        assert cfg.smt == 4
        assert cfg.frequency_ghz == 2.3
        assert cfg.l3_bytes == 10 << 20
        assert cfg.hardware_threads == 64

    def test_cache_ordering_enforced(self):
        with pytest.raises(ConfigError):
            HostConfig(l1_bytes=1 << 20, l2_bytes=1 << 18).validate()

    def test_replace(self):
        cfg = default_host_config().replace(n_cores=8)
        assert cfg.n_cores == 8
        with pytest.raises(ConfigError):
            default_host_config().replace(cache_scale=0.5)


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: default_nmc_config().replace(frequency_ghz=v),
        lambda v: default_nmc_config().replace(link_gbps=v),
        lambda v: default_nmc_config().replace(timing=DRAMTiming(t_rcd_ns=v)),
        lambda v: NMCConfig(timing=DRAMTiming(row_linger_ns=v)).validate(),
        lambda v: NMCConfig(energy=NMCEnergyParams(link_pj_per_bit=v)).validate(),
        lambda v: default_host_config().replace(frequency_ghz=v),
        lambda v: default_host_config().replace(dram_latency_ns=v),
        lambda v: default_host_config().replace(cache_scale=v),
        lambda v: LinkParams(gbps=v).validate(),
        lambda v: LinkParams(setup_latency_s=v).validate(),
    ],
    ids=[
        "nmc-frequency", "nmc-link-gbps", "dram-t-rcd", "dram-row-linger",
        "nmc-energy", "host-frequency", "host-dram-latency",
        "host-cache-scale", "link-gbps", "link-setup",
    ],
)
def test_non_finite_config_values_rejected(build, value):
    with pytest.raises(ConfigError):
        build(value)
