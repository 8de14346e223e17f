"""Tests for the synthetic microbenchmarks (repro.workloads.synthetic).

These double as calibration checks for the simulators: STREAM must be
bandwidth-friendly, GUPS latency-bound, and pointer chasing strictly
serial — the canonical memory-system corner cases.
"""

import pytest

from repro import HostSimulator, analyze_trace, default_nmc_config
from repro.ir import validate_trace
from repro.nmcsim import NMCSimulator
from repro.workloads.synthetic import Gups, Stream, SYNTHETIC_WORKLOADS


@pytest.fixture(scope="module")
def traces():
    out = {}
    for cls in SYNTHETIC_WORKLOADS:
        w = cls()
        out[w.name] = w.generate(w.central_config(), scale=2.0)
    return out


class TestGeneration:
    @pytest.mark.parametrize("cls", SYNTHETIC_WORKLOADS)
    def test_valid_traces(self, cls, traces):
        trace = traces[cls().name]
        assert len(trace) > 0
        validate_trace(trace)

    def test_stream_is_sequential(self, traces):
        profile = analyze_trace(traces["stream"])
        assert profile["stride.regular_read"] > 0.95
        assert profile["stride.frac_le_1"] > 0.95

    def test_gups_is_random(self, traces):
        profile = analyze_trace(traces["gups"])
        assert profile["stride.frac_le_256"] < 0.1
        # One in three GUPS accesses (the gather) is a far miss; the
        # read-modify-write pair hits the just-fetched line.
        assert profile["traffic.bytes_1048576"] > 0.25

    def test_chase_is_dependent(self, traces):
        profile = analyze_trace(traces["chase"])
        # The dependent-load chain serialises the whole kernel.
        assert profile["ilp.total"] < 2.5


class TestSimulatorCalibration:
    def test_stream_cheaper_per_miss(self, traces):
        """Sequential misses ride the open row: cheaper than random ones.

        (With the Table 3 two-line L1, STREAM's three streams thrash the
        cache completely — every access misses — so the row-buffer hit is
        the only locality the NMC system can exploit for it.)"""
        r_stream = NMCSimulator().run(traces["stream"])
        r_gups = NMCSimulator().run(traces["gups"])
        assert r_stream.cache.miss_ratio > 0.95  # the 2-line L1 is useless
        t_stream = r_stream.time_s / r_stream.cache.misses
        t_gups = r_gups.time_s / r_gups.cache.misses
        assert t_stream < t_gups

    def test_chase_latency_bound(self, traces):
        """Pointer chasing pays ~full DRAM latency per hop."""
        result = NMCSimulator().run(traces["chase"])
        cfg = default_nmc_config()
        # Hops are serial *within* a thread; threads run in parallel.
        hops_per_thread = result.cache.misses / result.n_pes_used
        per_hop_ns = result.time_s * 1e9 / hops_per_thread
        assert per_hop_ns > cfg.timing.closed_row_access_ns() * 0.8

    def test_mshrs_do_not_help_chase(self, traces):
        """Dependent loads cannot overlap... but our trace-driven OoO model
        has no data-dependence stalls, so this documents the model limit:
        OoO *does* help here, unlike real hardware."""
        base = default_nmc_config()
        ooo = base.replace(pe_type="ooo", issue_width=1, mshr_entries=8)
        t_in = NMCSimulator(base).run(traces["chase"]).time_s
        t_ooo = NMCSimulator(ooo).run(traces["chase"]).time_s
        assert t_ooo <= t_in  # known optimism of the MSHR model

    def test_gups_scales_with_threads(self):
        gups = Gups()
        cfg = dict(gups.central_config())
        cfg["threads"] = 1
        t1 = NMCSimulator().run(gups.generate(cfg, scale=2.0)).time_s
        cfg["threads"] = 16
        t16 = NMCSimulator().run(gups.generate(cfg, scale=2.0)).time_s
        assert t16 < t1 / 4

    def test_host_prefers_stream_over_gups(self, traces):
        host = HostSimulator()
        p_stream = analyze_trace(traces["stream"])
        p_gups = analyze_trace(traces["gups"])
        stream_per_instr = (
            host.evaluate(p_stream).time_s / p_stream.instruction_count
        )
        gups_per_instr = (
            host.evaluate(p_gups).time_s / p_gups.instruction_count
        )
        assert gups_per_instr > 2 * stream_per_instr


class TestPipelineCompatibility:
    def test_campaign_and_prediction_work(self):
        from repro import NapelTrainer, SimulationCampaign

        stream = Stream()
        campaign = SimulationCampaign(scale=4.0)
        training = campaign.run(stream)
        assert len(training) == 11  # 2 parameters -> CCD of 11
        trained = NapelTrainer(n_estimators=10, tune=False).train(training)
        row = campaign.run_point(stream, stream.test_config())
        pred = trained.model.predict(row.profile, campaign.arch)
        assert pred.ipc > 0
