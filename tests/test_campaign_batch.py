"""Batched campaign replay.

Covers the bit-identity matrix (batched vs per-point simulation and the
reference-engine runs, across workloads, backends, job counts and
kernel forms), the in-process memo caps, and benchmark-record
placement.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from _helpers import reference_result
from repro.config import NMCConfig, default_nmc_config
from repro.core.campaign import CampaignCache, SimulationCampaign
from repro.errors import SimulationError
from repro.nmcsim import NMCSimulator, simulate_batch, simulation_memo_bytes
from repro.nmcsim import simulator as simulator_mod
from repro.obs import activate_tracing, metrics, reset_tracing
from repro.workloads import get_workload

REPO_ROOT = Path(__file__).resolve().parent.parent


def small_trace(name: str, *, scale: float = 6.0, seed: int = 3):
    workload = get_workload(name)
    return workload.generate(workload.test_config(), scale=scale, seed=seed)


def canonical(result) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


def arch_variants() -> list[NMCConfig]:
    base = default_nmc_config()
    return [
        base,
        base.replace(n_vaults=16, l1_lines=64, l1_ways=4),
        NMCConfig.from_backend("hbm2"),
        NMCConfig.from_backend("ddr4-channel").replace(pe_type="ooo"),
    ]


# ----------------------------------------------------- bit-identity matrix

class TestBatchedBitIdentity:
    def test_simulate_batch_matches_per_point(self, kernel_form):
        points = []
        for wname in ("atax", "bfs", "mvt"):
            trace = small_trace(wname)
            for cfg in arch_variants():
                points.append((trace, cfg, wname, {}))
        expected = [
            canonical(
                NMCSimulator(cfg, engine="fast").run(
                    trace, workload=w, parameters=dict(p)
                )
            )
            for trace, cfg, w, p in points
        ]
        got = simulate_batch(points)
        assert [canonical(r) for r in got] == expected

    def test_reference_engine_falls_back_per_point(self, tmp_path):
        # The hardware timeline needs one event per access: a traced
        # batch runs the reference engine point by point.
        trace = small_trace("atax", scale=8.0)
        points = [(trace, None, "atax", {})]
        fast = NMCSimulator(engine="fast").run(
            trace, workload="atax", parameters={}
        )
        calls = metrics().count("sim.batch.calls")
        try:
            activate_tracing(tmp_path / "hw.json", hw=True)
            (ref,) = simulate_batch(points)
        finally:
            reset_tracing()
        assert metrics().count("sim.batch.calls") == calls
        assert canonical(ref) == canonical(fast)

    def test_empty_trace_rejected(self):
        trace = small_trace("atax", scale=8.0)
        empty = trace.__class__.from_instructions([])
        with pytest.raises(SimulationError):
            simulate_batch([(empty, None, "atax", {})])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_campaign_batched_matches_per_point(self, kernel_form, jobs):
        workload = get_workload("atax")
        batched = SimulationCampaign(scale=8.0, jobs=jobs).run(workload)
        for row in batched.rows:
            expected = reference_result(workload, row, scale=8.0)
            assert canonical(row.result) == canonical(expected)

    def test_campaign_batched_reuses_cache(self, tmp_path):
        workload = get_workload("atax")
        cache = CampaignCache()
        campaign = SimulationCampaign(cache=cache, scale=8.0)
        first = campaign.run(workload)
        before = dict(campaign.doe_run_seconds)
        again = campaign.run(workload)
        assert [canonical(r.result) for r in again.rows] == [
            canonical(r.result) for r in first.rows
        ]
        # Fully cached re-run simulates nothing and books no DoE time.
        assert campaign.doe_run_seconds == before


class TestBatchToggle:
    def test_batch_summary_counts(self):
        trace = small_trace("atax", scale=8.0)
        before = metrics().snapshot()
        simulate_batch([(trace, None, "atax", {})] * 3)
        counters = metrics().diff(before)["counters"]
        assert counters["sim.batch.calls"] == 1
        assert counters["sim.batch.points"] == 3


# ----------------------------------------------------------- memo bounds

class TestMemoBounds:
    def test_memo_cap_env_bounds_side_tables(self, monkeypatch):
        for kind in ("streams", "classify", "events"):
            monkeypatch.setitem(simulator_mod._MEMO_CAPS, kind, 1)
        trace = small_trace("atax", scale=8.0)
        for cfg in arch_variants()[:3]:
            NMCSimulator(cfg, engine="fast").run(
                trace, workload="atax", parameters={}
            )
        for kind in ("streams", "classify", "events"):
            memo = trace._memo.get(f"sim.{kind}")
            assert memo is not None and len(memo) == 1, kind

    def test_memo_bytes_reported(self):
        trace = small_trace("atax", scale=8.0)
        NMCSimulator(engine="fast").run(
            trace, workload="atax", parameters={}
        )
        sizes = simulation_memo_bytes()
        assert set(sizes) == {"streams", "classify", "events"}
        assert sizes["events"] > 0


# ------------------------------------------------- bench record placement

class TestBenchRecordPlacement:
    def _bench_utils(self):
        sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
        try:
            import _bench_utils
        finally:
            sys.path.pop(0)
        return _bench_utils

    def test_emit_record_honors_bench_dir(self, tmp_path, monkeypatch):
        utils = self._bench_utils()
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        path = utils.emit_record("placement_probe", {"x": 1.0}, units="s")
        assert path == tmp_path / "BENCH_placement_probe.json"
        assert path.exists()
        record = json.loads(path.read_text())
        assert record["bench"] == "placement_probe"

    def test_emit_record_default_location(self, monkeypatch):
        utils = self._bench_utils()
        monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
        assert utils.results_dir() == utils.DEFAULT_RESULTS_DIR
        assert utils.DEFAULT_RESULTS_DIR == (
            REPO_ROOT / "benchmarks" / "results"
        )
