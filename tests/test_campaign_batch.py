"""Batched campaign replay + the persistent phase-A memo store.

Covers the bit-identity matrix (batched vs per-point simulation and the
reference-engine runs, across workloads, backends, job counts and
phase-B kernels), the persistent store's corruption /
version-skew tolerance, concurrent-writer safety, the in-process memo
caps, and benchmark-record placement.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from _helpers import reference_result
from repro.config import NMCConfig, default_nmc_config
from repro.core.campaign import CampaignCache, SimulationCampaign
from repro.errors import SimulationError
from repro.nmcsim import (
    NMCSimulator,
    configure_store,
    simulate_batch,
    simulation_memo_bytes,
    store_dir,
)
from repro import store as store_mod
from repro.nmcsim import simulator as simulator_mod
from repro.nmcsim.simulator import store_key
from repro.obs import activate_tracing, metrics, reset_tracing
from repro.store import MemoStore
from repro.workloads import get_workload

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _store_off():
    """Every test starts and ends with no persistent store configured."""
    configure_store(None)
    yield
    configure_store(None)


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
    def test_campaign_batched_matches_per_point(
        self, kernel_form, jobs, tmp_path
    ):
        workload = get_workload("atax")
        configure_store(tmp_path / "store")
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


# ------------------------------------------------------- persistent store

def store_count(name):
    """The process's ``sim.memo.store.<name>`` count so far."""
    return metrics().count(f"sim.memo.store.{name}")


class TestMemoStore:
    def _run_with_store(self, path, *, scale=6.0, wname="atax"):
        configure_store(path)
        trace = small_trace(wname, scale=scale)
        result = NMCSimulator(engine="fast").run(
            trace, workload=wname, parameters={}
        )
        return trace, result

    def test_warm_hit_returns_identical_result(self, tmp_path):
        m = metrics()
        _, cold = self._run_with_store(tmp_path)
        assert m.count("sim.memo.store.writes") >= 1
        hits_before = m.count("sim.memo.store.hits")
        # A fresh trace object has cold in-process memos: the product
        # must come from the store, not be recomputed.
        misses_before = m.count("sim.memo.events.misses")
        _, warm = self._run_with_store(tmp_path)
        assert canonical(warm) == canonical(cold)
        assert m.count("sim.memo.store.hits") == hits_before + 1
        assert m.count("sim.memo.events.misses") == misses_before + 1

    def test_disabled_without_configuration(self):
        assert store_dir() is None

    def test_corrupt_entry_warns_and_rebuilds(self, tmp_path):
        self._run_with_store(tmp_path)
        (entry,) = list(tmp_path.rglob("*.bin"))
        blob = entry.read_bytes()
        entry.write_bytes(blob[: len(blob) // 2])
        errors_before = store_count("errors")
        with pytest.warns(RuntimeWarning, match="corrupt|unreadable"):
            _, rebuilt = self._run_with_store(tmp_path)
        assert store_count("errors") == errors_before + 1
        # The entry was recomputed and rewritten: next lookup hits.
        hits_before = store_count("hits")
        _, again = self._run_with_store(tmp_path)
        assert store_count("hits") == hits_before + 1
        assert canonical(again) == canonical(rebuilt)

    @pytest.mark.parametrize(
        "damage",
        ["lens-short", "lens-not-covering", "negative-length", "short-meta",
         "floats-missing", "bank-2**40", "vault-negative", "off-repeated"],
    )
    def test_bad_layout_entry_warns_and_rebuilds(self, tmp_path, damage):
        """An entry that reads back cleanly but cannot be a phase-A
        product is warned about, recomputed and rewritten."""
        self._damage_and_rebuild(tmp_path, damage)

    def test_bad_routing_entry_rebuilds_in_every_kernel_form(
        self, tmp_path, kernel_form
    ):
        """Damaged routing is caught before either phase-B form indexes
        bank state with it (the compiled one would write out of bounds)."""
        self._damage_and_rebuild(tmp_path, "bank-2**40")

    def _damage_and_rebuild(self, tmp_path, damage):
        configure_store(None)
        expected = canonical(NMCSimulator(engine="fast").run(
            small_trace("atax"), workload="atax", parameters={}
        ))
        self._run_with_store(tmp_path)
        (entry,) = list(tmp_path.rglob("*.bin"))
        store = MemoStore(tmp_path)
        data = store.get(entry.stem)
        lens = data["lens"].copy()
        if damage == "lens-short":
            data["lens"] = lens[:-1]
        elif damage == "lens-not-covering":
            data["ints"] = np.append(data["ints"], 0)
        elif damage == "negative-length":
            lens[0] = -1
            data["lens"] = lens
        elif damage == "short-meta":
            lens[simulator_mod._INT_SEGS.index("meta")] -= 1
            data["lens"], data["ints"] = lens, data["ints"][:-1]
        elif damage in ("bank-2**40", "vault-negative", "off-repeated"):
            # A valid layout with values phase B would index out of
            # bounds (or, for a negative index, silently wrap) with.
            segs = simulator_mod._INT_SEGS
            name = damage.split("-")[0]
            at = int(lens[:segs.index(name)].sum())
            ints = data["ints"].copy()
            if name == "off":
                ints[at + 1] = ints[at]
            else:
                ints[at:at + lens[segs.index(name)]] = (
                    2**40 if name == "bank" else -1
                )
            data["ints"] = ints
        else:
            del data["floats"]
        store.put(entry.stem, data)
        errors_before = store_count("errors")
        with pytest.warns(RuntimeWarning, match="not a phase-A product"):
            _, rebuilt = self._run_with_store(tmp_path)
        assert store_count("errors") == errors_before + 1
        assert canonical(rebuilt) == expected
        hits_before = store_count("hits")
        _, again = self._run_with_store(tmp_path)
        assert store_count("hits") == hits_before + 1
        assert store_count("errors") == errors_before + 1
        assert canonical(again) == expected

    def test_version_skew_discarded(self, tmp_path, monkeypatch):
        store = MemoStore(tmp_path)
        payload = {"x": np.arange(4, dtype=np.int64)}
        monkeypatch.setattr(store_mod, "FORMAT_VERSION", 99)
        store.put("aa00", payload)
        monkeypatch.undo()
        with pytest.warns(RuntimeWarning, match="version-skewed|corrupt"):
            assert store.get("aa00") is None

    def test_roundtrip_preserves_arrays(self, tmp_path):
        store = MemoStore(tmp_path)
        payload = {
            "ints": np.arange(17, dtype=np.int64),
            "floats": np.linspace(0.0, 1.0, 9),
        }
        store.put("bb11", payload)
        got = store.get("bb11")
        assert set(got) == {"ints", "floats"}
        assert np.array_equal(got["ints"], payload["ints"])
        assert np.array_equal(got["floats"], payload["floats"])

    def test_missing_entry_is_a_miss(self, tmp_path):
        store = MemoStore(tmp_path)
        misses = store_count("misses")
        assert store.get("cc22") is None
        assert store_count("misses") == misses + 1

    def test_stray_tmp_files_do_not_break_reads(self, tmp_path):
        store = MemoStore(tmp_path)
        payload = {"a": np.ones(3)}
        store.put("dd33", payload)
        # A crashed concurrent writer leaves a torn .tmp sibling behind;
        # readers must keep seeing the committed entry.
        entry = tmp_path / "dd" / "dd33.bin"
        (entry.parent / "dd33.bin.tmp9999").write_bytes(b"torn")
        got = store.get("dd33")
        assert got is not None and np.array_equal(got["a"], payload["a"])

    def test_concurrent_writers_last_wins(self, tmp_path):
        a, b = MemoStore(tmp_path), MemoStore(tmp_path)
        a.put("ee44", {"v": np.asarray([1], dtype=np.int64)})
        b.put("ee44", {"v": np.asarray([2], dtype=np.int64)})
        assert int(a.get("ee44")["v"][0]) == 2

    def test_key_covers_trace_and_slice(self):
        t1 = small_trace("atax", scale=8.0)
        t2 = small_trace("atax", scale=6.0)
        assert t1.content_hash() != t2.content_hash()
        assert store_key(t1, ("a",)) == store_key(t1, ("a",))
        assert store_key(t1, ("a",)) != store_key(t1, ("b",))
        assert store_key(t1, ("a",)) != store_key(t2, ("a",))

    def test_shared_store_across_pool_workers(self, tmp_path):
        """jobs=2 campaign against one store dir: consistent
        results, no write errors (concurrent-writer safety end to end)."""
        workload = get_workload("atax")
        baseline = SimulationCampaign(scale=8.0).run(workload)
        # The baseline warmed the in-process memos on the shared trace
        # objects; drop them so the batched run must go through the
        # store (fresh-process semantics).
        from repro.core import campaign as campaign_mod

        for trace in campaign_mod._TRACE_MEMO.values():
            for key in [
                k for k in trace._memo
                if isinstance(k, str)
                and (k.startswith("sim.") or k == "content_hash")
            ]:
                del trace._memo[key]
        before = metrics().snapshot()
        configure_store(tmp_path)
        shared = SimulationCampaign(scale=8.0, jobs=2).run(workload)
        assert [canonical(r.result) for r in shared.rows] == [
            canonical(r.result) for r in baseline.rows
        ]
        counters = metrics().diff(before)["counters"]
        assert "sim.memo.store.errors" not in counters
        assert (
            counters.get("sim.memo.store.writes", 0)
            + counters.get("sim.memo.store.hits", 0)
            > 0
        )


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
