"""Tests for the DoE campaign runner and training-set container."""

import re

import numpy as np
import pytest

from repro import SimulationCampaign, active_schema
from repro.core import CampaignCache
from repro.core.campaign import CACHE_FORMAT_VERSION
from repro.core.dataset import TrainingSet
from repro.errors import CampaignError
from repro.obs import metrics


class TestTrainingSet:
    def test_matrix_shapes(self, small_campaign):
        _, training = small_campaign
        X = training.X()
        assert X.shape == (len(training), len(active_schema()))
        assert np.isfinite(X).all()
        assert len(training.y_ipc()) == len(training)
        assert (training.y_ipc() > 0).all()
        assert (training.y_energy_per_instruction() > 0).all()

    def test_per_pe_label(self, small_campaign):
        _, training = small_campaign
        per_pe = training.y_ipc_per_pe()
        agg = training.y_ipc()
        pes = training.n_pes_used()
        assert np.allclose(per_pe * pes, agg)

    def test_groups_and_filtering(self, small_campaign):
        _, training = small_campaign
        assert set(training.workloads()) == {"atax", "mvt"}
        atax_only = training.filter("atax")
        without = training.exclude("atax")
        assert len(atax_only) + len(without) == len(training)
        assert set(atax_only.groups()) == {"atax"}
        assert "atax" not in set(without.groups())

    def test_empty_matrix_rejected(self):
        with pytest.raises(CampaignError):
            TrainingSet([]).X()

    def test_concat(self, small_campaign):
        _, training = small_campaign
        doubled = TrainingSet.concat([training, training])
        assert len(doubled) == 2 * len(training)

    def test_carries_schema(self, small_campaign):
        _, training = small_campaign
        assert training.schema is active_schema()

    def test_row_features_are_memoized(self, small_campaign):
        _, training = small_campaign
        row = training.rows[0]
        assert row.features is row.features  # cached ndarray, not rebuilt
        with pytest.raises(ValueError):
            row.features[0] = 1.0  # read-only: views share this memory

    def test_views_share_the_root_matrix(self, small_campaign):
        _, training = small_campaign
        X = training.X()
        assert training.X() is X  # root matrix assembled once, cached
        assert not X.flags.writeable
        sub = training.filter("atax")
        assert sub.X() is sub.X()  # subset matrix cached too
        np.testing.assert_array_equal(
            sub.X(), X[[i for i, r in enumerate(training.rows)
                        if r.workload == "atax"]]
        )

    def test_filter_exclude_concat_roundtrip(self, small_campaign):
        _, training = small_campaign
        rejoined = TrainingSet.concat(
            [training.filter("atax"), training.exclude("atax")]
        )
        assert len(rejoined) == len(training)
        assert rejoined.X().shape == training.X().shape


class TestCampaign:
    def test_default_design_is_ccd(self, atax):
        campaign = SimulationCampaign(scale=4.0)
        training = campaign.run(atax)
        assert len(training) == 11  # paper Table 4 for atax

    def test_rows_carry_metadata(self, small_campaign):
        _, training = small_campaign
        row = training.rows[0]
        assert row.workload == "atax"
        assert "dimensions" in row.parameters
        assert row.result.ipc > 0
        assert row.profile.instruction_count == row.result.instructions

    def test_cache_hit_avoids_resimulation(self, atax):
        cache = CampaignCache()
        campaign = SimulationCampaign(cache=cache, scale=4.0)
        config = {"dimensions": 500, "threads": 4}
        campaign.run_point(atax, config)
        first_time = campaign.doe_run_seconds["atax"]
        campaign.run_point(atax, config)
        assert campaign.doe_run_seconds["atax"] == first_time

    def test_cached_rows_identical(self, atax):
        cache = CampaignCache()
        campaign = SimulationCampaign(cache=cache, scale=4.0)
        config = {"dimensions": 500, "threads": 4}
        a = campaign.run_point(atax, config)
        b = campaign.run_point(atax, config)
        assert a.result.ipc == b.result.ipc
        assert np.array_equal(a.profile.values, b.profile.values)

    def test_replicates_get_distinct_seeds(self, atax):
        campaign = SimulationCampaign(scale=4.0)
        configs = [{"dimensions": 1500, "threads": 16}] * 3
        training = campaign.run(atax, configs)
        assert len(training) == 3

    def test_empty_config_list_rejected(self, atax):
        campaign = SimulationCampaign(scale=4.0)
        with pytest.raises(CampaignError):
            campaign.run(atax, [])

    def test_profile_phase_split_timers(self, atax):
        """Each profiled point records one column-table, ILP, reuse and
        other span, nested inside its ``phase.profile`` span."""
        before = metrics().snapshot()
        training = SimulationCampaign(scale=4.0, jobs=1).run(atax)
        timers = metrics().diff(before)["timers"]
        parts = [
            timers[f"phase.profile.{part}"]
            for part in ("columns", "ilp", "reuse", "other")
        ]
        assert timers["phase.profile"]["count"] == len(training)
        assert [t["count"] for t in parts] == [len(training)] * 4
        assert (
            sum(t["total_s"] for t in parts)
            <= timers["phase.profile"]["total_s"]
        )

    def test_doe_run_seconds_accumulates(self, small_campaign):
        campaign, _ = small_campaign
        assert campaign.doe_run_seconds["atax"] > 0
        assert campaign.doe_run_seconds["mvt"] > 0


class TestCampaignCacheDisk:
    def test_save_and_reload(self, tmp_path, atax):
        path = tmp_path / "cache.json"
        cache = CampaignCache(path)
        campaign = SimulationCampaign(cache=cache, scale=4.0)
        row = campaign.run_point(atax, {"dimensions": 500, "threads": 4})
        cache.save()

        fresh = CampaignCache(path)
        assert len(fresh) == 1
        campaign2 = SimulationCampaign(cache=fresh, scale=4.0)
        row2 = campaign2.run_point(atax, {"dimensions": 500, "threads": 4})
        assert row2.result.ipc == pytest.approx(row.result.ipc)
        assert campaign2.doe_run_seconds == {}  # everything came from cache

    def test_save_without_path_is_noop(self):
        CampaignCache().save()  # must not raise

    def test_save_is_atomic(self, tmp_path, atax):
        path = tmp_path / "cache.json"
        cache = CampaignCache(path)
        SimulationCampaign(cache=cache, scale=4.0).run_point(
            atax, {"dimensions": 500, "threads": 4}
        )
        cache.save()
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp*"))  # temp file replaced away

    def test_save_survives_stray_tmp_directory(self, tmp_path, atax):
        # A fixed "<name>.tmp" scratch name would collide with this
        # directory (and with a concurrent saver's scratch file).
        path = tmp_path / "cache.json"
        (tmp_path / "cache.json.tmp").mkdir()
        cache = CampaignCache(path)
        SimulationCampaign(cache=cache, scale=4.0).run_point(
            atax, {"dimensions": 500, "threads": 4}
        )
        cache.save()
        assert len(CampaignCache(path)) == 1

    @pytest.mark.parametrize(
        "content", ["", "{not json", '{"schema_hash": "HASH", "profiles": 7}']
    )
    def test_corrupt_cache_starts_empty_with_warning(self, tmp_path, content):
        path = tmp_path / "cache.json"
        # A well-formed header with a garbled body must also fail safe.
        path.write_text(content.replace("HASH", active_schema().content_hash))
        with pytest.warns(RuntimeWarning, match="corrupt"):
            cache = CampaignCache(path)
        assert len(cache) == 0

    def test_cache_written_under_other_schema_is_discarded(
        self, tmp_path, atax
    ):
        import json

        path = tmp_path / "cache.json"
        cache = CampaignCache(path)
        SimulationCampaign(cache=cache, scale=4.0).run_point(
            atax, {"dimensions": 500, "threads": 4}
        )
        cache.save()
        data = json.loads(path.read_text())
        assert data["schema_hash"] == active_schema().content_hash
        data["schema_hash"] = "0" * 64  # simulate a feature-schema change
        path.write_text(json.dumps(data))
        with pytest.warns(RuntimeWarning, match="stale"):
            stale = CampaignCache(path)
        assert len(stale) == 0

    def test_legacy_cache_without_hash_is_discarded(self, tmp_path, atax):
        import json

        path = tmp_path / "cache.json"
        cache = CampaignCache(path)
        SimulationCampaign(cache=cache, scale=4.0).run_point(
            atax, {"dimensions": 500, "threads": 4}
        )
        cache.save()
        data = json.loads(path.read_text())
        del data["schema_hash"]
        path.write_text(json.dumps(data))
        with pytest.warns(RuntimeWarning, match="different feature schema"):
            stale = CampaignCache(path)
        assert len(stale) == 0

    def test_cache_nested_past_the_recursion_limit_starts_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("[" * 100_000)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            cache = CampaignCache(path)
        assert len(cache) == 0

    def test_save_round_trip_is_bit_exact(self, tmp_path, atax):
        import json

        path = tmp_path / "cache.json"
        cache = CampaignCache(path)
        campaign = SimulationCampaign(cache=cache, scale=4.0)
        for config in ({"dimensions": 500, "threads": 4}, atax.test_config()):
            campaign.run_point(atax, config)
        cache.save()
        assert json.loads(path.read_bytes()) == json.loads(json.dumps({
            "format": CACHE_FORMAT_VERSION,
            "schema_hash": active_schema().content_hash,
            "profiles": {k: p.to_json_dict() for k, p in cache._profiles.items()},
            "results": [
                {"point": pk, "arch": ak, "result": r.to_json_dict()}
                for (pk, ak), r in cache._results.items()
            ],
        }))
        fresh = CampaignCache(path)
        assert fresh._profiles.keys() == cache._profiles.keys()
        for key, profile in cache._profiles.items():
            again = fresh._profiles[key]
            assert again.values.tobytes() == profile.values.tobytes()
            assert again.to_json_dict() == profile.to_json_dict()
        assert fresh._results.keys() == cache._results.keys()
        for key, result in cache._results.items():
            assert repr(fresh._results[key]) == repr(result)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", ["profile", "parameters", "result"])
    def test_save_refuses_a_non_finite_value(self, tmp_path, atax, where, bad):
        import dataclasses

        path = tmp_path / "cache.json"
        cache = CampaignCache(path)
        SimulationCampaign(cache=cache, scale=4.0).run_point(
            atax, {"dimensions": 500, "threads": 4}
        )
        cache.save()
        before = path.read_bytes()
        ((point, arch), result), = cache._results.items()
        profile = cache._profiles[point]
        if where == "profile":
            values = profile.values.copy()
            values[7] = bad
            profile = dataclasses.replace(profile, values=values)
        elif where == "parameters":
            profile = dataclasses.replace(profile, parameters={"threads": bad})
        else:
            result = dataclasses.replace(result, ipc=bad)
        cache.put(point, arch, profile, result)
        with pytest.raises(CampaignError, match=f"point {re.escape(point)}"):
            cache.save()
        assert path.read_bytes() == before  # nothing written, no null
        assert not list(tmp_path.glob("*.tmp*"))

    def test_corrupt_cache_is_recoverable(self, tmp_path, atax):
        path = tmp_path / "cache.json"
        path.write_text('{"truncated"')
        with pytest.warns(RuntimeWarning):
            cache = CampaignCache(path)
        SimulationCampaign(cache=cache, scale=4.0).run_point(
            atax, {"dimensions": 500, "threads": 4}
        )
        cache.save()
        assert len(CampaignCache(path)) == 1  # clean file written over junk
