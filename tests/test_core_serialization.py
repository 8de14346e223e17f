"""Tests for model save/load (repro.core.serialization)."""

import pickle
import pickletools

import numpy as np
import pytest

from repro import NapelTrainer, load_model, save_model
from repro.core.predictor import NapelModel
from repro.errors import MLError, SchemaMismatchError
from repro.ml import RandomForestRegressor
from repro.schema import FeatureSchema


@pytest.fixture(scope="module")
def trained_model(small_campaign_for_serialization):
    _, training = small_campaign_for_serialization
    return NapelTrainer(n_estimators=10, tune=False).train(training), training


@pytest.fixture(scope="module")
def small_campaign_for_serialization():
    from repro import SimulationCampaign, get_workload

    campaign = SimulationCampaign(scale=4.0)
    atax = get_workload("atax")
    return campaign, campaign.run(atax)


class TestSaveLoad:
    def test_roundtrip_predictions_identical(self, tmp_path, trained_model):
        trained, training = trained_model
        path = tmp_path / "model.pkl"
        save_model(trained.model, path)
        restored = load_model(path)
        X = training.X()
        a_ipc, a_epi = trained.model.predict_labels(X)
        b_ipc, b_epi = restored.predict_labels(X)
        assert np.array_equal(a_ipc, b_ipc)
        assert np.array_equal(a_epi, b_epi)
        assert restored.ipc_bounds == trained.model.ipc_bounds
        assert restored.energy_bounds == trained.model.energy_bounds

    def test_creates_parent_directories(self, tmp_path, trained_model):
        trained, _ = trained_model
        path = tmp_path / "deep" / "nested" / "model.pkl"
        save_model(trained.model, path)
        assert path.exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(MLError, match="no model file"):
            load_model(tmp_path / "absent.pkl")

    def test_rejects_non_model_save(self, tmp_path):
        with pytest.raises(MLError, match="NapelModel"):
            save_model("not a model", tmp_path / "x.pkl")

    def test_rejects_foreign_pickle(self, tmp_path):
        path = tmp_path / "foreign.pkl"
        with path.open("wb") as fh:
            pickle.dump({"something": "else"}, fh)
        with pytest.raises(MLError, match="not a NAPEL model"):
            load_model(path)

    def test_rejects_wrong_format_version(self, tmp_path, trained_model):
        trained, _ = trained_model
        path = tmp_path / "old.pkl"
        with path.open("wb") as fh:
            pickle.dump(
                {"magic": "napel-model", "format": 99, "model": trained.model},
                fh,
            )
        with pytest.raises(MLError, match="format"):
            load_model(path)

    @pytest.mark.parametrize("fmt", [1, 3, 4])
    def test_rejects_v1_format_with_retrain_advice(
        self, tmp_path, trained_model, fmt
    ):
        trained, _ = trained_model
        path = tmp_path / f"v{fmt}.pkl"
        with path.open("wb") as fh:
            pickle.dump(
                {"magic": "napel-model", "format": fmt, "model": trained.model},
                fh,
            )
        with pytest.raises(MLError, match=f"format {fmt}") as err:
            load_model(path)
        assert "retrain" in str(err.value)

    def test_rejects_v2_format_with_retrain_advice(self, tmp_path, monkeypatch):
        """A format-2 file pickles its trees' nodes as instances of
        ``repro.ml.tree._Node``, a class this version no longer has: the
        file is still named stale, not corrupt."""
        import repro.ml.tree

        node = type("_Node", (), {"__module__": "repro.ml.tree"})
        monkeypatch.setattr(repro.ml.tree, "_Node", node, raising=False)
        payload = pickle.dumps(
            {"magic": "napel-model", "format": 2, "model": [node()]}
        )
        monkeypatch.undo()
        path = tmp_path / "v2.pkl"
        path.write_bytes(payload)
        with pytest.raises(MLError, match="format 2") as err:
            load_model(path)
        assert "retrain" in str(err.value)

    def test_missing_class_in_current_format_is_corrupt(
        self, tmp_path, monkeypatch
    ):
        """Only the classes retired formats pickled get a stand-in: a
        current-format file naming any other missing ``repro`` class is
        refused at load, not handed back as a model of empty objects."""
        import repro.ml.forest
        from repro.core.serialization import _FORMAT_VERSION

        gone = type("_Gone", (), {"__module__": "repro.ml.forest"})
        monkeypatch.setattr(repro.ml.forest, "_Gone", gone, raising=False)
        payload = pickle.dumps(
            {"magic": "napel-model", "format": _FORMAT_VERSION,
             "model": gone()}
        )
        monkeypatch.undo()
        path = tmp_path / "renamed.pkl"
        path.write_bytes(payload)
        with pytest.raises(MLError, match="corrupt or truncated"):
            load_model(path)

    def test_artifact_stores_each_forest_once(self, tmp_path, trained_model):
        """A fitted forest pickles to little more than its node table, and
        a saved artifact names no per-tree class."""
        rng = np.random.default_rng(0)
        X = rng.random((200, 8))
        y = X[:, 0] + np.sin(4 * X[:, 1]) + 0.1 * rng.normal(size=200)
        forest = RandomForestRegressor(n_estimators=20, random_state=0, jobs=1)
        forest.fit(X, y)
        table = (forest.nodes_, forest.roots_, forest.values_)
        assert len(pickle.dumps(forest)) <= 1.05 * len(pickle.dumps(table))
        trained, _ = trained_model
        path = tmp_path / "model.pkl"
        save_model(trained.model, path)
        strings = [
            arg for _op, arg, _pos in pickletools.genops(path.read_bytes())
            if isinstance(arg, str)
        ]
        assert any("RandomForestRegressor" in s for s in strings)
        assert not any("RegressionTree" in s for s in strings)

    def test_rejects_truncated_file(self, tmp_path, trained_model):
        trained, _ = trained_model
        path = tmp_path / "model.pkl"
        save_model(trained.model, path)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.raises(MLError, match="corrupt or truncated"):
            load_model(path)

    def test_rejects_garbage_bytes(self, tmp_path):
        path = tmp_path / "noise.pkl"
        path.write_bytes(b"\x93NUMPY not a pickle at all")
        with pytest.raises(MLError, match="corrupt or truncated"):
            load_model(path)

    def test_rejects_tampered_schema_hash(self, tmp_path, trained_model):
        trained, _ = trained_model
        path = tmp_path / "model.pkl"
        save_model(trained.model, path)
        payload = pickle.loads(path.read_bytes())
        payload["schema_hash"] = "0" * 64
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(MLError, match="corrupt"):
            load_model(path)


class TestVersionAndSchemaChecks:
    def test_version_skew_warns_even_with_matching_schema(
        self, tmp_path, trained_model
    ):
        trained, _ = trained_model
        path = tmp_path / "model.pkl"
        save_model(trained.model, path)
        payload = pickle.loads(path.read_bytes())
        payload["repro_version"] = "0.0.1"
        path.write_bytes(pickle.dumps(payload))
        with pytest.warns(RuntimeWarning, match="saved by repro 0.0.1"):
            restored = load_model(path)
        assert isinstance(restored, NapelModel)

    def test_schema_drift_warns_on_load_and_refuses_predict(
        self, tmp_path, trained_model
    ):
        """A model trained before a feature reorder loads with a warning
        and then refuses to predict, naming the moved columns."""
        trained, training = trained_model
        real = trained.model.schema
        # Synthetic drift: swap the last two blocks (arch <-> prior).
        reordered = FeatureSchema(
            real.blocks[:2] + (real.blocks[3], real.blocks[2]),
            version=real.version,
        )
        drifted = NapelModel(
            trained.model.ipc_model,
            trained.model.energy_model,
            schema=reordered,
            ipc_bounds=trained.model.ipc_bounds,
            energy_bounds=trained.model.energy_bounds,
        )
        path = tmp_path / "drifted.pkl"
        save_model(drifted, path)
        with pytest.warns(RuntimeWarning, match="different feature schema"):
            restored = load_model(path)
        with pytest.raises(SchemaMismatchError) as err:
            restored.predict_labels(training.X(), schema=training.schema)
        assert "prior.ipc_estimate" in err.value.moved
        assert set(err.value.moved) == set(
            real.block("arch").features + real.block("prior").features
        )

    def test_artifact_predating_new_backend_warns_loudly(
        self, tmp_path, trained_model
    ):
        """Registering a fifth memory backend grows the arch block, so an
        artifact trained under four backends must warn at load time that
        the new device is unservable with it."""
        import dataclasses

        from repro.backends import registry as backends
        from repro.core.serialization import preload_model

        trained, _ = trained_model
        path = tmp_path / "four-backend.pkl"
        save_model(trained.model, path)
        phantom = dataclasses.replace(
            backends.HMC,
            name="phantom-nmc",
            description="test-only fifth backend",
        )
        backends.register_backend(phantom)
        try:
            with pytest.warns(RuntimeWarning) as caught:
                restored = load_model(path)
            messages = [str(w.message) for w in caught]
            assert any(
                "predates memory backend(s) phantom-nmc" in m
                for m in messages
            ), messages
            assert any("different feature schema" in m for m in messages)
            assert isinstance(restored, NapelModel)
            # The serving preload path captures the same warning as data
            # instead of letting it escape to the warning filter.
            preloaded = preload_model(path)
            assert any("phantom-nmc" in w for w in preloaded.warnings)
        finally:
            backends._unregister_backend("phantom-nmc")
        # The registry mutation was undone: the artifact loads cleanly
        # again under the original four-backend schema.
        assert load_model(path).schema.content_hash == (
            trained.model.schema.content_hash
        )
