"""End-to-end integration tests: the full NAPEL pipeline on small inputs."""

import numpy as np
import pytest

from repro import (
    HostSimulator,
    NapelTrainer,
    NMCSimulator,
    SimulationCampaign,
    analyze_suitability,
    analyze_trace,
    default_nmc_config,
    get_workload,
)
from repro.core.dataset import TrainingSet
from repro.core.suitability import SuitabilityResult
from repro.doe import ParameterSpace, central_composite
from repro.errors import ReproError


@pytest.fixture(scope="module")
def mini_pipeline():
    """CCD campaign + trained model for two contrasting apps (scaled)."""
    campaign = SimulationCampaign(scale=3.0)
    apps = [get_workload(n) for n in ("gemv", "kme")]
    training = TrainingSet.concat(campaign.run(w) for w in apps)
    trained = NapelTrainer(n_estimators=30).train(training)
    return campaign, apps, training, trained


class TestFullPipeline:
    def test_campaign_covers_both_ccds(self, mini_pipeline):
        campaign, apps, training, _ = mini_pipeline
        expected = sum(
            len(central_composite(ParameterSpace.of_workload(w)))
            for w in apps
        )
        assert len(training) == expected

    def test_prediction_tracks_simulation(self, mini_pipeline):
        """Unseen central-ish config: prediction within 50% of simulation."""
        campaign, apps, _, trained = mini_pipeline
        gemv = apps[0]
        config = {"dimensions": 1000, "threads": 16, "iterations": 70}
        row = campaign.run_point(gemv, config)
        pred = trained.model.predict(row.profile, campaign.arch)
        assert abs(pred.ipc - row.result.ipc) / row.result.ipc < 0.5
        assert (
            abs(pred.energy_j - row.result.energy_j) / row.result.energy_j
            < 0.5
        )

    def test_time_formula_consistency(self, mini_pipeline):
        """T = I / (IPC * f) holds for both simulator and predictor."""
        campaign, apps, training, trained = mini_pipeline
        freq = campaign.arch.frequency_ghz * 1e9
        row = training.rows[0]
        assert row.result.time_s == pytest.approx(
            row.result.instructions / (row.result.ipc * freq), rel=0.01
        )
        pred = trained.model.predict(row.profile, campaign.arch)
        assert pred.time_s == pytest.approx(
            pred.instructions / (pred.ipc * freq)
        )

    def test_suitability_end_to_end(self, mini_pipeline):
        campaign, apps, training, _ = mini_pipeline
        results = analyze_suitability(
            apps, [campaign], training_set=training,
            trainer_kwargs={"n_estimators": 20, "tune": False},
        )
        assert len(results) == 2
        # Cross-check host EDP against a direct host evaluation.
        host = HostSimulator()
        row = campaign.run_point(apps[0], apps[0].test_config())
        direct = host.evaluate(row.profile)
        by_name = {r.workload: r for r in results}
        assert by_name["gemv"].host_edp == pytest.approx(
            direct.energy_j * direct.time_s, rel=1e-6
        )

    def test_profile_is_architecture_independent(self):
        """Phase 1 never looks at the NMC configuration."""
        w = get_workload("mvt")
        trace = w.generate(w.central_config(), scale=3.0)
        p = analyze_trace(trace)
        r_small = NMCSimulator(default_nmc_config()).run(trace)
        r_big = NMCSimulator(
            default_nmc_config().replace(l1_lines=256, l1_ways=4)
        ).run(trace)
        # Same profile, different labels: the architecture only enters
        # through simulation.
        assert r_small.ipc != r_big.ipc
        assert np.array_equal(p.values, analyze_trace(trace).values)

    def test_suitability_folds_share_one_feature_matrix(
        self, mini_pipeline, monkeypatch
    ):
        """Each held-out fold must be a view, not a per-app matrix rebuild."""
        campaign, apps, training, _ = mini_pipeline
        built_roots = []
        orig = TrainingSet._matrix

        def spy(self):
            root = self._root if self._root is not None else self
            if root._X_cache is None:
                built_roots.append(id(root))
            return orig(self)

        monkeypatch.setattr(TrainingSet, "_matrix", spy)
        results = analyze_suitability(
            apps, [campaign], training_set=training,
            trainer_kwargs={"n_estimators": 5, "tune": False},
        )
        assert len(results) == len(apps)
        # Only the combined (campaign + test rows) root is ever assembled;
        # every fold shares its matrix.
        assert len(set(built_roots)) <= 1

    def test_edp_shape_for_contrasting_apps(self, mini_pipeline):
        """kme (irregular+atomics) beats gemv (streaming) on EDP ratio."""
        campaign, apps, _, _ = mini_pipeline
        host = HostSimulator()
        ratios = {}
        for w in apps:
            row = campaign.run_point(w, w.test_config())
            h = host.evaluate(row.profile)
            ratios[w.name] = (h.energy_j * h.time_s) / row.result.edp
        assert ratios["kme"] > ratios["gemv"]


class TestSuitabilityFailLoud:
    """Zero/non-finite EDP components must raise a named error, not a
    bare ZeroDivisionError."""

    def make_result(self, **overrides):
        fields = dict(
            workload="gemv", backend="hmc", rank=1,
            host_time_s=1.0, host_energy_j=1.0,
            nmc_time_actual_s=1.0, nmc_energy_actual_j=1.0,
            nmc_time_pred_s=1.0, nmc_energy_pred_j=1.0,
        )
        fields.update(overrides)
        return SuitabilityResult(**fields)

    def test_zero_actual_time_names_workload_and_component(self):
        result = self.make_result(nmc_time_actual_s=0.0)
        with pytest.raises(ReproError, match="gemv.*nmc_time_actual_s"):
            result.edp_reduction_actual
        with pytest.raises(ReproError, match="gemv"):
            result.edp_mre

    def test_zero_predicted_energy(self):
        result = self.make_result(nmc_energy_pred_j=0.0)
        with pytest.raises(ReproError, match="gemv.*nmc_energy_pred_j"):
            result.edp_reduction_pred

    def test_nonfinite_component_rejected(self):
        result = self.make_result(nmc_time_pred_s=float("nan"))
        with pytest.raises(ReproError, match="nmc_time_pred_s"):
            result.edp_reduction_pred

    def test_negative_component_rejected(self):
        result = self.make_result(nmc_energy_actual_j=-1.0)
        with pytest.raises(ReproError, match="nmc_energy_actual_j"):
            result.edp_reduction_actual

    def test_healthy_result_unaffected(self):
        result = self.make_result()
        assert result.edp_reduction_actual == pytest.approx(1.0)
        assert result.edp_reduction_pred == pytest.approx(1.0)
        assert result.edp_mre == pytest.approx(0.0)


def test_every_public_name_resolves():
    """No stale export: each module's ``__all__`` names exist."""
    import importlib
    import pkgutil

    import repro

    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing


def test_environment_variables_match_docs():
    """The ``REPRO_*`` names in the source are exactly the ones the
    environment-variable table of docs/API.md documents."""
    import ast
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    in_source = {
        node.value
        for path in (root / "src" / "repro").rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value)
    }
    api = (root / "docs" / "API.md").read_text()
    section = api.split("## Environment variables\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = set(
        re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", section, re.M)
    )
    assert in_source == documented
