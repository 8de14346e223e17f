"""Tests for NAPEL training, prediction, LOOCV and suitability."""

import numpy as np
import pytest

from repro import (
    CampaignCache,
    NapelTrainer,
    SimulationCampaign,
    analyze_suitability,
    analyze_trace,
    evaluate_loocv,
    get_workload,
)
from repro.config import NMCConfig
from repro.core.predictor import NapelModel
from repro.schema import active_schema
from repro.errors import MLError
from repro.ml import mean_relative_error
from repro.obs import metrics


@pytest.fixture(scope="module")
def trained(small_campaign_module):
    campaign, training = small_campaign_module
    trainer = NapelTrainer(n_estimators=20, tune=False)
    return campaign, training, trainer.train(training)


@pytest.fixture(scope="module")
def small_campaign_module(atax_module):
    from repro.core.dataset import TrainingSet

    campaign = SimulationCampaign(scale=3.0)
    mvt = get_workload("mvt")
    atax_configs = [
        {"dimensions": d, "threads": t}
        for d, t in [(500, 4), (750, 8), (1250, 8), (1500, 16), (2000, 16), (2300, 32)]
    ]
    mvt_configs = [
        {"dimensions": d, "threads": t, "iterations": 10}
        for d, t in [(500, 4), (750, 8), (1250, 8), (2000, 16), (2250, 16)]
    ]
    training = TrainingSet.concat([
        campaign.run(atax_module, atax_configs),
        campaign.run(mvt, mvt_configs),
    ])
    return campaign, training


@pytest.fixture(scope="module")
def atax_module():
    return get_workload("atax")


class TestTrainer:
    def test_produces_model_and_metadata(self, trained):
        _, training, result = trained
        assert result.model_name == "rf"
        assert result.train_tune_seconds > 0
        assert result.n_training_rows == len(training)

    def test_fit_quality_on_training_data(self, trained):
        _, training, result = trained
        ipc_pred, epi_pred = result.model.predict_labels(training.X())
        assert mean_relative_error(training.y_ipc_per_pe(), ipc_pred) < 0.2
        assert mean_relative_error(
            training.y_energy_per_instruction(), epi_pred
        ) < 0.2

    def test_tuning_records_results(self, small_campaign_module):
        _, training = small_campaign_module
        result = NapelTrainer(n_estimators=10, tune=True).train(training)
        assert result.ipc_tuning is not None
        assert len(result.ipc_tuning.scores) >= 2

    def test_tree_fits_are_counted(self, small_campaign_module):
        """Per target, a tuned forest fits every grid combination once and
        keeps the winner as scored, with no refit: every tree shows up
        as counted."""
        _, training = small_campaign_module
        trainer = NapelTrainer(n_estimators=4, jobs=1)
        combos = int(np.prod([len(v) for v in trainer.grid.values()]))
        before = metrics().snapshot()
        trainer.train(training)
        counters = metrics().diff(before)["counters"]
        assert counters["ml.trees.fitted"] == 2 * combos * 4
        assert counters["ml.tree.nodes"] >= counters["ml.trees.fitted"]

    def test_all_model_kinds_train(self, small_campaign_module):
        _, training = small_campaign_module
        for kind in ("rf", "ann", "tree"):
            result = NapelTrainer(model=kind, tune=False).train(training)
            preds, _ = result.model.predict_labels(training.X())
            assert np.isfinite(preds).all()

    def test_unknown_model_rejected(self):
        with pytest.raises(MLError):
            NapelTrainer(model="bogus")

    def test_too_few_rows_rejected(self, small_campaign_module):
        from repro.core.dataset import TrainingSet

        _, training = small_campaign_module
        tiny = TrainingSet(training.rows[:2])
        with pytest.raises(MLError):
            NapelTrainer().train(tiny)


class TestPredictor:
    def test_prediction_fields(self, trained, atax_module):
        campaign, _, result = trained
        profile = analyze_trace(
            atax_module.generate(atax_module.test_config(), scale=3.0),
            workload="atax",
        )
        pred = result.model.predict(profile, campaign.arch)
        assert pred.ipc > 0 and pred.energy_j > 0
        assert pred.ipc == pytest.approx(pred.ipc_per_pe * pred.pes_used)
        freq = campaign.arch.frequency_ghz * 1e9
        assert pred.time_s == pytest.approx(
            pred.instructions / (pred.ipc * freq)
        )
        assert pred.edp == pytest.approx(pred.energy_j * pred.time_s)

    def test_feature_row_layout(self, trained, atax_module):
        campaign, _, _ = trained
        profile = analyze_trace(
            atax_module.generate(atax_module.central_config(), scale=3.0)
        )
        row = NapelModel.features(profile, campaign.arch)
        assert row.shape == (len(active_schema()),)

    def test_interpolation_accuracy(self, trained, atax_module):
        """An unseen config *between* training points predicts well."""
        campaign, _, result = trained
        config = {"dimensions": 1000, "threads": 8}
        row = campaign.run_point(atax_module, config)
        pred = result.model.predict(row.profile, campaign.arch)
        actual = row.result
        assert abs(pred.ipc - actual.ipc) / actual.ipc < 0.4
        assert abs(pred.energy_j - actual.energy_j) / actual.energy_j < 0.4

    def test_clamping_bounds_predictions(self, trained):
        import numpy as np

        from repro.core.predictor import NapelModel

        _, training, result = trained
        # Absurd out-of-distribution inputs: the learned *residual* stays
        # within the clamped training range, so the prediction never strays
        # more than margin x bounds from its mechanistic prior.
        X = training.X().copy()
        X *= 100.0
        ipc, _epi = result.model.predict_labels(X)
        lo, hi = result.model.ipc_bounds
        prior, _ = NapelModel.prior_offsets(X)
        margin = 0.5 + 1e-9
        assert (np.log(ipc) <= prior + hi + margin).all()
        assert (np.log(ipc) >= prior + lo - margin).all()

    def test_predict_many_matches_predict(self, trained, atax_module):
        campaign, _, result = trained
        profile = analyze_trace(
            atax_module.generate(atax_module.central_config(), scale=3.0),
            workload="atax",
        )
        single = result.model.predict(profile, campaign.arch)
        batch = result.model.predict_many([profile, profile], campaign.arch)
        assert batch[0].ipc == pytest.approx(single.ipc)
        assert batch[1].energy_j == pytest.approx(single.energy_j)

    def test_empty_batch(self, trained):
        campaign, _, result = trained
        assert result.model.predict_many([], campaign.arch) == []


class TestLoocv:
    def test_per_app_scores(self, small_campaign_module):
        _, training = small_campaign_module
        result = evaluate_loocv(training, model="rf", tune=False, n_estimators=15)
        assert set(result.perf_mre) == {"atax", "mvt"}
        assert all(v >= 0 for v in result.perf_mre.values())
        assert result.mean_perf_mre == pytest.approx(
            np.mean(list(result.perf_mre.values()))
        )
        assert all(v > 0 for v in result.train_seconds.values())

    def test_single_app_rejected(self, small_campaign_module):
        _, training = small_campaign_module
        with pytest.raises(MLError):
            evaluate_loocv(training.filter("atax"))


class TestSuitability:
    def test_full_analysis(self, small_campaign_module, atax_module):
        campaign, training = small_campaign_module
        mvt = get_workload("mvt")
        results = analyze_suitability(
            [atax_module, mvt],
            [campaign],
            training_set=training,
            trainer_kwargs={"n_estimators": 15, "tune": False},
        )
        assert [r.workload for r in results] == ["atax", "mvt"]
        for r in results:
            assert r.host_edp > 0
            assert r.edp_reduction_actual > 0
            assert r.edp_reduction_pred > 0
            assert 0 <= r.edp_mre

    def test_suitable_flag_consistency(self, small_campaign_module, atax_module):
        campaign, training = small_campaign_module
        (result,) = analyze_suitability(
            [atax_module], [campaign],
            training_set=training,
            trainer_kwargs={"n_estimators": 15, "tune": False},
        )
        assert result.suitable_actual == (result.edp_reduction_actual > 1)
        assert result.suitable_pred == (result.edp_reduction_pred > 1)

    def test_backends_are_ranked_cells_of_one_analysis(self):
        """Several backends go through the same analysis: per workload the
        cells rank 1..N by falling actual EDP reduction, each carries a
        finite EDP MRE, and its actual EDP reduction is the one a
        one-backend run on its campaign reports."""
        workloads = [get_workload("atax"), get_workload("gemv")]
        cache = CampaignCache()
        campaigns = [
            SimulationCampaign(
                NMCConfig.from_backend(name), cache=cache, scale=8.0
            )
            for name in ("hmc", "hbm2")
        ]
        trainer_kwargs = {"n_estimators": 5, "tune": False}
        results = analyze_suitability(
            workloads, campaigns, trainer_kwargs=trainer_kwargs
        )
        assert [r.workload for r in results] == ["atax"] * 2 + ["gemv"] * 2
        for workload in workloads:
            cells = [r for r in results if r.workload == workload.name]
            assert [r.rank for r in cells] == [1, 2]
            assert {r.backend for r in cells} == {"hmc", "hbm2"}
            assert cells[0].edp_reduction_actual >= cells[1].edp_reduction_actual
        assert all(np.isfinite(r.edp_mre) for r in results)
        by_cell = {(r.workload, r.backend): r for r in results}
        for campaign in campaigns:
            for one in analyze_suitability(
                workloads, [campaign], trainer_kwargs=trainer_kwargs
            ):
                assert (one.backend, one.rank) == (campaign.arch.backend, 1)
                cell = by_cell[(one.workload, one.backend)]
                assert cell.edp_reduction_actual == one.edp_reduction_actual
