"""Tests for the design-space-exploration driver (repro.core.dse)."""

import pytest

from repro import (
    NapelTrainer,
    SimulationCampaign,
    analyze_trace,
    default_nmc_config,
    get_workload,
)
from repro.core.dse import (
    DesignPoint,
    explore,
    format_exploration,
    grid_space,
    pareto_front,
)
from repro.core.predictor import NapelPrediction
from repro.errors import MLError


def make_point(time_s, energy_j, label="p"):
    pred = NapelPrediction(
        workload="w", ipc=1.0, ipc_per_pe=1.0,
        energy_per_instruction_j=energy_j, instructions=1,
        pes_used=1, time_s=time_s, energy_j=energy_j,
    )
    return DesignPoint(
        changes={"label": label}, arch=default_nmc_config(), prediction=pred
    )


class TestSpaces:
    def test_grid_space_size(self):
        archs = grid_space({"n_pes": [16, 32], "frequency_ghz": [1.0, 1.25]})
        assert len(archs) == 4
        assert {a.n_pes for a in archs} == {16, 32}

    def test_grid_space_validates(self):
        with pytest.raises(Exception):
            grid_space({"n_pes": [0]})

    def test_grid_space_empty_knobs(self):
        with pytest.raises(MLError):
            grid_space({})


class TestParetoFront:
    def test_dominated_points_excluded(self):
        a = make_point(1.0, 1.0)     # on the front
        b = make_point(2.0, 0.5)     # on the front (cheaper energy)
        c = make_point(2.0, 2.0)     # dominated by a
        front = pareto_front([c, b, a])
        assert a in front and b in front
        assert c not in front

    def test_sorted_by_time(self):
        pts = [make_point(t, 1.0 / t) for t in (3.0, 1.0, 2.0)]
        front = pareto_front(pts)
        times = [p.time_s for p in front]
        assert times == sorted(times)

    def test_single_point(self):
        p = make_point(1.0, 1.0)
        assert pareto_front([p]) == [p]

    def test_empty(self):
        assert pareto_front([]) == []

    def test_identical_points_keep_one(self):
        pts = [make_point(1.0, 1.0) for _ in range(3)]
        assert len(pareto_front(pts)) == 1


class TestExplore:
    @pytest.fixture(scope="class")
    def trained_setup(self):
        campaign = SimulationCampaign(scale=3.0)
        mvt = get_workload("mvt")
        training = campaign.run(mvt)
        trained = NapelTrainer(n_estimators=12, tune=False).train(training)
        profile = analyze_trace(
            mvt.generate(mvt.central_config(), scale=3.0), workload="mvt"
        )
        return trained.model, profile

    def test_explore_matches_predict(self, trained_setup):
        model, profile = trained_setup
        archs = grid_space({"n_pes": [16, 32], "frequency_ghz": [1.0, 1.5]})
        points = explore(model, profile, archs)
        assert len(points) == 4
        for point, arch in zip(points, archs):
            assert point.prediction == model.predict(profile, arch)

    def test_changes_capture_non_defaults(self, trained_setup):
        model, profile = trained_setup
        archs = grid_space({"n_pes": [16]})
        (point,) = explore(model, profile, archs)
        assert point.changes == {"n_pes": 16}

    def test_format_exploration(self, trained_setup):
        model, profile = trained_setup
        archs = grid_space({"n_pes": [8, 16, 32]})
        points = explore(model, profile, archs)
        text = format_exploration(points, top=3)
        assert "design-space exploration" in text
        assert "Pareto" in text

    def test_empty_archs(self, trained_setup):
        model, profile = trained_setup
        with pytest.raises(MLError):
            explore(model, profile, [])
