"""Parallel execution engine: equivalence, failure handling, fallback.

The determinism contract under test: every parallelized stage (campaign
simulation, LOOCV retraining, bootstrap-tree fitting, grid search) must
produce *bit-identical* output at any worker count.  Process-pool tests
skip gracefully on platforms where worker processes cannot start.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import forest_key, forest_trees

from repro import SimulationCampaign
from repro.core import evaluate_loocv
from repro.errors import ConfigError, ParallelError
from repro.ml import RandomForestRegressor, grid_search
from repro.ml.forest import fit_forests
from repro.parallel import map_jobs, process_pool_available, resolve_jobs

requires_pool = pytest.mark.skipif(
    not process_pool_available(),
    reason="worker processes unavailable on this platform",
)


# Job functions must be module-level so the pool can pickle them.
def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


class TestExecutors:
    def test_serial_preserves_order(self):
        assert map_jobs(_square, [3, 1, 2], jobs_n=1) == [9, 1, 4]

    @requires_pool
    def test_process_pool_matches_serial(self):
        jobs = list(range(17))
        serial = map_jobs(_square, jobs, jobs_n=1)
        parallel = map_jobs(_square, jobs, jobs_n=2)
        assert serial == parallel

    def test_map_jobs_defaults_to_serial(self):
        assert map_jobs(_square, [2, 4]) == [4, 16]

    def test_single_job_stays_serial(self):
        # One job never pays pool start-up cost, even with jobs_n > 1:
        # it runs in this process, where a pool worker's own wrapping of
        # exceptions does not apply.
        assert map_jobs(_square, [5], jobs_n=4) == [25]
        with pytest.raises(ValueError, match="three"):
            map_jobs(_fail_on_three, [3], jobs_n=4)

    def test_serial_exception_propagates_unwrapped(self):
        # In-process the original traceback is intact; no wrapping.
        with pytest.raises(ValueError, match="three"):
            map_jobs(_fail_on_three, [1, 2, 3, 4], jobs_n=1)

    @requires_pool
    def test_worker_exception_carries_job_context(self):
        with pytest.raises(ParallelError, match=r"job 2 \(3\).*three"):
            map_jobs(_fail_on_three, [1, 2, 3, 4], jobs_n=2)


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) >= 1

    def test_garbage_env_warns_and_stays_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.warns(RuntimeWarning):
            assert resolve_jobs(None) == 1

    @pytest.mark.parametrize("source", ["argument", "env"])
    @pytest.mark.parametrize("value", [-1, -2])
    def test_negative_count_rejected(self, monkeypatch, source, value):
        env = "2" if source == "argument" else str(value)
        monkeypatch.setenv("REPRO_JOBS", env)
        with pytest.raises(ConfigError, match="job count"):
            resolve_jobs(value if source == "argument" else None)


@pytest.fixture(scope="module")
def tiny_configs():
    return [
        {"dimensions": d, "threads": t}
        for d, t in [(500, 4), (750, 8), (1250, 8), (1500, 16)]
    ]


@requires_pool
class TestCampaignEquivalence:
    def test_parallel_training_set_identical(self, atax, tiny_configs):
        serial = SimulationCampaign(scale=4.0).run(atax, tiny_configs)
        parallel = SimulationCampaign(scale=4.0, jobs=2).run(
            atax, tiny_configs
        )
        assert np.array_equal(serial.X(), parallel.X())
        assert np.array_equal(
            serial.y_ipc_per_pe(), parallel.y_ipc_per_pe()
        )
        assert np.array_equal(
            serial.y_energy_per_instruction(),
            parallel.y_energy_per_instruction(),
        )

    def test_parallel_run_fills_cache_and_timings(self, atax, tiny_configs):
        campaign = SimulationCampaign(scale=4.0, jobs=2)
        campaign.run(atax, tiny_configs)
        assert len(campaign.cache) == len(tiny_configs)
        assert campaign.doe_run_seconds["atax"] > 0
        assert campaign.wall_seconds["atax"] > 0
        # Re-running is a pure cache hit: no extra simulation seconds.
        before = campaign.doe_run_seconds["atax"]
        campaign.run(atax, tiny_configs)
        assert campaign.doe_run_seconds["atax"] == before


class TestCampaignJobsFallback:
    def test_jobs_one_uses_serial_path(self, atax, tiny_configs):
        campaign = SimulationCampaign(scale=4.0, jobs=1)
        training = campaign.run(atax, tiny_configs)
        assert len(training) == len(tiny_configs)
        assert campaign.wall_seconds["atax"] > 0

    def test_campaign_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert SimulationCampaign().jobs == 3


@pytest.fixture(scope="module")
def regression_data():
    rng = np.random.default_rng(0)
    X = rng.random((90, 12))
    y = X @ rng.random(12) + 0.05 * rng.random(90)
    return X, y, rng.random((30, 12))


class TestForestParallel:
    @requires_pool
    def test_bit_identical_forests(self, regression_data):
        X, y, Xt = regression_data
        serial = RandomForestRegressor(
            n_estimators=16, random_state=7, jobs=1
        ).fit(X, y)
        parallel = RandomForestRegressor(
            n_estimators=16, random_state=7, jobs=2
        ).fit(X, y)
        assert np.array_equal(serial.predict(Xt), parallel.predict(Xt))
        assert np.array_equal(
            serial.oob_prediction_, parallel.oob_prediction_, equal_nan=True
        )
        assert np.array_equal(
            serial.feature_importances_, parallel.feature_importances_
        )
        assert serial.oob_error(y) == parallel.oob_error(y)

    def test_vectorized_predict_is_tree_mean(self, regression_data):
        X, y, Xt = regression_data
        forest = RandomForestRegressor(n_estimators=8, random_state=1).fit(
            X, y
        )
        stacked = np.stack([t.predict(Xt) for t in forest_trees(forest)])
        assert np.array_equal(forest.predict(Xt), stacked.mean(axis=0))

    def test_jobs_survives_clone(self):
        forest = RandomForestRegressor(jobs=4)
        assert forest.clone().jobs == 4
        assert forest.clone(jobs=1).jobs == 1

    @requires_pool
    def test_no_bootstrap_parallel(self, regression_data):
        X, y, Xt = regression_data
        serial = RandomForestRegressor(
            n_estimators=6, bootstrap=False, random_state=3, jobs=1
        ).fit(X, y)
        parallel = RandomForestRegressor(
            n_estimators=6, bootstrap=False, random_state=3, jobs=2
        ).fit(X, y)
        assert np.array_equal(serial.predict(Xt), parallel.predict(Xt))
        assert parallel.oob_prediction_ is None


@requires_pool
class TestGridSearchParallel:
    def test_same_selection_and_scores(self, regression_data):
        X, y, _ = regression_data
        grid = {"max_features": ["sqrt", "third"], "min_samples_leaf": [1, 2]}
        base = RandomForestRegressor(n_estimators=10, random_state=3)
        serial = grid_search(base, grid, X, y, jobs=1)
        parallel = grid_search(base, grid, X, y, jobs=2)
        assert serial.best_params == parallel.best_params
        assert serial.best_score == parallel.best_score
        assert serial.scores == parallel.scores


def _values(*choices):
    return st.lists(st.sampled_from(choices), min_size=1, max_size=2, unique=True)


#: Grids over the tree parameters, some also over the parameters that
#: decide which combinations share their trees' plans.
_GRIDS = st.fixed_dictionaries(
    {
        "max_features": _values("sqrt", "third", None, 3),
        "min_samples_leaf": _values(1, 2, 4),
        "max_depth": _values(None, 2, 5),
    },
    optional={
        "n_estimators": _values(1, 2, 4),
        "random_state": _values(0, 1, 9),
        "bootstrap": _values(True, False),
    },
)


@requires_pool
@settings(max_examples=12, deadline=None)
@given(grid=_GRIDS)
def test_one_pass_fit_matches_separate_fits(regression_data, grid):
    """Every forest of a one-pass fit is the forest its own ``fit``
    makes, at any worker count, and an OOB search over them scores and
    returns those forests."""
    X, y, _ = regression_data
    base = RandomForestRegressor(n_estimators=3, random_state=5, jobs=1)
    combos = [
        dict(zip(grid, values)) for values in itertools.product(*grid.values())
    ]
    separate = [base.clone(**combo).fit(X, y) for combo in combos]
    for jobs in (1, 2):
        forests = [base.clone(**combo) for combo in combos]
        fit_forests(forests, X, y, jobs)
        assert [forest_key(f) for f in forests] == [
            forest_key(f) for f in separate
        ]
    if False in grid.get("bootstrap", ()):
        return
    searches = [
        grid_search(base, grid, X, y, jobs=jobs)
        for jobs in (1, 2)
    ]
    for search in searches:
        assert [s for _, s in search.scores] == [
            f.oob_error(y) for f in separate
        ]
        best = combos.index(search.best_params)
        assert forest_key(search.best_model) == forest_key(separate[best])
    assert searches[0].scores == searches[1].scores
    assert searches[0].best_params == searches[1].best_params


@requires_pool
class TestLoocvParallel:
    def test_identical_mres(self, small_campaign):
        _, training = small_campaign
        kwargs = dict(tune=False, n_estimators=8)
        serial = evaluate_loocv(training, jobs=1, **kwargs)
        parallel = evaluate_loocv(training, jobs=2, **kwargs)
        assert serial.perf_mre == parallel.perf_mre
        assert serial.energy_mre == parallel.energy_mre
        assert set(parallel.train_seconds) == set(training.workloads())


@requires_pool
class TestTrainerParallel:
    def test_trained_model_identical_and_timed(self, small_campaign):
        from repro import NapelTrainer

        _, training = small_campaign
        serial = NapelTrainer(n_estimators=10, jobs=1).train(training)
        parallel = NapelTrainer(n_estimators=10, jobs=2).train(training)
        X = training.X()
        s_ipc, s_epi = serial.model.predict_labels(X)
        p_ipc, p_epi = parallel.model.predict_labels(X)
        assert np.array_equal(s_ipc, p_ipc)
        assert np.array_equal(s_epi, p_epi)
        assert parallel.jobs == 2
        assert parallel.stage_seconds["fit_ipc"] > 0
        assert parallel.stage_seconds["fit_energy"] > 0
