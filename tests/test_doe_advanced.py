"""Tests for the D-optimal and Box-Behnken designs."""

import math

import numpy as np
import pytest

from repro.doe import (
    ParameterSpace,
    box_behnken,
    central_composite,
    d_optimal,
    quadratic_basis,
)
from repro.errors import DoEError
from repro.workloads.base import DoEParameter


def make_space(k=3):
    return ParameterSpace(
        [DoEParameter(f"p{i}", (0, 25, 50, 75, 100), 50) for i in range(k)]
    )


class TestQuadraticBasis:
    def test_column_count(self):
        # 1 + k + C(k,2) + k columns.
        X = quadratic_basis(np.random.default_rng(0).random((10, 3)))
        assert X.shape == (10, 1 + 3 + 3 + 3)

    def test_known_values(self):
        X = quadratic_basis(np.array([[2.0, 3.0]]))
        # [1, x0, x1, x0*x1, x0^2, x1^2]
        assert X[0].tolist() == [1.0, 2.0, 3.0, 6.0, 4.0, 9.0]

    def test_rejects_1d(self):
        with pytest.raises(DoEError):
            quadratic_basis(np.zeros(5))


class TestDOptimal:
    def test_returns_requested_count(self):
        configs = d_optimal(
            make_space(2), 9, np.random.default_rng(0), n_candidates=64
        )
        assert len(configs) == 9

    def test_within_bounds(self):
        space = make_space(3)
        for cfg in d_optimal(space, 12, np.random.default_rng(1), n_candidates=64):
            for p in space.parameters:
                assert p.minimum <= cfg[p.name] <= p.maximum

    def test_more_informative_than_random(self):
        """D-optimal selection beats random selection on its criterion."""
        space = make_space(2)
        rng = np.random.default_rng(2)
        n = 8
        opt = d_optimal(space, n, rng, n_candidates=128)

        def logdet(configs):
            pts = np.array([
                [(c[p.name] - p.minimum) / (p.maximum - p.minimum)
                 for p in space.parameters]
                for c in configs
            ])
            X = quadratic_basis(pts)
            sign, value = np.linalg.slogdet(X.T @ X + 1e-8 * np.eye(X.shape[1]))
            return value if sign > 0 else -np.inf

        random_scores = [
            logdet(space.sample(n, np.random.default_rng(seed)))
            for seed in range(5)
        ]
        assert logdet(opt) > max(random_scores)

    def test_needs_positive_n(self):
        with pytest.raises(DoEError):
            d_optimal(make_space(2), 0, np.random.default_rng(0))

    def test_deterministic_given_rng(self):
        a = d_optimal(make_space(2), 6, np.random.default_rng(3), n_candidates=64)
        b = d_optimal(make_space(2), 6, np.random.default_rng(3), n_candidates=64)
        assert a == b


class TestBoxBehnken:
    def test_run_count(self):
        # 4*C(k,2) edge midpoints plus 2k-1 centre replicates.
        for k in (2, 3, 4):
            assert len(box_behnken(make_space(k))) == 4 * math.comb(k, 2) + 2 * k - 1

    def test_no_extreme_points(self):
        """Box-Behnken never visits minimum/maximum levels — CCD does."""
        space = make_space(3)
        for cfg in box_behnken(space):
            for p in space.parameters:
                assert cfg[p.name] not in (p.minimum, p.maximum)
        ccd = central_composite(space)
        assert any(
            cfg[p.name] in (p.minimum, p.maximum)
            for cfg in ccd for p in space.parameters
        )

    def test_edge_midpoints(self):
        configs = box_behnken(make_space(2), center_replicates=1)
        non_center = [
            c for c in configs if c != {"p0": 50, "p1": 50}
        ]
        assert len(non_center) == 4
        assert {(c["p0"], c["p1"]) for c in non_center} == {
            (25, 25), (25, 75), (75, 25), (75, 75)
        }

    def test_needs_two_parameters(self):
        with pytest.raises(DoEError):
            box_behnken(make_space(1))

    def test_invalid_center_replicates(self):
        with pytest.raises(DoEError):
            box_behnken(make_space(2), center_replicates=0)
