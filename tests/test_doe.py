"""Tests for the design-of-experiments package (paper Section 2.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.doe import (
    ParameterSpace,
    ccd_run_count,
    central_composite,
    latin_hypercube,
    random_design,
)
from repro.errors import DoEError
from repro.workloads import get_workload
from repro.workloads.base import DoEParameter


def make_space(k=2):
    params = [
        DoEParameter(f"p{i}", (1, 2, 3, 4, 5), 3) for i in range(k)
    ]
    return ParameterSpace(params)


class TestParameterSpace:
    def test_names(self):
        assert make_space(3).names == ("p0", "p1", "p2")

    def test_duplicate_names_rejected(self):
        p = DoEParameter("x", (1, 2, 3, 4, 5), 3)
        with pytest.raises(DoEError, match="duplicate"):
            ParameterSpace([p, p])

    def test_empty_rejected(self):
        with pytest.raises(DoEError):
            ParameterSpace([])

    def test_config_at_levels(self):
        space = make_space(2)
        cfg = space.config_at({"p0": "minimum", "p1": "maximum"})
        assert cfg == {"p0": 1, "p1": 5}

    def test_config_at_defaults_central(self):
        assert make_space(2).config_at({}) == {"p0": 3, "p1": 3}

    def test_unknown_level(self):
        with pytest.raises(DoEError, match="unknown level"):
            make_space(1).config_at({"p0": "bogus"})

    def test_unknown_parameter(self):
        with pytest.raises(DoEError, match="unknown parameters"):
            make_space(1).config_at({"zz": "low"})

    def test_from_unit_endpoints(self):
        space = make_space(1)
        assert space.from_unit([0.0]) == {"p0": 1}
        assert space.from_unit([1.0]) == {"p0": 5}
        assert space.from_unit([0.5]) == {"p0": 3}

    def test_from_unit_bad_coordinate(self):
        with pytest.raises(DoEError):
            make_space(1).from_unit([1.5])

    def test_of_workload(self):
        space = ParameterSpace.of_workload(get_workload("atax"))
        assert space.names == ("dimensions", "threads")


class TestCcd:
    def test_run_count_formula(self):
        """k=2 -> 11, k=3 -> 19, k=4 -> 31: exactly paper Table 4."""
        assert ccd_run_count(2) == 11
        assert ccd_run_count(3) == 19
        assert ccd_run_count(4) == 31

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_design_size(self, k):
        configs = central_composite(make_space(k))
        assert len(configs) == ccd_run_count(k)

    def test_atax_corner_points(self):
        """The paper's worked atax example (Section 2.4)."""
        space = ParameterSpace.of_workload(get_workload("atax"))
        configs = central_composite(space)
        corners = {
            (c["dimensions"], c["threads"]) for c in configs[:4]
        }
        assert corners == {(1250, 8), (1250, 32), (2000, 8), (2000, 32)}

    def test_atax_axial_points(self):
        space = ParameterSpace.of_workload(get_workload("atax"))
        configs = central_composite(space)
        axial = {(c["dimensions"], c["threads"]) for c in configs[4:8]}
        assert axial == {(500, 16), (2300, 16), (1500, 4), (1500, 64)}

    def test_atax_center_replicates(self):
        space = ParameterSpace.of_workload(get_workload("atax"))
        configs = central_composite(space)
        centers = [c for c in configs if c == {"dimensions": 1500, "threads": 16}]
        assert len(centers) == 3  # 2k - 1 with k = 2

    def test_custom_center_replicates(self):
        configs = central_composite(make_space(2), center_replicates=1)
        assert len(configs) == 4 + 4 + 1

    def test_invalid_center_replicates(self):
        with pytest.raises(DoEError):
            central_composite(make_space(2), center_replicates=0)

    def test_every_config_within_bounds(self):
        space = make_space(3)
        for cfg in central_composite(space):
            for p in space.parameters:
                assert p.minimum <= cfg[p.name] <= p.maximum


class TestBaselineDesigns:
    def test_lhs_properties(self):
        space = make_space(2)
        rng = np.random.default_rng(0)
        configs = latin_hypercube(space, 10, rng)
        assert len(configs) == 10
        # One-dimensional stratification: each of the 10 strata is hit once.
        for name in space.names:
            values = sorted(c[name] for c in configs)
            strata = [int((v - 1) / 4 * 10 * 0.999999) for v in values]
            assert sorted(set(strata)) == strata

    def test_lhs_needs_positive_n(self):
        with pytest.raises(DoEError):
            latin_hypercube(make_space(2), 0, np.random.default_rng(0))

    def test_random_design_in_bounds(self):
        configs = random_design(make_space(2), 20, np.random.default_rng(1))
        assert len(configs) == 20
        assert all(1 <= c["p0"] <= 5 for c in configs)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 30))
    def test_lhs_always_in_bounds(self, k, n):
        space = make_space(k)
        configs = latin_hypercube(space, n, np.random.default_rng(0))
        for cfg in configs:
            for p in space.parameters:
                assert p.minimum <= cfg[p.name] <= p.maximum
