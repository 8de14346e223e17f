"""Tests for the twelve workload trace generators (paper Table 2).

``python tests/test_workloads.py`` rewrites ``tests/data/golden_traces.json``
(the per-column sha256 of every workload's central and test trace); do so
only for a change that is meant to alter the traces.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.doe import ParameterSpace, central_composite
from repro.errors import WorkloadError
from repro.ir import Opcode, validate_trace
from repro.ir.trace import TRACE_COLUMNS
from repro.workloads import (
    WORKLOAD_NAMES,
    all_workloads,
    get_workload,
    partition_range,
)
from repro.workloads.base import SizeMapping, config_seed
from repro.workloads.synthetic import Gups, PointerChase, Stream

ALL = all_workloads()

GOLDEN_TRACES = Path(__file__).parent / "data" / "golden_traces.json"
GOLDEN_SCALE = 8.0

#: Paper Table 4 DoE configuration counts.
PAPER_DOE_COUNTS = {
    "atax": 11, "bfs": 31, "bp": 31, "chol": 19, "gemv": 19, "gesu": 19,
    "gram": 19, "kme": 31, "lu": 19, "mvt": 19, "syrk": 19, "trmm": 19,
}


class TestRegistry:
    def test_all_twelve_present(self):
        assert WORKLOAD_NAMES == (
            "atax", "bfs", "bp", "chol", "gemv", "gesu",
            "gram", "kme", "lu", "mvt", "syrk", "trmm",
        )

    def test_lookup_roundtrip(self):
        for name in WORKLOAD_NAMES:
            assert get_workload(name).name == name

    def test_unknown_name(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            get_workload("nonexistent")

    def test_singletons(self):
        assert get_workload("atax") is get_workload("atax")


@pytest.mark.parametrize("workload", ALL, ids=[w.name for w in ALL])
class TestEveryWorkload:
    def test_doe_count_matches_paper(self, workload):
        space = ParameterSpace.of_workload(workload)
        assert len(central_composite(space)) == PAPER_DOE_COUNTS[workload.name]

    def test_levels_monotone(self, workload):
        for p in workload.parameters:
            assert list(p.levels) == sorted(p.levels), p.name

    def test_generates_valid_trace(self, workload):
        trace = workload.generate(workload.central_config(), scale=4.0)
        assert len(trace) > 0
        validate_trace(trace)

    def test_deterministic_for_same_config(self, workload):
        cfg = workload.central_config()
        a = workload.generate(cfg, scale=4.0)
        b = workload.generate(cfg, scale=4.0)
        assert len(a) == len(b)
        assert np.array_equal(a.addr, b.addr)
        assert np.array_equal(a.opcode, b.opcode)

    def test_bigger_input_bigger_trace(self, workload):
        # scale=2 (not more): heavier scaling clamps the cubic kernels'
        # dimensions to their floors, flattening the comparison.
        space = ParameterSpace.of_workload(workload)
        small = workload.generate(space.config_at({}), scale=2.0)
        big_cfg = {p.name: p.maximum for p in workload.parameters}
        big = workload.generate(big_cfg, scale=2.0)
        assert len(big) > len(small)

    def test_threads_partition_work(self, workload):
        cfg = dict(workload.central_config())
        cfg["threads"] = 8
        trace = workload.generate(cfg, scale=4.0)
        assert trace.thread_count > 1

    def test_missing_parameter_rejected(self, workload):
        with pytest.raises(WorkloadError, match="missing parameter"):
            workload.generate({})

    def test_unknown_parameter_rejected(self, workload):
        cfg = dict(workload.central_config())
        cfg["bogus"] = 1
        with pytest.raises(WorkloadError, match="unknown parameters"):
            workload.generate(cfg)

    def test_has_memory_and_compute(self, workload):
        trace = workload.generate(workload.central_config(), scale=4.0)
        counts = trace.opcode_counts()
        assert trace.memory_op_count > 0
        fp_ops = sum(
            counts.get(op, 0)
            for op in (Opcode.FALU, Opcode.FMUL, Opcode.FDIV, Opcode.FMA)
        )
        assert fp_ops > 0


def golden_trace_digests() -> dict[str, dict[str, dict[str, str]]]:
    """sha256 of each trace column, per workload and per configuration."""
    digests: dict[str, dict[str, dict[str, str]]] = {}
    for workload in [*ALL, Stream(), Gups(), PointerChase()]:
        per_config = digests[workload.name] = {}
        for label, config in (
            ("central", workload.central_config()),
            ("test", workload.test_config()),
        ):
            trace = workload.generate(config, scale=GOLDEN_SCALE)
            per_config[label] = {
                name: hashlib.sha256(
                    np.ascontiguousarray(getattr(trace, name)).tobytes()
                ).hexdigest()
                for name in TRACE_COLUMNS
            }
    return digests


def test_traces_match_golden_digests(kernel_form):
    # Every column of every workload's trace, bit for bit, as recorded in
    # the golden file, under both forms of the trace fill: trace
    # construction may change, the traces may not.
    assert golden_trace_digests() == json.loads(GOLDEN_TRACES.read_text())


class TestAccessPatternContrasts:
    """The qualitative signatures that drive the Figure 7 split."""

    def _profile(self, name, **overrides):
        from repro.profiler import analyze_trace

        w = get_workload(name)
        cfg = dict(w.central_config())
        cfg.update(overrides)
        return analyze_trace(w.generate(cfg, scale=2.0), workload=name)

    def test_gemv_is_streaming(self):
        p = self._profile("gemv")
        assert p["stride.regular_read"] > 0.8
        assert p["stride.frac_le_4"] > 0.5

    def test_bfs_is_irregular(self):
        p = self._profile("bfs")
        assert p["stride.frac_le_4"] < 0.3

    def test_kme_uses_atomics(self):
        p = self._profile("kme")
        assert p["mix.atomic"] > 0.0

    def test_bfs_footprint_exceeds_caches(self):
        p = self._profile("bfs")
        assert p["traffic.bytes_1048576"] > 0.3  # misses a 1 MiB cache


class TestSizeMapping:
    def test_monotone(self):
        m = SizeMapping(alpha=2.0, beta=0.5, minimum=4)
        values = [m.effective(v) for v in (100, 400, 1600, 6400)]
        assert values == sorted(values)
        assert values[0] >= 4

    def test_scale_shrinks(self):
        m = SizeMapping(alpha=1.0, beta=1.0, minimum=1)
        assert m.effective(100, scale=4.0) == 25

    def test_apply_scale_false(self):
        m = SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False)
        assert m.effective(100, scale=4.0) == 100

    def test_maximum_cap(self):
        m = SizeMapping(alpha=1.0, beta=1.0, minimum=1, maximum=5)
        assert m.effective(100) == 5

    def test_rejects_nonpositive(self):
        m = SizeMapping()
        with pytest.raises(WorkloadError):
            m.effective(0)
        with pytest.raises(WorkloadError):
            m.effective(10, scale=0)


class TestPartitionRange:
    def test_covers_range(self):
        parts = partition_range(10, 3)
        assert parts == [(0, 4), (4, 7), (7, 10)]

    def test_more_parts_than_items(self):
        parts = partition_range(2, 4)
        assert parts[0] == (0, 1) and parts[1] == (1, 2)
        assert parts[2] == (2, 2)  # empty

    def test_rejects_zero_parts(self):
        with pytest.raises(WorkloadError):
            partition_range(5, 0)


class TestConfigSeed:
    def test_deterministic(self):
        assert config_seed("atax", {"a": 1.0}) == config_seed("atax", {"a": 1.0})

    def test_sensitive_to_values(self):
        assert config_seed("atax", {"a": 1.0}) != config_seed("atax", {"a": 2.0})

    def test_sensitive_to_name(self):
        assert config_seed("atax", {"a": 1.0}) != config_seed("bfs", {"a": 1.0})


if __name__ == "__main__":
    GOLDEN_TRACES.write_text(
        json.dumps(golden_trace_digests(), indent=1, sort_keys=True) + "\n"
    )
