"""Tests for profile assembly (repro.profiler.profile).

``python tests/test_profiler_profile.py`` rewrites
``tests/data/golden_profiles.json`` (the sha256 of every workload's central
and test profile); do so only for a change that is meant to alter profiles.
"""

import gc
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.profiler import (
    ApplicationProfile,
    FEATURE_NAMES,
    TOTAL_FEATURES,
    analyze_trace,
    branch_features,
    data_reuse_features,
    footprint_features,
    ilp_features,
    instruction_mix_features,
    instruction_reuse_features,
    memory_traffic_features,
    register_traffic_features,
    stride_features,
    working_set_features,
)
from repro.profiler import ilp as ilp_module
from repro.profiler.features import LINE_BYTES, TRAFFIC_CACHE_SIZES
from repro.ir import InstructionTrace, TraceColumns
from repro.workloads import all_workloads
from repro.workloads.synthetic import Gups, PointerChase, Stream
from _helpers import build_random_trace, build_stream_trace

GOLDEN_PROFILES = Path(__file__).parent / "data" / "golden_profiles.json"
GOLDEN_SCALE = 8.0


class TestAnalyzeTrace:
    def test_full_vector(self, stream_trace):
        profile = analyze_trace(stream_trace, workload="stream")
        assert profile.values.shape == (TOTAL_FEATURES,)
        assert np.isfinite(profile.values).all()
        assert profile.workload == "stream"
        assert profile.instruction_count == len(stream_trace)

    def test_indexing_by_name(self, stream_trace):
        profile = analyze_trace(stream_trace)
        assert profile["mix.load"] == pytest.approx(1 / 6)
        assert 0 <= profile["drd.all.cdf_0"] <= 1

    def test_as_dict_alignment(self, stream_trace):
        profile = analyze_trace(stream_trace)
        d = profile.as_dict()
        assert list(d) == list(FEATURE_NAMES)
        assert d["mix.store"] == profile["mix.store"]

    def test_deterministic(self, stream_trace):
        a = analyze_trace(stream_trace)
        b = analyze_trace(stream_trace)
        assert np.array_equal(a.values, b.values)

    def test_distinguishes_regular_from_irregular(self):
        regular = analyze_trace(build_stream_trace(3000))
        irregular = analyze_trace(build_random_trace(3000))
        assert regular["stride.regular_read"] > irregular["stride.regular_read"]
        assert (
            irregular["traffic.bytes_1048576"]
            > regular["traffic.bytes_1048576"]
        )

    def test_json_roundtrip(self, stream_trace):
        profile = analyze_trace(
            stream_trace, workload="s", parameters={"n": 10}
        )
        restored = ApplicationProfile.from_json_dict(profile.to_json_dict())
        assert np.array_equal(restored.values, profile.values)
        assert restored.workload == "s"
        assert restored.parameters == {"n": 10.0}
        assert restored.instruction_count == profile.instruction_count

    def test_thread_count_recorded(self, atax):
        trace = atax.generate({"dimensions": 800, "threads": 8}, scale=3.0)
        profile = analyze_trace(trace)
        assert profile.thread_count == 8


class TestFamilyViews:
    """Each public family function is the name-keyed view of its block
    of the profile vector."""

    @pytest.mark.parametrize("make", [
        InstructionTrace.empty,
        lambda: build_stream_trace(3000),
        lambda: build_random_trace(3000),
        lambda: PointerChase().generate(PointerChase().central_config(), scale=8.0),
    ], ids=["empty", "stream", "random", "pointer_chase"])
    def test_family_dicts_are_slices_of_the_profile(self, make):
        trace = make()
        values = analyze_trace(trace).values
        data, hists = data_reuse_features(trace)
        got: dict[str, float] = {}
        for view in (
            instruction_mix_features(trace), ilp_features(trace), data,
            instruction_reuse_features(trace),
            memory_traffic_features(trace, hists),
            register_traffic_features(trace), footprint_features(trace),
            stride_features(trace), branch_features(trace),
            working_set_features(trace),
        ):
            assert all(type(v) is float for v in view.values())
            got.update(view)
        assert list(got) == list(FEATURE_NAMES)
        assert np.array(list(got.values())).tobytes() == values.tobytes()


    @pytest.mark.parametrize("make", [
        InstructionTrace.empty,
        lambda: build_stream_trace(3000),
        lambda: build_random_trace(3000),
    ], ids=["empty", "stream", "random"])
    def test_reuse_blocks_equal_the_histogram_methods(self, make):
        """The matrix form of the reuse and traffic blocks gives what each
        stream's ReuseDistanceHistogram gives."""
        trace = make()
        feats, hists = data_reuse_features(trace)
        traffic = memory_traffic_features(trace, hists)
        capacities = [max(1, size // LINE_BYTES) for size in TRAFFIC_CACHE_SIZES]
        for kind, stream in (
            ("read_miss", "read"), ("write_miss", "write"), ("bytes", "all"),
        ):
            hist = hists[stream]
            for stat in ("cdf", "pdf"):
                got = [feats[f"drd.{stream}.{stat}_{i}"] for i in range(32)]
                assert got == getattr(hist, stat)().tolist()
            assert feats[f"drd.{stream}.mean_log2"] == hist.mean_log2()
            assert feats[f"drd.{stream}.median_log2"] == hist.median_log2()
            got = [traffic[f"traffic.{kind}_{size}"] for size in TRAFFIC_CACHE_SIZES]
            assert got == hist.miss_ratios(capacities).tolist()


class TestColumnTableLifetime:
    """The derived-column table lives only as long as one analyze_trace
    call; the trace keeps the scalars it memoised."""

    def test_memo_holds_no_per_instruction_array(self, atax):
        trace = atax.generate(atax.central_config(), scale=4.0)
        analyze_trace(trace)
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, TraceColumns)]

        def arrays(value):
            if isinstance(value, np.ndarray):
                return [value]
            if isinstance(value, dict):
                value = [*value.keys(), *value.values()]
            if isinstance(value, (list, tuple)):
                return [a for v in value for a in arrays(v)]
            return []

        assert arrays(trace._memo) == []
        for key in ("opcode_counts", "thread_count", ("footprint_lines", 6)):
            assert key in trace._memo

    def test_footprint_lines_agrees_with_fresh_count(self, atax):
        trace = atax.generate(atax.test_config(), scale=4.0)
        analyze_trace(trace)
        addrs = trace.addr[trace.memory_mask]
        for shift in (5, 6, 7):
            fresh = len(np.unique(addrs >> np.uint64(shift)))
            assert trace.footprint_lines(shift) == fresh


class TestBadArguments:
    """Edge values of the profile's fixed sample sizes."""

    def test_zero_sample_limit_still_allowed(self, monkeypatch, stream_trace):
        monkeypatch.setattr(ilp_module, "ILP_SAMPLE_LIMIT", 0)
        assert ilp_features(stream_trace)["ilp.total"] == 0.0


class TestApplicationProfile:
    def test_wrong_length_rejected(self):
        with pytest.raises(TraceError, match="395"):
            ApplicationProfile(
                values=np.zeros(10), instruction_count=1, thread_count=1
            )

    def test_values_immutable(self, stream_trace):
        profile = analyze_trace(stream_trace)
        with pytest.raises(ValueError):
            profile.values[0] = 99.0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(100, 2000))
    def test_fractions_in_unit_interval(self, n):
        profile = analyze_trace(build_stream_trace(n))
        for prefix in ("mix.", "opcode.", "drd.", "ird.", "traffic.", "wset."):
            for name in FEATURE_NAMES:
                if name.startswith(prefix) and not name.endswith(
                    ("mean_log2", "median_log2")
                ):
                    assert -1e-9 <= profile[name] <= 1 + 1e-9, name


def golden_profile_digests() -> dict[str, dict[str, dict[str, object]]]:
    """sha256 of each profile's values, per workload and configuration."""
    digests: dict[str, dict[str, dict[str, object]]] = {}
    for workload in [*all_workloads(), Stream(), Gups(), PointerChase()]:
        per_config = digests[workload.name] = {}
        for label, config in (
            ("central", workload.central_config()),
            ("test", workload.test_config()),
        ):
            profile = analyze_trace(
                workload.generate(config, scale=GOLDEN_SCALE)
            )
            per_config[label] = {
                "values": hashlib.sha256(
                    np.ascontiguousarray(profile.values).tobytes()
                ).hexdigest(),
                "instruction_count": profile.instruction_count,
                "thread_count": profile.thread_count,
            }
    return digests


def test_profiles_match_golden_digests(kernel_form):
    # Every feature of every workload's profile, bit for bit, as recorded in
    # the golden file, under both kernel forms: the profiler's internals may
    # change, its output may not.
    assert golden_profile_digests() == json.loads(GOLDEN_PROFILES.read_text())


if __name__ == "__main__":
    GOLDEN_PROFILES.write_text(
        json.dumps(golden_profile_digests(), indent=1, sort_keys=True) + "\n"
    )
