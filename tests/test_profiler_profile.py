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

from repro.errors import ConfigError, TraceError
from repro.profiler import (
    ApplicationProfile,
    FEATURE_NAMES,
    TOTAL_FEATURES,
    analyze_trace,
    data_reuse_features,
    footprint_features,
    ilp_features,
    instruction_reuse_features,
    working_set_features,
)
from repro.ir import TraceColumns
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

    @pytest.mark.parametrize("line_bytes", [32, 64])
    def test_footprint_lines_agrees_with_fresh_count(self, atax, line_bytes):
        trace = atax.generate(atax.test_config(), scale=4.0)
        analyze_trace(trace, line_bytes=line_bytes)
        addrs = trace.addr[trace.memory_mask]
        for shift in (5, 6, 7):
            fresh = len(np.unique(addrs >> np.uint64(shift)))
            assert trace.footprint_lines(shift) == fresh


#: Entry points taking a sample limit: name -> call(trace, limit).
SAMPLED = {
    "ilp": lambda t, v: ilp_features(t, sample_limit=v),
    "analyze_ilp": lambda t, v: analyze_trace(t, ilp_sample_limit=v),
    "data_reuse": lambda t, v: data_reuse_features(t, sample_limit=v),
    "instr_reuse": lambda t, v: instruction_reuse_features(t, sample_limit=v),
    "analyze_reuse": lambda t, v: analyze_trace(t, reuse_sample_limit=v),
}

#: Entry points taking a cache-line size: name -> call(trace, line_bytes).
LINED = {
    "ilp": lambda t, v: ilp_features(t, line_bytes=v),
    "data_reuse": lambda t, v: data_reuse_features(t, line_bytes=v),
    "analyze": lambda t, v: analyze_trace(t, line_bytes=v),
    "footprint": lambda t, v: footprint_features(t, line_bytes=v),
    "working_set": lambda t, v: working_set_features(t, line_bytes=v),
}


class TestBadArguments:
    """Bad profiler arguments fail loud instead of profiling silently wrong."""

    @pytest.mark.parametrize("entry", ["ilp", "analyze_ilp"])
    def test_negative_ilp_sample_limit(self, stream_trace, entry):
        with pytest.raises(ConfigError, match="sample_limit"):
            SAMPLED[entry](stream_trace, -5)

    @pytest.mark.parametrize(
        "entry", ["data_reuse", "instr_reuse", "analyze_reuse"]
    )
    def test_negative_reuse_sample_limit(self, stream_trace, entry):
        with pytest.raises(ConfigError, match="sample_limit"):
            SAMPLED[entry](stream_trace, -5)

    @pytest.mark.parametrize("line_bytes", [0, -64, 3, 48])
    @pytest.mark.parametrize("entry", sorted(LINED))
    def test_line_bytes_not_power_of_two(self, stream_trace, entry, line_bytes):
        with pytest.raises(ConfigError, match="line_bytes"):
            LINED[entry](stream_trace, line_bytes)

    @pytest.mark.parametrize("page_bytes", [3000, 32, 0, -4096])
    def test_page_bytes_not_power_of_two_above_line(
        self, stream_trace, page_bytes
    ):
        with pytest.raises(ConfigError, match="page_bytes"):
            footprint_features(stream_trace, page_bytes=page_bytes)

    def test_page_of_one_line_allowed(self, stream_trace):
        out = footprint_features(stream_trace, page_bytes=64)
        assert out["footprint.data_pages"] == out["footprint.data_lines"]

    def test_zero_sample_limit_still_allowed(self, stream_trace):
        assert ilp_features(stream_trace, sample_limit=0)["ilp.total"] == 0.0


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
