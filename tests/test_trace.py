"""Tests for event-level tracing (repro.obs.trace) and `repro trace`."""

import json
from collections import Counter

import pytest

from repro.cli import main
from repro.errors import TracingError
from repro.obs import (
    HardwareTimeline,
    Tracer,
    load_trace,
    merge_traces,
    reset_tracing,
    summarize_serve_requests,
    summarize_trace,
    validate_trace,
)
from repro.obs import trace as trace_mod
from repro.obs.trace import (
    HW_PID,
    MERGE_PID_STRIDE,
    WORKER_PID_BASE,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def _clean_tracing():
    """Every test starts and ends with tracing globally off."""
    reset_tracing()
    yield
    reset_tracing()


def event_counts(doc) -> Counter:
    """Multiset of (phase, name), excluding metadata (``M``) events.

    ``M`` process/thread-name events are derived from the observed pids
    at serialization time, so they differ between serial and parallel
    runs by design.
    """
    return Counter(
        (e["ph"], e["name"])
        for e in doc["traceEvents"]
        if e["ph"] != "M"
    )


class TestTracer:
    def test_disabled_by_default_and_recording_is_noop(self):
        t = Tracer()
        assert not t.enabled
        with t.span("nothing"):
            pass
        t.instant("nope")
        t.counter("zero", {"v": 1})
        assert t.event_count == 0

    def test_buffer_bound_counts_drops(self):
        t = Tracer(max_events=3)
        t.enable()
        for i in range(5):
            t.instant(f"e{i}")
        assert t.event_count == 3
        assert t.dropped == 2

    def test_span_instant_counter_shapes_validate(self, tmp_path):
        t = Tracer(epoch=0.0)
        t.enable(tmp_path / "out.json")
        with t.span("outer", cat="test", point=3):
            t.instant("hit", args={"key": "k"})
        t.counter("cache", {"hits": 1.0, "misses": 2.0})
        path = t.write()
        doc = load_trace(path)
        assert validate_trace(doc) == len(doc["traceEvents"])
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["outer"]["ph"] == "X"
        assert by_name["outer"]["dur"] >= 0
        assert by_name["outer"]["args"] == {"point": 3}
        assert by_name["hit"]["ph"] == "i"
        assert by_name["cache"]["args"] == {"hits": 1.0, "misses": 2.0}
        # Metadata names the pipeline process.
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(
            e["args"]["name"] == "repro pipeline" for e in meta
        )
        assert doc["otherData"]["events"] == 3
        assert doc["otherData"]["dropped"] == 0

    def test_write_without_path_raises(self):
        t = Tracer()
        t.enable()
        with pytest.raises(TracingError):
            t.write()

    def test_adopt_remaps_pipeline_but_not_hw_pids(self):
        t = Tracer()
        t.enable()
        t.adopt(
            [
                {"ph": "X", "name": "a", "ts": 0, "dur": 1, "pid": 1234,
                 "tid": 0},
                {"ph": "X", "name": "hw", "ts": 0, "dur": 1, "pid": HW_PID,
                 "tid": 2},
            ],
            lane=2,
        )
        events = t.events_since(0)
        assert events[0]["pid"] == WORKER_PID_BASE + 2
        assert events[1]["pid"] == HW_PID

    def test_mark_and_events_since_ship_deltas(self):
        t = Tracer()
        t.enable()
        t.instant("before")
        mark = t.mark()
        t.instant("after")
        shipped = t.events_since(mark)
        assert [e["name"] for e in shipped] == ["after"]

    def test_rotate_writes_and_clears_the_buffer(self, tmp_path):
        t = Tracer(epoch=0.0, max_events=2)
        t.enable(tmp_path / "out.json")
        t.instant("one")
        t.instant("two")
        t.instant("dropped")  # over the bound
        assert t.dropped == 1
        path = t.rotate(tmp_path / "out.0001.json")
        doc = load_trace(path)
        assert validate_trace(doc) > 0
        assert doc["otherData"]["rotated"] is True
        assert doc["otherData"]["events"] == 2
        assert doc["otherData"]["dropped"] == 1
        # Rotation resets both the buffer and the drop counter, so the
        # process keeps recording into the next file.
        assert t.event_count == 0
        assert t.dropped == 0
        t.instant("three")
        assert [e["name"] for e in t.events_since(0)] == ["three"]


class TestHardwareTimeline:
    def test_cap_counts_drops_and_close_folds_them(self):
        t = Tracer()
        t.enable()
        hw = HardwareTimeline(t, cap=3)
        for i in range(5):
            hw.slice(0, "pe.busy", i * 10.0, i * 10.0 + 5.0)
        assert hw.emitted == 3
        assert hw.dropped == 2
        hw.close()
        assert t.hw_dropped == 2
        events = t.events_since(0)
        assert len(events) == 3
        assert all(e["pid"] == HW_PID for e in events)

    def test_slice_converts_ns_to_us(self):
        t = Tracer()
        t.enable()
        hw = HardwareTimeline(t, cap=10)
        hw.slice(1, "pe.stall", 2000.0, 5000.0, reason="l1_miss")
        (event,) = t.events_since(0)
        assert event["ts"] == 2.0
        assert event["dur"] == 3.0
        assert event["tid"] == 1
        assert event["args"] == {"reason": "l1_miss"}


class TestTraceFileUtilities:
    def test_validate_rejects_malformed_events(self):
        bad = {"traceEvents": [
            {"ph": "Z", "name": "x"},
            {"ph": "X", "name": "", "ts": 0, "dur": 1},
            {"ph": "X", "name": "neg", "ts": 0, "dur": -1},
            {"ph": "C", "name": "c", "ts": 0},
        ]}
        with pytest.raises(TracingError) as err:
            validate_trace(bad, source="bad.json")
        assert "bad.json" in str(err.value)
        assert "unknown phase" in str(err.value)

    def test_validate_rejects_non_trace_json(self):
        with pytest.raises(TracingError):
            validate_trace({"hello": "world"})

    def test_merge_strides_pids_and_tags_sources(self):
        a = {"traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "repro pipeline"}},
            {"ph": "X", "name": "s", "ts": 0, "dur": 1, "pid": 1, "tid": 0},
        ]}
        b = {"traceEvents": [
            {"ph": "X", "name": "s", "ts": 0, "dur": 1, "pid": 1, "tid": 0},
        ]}
        merged = merge_traces([a, b], sources=["a.json", "b.json"])
        pids = [e["pid"] for e in merged["traceEvents"]]
        assert pids == [1, 1, 1 + MERGE_PID_STRIDE]
        names = [
            e["args"]["name"] for e in merged["traceEvents"]
            if e["ph"] == "M"
        ]
        assert names == ["repro pipeline [a.json]"]
        assert validate_trace(merged) == 3

    def test_summarize_subtracts_children_from_self_time(self):
        doc = {"traceEvents": [
            {"ph": "X", "name": "parent", "ts": 0.0, "dur": 10.0,
             "pid": 1, "tid": 0},
            {"ph": "X", "name": "child", "ts": 2.0, "dur": 4.0,
             "pid": 1, "tid": 0},
            # Same names on another lane must not nest across lanes.
            {"ph": "X", "name": "parent", "ts": 0.0, "dur": 8.0,
             "pid": 2, "tid": 0},
        ]}
        stats = {s["name"]: s for s in summarize_trace(doc)}
        assert stats["parent"]["count"] == 2
        assert stats["parent"]["total_us"] == 18.0
        assert stats["parent"]["self_us"] == 14.0  # 10 - 4 + 8
        assert stats["child"]["self_us"] == 4.0

    def test_load_trace_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(TracingError):
            load_trace(path)


def serve_trace_doc() -> dict:
    """A hand-built serve trace: two linked requests, one dangling."""

    def req(rid, batch_id, status=200, dur=1000.0):
        return {
            "ph": "X", "name": "serve.request", "ts": 0.0, "dur": dur,
            "pid": 1, "tid": 0,
            "args": {"request_id": rid, "route": "/predict",
                     "model": "default", "rows": 1,
                     "batch_id": batch_id, "status": status},
        }

    return {"traceEvents": [
        req("r1", "b1"),
        req("r2", "b1", dur=3000.0),
        req("r3", "b-missing"),  # no batch span: unlinked
        {
            "ph": "X", "name": "serve.predict_batch", "ts": 0.0,
            "dur": 500.0, "pid": 1, "tid": 0,
            "args": {"batch_id": "b1", "model": "default", "rows": 2,
                     "request_ids": ["r1", "r2"]},
        },
        # A timer-mirror span (no args): must not count as a request.
        {
            "ph": "X", "name": "serve.request", "ts": 0.0, "dur": 900.0,
            "pid": 1, "tid": 0, "cat": "metrics",
        },
    ]}


class TestSummarizeServeRequests:
    def test_links_groups_and_unlinked_counts(self):
        summary = summarize_serve_requests(serve_trace_doc())
        assert summary["requests"] == 3
        assert summary["batches"] == 1
        assert summary["mean_requests_per_batch"] == 2.0
        assert summary["unlinked_requests"] == 1
        (group,) = summary["groups"]
        assert (group["model"], group["route"], group["status"]) == (
            "default", "/predict", "200"
        )
        assert group["count"] == 3
        assert group["max_us"] == 3000.0

    def test_empty_trace_summarizes_to_zero(self):
        summary = summarize_serve_requests({"traceEvents": []})
        assert summary["requests"] == 0
        assert summary["batches"] == 0
        assert summary["mean_requests_per_batch"] is None
        assert summary["groups"] == []


class TestCliTracing:
    def test_campaign_trace_is_valid_and_in_manifest(self, capsys, tmp_path):
        trace_path = tmp_path / "out.json"
        manifest_path = tmp_path / "man.json"
        code, _, _ = run_cli(
            capsys, "campaign", "atax", "--scale", "8",
            "--cache", str(tmp_path / "cache.json"),
            "--trace", str(trace_path),
            "--manifest", str(manifest_path),
        )
        assert code == 0
        doc = load_trace(trace_path)
        assert validate_trace(doc) > 0
        counts = event_counts(doc)
        assert counts[("X", "campaign.point")] == 11
        assert counts[("i", "campaign.cache.miss")] == 11
        assert counts[("X", "phase.simulate")] == 11
        manifest = json.loads(manifest_path.read_text())
        assert manifest["trace_path"] == str(trace_path)
        assert manifest["trace"]["events"] == doc["otherData"]["events"]
        assert manifest["trace"]["dropped"] == 0

    def test_parallel_trace_equals_serial(self, capsys, tmp_path):
        """--jobs 2 records the same event multiset as a serial run."""
        docs = {}
        for label, extra in (
            ("serial", []), ("parallel", ["--jobs", "2"])
        ):
            trace_path = tmp_path / f"{label}.json"
            code, _, _ = run_cli(
                capsys, "campaign", "atax", "--scale", "8",
                "--cache", str(tmp_path / f"cache-{label}.json"),
                "--trace", str(trace_path), *extra,
            )
            assert code == 0
            docs[label] = load_trace(trace_path)
        assert event_counts(docs["serial"]) == event_counts(docs["parallel"])
        # The parallel run's campaign points sit on synthetic worker lanes.
        worker_pids = {
            e["pid"] for e in docs["parallel"]["traceEvents"]
            if e.get("name") == "campaign.point"
        }
        assert all(pid >= WORKER_PID_BASE for pid in worker_pids)

    def test_parallel_campaign_and_hw_traces_validate(self, capsys, tmp_path):
        """A two-worker campaign trace and a simulated-hardware timeline
        pass ``repro trace --validate`` together, and the campaign's
        manifest points at its trace."""
        campaign_trace = tmp_path / "campaign.json"
        hw_trace = tmp_path / "hw.json"
        manifest_path = tmp_path / "man.json"
        assert run_cli(
            capsys, "campaign", "atax", "--scale", "4", "--jobs", "2",
            "--trace", str(campaign_trace), "--manifest", str(manifest_path),
        )[0] == 0
        assert run_cli(
            capsys, "simulate", "atax", "--scale", "8",
            "--trace", str(hw_trace), "--trace-hw",
        )[0] == 0
        code, out, _ = run_cli(
            capsys, "trace", str(campaign_trace), str(hw_trace), "--validate"
        )
        assert code == 0
        assert out.count(": OK (") == 2
        code, _, _ = run_cli(capsys, "trace", str(campaign_trace), "--top", "10")
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["trace_path"] == str(campaign_trace)
        assert manifest["trace"]["events"] > 0

    def test_hw_timeline_respects_sampling_cap(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(trace_mod, "DEFAULT_HW_CAP", 50)
        trace_path = tmp_path / "hw.json"
        code, _, _ = run_cli(
            capsys, "simulate", "atax", "--scale", "8",
            "--trace", str(trace_path), "--trace-hw",
        )
        assert code == 0
        doc = load_trace(trace_path)
        hw_events = [
            e for e in doc["traceEvents"]
            if e.get("pid") == HW_PID and e["ph"] != "M"
        ]
        assert 0 < len(hw_events) <= 50
        assert doc["otherData"]["hw_dropped"] > 0

    def test_trace_validate_rejects_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "Z", "name": 3}]}')
        code, _, err = run_cli(capsys, "trace", str(bad), "--validate")
        assert code == 2
        assert "invalid trace" in err

    def test_trace_summarize_and_merge(self, capsys, tmp_path):
        trace_path = tmp_path / "run.json"
        assert run_cli(
            capsys, "campaign", "atax", "--scale", "8",
            "--cache", str(tmp_path / "cache.json"),
            "--trace", str(trace_path),
        )[0] == 0
        code, out, _ = run_cli(capsys, "trace", str(trace_path), "--top", "10")
        assert code == 0
        assert "self (ms)" in out
        assert "campaign.point" in out
        assert "phase.simulate" in out
        merged_path = tmp_path / "merged.json"
        code, out, _ = run_cli(
            capsys, "trace", str(trace_path), str(trace_path),
            "--merge", str(merged_path),
        )
        assert code == 0
        merged = load_trace(merged_path)
        assert validate_trace(merged) > 0
        code, out, _ = run_cli(capsys, "trace", str(merged_path), "--validate")
        assert code == 0
        assert "OK" in out

    def test_trace_serve_prints_request_groups(self, capsys, tmp_path):
        path = tmp_path / "serve.json"
        path.write_text(json.dumps(serve_trace_doc()))
        code, out, _ = run_cli(capsys, "trace", str(path), "--serve")
        assert code == 0
        assert "/predict" in out
        assert "serve requests: 3 across 1 batch(es)" in out
        assert "1 UNLINKED" in out

    def test_tracing_disabled_leaves_no_file(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "campaign", "atax", "--scale", "8",
            "--cache", str(tmp_path / "cache.json"),
        )
        assert code == 0
        assert list(tmp_path.glob("*.json")) == [tmp_path / "cache.json"]
