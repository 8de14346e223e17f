"""Tests for the observability layer (repro.obs) and the CLI error paths."""

import asyncio
import io
import json
import logging
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import repro_env
from repro.cli import main
from repro.obs import (
    DEFAULT_SIZE_BOUNDS,
    ExpositionError,
    Histogram,
    MetricsRegistry,
    RunManifest,
    config_hash,
    configure_logging,
    get_logger,
    labeled_name,
    log_bounds,
    metrics,
    parse_exposition,
    phase_timings,
    render_prometheus,
    sanitize_metric_name,
    split_metric_key,
    verbosity_level,
)
from repro.config import default_nmc_config
from repro.obs.histogram import _to_scaled


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def _restore_logging():
    """Leave the repro logger hierarchy in its default state."""
    yield
    configure_logging(0)


class TestLogging:
    def test_get_logger_qualifies_bare_names(self):
        assert get_logger("campaign").name == "repro.campaign"
        assert get_logger("repro.nmcsim").name == "repro.nmcsim"
        assert get_logger().name == "repro"

    def test_verbosity_mapping(self):
        assert verbosity_level(-1) == logging.ERROR
        assert verbosity_level(0) == logging.WARNING
        assert verbosity_level(1) == logging.INFO
        assert verbosity_level(2) == logging.DEBUG
        assert verbosity_level(5) == logging.DEBUG

    def test_human_console_lines_with_context(self):
        stream = io.StringIO()
        configure_logging(1, stream=stream)
        get_logger("campaign").info(
            "point done", extra={"ctx": {"point": 3, "of": 11}}
        )
        get_logger("campaign").debug("hidden at -v")
        text = stream.getvalue()
        assert "repro.campaign: point done (point=3 of=11)" in text
        assert "hidden" not in text

    def test_json_file_gets_full_detail(self, tmp_path):
        path = tmp_path / "run.log"
        configure_logging(0, json_path=str(path), stream=io.StringIO())
        get_logger("ml").debug("fold", extra={"ctx": {"held_out": "atax"}})
        get_logger("ml").info("plain")
        entries = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(entries) == 2
        assert entries[0]["logger"] == "repro.ml"
        assert entries[0]["level"] == "debug"
        assert entries[0]["message"] == "fold"
        assert entries[0]["held_out"] == "atax"
        assert all({"ts", "level", "logger", "message"} <= set(e)
                   for e in entries)

    def test_logger_level_is_the_lowest_handler_level(self, tmp_path):
        """No record is built that no installed handler keeps: at
        verbosity 0 an access-log line is never made, and with a JSON
        file every one of them still lands there."""
        from repro.serve.server import access_log

        configure_logging(0, stream=io.StringIO())
        assert not access_log.isEnabledFor(logging.INFO)
        assert access_log.isEnabledFor(logging.WARNING)
        configure_logging(1, stream=io.StringIO())
        assert access_log.isEnabledFor(logging.INFO)
        assert not access_log.isEnabledFor(logging.DEBUG)
        path = tmp_path / "run.log"
        configure_logging(0, json_path=str(path), stream=io.StringIO())
        assert access_log.isEnabledFor(logging.DEBUG)
        for i in range(3):
            access_log.info("request", extra={"ctx": {"request_id": f"r{i}"}})
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["request_id"] for e in entries] == ["r0", "r1", "r2"]
        assert {e["logger"] for e in entries} == {"repro.serve.access"}

    def test_reconfigure_replaces_managed_handlers(self):
        first = configure_logging(1, stream=io.StringIO())
        n_handlers = len(first.handlers)
        second = configure_logging(2, stream=io.StringIO())
        assert len(second.handlers) == n_handlers


class TestMetricsRegistry:
    def test_counters(self):
        reg = MetricsRegistry()
        assert reg.inc("a") == 1
        assert reg.inc("a", 4) == 5
        assert reg.count("a") == 5
        assert reg.count("missing") == 0

    def test_timer_nesting_and_stats(self):
        reg = MetricsRegistry()
        with reg.timer("outer"):
            with reg.timer("inner") as span:
                pass
            assert span.elapsed_s is not None and span.elapsed_s >= 0
        outer = reg.snapshot()["timers"]["outer"]
        inner = reg.snapshot()["timers"]["inner"]
        assert outer["count"] == 1 and inner["count"] == 1
        assert outer["total_s"] >= inner["total_s"] >= 0.0
        assert outer["min_s"] == outer["max_s"] == outer["total_s"]

    def test_overlapping_thread_spans_each_record_once(self):
        """Two threads timing concurrently each record their own span
        once."""
        reg = MetricsRegistry()
        barrier = threading.Barrier(2, timeout=10)
        errors: list[BaseException] = []

        def work(name: str) -> None:
            try:
                with reg.timer(name):
                    barrier.wait()  # both threads now inside their span
                    barrier.wait()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(f"span{i}",))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        assert reg.snapshot()["timers"]["span0"]["count"] == 1
        assert reg.snapshot()["timers"]["span1"]["count"] == 1

    def test_overlapping_task_spans_each_record_once(self):
        """Two coroutines interleaved on ONE event loop (as concurrent
        prediction-server requests are) each record their own span
        once."""
        reg = MetricsRegistry()

        async def work(name, ready, proceed):
            with reg.timer(name):
                ready.set()
                await proceed.wait()  # both tasks now inside their span

        async def main():
            ready_a, ready_b = asyncio.Event(), asyncio.Event()
            proceed = asyncio.Event()
            tasks = [
                asyncio.create_task(work("req-a", ready_a, proceed)),
                asyncio.create_task(work("req-b", ready_b, proceed)),
            ]
            await ready_a.wait()
            await ready_b.wait()
            proceed.set()
            await asyncio.gather(*tasks)

        asyncio.run(main())
        assert reg.snapshot()["timers"]["req-a"]["count"] == 1
        assert reg.snapshot()["timers"]["req-b"]["count"] == 1

    def test_snapshot_diff_merge_roundtrip(self):
        a = MetricsRegistry()
        a.inc("x", 2)
        with a.timer("t"):
            pass
        base = a.snapshot()
        a.inc("x", 3)
        a.inc("y")
        with a.timer("t"):
            pass
        delta = a.diff(base)
        assert delta["counters"] == {"x": 3, "y": 1}
        assert delta["timers"]["t"]["count"] == 1
        b = MetricsRegistry()
        b.merge_snapshot(base)
        b.merge_snapshot(delta)
        assert b.snapshot()["counters"] == a.snapshot()["counters"]
        assert b.snapshot()["timers"]["t"]["count"] == 2
        assert b.snapshot()["timers"]["t"]["total_s"] == pytest.approx(
            a.snapshot()["timers"]["t"]["total_s"]
        )

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.inc("n")
        with reg.timer("t"):
            pass
        assert json.loads(json.dumps(reg.snapshot())) == reg.snapshot()

    def test_phase_timings_extracts_phase_namespace(self):
        reg = MetricsRegistry()
        with reg.timer("phase.simulate"):
            pass
        with reg.timer("ml.grid_search"):
            pass
        phases = phase_timings(reg.snapshot())
        assert set(phases) == {"simulate"}
        assert phases["simulate"] >= 0.0

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("a")
        with reg.timer("t"):
            pass
        reg.reset()
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}, "timers": {}
        }


class TestLabeledNames:
    def test_bare_name_passes_through(self):
        assert labeled_name("x", None) == "x"
        assert labeled_name("x", {}) == "x"
        assert split_metric_key("x") == ("x", {})

    def test_label_keys_sort_canonically(self):
        key = labeled_name("serve.requests", {"route": "/p", "model": "m"})
        assert key == 'serve.requests{model="m",route="/p"}'
        assert split_metric_key(key) == (
            "serve.requests", {"model": "m", "route": "/p"}
        )

    def test_values_escape_and_round_trip(self):
        labels = {"a": 'quo"te', "b": "back\\slash", "c": "new\nline"}
        key = labeled_name("n", labels)
        assert split_metric_key(key) == ("n", labels)

    def test_already_labeled_name_rejected(self):
        with pytest.raises(ValueError, match="already carries labels"):
            labeled_name('x{a="1"}', {"b": "2"})


class TestHistogram:
    def test_bounds_are_inclusive_upper_edges(self):
        h = Histogram((1.0, 10.0))
        assert h.observe(1.0) == 0     # exactly on a bound: lower bucket
        assert h.observe(1.5) == 1
        assert h.observe(10.0) == 1
        assert h.observe(11.0) == 2    # overflow bucket
        assert h.counts == [1, 2, 1]
        assert h.count == 4
        assert h.min == 1.0 and h.max == 11.0

    def test_rejects_non_finite_observations(self):
        h = Histogram((1.0,))
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                h.observe(bad)

    def test_log_bounds_ladder_is_deterministic(self):
        a = log_bounds(1e-5, 100.0, per_decade=4)
        b = log_bounds(1e-5, 100.0, per_decade=4)
        assert a == b
        assert a[0] == pytest.approx(1e-5)
        assert a[-1] >= 100.0
        assert all(x < y for x, y in zip(a, a[1:]))
        with pytest.raises(ValueError):
            log_bounds(1.0, 0.5)

    def test_quantiles_interpolate_within_buckets(self):
        h = Histogram((1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.quantile(0.0) == 0.0
        assert h.quantile(1.0) == 4.0
        # Overflow bucket answers with the observed maximum.
        h.observe(100.0)
        assert h.quantile(1.0) == 100.0
        assert Histogram((1.0,)).quantile(0.5) is None
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_snapshot_diff_merge_is_exact(self):
        h = Histogram((1.0, 2.0))
        h.observe(0.1)
        base = h.snapshot()
        h.observe(1.7)
        h.observe(0.3)
        delta = h.diff(base)
        assert delta["count"] == 2
        assert delta["counts"] == [1, 1, 0]
        rebuilt = Histogram.from_snapshot(base)
        rebuilt.merge(delta)
        assert rebuilt.snapshot() == h.snapshot()

    def test_merge_order_never_changes_the_sum(self):
        """The exact scaled-integer sum makes merges associative even
        for values whose float addition is not."""
        values = [0.1, 1e-17, 0.2, 1e17, 0.3, 1e-17]
        shards = [Histogram((1.0,)) for _ in range(3)]
        for i, v in enumerate(values):
            shards[i % 3].observe(v)
        snaps = [s.snapshot() for s in shards]

        def merged(order):
            out = Histogram((1.0,))
            for i in order:
                out.merge(snaps[i])
            return out.snapshot()

        forward = merged([0, 1, 2])
        assert forward == merged([2, 1, 0]) == merged([1, 2, 0])
        # And the single-histogram reference is bit-identical too.
        serial = Histogram((1.0,))
        for v in values:
            serial.observe(v)
        assert serial.snapshot() == forward

    def test_diff_rejects_mismatched_bounds(self):
        h = Histogram((1.0,))
        with pytest.raises(ValueError, match="bounds"):
            h.diff(Histogram((2.0,)).snapshot())
        with pytest.raises(ValueError, match="bounds"):
            h.merge(Histogram((2.0,)).snapshot())

    def test_exemplars_attach_and_newest_wins_on_merge(self):
        h = Histogram((1.0,))
        h.observe(0.5, exemplar={"request_id": "old", "ts": 1.0})
        other = Histogram((1.0,))
        other.observe(0.6, exemplar={"request_id": "new", "ts": 2.0})
        h.merge(other.snapshot())
        assert h.exemplars[0]["request_id"] == "new"
        snap = h.snapshot()
        assert snap["exemplars"]["0"]["request_id"] == "new"
        # Exemplars survive from_snapshot round trips.
        assert Histogram.from_snapshot(snap).exemplars[0]["value"] == 0.6


def _fraction_scaled(value: float) -> int:
    """The ``Fraction`` form of ``histogram._to_scaled``, kept as the
    oracle of the exact scaled sum."""
    frac = Fraction(value)
    return (frac.numerator << 1074) // frac.denominator


def _fraction_float(scaled: int) -> float:
    """The ``Fraction`` form of ``histogram._from_scaled``: the nearest
    float, the infinity of the sign where that rounding overflows."""
    try:
        return float(Fraction(scaled, 1 << 1074))
    except OverflowError:
        return math.inf if scaled > 0 else -math.inf


class TestScaledSum:
    @settings(max_examples=1000, deadline=None)
    @given(value=st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([
               0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               2.2250738585072014e-308, sys.float_info.max,
               -sys.float_info.max, 1.0, 0.1, 2.0 ** 52 + 0.5,
           ]))
    def test_matches_the_fraction_form(self, value):
        assert _to_scaled(value) == _fraction_scaled(value)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from([sys.float_info.max, -sys.float_info.max, 1.7e308]),
        max_size=20,
    ))
    def test_snapshot_sum_is_the_exact_sum_rounded_once(self, values):
        """Over the whole finite range: a sum past the largest double
        rounds to the infinity of its sign."""
        h = Histogram((1.0,))
        for v in values:
            h.observe(v)
        exact = sum(map(_fraction_scaled, values))
        snap = h.snapshot()
        assert snap["sum_scaled"] == exact
        assert snap["sum"] == _fraction_float(exact)
        assert h.diff(None)["sum"] == snap["sum"]

    def test_sum_past_the_largest_double_is_infinite(self):
        h = Histogram((1.0,))
        base = h.snapshot()
        h.observe(1.7e308)
        h.observe(1.7e308)
        assert h.sum == h.snapshot()["sum"] == h.diff(base)["sum"] == math.inf
        h.observe(-1.7e308)
        assert h.sum == 1.7e308
        neg = Histogram((1.0,))
        for _ in range(2):
            neg.observe(-sys.float_info.max)
        assert neg.snapshot()["sum"] == -math.inf


class TestRegistryHistogramsAndGauges:
    def test_observe_creates_and_labels_series(self):
        reg = MetricsRegistry()
        reg.observe("lat_s", 0.01, {"route": "/p"})
        reg.observe("lat_s", 0.02, {"route": "/p"})
        hist = reg.histogram("lat_s", {"route": "/p"})
        assert hist is not None and hist.count == 2
        assert reg.histogram("lat_s") is None

    def test_bounds_conflict_raises(self):
        reg = MetricsRegistry()
        reg.observe("size", 3, bounds=DEFAULT_SIZE_BOUNDS)
        with pytest.raises(ValueError, match="different"):
            reg.observe("size", 3, bounds=(1.0, 2.0))

    def test_gauges_last_write_wins_and_diff_ships_changes(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 3)
        base = reg.snapshot()
        reg.set_gauge("depth", 3)   # unchanged: not shipped
        reg.set_gauge("gen", 2)     # new: shipped
        delta = reg.diff(base)
        assert delta["gauges"] == {"gen": 2.0}
        reg.set_gauge("depth", 7)
        assert reg.diff(base)["gauges"] == {"depth": 7.0, "gen": 2.0}
        other = MetricsRegistry()
        other.merge_snapshot(reg.snapshot())
        assert other.gauge("depth") == 7.0

    def test_delta_shipping_reconstructs_histograms_exactly(self):
        """The executor's snapshot/diff/merge channel carries labeled
        histograms bit-for-bit (the --jobs N identity contract)."""
        parent = MetricsRegistry()
        parent.observe("t_s", 0.5, {"w": "atax"})
        base = json.loads(json.dumps(parent.snapshot()))
        worker = MetricsRegistry()
        worker.merge_snapshot(base)
        worker_base = worker.snapshot()
        for v in (0.1, 1e-17, 0.2):
            worker.observe("t_s", v, {"w": "atax"})
        worker.inc("points")
        shipped = json.loads(json.dumps(worker.diff(worker_base)))
        parent.merge_snapshot(shipped)
        serial = MetricsRegistry()
        for v in (0.5, 0.1, 1e-17, 0.2):
            serial.observe("t_s", v, {"w": "atax"})
        serial.inc("points")
        assert json.dumps(parent.snapshot(), sort_keys=True) == json.dumps(
            serial.snapshot(), sort_keys=True
        )


class TestPrometheusExposition:
    def snapshot(self):
        reg = MetricsRegistry()
        reg.inc("serve.requests", 3, {"route": "/p", "status": 200})
        reg.inc("serve.requests", 1, {"route": "/h", "status": 200})
        reg.inc("campaign.points")
        reg.set_gauge("serve.inflight", 2)
        with reg.timer("serve.request"):
            pass
        reg.observe("serve.request.latency_s", 0.02, {"route": "/p"})
        reg.observe("serve.request.latency_s", 5.0, {"route": "/p"})
        return reg.snapshot()

    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("serve.requests") == (
            "repro_serve_requests"
        )
        assert sanitize_metric_name("lat_s") == "repro_lat_seconds"
        assert sanitize_metric_name("a-b c") == "repro_a_b_c"

    def test_render_parses_strictly_and_covers_all_kinds(self):
        text = render_prometheus(self.snapshot())
        parsed = parse_exposition(text)
        assert parsed["types"]["repro_serve_requests_total"] == "counter"
        assert parsed["types"]["repro_serve_inflight"] == "gauge"
        assert parsed["types"]["repro_serve_request_seconds"] == "summary"
        assert parsed["types"][
            "repro_serve_request_latency_seconds"
        ] == "histogram"
        samples = parsed["samples"]
        assert samples[
            'repro_serve_requests_total{route="/p",status="200"}'
        ] == 3.0
        # The +Inf bucket always equals the series count.
        inf = samples[
            'repro_serve_request_latency_seconds_bucket'
            '{le="+Inf",route="/p"}'
        ]
        count = samples[
            'repro_serve_request_latency_seconds_count{route="/p"}'
        ]
        assert inf == count == 2.0
        # Buckets are cumulative and non-decreasing.
        buckets = [
            v for k, v in samples.items()
            if k.startswith("repro_serve_request_latency_seconds_bucket")
        ]
        assert buckets == sorted(buckets)

    def test_each_family_declared_exactly_once(self):
        text = render_prometheus(self.snapshot())
        type_lines = [
            line for line in text.splitlines()
            if line.startswith("# TYPE")
        ]
        assert len(type_lines) == len(set(type_lines))

    def test_parser_rejects_duplicates_and_malformed_lines(self):
        with pytest.raises(ExpositionError, match="duplicate TYPE"):
            parse_exposition(
                "# TYPE a counter\n# TYPE a counter\na 1\n"
            )
        with pytest.raises(ExpositionError, match="duplicate series"):
            parse_exposition("# TYPE a counter\na 1\na 2\n")
        with pytest.raises(ExpositionError, match="no TYPE"):
            parse_exposition("orphan 1\n")
        with pytest.raises(ExpositionError, match="malformed sample"):
            parse_exposition("# TYPE a counter\na one two three four\n")
        with pytest.raises(ExpositionError, match="unknown metric type"):
            parse_exposition("# TYPE a sparkline\n")

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == ""
        assert parse_exposition("") == {"types": {}, "samples": {}}


class TestRunManifest:
    def test_roundtrip_through_file(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("campaign.points.simulated", 5)  # not this run's
        manifest = RunManifest(
            "campaign", ["campaign", "gemv"], registry=reg
        )
        reg.inc("campaign.points.simulated", 7)
        with reg.timer("phase.simulate"):
            pass
        manifest.update(workloads=["gemv"], n_points=7)
        manifest.finish(0)
        path = tmp_path / "m.json"
        manifest.write(path)
        loaded = RunManifest.load(path)
        assert loaded.data == manifest.to_json_dict()
        assert loaded.data["exit_code"] == 0
        assert loaded.data["workloads"] == ["gemv"]
        assert "simulate" in loaded.data["phases"]
        assert (
            loaded.data["metrics"]["counters"]["campaign.points.simulated"]
            == 7
        )

    def test_config_hash_stable_and_sensitive(self):
        cfg = default_nmc_config()
        assert config_hash(cfg) == config_hash(default_nmc_config())
        assert config_hash(cfg) != config_hash(cfg.replace(n_pes=cfg.n_pes * 2))
        assert len(config_hash(cfg)) == 64


class TestCliManifestAndLogs:
    def test_campaign_emits_manifest_and_json_logs(self, capsys, tmp_path):
        man = tmp_path / "m.json"
        logp = tmp_path / "run.log"
        code, _, err = run_cli(
            capsys, "campaign", "atax", "--scale", "8",
            "--manifest", str(man), "--log-json", str(logp), "-v",
        )
        assert code == 0
        data = json.loads(man.read_text())
        for key in (
            "repro_version", "command", "argv", "schema_hash",
            "arch_config_hash", "workloads", "n_points", "cache",
            "phases", "metrics", "wall_seconds", "exit_code",
        ):
            assert key in data, f"manifest missing {key}"
        assert data["command"] == "campaign"
        assert data["exit_code"] == 0
        assert data["workloads"] == ["atax"]
        assert {"doe", "trace", "profile", "simulate"} <= set(data["phases"])
        counters = data["metrics"]["counters"]
        assert "campaign.cache.hits" not in counters
        assert counters["campaign.cache.misses"] == data["n_points"]
        assert data["cache"] == {"entries": data["n_points"]}
        entries = [
            json.loads(line) for line in logp.read_text().splitlines()
        ]
        assert entries, "JSON log file is empty"
        assert all({"ts", "level", "logger", "message"} <= set(e)
                   for e in entries)
        assert any(e["message"] == "campaign done" for e in entries)
        assert "campaign start" in err  # -v progress on the console

    def test_manifest_counts_only_its_own_run(self, capsys, tmp_path):
        """Two runs in one process: each manifest holds that run's counts,
        not the process's running totals."""
        names = (
            "campaign.points.simulated", "nmcsim.runs",
            "campaign.cache.misses",
        )
        counts = []
        for run in ("first", "second"):
            man = tmp_path / f"{run}.json"
            code, _, err = run_cli(
                capsys, "campaign", "atax", "--scale", "8",
                "--manifest", str(man),
            )
            assert code == 0, err
            counters = json.loads(man.read_text())["metrics"]["counters"]
            counts.append({name: counters[name] for name in names})
        assert counts[0] == counts[1] == dict.fromkeys(names, 11)

    def test_quiet_console_by_default(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "campaign", "atax", "--scale", "8")
        assert code == 0
        assert "campaign start" not in err

    def test_manifest_written_on_failure(self, capsys, tmp_path):
        man = tmp_path / "m.json"
        code, _, err = run_cli(
            capsys, "campaign", "nope", "--manifest", str(man)
        )
        assert code == 2
        assert "unknown workload" in err
        data = json.loads(man.read_text())
        assert data["exit_code"] == 2

    def test_jobs_metrics_equal_serial(self, capsys):
        reg = metrics()
        base = reg.snapshot()
        assert run_cli(capsys, "campaign", "atax", "--scale", "8")[0] == 0
        serial = reg.diff(base)
        base = reg.snapshot()
        assert run_cli(
            capsys, "campaign", "atax", "--scale", "8", "--jobs", "2"
        )[0] == 0
        parallel = reg.diff(base)

        # Batched replay groups pending points into one chunk per worker,
        # so the batch-call bookkeeping legitimately depends on --jobs
        # (1 chunk serially, 2 at --jobs 2); everything else must match.
        def no_batch(mapping):
            return {
                k: v for k, v in mapping.items()
                if not k.startswith("sim.batch.")
            }

        assert no_batch(serial["counters"]) == no_batch(parallel["counters"])
        assert serial["counters"]["sim.batch.points"] == (
            parallel["counters"]["sim.batch.points"]
        )
        assert (
            {k: v["count"] for k, v in serial["timers"].items()}
            == {k: v["count"] for k, v in parallel["timers"].items()}
        )
        # Histograms observe the *simulated* kernel time, so the --jobs 2
        # delta is bit-identical to serial — bucket counts, exact sum,
        # min/max, everything.
        key = 'campaign.point.sim_time_s{workload="atax"}'
        assert key in serial["histograms"]
        assert serial["histograms"][key]["count"] == 11
        assert json.dumps(no_batch(serial["histograms"]), sort_keys=True) == (
            json.dumps(no_batch(parallel["histograms"]), sort_keys=True)
        )


class TestCliErrorPaths:
    def test_closed_stdout_exits_141_quietly(self, tmp_path):
        """A reader that stops early (``repro ... | head``) is no error:
        nothing on stderr, exit 128 + SIGPIPE, the manifest and the trace
        still written."""
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "campaign", "atax",
                 "--scale", "8", "--manifest", "m.json", "--trace", "t.json"],
                cwd=tmp_path, env=repro_env(), stdout=write_end,
                stderr=subprocess.PIPE, text=True, timeout=600,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == 141
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["exit_code"] == 141
        assert manifest["trace"]["events"] > 0
        assert (tmp_path / "t.json").is_file()

    def test_keyboard_interrupt_exit_130(self, capsys, monkeypatch):
        from repro.cli import commands

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(commands, "cmd_workloads", interrupted)
        code, _, err = run_cli(capsys, "workloads")
        assert code == 130
        assert "interrupted" in err
        assert "Traceback" not in err

    def test_unexpected_error_is_one_line(self, capsys, monkeypatch):
        from repro.cli import commands

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(commands, "cmd_workloads", broken)
        monkeypatch.delenv("REPRO_DEBUG", raising=False)
        code, _, err = run_cli(capsys, "workloads")
        assert code == 1
        assert "unexpected error: RuntimeError: boom" in err
        assert "Traceback" not in err

    def test_unexpected_error_verbose_traceback(self, capsys, monkeypatch):
        from repro.cli import commands

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(commands, "cmd_workloads", broken)
        code, _, err = run_cli(capsys, "workloads", "-v")
        assert code == 1
        assert "Traceback (most recent call last)" in err

    def test_repro_debug_env_enables_traceback(self, capsys, monkeypatch):
        from repro.cli import commands

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(commands, "cmd_workloads", broken)
        monkeypatch.setenv("REPRO_DEBUG", "1")
        code, _, err = run_cli(capsys, "workloads")
        assert code == 1
        assert "Traceback (most recent call last)" in err

    def test_expected_error_no_traceback(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_DEBUG", raising=False)
        code, _, err = run_cli(capsys, "profile", "nope")
        assert code == 2
        assert "Traceback" not in err
