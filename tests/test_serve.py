"""End-to-end and unit tests for the prediction server (repro.serve)."""

import asyncio
import http.client
import json
import logging
import re
import signal
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from _helpers import repro_env
from repro import NapelTrainer, SimulationCampaign, get_workload, save_model
from repro.core.predictor import NapelModel
from repro.errors import ConfigError
from repro.obs import (
    load_trace,
    metrics,
    parse_exposition,
    reset_tracing,
    summarize_serve_requests,
    tracer,
    validate_trace,
)
from repro.schema import FeatureBlock, FeatureSchema
from repro.serve import (
    MicroBatcher,
    ServeClient,
    ServeClientError,
    ServerThread,
    parse_model_specs,
)
from repro.serve.protocol import ProtocolError, decode_predict_request


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """A small trained artifact plus its training data and model."""
    campaign = SimulationCampaign(scale=4.0)
    training = campaign.run(get_workload("atax"))
    trained = NapelTrainer(n_estimators=10, tune=False).train(training)
    path = tmp_path_factory.mktemp("serve") / "model.pkl"
    save_model(trained.model, path)
    return SimpleNamespace(
        model=trained.model, training=training, path=path
    )


@pytest.fixture(scope="module")
def server(artifact):
    """One shared server on an ephemeral port for the read-mostly tests."""
    with ServerThread(
        {"default": str(artifact.path)}, batch_window_ms=1.0
    ) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


def _row(artifact, i=0):
    return [float(v) for v in artifact.training.X()[i]]


# --------------------------------------------------------------- endpoints


class TestEndpoints:
    def test_healthz(self, client):
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["uptime_seconds"] >= 0
        assert "default" in doc["models"]
        entry = doc["models"]["default"]
        assert entry["schema_hash"]
        assert entry["n_features"] > 0
        assert isinstance(doc["generation"], int)

    def test_models(self, client):
        doc = client.models()
        assert set(doc["models"]) == {"default"}

    def test_metrics_carries_serve_counters(self, client):
        # The /metrics request itself is counted before routing, so the
        # counter is present even if this test runs first.
        doc = client.metrics()
        assert doc["uptime_seconds"] >= 0
        assert "serve.requests" in doc["metrics"]["counters"]

    def test_unknown_route_404_lists_routes(self, client):
        with pytest.raises(ServeClientError) as err:
            client.request("GET", "/nope")
        assert err.value.status == 404
        assert "/predict" in str(err.value)

    def test_wrong_method_405(self, client):
        with pytest.raises(ServeClientError) as err:
            client.request("POST", "/healthz")
        assert err.value.status == 405
        assert err.value.code == "method_not_allowed"


# ----------------------------------------------------------- predict: happy


class TestPredict:
    def test_single_row_bit_identical_to_local_model(
        self, artifact, client
    ):
        X = artifact.training.X()[:1]
        ipc, epi = artifact.model.predict_labels(X)
        doc = client.predict([_row(artifact)])
        assert doc["model"] == "default"
        assert doc["schema_hash"] == artifact.model.schema.content_hash
        p = doc["predictions"][0]
        # JSON float repr round-trips float64 exactly, so equality here
        # really is bit-identity with the in-process predict path.
        assert p["ipc_per_pe"] == float(ipc[0])
        assert p["energy_per_instruction_j"] == float(epi[0])

    def test_meta_derives_the_cli_quantities(self, artifact, client):
        schema = artifact.model.schema
        X = artifact.training.X()[:1]
        ipc, epi = artifact.model.predict_labels(X)
        expected = NapelModel.derive_prediction(
            workload="atax",
            instructions=123456,
            threads=int(X[0, schema.index("app.threads")]),
            n_pes=int(X[0, schema.index("arch.n_pes")]),
            frequency_ghz=float(X[0, schema.index("arch.frequency_ghz")]),
            ipc_per_pe=float(ipc[0]),
            energy_per_instruction_j=float(epi[0]),
        )
        doc = client.predict(
            [_row(artifact)],
            meta=[{"workload": "atax", "instructions": 123456}],
        )
        p = doc["predictions"][0]
        assert p["workload"] == "atax"
        assert p["ipc"] == expected.ipc
        assert p["pes_used"] == expected.pes_used
        assert p["time_s"] == expected.time_s
        assert p["energy_j"] == expected.energy_j
        assert p["edp"] == expected.edp

    def test_multi_row_request_matches_matrix_call(self, artifact, client):
        X = artifact.training.X()[:8]
        ipc, epi = artifact.model.predict_labels(X)
        doc = client.predict([_row(artifact, i) for i in range(8)])
        assert len(doc["predictions"]) == 8
        for i, p in enumerate(doc["predictions"]):
            assert p["ipc_per_pe"] == float(ipc[i])
            assert p["energy_per_instruction_j"] == float(epi[i])

    def test_dict_rows_equal_positional_rows(self, artifact, client):
        names = artifact.model.schema.names
        row = _row(artifact)
        by_name = client.predict([dict(zip(names, row))])
        by_pos = client.predict([row])
        assert by_name["predictions"] == by_pos["predictions"]

    def test_exact_columns_need_no_align(self, artifact, client):
        """``columns`` naming the model's own layout is that layout: the
        request is served as it is, with no ``align``."""
        names = list(artifact.model.schema.names)
        row = _row(artifact)
        named = client.predict([row], columns=names)
        assert named["predictions"] == client.predict([row])["predictions"]

    def test_dict_rows_unknown_key_of_another_row_reads_zero(
        self, artifact, client
    ):
        names = artifact.model.schema.names
        rows = [dict(zip(names, _row(artifact, i))) for i in range(2)]
        rows[1]["custom.extra_feature"] = 7.0
        got = client.predict(rows, align=True)
        want = client.predict([_row(artifact, i) for i in range(2)])
        assert got["predictions"] == want["predictions"]

    def test_align_true_projects_reordered_layout_bit_identically(
        self, artifact, client
    ):
        names = artifact.model.schema.names
        row = _row(artifact)
        reversed_cols = list(reversed(names))
        reversed_row = list(reversed(row))
        aligned = client.predict(
            [reversed_row], columns=reversed_cols, align=True
        )
        canonical = client.predict([row])
        assert aligned["predictions"] == canonical["predictions"]


# ---------------------------------------------------------- predict: errors


class TestPredictErrors:
    def test_reordered_layout_without_align_is_422(self, artifact, client):
        names = artifact.model.schema.names
        with pytest.raises(ServeClientError) as err:
            client.predict(
                [list(reversed(_row(artifact)))],
                columns=list(reversed(names)),
            )
        assert err.value.status == 422
        assert err.value.code == "schema_mismatch"
        assert err.value.body["moved"]

    def test_renamed_column_422_names_the_drift(self, artifact, client):
        names = list(artifact.model.schema.names)
        renamed = names[3]
        names[3] = "profile.bogus_feature"
        with pytest.raises(ServeClientError) as err:
            client.predict([_row(artifact)], columns=names, align=True)
        assert err.value.status == 422
        assert renamed in err.value.body["missing"]

    def test_wrong_width_is_422(self, artifact, client):
        with pytest.raises(ServeClientError) as err:
            client.predict([_row(artifact)[:-1]])
        assert err.value.status == 422

    def test_dict_row_missing_feature_is_422(self, artifact, client):
        names = artifact.model.schema.names
        row = dict(zip(names, _row(artifact)))
        del row[names[0]]
        with pytest.raises(ServeClientError) as err:
            client.predict([row])
        assert err.value.status == 422
        assert names[0] in err.value.body["missing"]

    def test_dict_row_lacking_a_feature_another_row_carries_is_422(
        self, artifact, client
    ):
        names = artifact.model.schema.names
        rows = [dict(zip(names, _row(artifact, i))) for i in range(2)]
        del rows[1][names[5]]
        with pytest.raises(ServeClientError) as err:
            client.predict(rows)
        assert err.value.status == 422
        assert "row 1 lacks" in str(err.value)
        assert err.value.body["missing"] == [names[5]]

    def test_align_refuses_live_unknown_backend_one_hot(
        self, artifact, client
    ):
        names = artifact.model.schema.names
        row = dict(zip(names, _row(artifact)))
        row["arch.backend.phantom-nmc"] = 1.0
        with pytest.raises(ServeClientError) as err:
            client.predict([row], align=True)
        assert err.value.status == 422
        assert "arch.backend.phantom-nmc" in err.value.body["extra"]
        assert "backend" in str(err.value)

    def test_align_drops_cold_unknown_extras(self, artifact, client):
        names = artifact.model.schema.names
        row = dict(zip(names, _row(artifact)))
        augmented = dict(row)
        augmented["custom.extra_feature"] = 42.0
        augmented["arch.backend.phantom-nmc"] = 0.0  # cold one-hot: fine
        got = client.predict([augmented], align=True)
        want = client.predict([row])
        assert got["predictions"] == want["predictions"]

    def test_unknown_model_is_404(self, artifact, client):
        with pytest.raises(ServeClientError) as err:
            client.predict([_row(artifact)], model="nope")
        assert err.value.status == 404
        assert err.value.code == "unknown_model"

    def test_malformed_json_is_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            conn.request(
                "POST", "/predict", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            doc = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert doc["error"] == "bad_json"

    def test_errors_do_not_kill_the_connection(self, artifact, client):
        with pytest.raises(ServeClientError):
            client.predict([_row(artifact)], model="nope")
        assert client.predict([_row(artifact)])["predictions"]


# ------------------------------------------------------- batching, reload,
# ------------------------------------------------------- shutdown


class TestServerLifecycle:
    def test_concurrent_requests_coalesce(self, artifact):
        with ServerThread(
            {"default": str(artifact.path)}, batch_window_ms=250.0
        ) as srv:
            n = 4
            barrier = threading.Barrier(n, timeout=10)
            lock = threading.Lock()
            sizes: list[int] = []
            errors: list[BaseException] = []

            def worker() -> None:
                try:
                    with ServeClient(port=srv.port) as c:
                        c.healthz()  # open the connection before racing
                        barrier.wait()
                        doc = c.predict([_row(artifact)])
                    with lock:
                        sizes.append(doc["batched_rows"])
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker) for _ in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            # All four raced into one 250 ms window; at minimum the
            # slowest pair must have shared a matrix call.
            assert max(sizes) >= 2

    def test_hot_reload_under_live_traffic(self, artifact):
        with ServerThread(
            {"default": str(artifact.path)}, batch_window_ms=1.0
        ) as srv:
            stop = threading.Event()
            lock = threading.Lock()
            generations: set[int] = set()
            errors: list[BaseException] = []

            def hammer() -> None:
                try:
                    with ServeClient(port=srv.port) as c:
                        while not stop.is_set():
                            doc = c.predict([_row(artifact)])
                            with lock:
                                generations.add(doc["generation"])
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer) for _ in range(4)
            ]
            for t in threads:
                t.start()
            for _ in range(3):
                time.sleep(0.05)
                srv.reload()
            time.sleep(0.05)
            stop.set()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            # Requests spanned the swaps: generations advanced without a
            # single dropped or failed request.
            assert max(generations) == 4
            with ServeClient(port=srv.port) as c:
                health = c.healthz()
            assert health["generation"] == 4
            assert health["reloads"] == 3

    def test_graceful_shutdown_drains_pending_batch(self, artifact):
        # A window far longer than the test: the request below parks in
        # an open bucket, and only the shutdown drain can answer it.
        srv = ServerThread(
            {"default": str(artifact.path)}, batch_window_ms=60_000.0
        ).start()
        results: list[dict] = []
        errors: list[BaseException] = []

        def call() -> None:
            try:
                with ServeClient(port=srv.port) as c:
                    results.append(c.predict([_row(artifact)]))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        thread = threading.Thread(target=call)
        thread.start()
        with ServeClient(port=srv.port) as probe:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if probe.healthz()["pending_batch_rows"] >= 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("request never reached the batch bucket")
        srv.stop()
        thread.join(timeout=30)
        assert not errors
        assert results and results[0]["predictions"]

    def test_bad_artifact_fails_startup(self, tmp_path):
        bad = tmp_path / "bad.pkl"
        bad.write_bytes(b"not a pickle")
        with pytest.raises(Exception, match="corrupt|not a NAPEL"):
            ServerThread({"default": str(bad)}).start()


# ---------------------------------------------------------- observability


class TestObservability:
    def test_request_id_propagated_and_echoed(self, artifact, client):
        client.predict([_row(artifact)], request_id="req-abc.1")
        assert client.last_request_id == "req-abc.1"

    def test_request_id_minted_when_absent_or_invalid(
        self, artifact, client
    ):
        client.predict([_row(artifact)])
        minted = client.last_request_id
        assert minted and re.fullmatch(r"[0-9a-f]{16}", minted)
        # Ids with spaces/controls are not trusted into logs.
        client.predict([_row(artifact)], request_id="bad id\twith junk")
        assert client.last_request_id != "bad id\twith junk"
        assert re.fullmatch(r"[0-9a-f]{16}", client.last_request_id)

    def test_error_responses_carry_the_request_id(self, artifact, client):
        with pytest.raises(ServeClientError) as err:
            client.predict(
                [_row(artifact)], model="nope", request_id="trace-me-1"
            )
        assert err.value.body["request_id"] == "trace-me-1"
        assert client.last_request_id == "trace-me-1"

    def test_labeled_request_counters_and_latency_histogram(
        self, artifact, client
    ):
        client.predict([_row(artifact)])
        doc = client.metrics()
        assert doc["schema"]["version"] == 2
        counters = doc["metrics"]["counters"]
        key = (
            'serve.requests{model="default",route="/predict",status="200"}'
        )
        assert counters[key] >= 1
        # The unlabeled aggregate stays alongside the labeled series.
        assert counters["serve.requests"] >= counters[key]
        hists = doc["metrics"]["histograms"]
        hkey = 'serve.request.latency_s{model="default",route="/predict"}'
        assert hists[hkey]["count"] >= 1
        assert hists[hkey]["sum"] > 0
        batch = doc["metrics"]["histograms"][
            'serve.batch.rows{model="default"}'
        ]
        assert batch["count"] >= 1
        gauges = doc["metrics"]["gauges"]
        assert gauges["serve.generation"] >= 1
        assert "serve.inflight" in gauges

    def test_4xx_requests_are_labeled_too(self, artifact, client):
        base = metrics().snapshot()
        with pytest.raises(ServeClientError):
            client.predict([_row(artifact)], model="nope")
        delta = metrics().diff(base)
        key = 'serve.requests{model="-",route="/predict",status="404"}'
        assert delta["counters"][key] == 1

    def test_metrics_json_is_deterministically_ordered(self, client):
        raw = client.request_raw("GET", "/metrics")
        doc = json.loads(raw)
        assert raw == (json.dumps(doc, sort_keys=True) + "\n").encode()

    def test_metrics_prom_is_valid_exposition(self, artifact, client):
        client.predict([_row(artifact)])
        text = client.metrics_prom()
        parsed = parse_exposition(text)  # raises on malformed output
        assert parsed["types"]["repro_serve_requests_total"] == "counter"
        assert (
            parsed["types"]["repro_serve_request_latency_seconds"]
            == "histogram"
        )
        assert parsed["types"]["repro_serve_generation"] == "gauge"
        inf_buckets = [
            key for key in parsed["samples"]
            if key.startswith("repro_serve_request_latency_seconds_bucket")
            and 'le="+Inf"' in key
        ]
        assert inf_buckets
        # Content negotiation: the Accept header alone also selects text.
        raw = client.request_raw(
            "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        parse_exposition(raw.decode("utf-8"))
        # ...and the default stays JSON.
        assert "metrics" in client.metrics()

    def test_debug_requests_ring(self, artifact, client):
        client.predict([_row(artifact)], request_id="ring-probe")
        doc = client.debug_requests()
        assert doc["capacity"] >= 1
        assert doc["count"] == len(doc["requests"]) <= doc["capacity"]
        match = [
            r for r in doc["requests"] if r["request_id"] == "ring-probe"
        ]
        assert match, "predict request missing from the debug ring"
        rec = match[0]
        assert rec["route"] == "/predict"
        assert rec["model"] == "default"
        assert rec["rows"] == 1
        assert rec["status"] == 200
        assert rec["batch_id"]
        assert rec["latency_ms"] >= 0
        assert rec["generation"] >= 1

    def test_access_log_line_per_request_including_4xx(
        self, artifact, server
    ):
        records: list[logging.LogRecord] = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = logging.getLogger("repro.serve.access")
        old_level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            with ServeClient(port=server.port) as c:
                c.predict([_row(artifact)], request_id="logged-ok")
                with pytest.raises(ServeClientError):
                    c.predict(
                        [_row(artifact)], model="nope",
                        request_id="logged-404",
                    )
        finally:
            logger.removeHandler(handler)
            logger.setLevel(old_level)
        ctxs = [r.ctx for r in records if hasattr(r, "ctx")]
        by_id = {c["request_id"]: c for c in ctxs}
        assert {"logged-ok", "logged-404"} <= set(by_id)
        assert by_id["logged-ok"]["status"] == 200
        assert by_id["logged-404"]["status"] == 404
        assert by_id["logged-ok"]["batch_id"]
        assert by_id["logged-ok"]["latency_ms"] >= 0

    def test_slow_request_attaches_exemplar_and_warns(self, artifact):
        warned: list[logging.LogRecord] = []
        handler = logging.Handler()
        handler.emit = warned.append
        logger = logging.getLogger("repro.serve")
        logger.addHandler(handler)
        try:
            # Threshold far below any real latency: every request is
            # "slow", so one predict must produce one exemplar.
            with ServerThread(
                {"default": str(artifact.path)}, batch_window_ms=1.0,
                slow_request_ms=1e-6,
            ) as srv:
                with ServeClient(port=srv.port) as c:
                    c.predict([_row(artifact)], request_id="slowpoke")
                    doc = c.metrics()
                assert srv.server.stats["slow_requests"] >= 1
        finally:
            logger.removeHandler(handler)
        hist = doc["metrics"]["histograms"][
            'serve.request.latency_s{model="default",route="/predict"}'
        ]
        exemplars = hist.get("exemplars") or {}
        assert any(
            e.get("request_id") == "slowpoke" for e in exemplars.values()
        )
        slow_logs = [
            r for r in warned
            if r.levelno == logging.WARNING
            and getattr(r, "ctx", {}).get("request_id") == "slowpoke"
        ]
        assert slow_logs, "slow request did not emit a warn line"

    def test_fast_requests_leave_no_exemplar(self, artifact):
        with ServerThread(
            {"default": str(artifact.path)}, batch_window_ms=1.0,
        ) as srv:  # slow_request_ms=0: slow-path disabled
            with ServeClient(port=srv.port) as c:
                c.predict([_row(artifact)], request_id="fastpoke")
                doc = c.metrics()
        hist = doc["metrics"]["histograms"][
            'serve.request.latency_s{model="default",route="/predict"}'
        ]
        exemplars = hist.get("exemplars") or {}
        assert not any(
            e.get("request_id") == "fastpoke" for e in exemplars.values()
        )

    def test_no_instrument_strips_labels_ring_and_histograms(
        self, artifact
    ):
        base = metrics().snapshot()
        with ServerThread(
            {"default": str(artifact.path)}, batch_window_ms=1.0,
            instrument=False,
        ) as srv:
            with ServeClient(port=srv.port) as c:
                assert c.healthz()["instrument"] is False
                c.predict([_row(artifact)])
                assert c.debug_requests()["count"] == 0
        delta = metrics().diff(base)
        assert not any(
            "serve.request.latency_s" in k for k in delta["histograms"]
        )
        assert not any("{" in k for k in delta["counters"])
        # The PR 8 aggregate counters still tick.
        assert delta["counters"]["serve.requests"] >= 1
        assert delta["counters"]["serve.rows"] == 1

    def test_traffic_histograms_count_every_request(
        self, artifact, server
    ):
        reg = metrics()
        base = reg.snapshot()
        n_threads, per_thread = 2, 3
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                with ServeClient(port=server.port) as c:
                    for _ in range(per_thread):
                        c.predict([_row(artifact)])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker) for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        delta = reg.diff(base)
        total = n_threads * per_thread
        key = 'serve.request.latency_s{model="default",route="/predict"}'
        assert delta["histograms"][key]["count"] == total
        assert delta["counters"][
            'serve.requests{model="default",route="/predict",status="200"}'
        ] == total
        # Every latency observation equals the timer's request count.
        assert delta["timers"]["serve.request"]["count"] == total

    def test_two_coroutine_traffic_identical_batch_histograms(self):
        """The same coalesced 2-coroutine traffic pattern, run twice,
        yields bit-identical batch-size histogram deltas — the serve
        counterpart of the serial-vs-jobs campaign identity."""
        reg = metrics()

        def run_once() -> str:
            async def main():
                batcher = MicroBatcher(window_s=0.05)
                served, _ = _fake_served(name="hist-probe")
                await asyncio.gather(
                    batcher.submit(served, np.ones((1, 2))),
                    batcher.submit(served, np.ones((2, 2))),
                )

            base = reg.snapshot()
            asyncio.run(main())
            delta = reg.diff(base)
            mine = {
                k: v for k, v in delta["histograms"].items()
                if "hist-probe" in k
            }
            assert mine[
                'serve.batch.rows{model="hist-probe"}'
            ]["count"] == 1
            return json.dumps(mine, sort_keys=True)

        assert run_once() == run_once()


# ---------------------------------------------------------- serve tracing


@pytest.fixture()
def _serve_tracer(tmp_path):
    """A fresh enabled global tracer, torn down after the test."""
    reset_tracing()
    t = tracer()
    t.enable(tmp_path / "serve-trace.json")
    yield t
    reset_tracing()


class TestServeTracing:
    def test_request_spans_link_to_batch_spans(
        self, artifact, _serve_tracer
    ):
        with ServerThread(
            {"default": str(artifact.path)}, batch_window_ms=1.0
        ) as srv:
            with ServeClient(port=srv.port) as c:
                for i in range(3):
                    c.predict([_row(artifact)], request_id=f"traced-{i}")
        doc = _serve_tracer.to_json_dict()
        assert validate_trace(doc) > 0
        summary = summarize_serve_requests(doc)
        assert summary["requests"] >= 3
        assert summary["batches"] >= 1
        assert summary["unlinked_requests"] == 0
        assert summary["mean_requests_per_batch"] >= 1
        groups = {
            (g["route"], g["status"]): g for g in summary["groups"]
        }
        assert groups[("/predict", "200")]["count"] == 3
        assert groups[("/predict", "200")]["model"] == "default"
        # The batch spans list every request id they answered.
        linked = {
            rid
            for e in doc["traceEvents"]
            if e.get("name") == "serve.predict_batch"
            for rid in (e.get("args") or {}).get("request_ids", [])
        }
        assert {"traced-0", "traced-1", "traced-2"} <= linked

    def test_trace_rotation_writes_numbered_files(
        self, artifact, tmp_path, _serve_tracer
    ):
        with ServerThread(
            {"default": str(artifact.path)}, batch_window_ms=1.0,
            trace_rotate_events=5,
        ) as srv:
            with ServeClient(port=srv.port) as c:
                for _ in range(25):
                    c.predict([_row(artifact)])
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if list(tmp_path.glob("serve-trace.0*.json")):
                    break
                time.sleep(0.05)
        rotated = sorted(tmp_path.glob("serve-trace.0*.json"))
        assert rotated, "no rotation file appeared"
        doc = load_trace(rotated[0])
        assert validate_trace(doc) > 0
        assert doc["otherData"]["rotated"] is True
        assert doc["otherData"]["events"] >= 5
        assert srv.server.stats["trace_rotations"] >= 1


# ------------------------------------------------------ the serve process


class TestServeProcess:
    """``repro serve`` as a user runs it.  Reload and shutdown come by
    signal, which only a process of its own can receive."""

    def test_endpoints_signals_manifest_and_trace(self, artifact, tmp_path):
        trace_path = tmp_path / "serve-trace.json"
        manifest_path = tmp_path / "serve-manifest.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--model", str(artifact.path), "--port", "0", "--reload",
             "--trace", str(trace_path), "--slow-request-ms", "250",
             "--manifest", str(manifest_path)],
            cwd=tmp_path, env=repro_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            port = next((
                int(m.group(1)) for line in proc.stdout
                if (m := re.search(r"listening on http://[^ ]+:(\d+)", line))
            ), None)
            assert port, "repro serve exited before it listened"
            with ServeClient(port=port) as c:
                health = c.healthz()
                assert health["status"] == "ok", health
                assert "default" in health["models"], health
                row = _row(artifact)
                assert len(c.predict([row])["predictions"]) == 1
                raw = c.request_raw("GET", "/metrics")
                doc = json.loads(raw)
                assert raw == (json.dumps(doc, sort_keys=True) + "\n").encode()
                assert doc["metrics"]["counters"].get("serve.requests", 0) >= 1
                c.predict([row], request_id="ci-smoke-1")
                # The exposition by query and by Accept header alone.
                for path, headers in (
                    ("/metrics?format=prom", None),
                    ("/metrics", {"Accept": "text/plain"}),
                ):
                    text = c.request_raw("GET", path, headers=headers)
                    families = parse_exposition(text.decode("utf-8"))["types"]
                    assert {
                        "repro_serve_requests_total",
                        "repro_serve_request_latency_seconds",
                        "repro_serve_generation",
                    } <= set(families), sorted(families)
                ids = [r["request_id"] for r in c.debug_requests()["requests"]]
                assert "ci-smoke-1" in ids, ids
                proc.send_signal(signal.SIGHUP)
                deadline = time.monotonic() + 60
                while (health := c.healthz())["generation"] < 2:
                    assert time.monotonic() < deadline, health
                    time.sleep(0.05)
                assert health["generation"] == 2, health
                assert health["reloads"] == 1, health
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["exit_code"] == 0, manifest
        assert manifest["serve"]["requests"] >= 2, manifest
        assert manifest["registry"]["reloads"] == 1, manifest
        trace = load_trace(trace_path)
        assert validate_trace(trace) > 0
        summary = summarize_serve_requests(trace)
        assert summary["batches"] >= 1, summary
        assert summary["unlinked_requests"] == 0, summary


# --------------------------------------------------------------- unit: CLI
# --------------------------------------------------------------- spec parse


class TestParseModelSpecs:
    def test_bare_path_becomes_default(self):
        assert parse_model_specs(["m.pkl"]) == {"default": "m.pkl"}

    def test_named_specs_keep_order(self):
        specs = parse_model_specs(["a=x.pkl", "b=y.pkl"])
        assert list(specs.items()) == [("a", "x.pkl"), ("b", "y.pkl")]

    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigError, match="twice"):
            parse_model_specs(["a=x.pkl", "a=y.pkl"])

    def test_empty_name_or_path_rejected(self):
        with pytest.raises(ConfigError):
            parse_model_specs(["=x.pkl"])
        with pytest.raises(ConfigError):
            parse_model_specs(["a="])

    def test_no_specs_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            parse_model_specs([])


# ----------------------------------------------------------- unit: protocol


class TestDecodePredictRequest:
    def decode(self, doc, max_rows=16):
        raw = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
        return decode_predict_request(raw, max_rows=max_rows)

    def test_accepts_minimal_request(self):
        assert self.decode({"rows": [[1.0]]})["rows"] == [[1.0]]

    def test_bad_json_400(self):
        with pytest.raises(ProtocolError) as err:
            self.decode(b"{nope")
        assert err.value.status == 400 and err.value.code == "bad_json"

    def test_non_object_400(self):
        with pytest.raises(ProtocolError) as err:
            self.decode([1, 2])
        assert err.value.status == 400

    def test_missing_or_empty_rows_400(self):
        for doc in ({}, {"rows": []}, {"rows": "x"}):
            with pytest.raises(ProtocolError) as err:
                self.decode(doc)
            assert err.value.status == 400

    def test_too_many_rows_413(self):
        with pytest.raises(ProtocolError) as err:
            self.decode({"rows": [[1.0]] * 17})
        assert err.value.status == 413
        assert err.value.code == "too_many_rows"

    def test_bad_field_types_400(self):
        for doc in (
            {"rows": [[1.0]], "model": 7},
            {"rows": [[1.0]], "align": "yes"},
            {"rows": [[1.0]], "columns": [1]},
            {"rows": [[1.0]], "meta": [{}, {}]},
            {"rows": [[1.0]], "meta": ["x"]},
        ):
            with pytest.raises(ProtocolError) as err:
                self.decode(doc)
            assert err.value.status == 400


# ---------------------------------------------------------- unit: batcher


class _FakeModel:
    """predict_labels spy: first column back as IPC, doubled as EPI."""

    def __init__(self) -> None:
        self.calls: list[int] = []

    def predict_labels(self, X):
        self.calls.append(X.shape[0])
        return X[:, 0].copy(), X[:, 0] * 2.0


def _fake_served(name="m", generation=1):
    model = _FakeModel()
    return SimpleNamespace(
        name=name, generation=generation, model=model
    ), model


class TestMicroBatcher:
    def test_window_zero_is_direct(self):
        async def main():
            batcher = MicroBatcher(window_s=0.0)
            served, model = _fake_served()
            X = np.array([[1.0, 0.0], [2.0, 0.0]])
            ipc, epi, n, batch_id = await batcher.submit(served, X)
            assert n == 2
            assert batch_id
            assert model.calls == [2]
            assert np.array_equal(ipc, [1.0, 2.0])
            assert np.array_equal(epi, [2.0, 4.0])

        asyncio.run(main())

    def test_concurrent_submits_share_one_matrix_call(self):
        async def main():
            batcher = MicroBatcher(window_s=0.05)
            served, model = _fake_served()
            a = np.array([[1.0, 0.0]])
            b = np.array([[2.0, 0.0]])
            r1, r2 = await asyncio.gather(
                batcher.submit(served, a), batcher.submit(served, b)
            )
            assert model.calls == [2]
            assert r1[2] == r2[2] == 2
            # One shared matrix call means one shared batch id.
            assert r1[3] == r2[3]
            # Each caller gets exactly its own slice back.
            assert r1[0][0] == 1.0 and r2[0][0] == 2.0

        asyncio.run(main())

    def test_max_rows_flushes_before_the_window(self):
        async def main():
            batcher = MicroBatcher(window_s=60.0, max_rows=2)
            served, model = _fake_served()
            start = time.monotonic()
            await asyncio.gather(
                batcher.submit(served, np.ones((1, 2))),
                batcher.submit(served, np.ones((1, 2))),
            )
            assert time.monotonic() - start < 30
            assert model.calls == [2]

        asyncio.run(main())

    def test_generations_never_share_a_bucket(self):
        async def main():
            batcher = MicroBatcher(window_s=0.05)
            old, old_model = _fake_served(generation=1)
            new, new_model = _fake_served(generation=2)
            await asyncio.gather(
                batcher.submit(old, np.ones((1, 2))),
                batcher.submit(new, np.ones((3, 2))),
            )
            assert old_model.calls == [1]
            assert new_model.calls == [3]

        asyncio.run(main())

    def test_drain_flushes_open_buckets(self):
        async def main():
            batcher = MicroBatcher(window_s=60.0)
            served, model = _fake_served()
            task = asyncio.create_task(
                batcher.submit(served, np.ones((1, 2)))
            )
            await asyncio.sleep(0.01)
            assert batcher.pending_rows() == 1
            await batcher.drain()
            _, _, n, _ = await task
            assert n == 1
            assert batcher.pending_rows() == 0

        asyncio.run(main())

    def test_model_failure_fans_out_to_all_waiters(self):
        async def main():
            batcher = MicroBatcher(window_s=0.05)
            served, model = _fake_served()
            model.predict_labels = lambda X: (_ for _ in ()).throw(
                RuntimeError("forest on fire")
            )
            results = await asyncio.gather(
                batcher.submit(served, np.ones((1, 2))),
                batcher.submit(served, np.ones((1, 2))),
                return_exceptions=True,
            )
            assert all(
                isinstance(r, RuntimeError) for r in results
            )

        asyncio.run(main())

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(window_s=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher(max_rows=0)


# ------------------------------------------ once-per-batch schema work
# ------------------------------------------ (the hoisting regression)


class TestBatchSchemaHoisting:
    def test_validation_and_projection_run_once_per_batch(
        self, artifact, monkeypatch
    ):
        """Schema validation/projection must be per *batch*, never per
        row, and the projection plan memoised per source layout."""
        model = NapelModel(
            artifact.model.ipc_model,
            artifact.model.energy_model,
            schema=artifact.model.schema,
            ipc_bounds=artifact.model.ipc_bounds,
            energy_bounds=artifact.model.energy_bounds,
        )
        names = model.schema.names
        source = FeatureSchema(
            [FeatureBlock(name="request", features=tuple(reversed(names)))]
        )
        X = artifact.training.X()[:50, ::-1]

        counts = {"validate": 0, "project": 0}
        real_validate = FeatureSchema.validate_matrix
        real_project = FeatureSchema.projection_from

        def spy_validate(self, *args, **kwargs):
            counts["validate"] += 1
            return real_validate(self, *args, **kwargs)

        def spy_project(self, *args, **kwargs):
            counts["project"] += 1
            return real_project(self, *args, **kwargs)

        monkeypatch.setattr(FeatureSchema, "validate_matrix", spy_validate)
        monkeypatch.setattr(FeatureSchema, "projection_from", spy_project)

        ipc, epi = model.predict_labels(X, schema=source, align=True)
        assert counts == {"validate": 1, "project": 1}

        # Same layout again: the memoised plan skips re-projection.
        counts.update(validate=0, project=0)
        ipc2, epi2 = model.predict_labels(X, schema=source, align=True)
        assert counts == {"validate": 1, "project": 0}
        assert np.array_equal(ipc, ipc2)
        assert np.array_equal(epi, epi2)

        # And the projected result is bit-identical to the native layout.
        native_ipc, native_epi = artifact.model.predict_labels(
            artifact.training.X()[:50]
        )
        assert np.array_equal(ipc, native_ipc)
        assert np.array_equal(epi, native_epi)
