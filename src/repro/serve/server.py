"""The asyncio HTTP/1.1 prediction server behind ``repro serve``.

Hand-rolled HTTP on :func:`asyncio.start_server` streams (no
``http.server``, whose thread-per-connection model defeats
microbatching).  Endpoints:

* ``POST /predict`` — single or batched rows; validated, aligned,
  microbatched (:mod:`repro.serve.batcher`), answered with label and
  derived predictions (:mod:`repro.serve.protocol`);
* ``GET /healthz`` — liveness + the model registry summary;
* ``GET /metrics`` — content negotiated: the deterministic key-ordered
  JSON :class:`~repro.obs.MetricsRegistry` snapshot by default, or
  Prometheus text exposition 0.0.4 under ``Accept: text/plain`` /
  ``?format=prom`` — per-model × route × status request counters,
  latency histograms, batch-size/queue gauges, reload generation;
* ``GET /debug/requests`` — a bounded in-memory ring of the most recent
  request records (id, model, rows, latency, status, generation);
* ``GET /models`` — the registry summary alone;
* ``POST /-/reload`` — warm-standby reload (same path SIGHUP triggers).

Every request carries an **X-Request-Id**: taken from the client's
header when present (propagation), generated otherwise, echoed on the
response, recorded in the access log / debug ring / trace span, and —
when microbatched — linked to the ``serve.predict_batch`` span that
answered it.  Requests slower than ``--slow-request-ms`` attach as
exemplars to their latency-histogram bucket and emit a structured warn
line.  Under ``--trace`` the buffer rotates to numbered files once it
reaches ``--trace-rotate-events`` events, so long-serving processes
never drop spans.

Operational contract:

* **hot reload** never drops a request: new artifacts load and verify in
  a worker thread while the old generation keeps serving, then swap in
  atomically (requests already resolved keep their model reference);
* **graceful shutdown** stops accepting, answers the in-flight and
  pending microbatches, waits for in-flight requests to complete, then
  closes idle keep-alive connections;
* every request is counted and timed through :mod:`repro.obs`, and a
  server manifest (RunManifest fields) is available for ``--manifest``.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
import time
import uuid
from collections import deque
from typing import Mapping

from ..errors import ReproError
from ..obs import METRICS_SCHEMA, get_logger, metrics, tracer
from ..obs.prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from ..obs.prom import render_prometheus
from .batcher import MicroBatcher
from .protocol import (
    ProtocolError,
    build_matrix,
    decode_predict_request,
    error_body,
    predictions_to_json,
    schema_mismatch_to_error,
)
from ..errors import SchemaMismatchError
from .registry import ModelRegistry

log = get_logger("repro.serve")
#: One line per finished request (4xx/5xx included) — JSON under
#: ``--log-json``, human-readable under ``-v``.
access_log = get_logger("repro.serve.access")

#: Hard request-size limits — a prediction service should not be a
#: memory amplifier.
MAX_BODY_BYTES = 64 * 1024 * 1024
MAX_HEADER_BYTES = 16 * 1024
MAX_ROWS_PER_REQUEST = 65536

#: Client-supplied request ids must be short and printable; anything
#: else is replaced with a generated id rather than trusted into logs.
_REQUEST_ID_OK = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")

#: How many finished requests ``GET /debug/requests`` retains.
DEBUG_RING_SIZE = 256

#: The ``serve.*`` counters a server manifest reports.
MANIFEST_COUNTS = (
    "requests", "rows", "errors", "reloads", "slow_requests",
    "trace_rotations",
)


def new_request_id() -> str:
    return uuid.uuid4().hex[:16]

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class PredictionServer:
    """One serving process: registry + batcher + HTTP front-end."""

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 8177,
        max_batch_rows: int = 4096,
        drain_timeout_s: float = 10.0,
        slow_request_ms: float = 0.0,
        instrument: bool = True,
        trace_rotate_events: int = 0,
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self.batcher = MicroBatcher(
            max_rows=max_batch_rows,
            instrument=instrument,
        )
        self.drain_timeout_s = drain_timeout_s
        #: Threshold (ms) above which a finished request is "slow":
        #: histogram exemplar + structured warn line.  0 disables.
        self.slow_request_ms = float(slow_request_ms)
        #: ``False`` strips labeled metrics, histograms, the debug ring,
        #: access logs and request spans — the benchmark's baseline for
        #: measuring instrumentation overhead.  The PR 8 aggregate
        #: counters/timers always stay on.
        self.instrument = instrument
        #: Rotate the trace buffer to a numbered file once it holds this
        #: many events (0 = never; the CLI writes one file at exit).
        self.trace_rotate_events = int(trace_rotate_events)
        self.started_at = time.time()
        self._server: asyncio.AbstractServer | None = None
        self._closing = False
        self._done = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._inflight = 0
        self._conns: set[asyncio.StreamWriter] = set()
        self._reload_lock = asyncio.Lock()
        self._recent: deque[dict] = deque(maxlen=DEBUG_RING_SIZE)
        self._rotating = False
        #: Numbers the trace rotation files.
        self._rotations = 0

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Preload + verify every model, then bind the listener."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.registry.load_all)
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except OSError as exc:
            raise ReproError(
                f"cannot bind {self.host}:{self.port}: {exc}"
            ) from exc
        self.port = self._server.sockets[0].getsockname()[1]
        log.info(
            "serving", extra={"ctx": {
                "host": self.host, "port": self.port,
                "models": list(self.registry.names()),
            }},
        )

    async def reload(self) -> dict:
        """Warm-standby reload of every artifact (SIGHUP / POST path)."""
        async with self._reload_lock:
            loop = asyncio.get_running_loop()
            t0 = time.perf_counter()
            await loop.run_in_executor(None, self.registry.reload_all)
            elapsed = time.perf_counter() - t0
            metrics().inc("serve.reloads")
            summary = self.registry.summary()
            log.info(
                "models reloaded", extra={"ctx": {
                    "generation": summary["generation"],
                    "seconds": round(elapsed, 3),
                }},
            )
            return summary

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight work, close connections."""
        if self._closing:
            await self._done.wait()
            return
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout_s
        while self._inflight > 0 and loop.time() < deadline:
            await self.batcher.drain()
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=0.05)
            except asyncio.TimeoutError:
                continue
        await self.batcher.drain()
        for writer in list(self._conns):
            writer.close()
        log.info("server stopped", extra={"ctx": {"port": self.port}})
        self._done.set()

    async def wait_done(self) -> None:
        await self._done.wait()

    def manifest_fields(self, counters: Mapping[str, int]) -> dict:
        """Server fields for the run manifest (``--manifest``); the counts
        are read from ``counters``, the run's metrics counters."""
        return {
            "serve": {
                "host": self.host,
                "port": self.port,
                "uptime_seconds": round(
                    time.time() - self.started_at, 3
                ),
                **{
                    name: counters.get(f"serve.{name}", 0)
                    for name in MANIFEST_COUNTS
                },
            },
            "registry": self.registry.summary(),
        }

    # ----------------------------------------------------------- HTTP layer

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conns.add(writer)
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                method, path, query, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                ) and not self._closing
                info = {
                    "request_id": self._request_id(headers),
                    "content_type": "application/json",
                }
                status, payload = await self._dispatch(
                    method, path, query, headers, body, info
                )
                await self._write_response(
                    writer, status, payload, keep_alive,
                    content_type=info["content_type"],
                    request_id=info["request_id"],
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._conns.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader, writer):
        """One HTTP/1.1 request -> (method, path, headers, body).

        The whole header section is read with a single ``readuntil``
        (one event-loop hop) rather than a readline loop — at high
        request rates the per-request loop work, not the model, bounds
        throughput.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None  # clean close (or mid-request disconnect)
        except asyncio.LimitOverrunError:
            await self._write_response(
                writer, 413,
                error_body(413, "headers_too_large",
                           "header section too large"),
                False,
            )
            return None
        except (ConnectionError, OSError):
            return None
        if len(head) > MAX_HEADER_BYTES:
            await self._write_response(
                writer, 413,
                error_body(413, "headers_too_large",
                           "header section too large"),
                False,
            )
            return None
        request_line, _, header_block = (
            head[:-4].decode("latin-1").partition("\r\n")
        )
        parts = request_line.split()
        if len(parts) != 3:
            await self._write_response(
                writer, 400,
                error_body(400, "bad_request", "malformed request line"),
                False,
            )
            return None
        method, target, _version = parts
        headers: dict[str, str] = {}
        for line in header_block.split("\r\n"):
            if line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            await self._write_response(
                writer, 400,
                error_body(400, "bad_request",
                           "chunked request bodies are not supported; "
                           "send Content-Length"),
                False,
            )
            return None
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            await self._write_response(
                writer, 413,
                error_body(413, "body_too_large",
                           f"body must be 0..{MAX_BODY_BYTES} bytes"),
                False,
            )
            return None
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return method.upper(), path, query, headers, body

    @staticmethod
    def _request_id(headers: Mapping[str, str]) -> str:
        """Propagate the client's X-Request-Id, or mint one."""
        supplied = headers.get("x-request-id", "").strip()
        if supplied and _REQUEST_ID_OK.match(supplied):
            return supplied
        return new_request_id()

    async def _write_response(
        self,
        writer,
        status: int,
        payload: bytes,
        keep_alive: bool,
        *,
        content_type: str = "application/json",
        request_id: str | None = None,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        request_id_line = (
            f"X-Request-Id: {request_id}\r\n" if request_id else ""
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{request_id_line}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + payload)
        await writer.drain()

    # ------------------------------------------------------------- routing

    async def _dispatch(
        self,
        method: str,
        path: str,
        query: str,
        headers: Mapping[str, str],
        body: bytes,
        info: dict,
    ) -> tuple[int, bytes]:
        metrics().inc("serve.requests")
        self._inflight += 1
        self._idle.clear()
        info.setdefault("model", None)
        info.setdefault("rows", 0)
        info.setdefault("batch_id", None)
        start = time.monotonic()
        status = 500
        try:
            with metrics().timer("serve.request"):
                status, payload = await self._route(
                    method, path, query, headers, body, info
                )
            return status, payload
        except ProtocolError as exc:
            status = exc.status
            metrics().inc("serve.errors")
            return exc.status, error_body(
                exc.status, exc.code, str(exc), exc.details,
                request_id=info["request_id"],
            )
        except Exception as exc:  # noqa: BLE001 - request boundary
            metrics().inc("serve.errors")
            log.error(
                "request failed", extra={"ctx": {
                    "path": path,
                    "request_id": info["request_id"],
                    "exception": type(exc).__name__,
                    "message": str(exc),
                }},
            )
            return 500, error_body(
                500, "internal_error", f"{type(exc).__name__}: {exc}",
                request_id=info["request_id"],
            )
        finally:
            self._observe_request(method, path, status, start, info)
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    def _observe_request(
        self,
        method: str,
        path: str,
        status: int,
        start_monotonic: float,
        info: dict,
    ) -> None:
        """Per-request telemetry: labels, histogram, ring, log, span."""
        if not self.instrument:
            return
        elapsed_s = time.monotonic() - start_monotonic
        model = info.get("model") or "-"
        labels = {"model": model, "route": path, "status": status}
        metrics().inc("serve.requests", labels=labels)
        latency_ms = elapsed_s * 1e3
        slow = (
            self.slow_request_ms > 0
            and latency_ms >= self.slow_request_ms
        )
        exemplar = None
        if slow:
            metrics().inc("serve.slow_requests")
            exemplar = {
                "request_id": info["request_id"],
                "ts": time.time(),
            }
        metrics().observe(
            "serve.request.latency_s",
            elapsed_s,
            {"model": model, "route": path},
            exemplar=exemplar,
        )
        metrics().set_gauge("serve.inflight", self._inflight)
        record = {
            "request_id": info["request_id"],
            "method": method,
            "route": path,
            "model": info.get("model"),
            "rows": info.get("rows", 0),
            "batch_id": info.get("batch_id"),
            "status": status,
            "latency_ms": round(latency_ms, 3),
            "generation": self.registry.generation,
            "unix_time": round(time.time(), 3),
        }
        self._recent.append(record)
        access_log.info(
            "%s %s %s %.3fms", method, path, status, latency_ms,
            extra={"ctx": record},
        )
        if slow:
            log.warning(
                "slow request", extra={"ctx": {
                    **record,
                    "threshold_ms": self.slow_request_ms,
                }},
            )
        t = tracer()
        if t.enabled:
            t.complete(
                "serve.request",
                t.to_ts_us(start_monotonic),
                elapsed_s * 1e6,
                cat="serve",
                args={
                    k: record[k]
                    for k in ("request_id", "route", "model", "rows",
                              "batch_id", "status")
                },
            )
            if (
                self.trace_rotate_events > 0
                and t.event_count >= self.trace_rotate_events
                and not self._rotating
            ):
                self._rotating = True
                asyncio.ensure_future(self._rotate_trace(t))

    async def _rotate_trace(self, t) -> None:
        """Flush the trace buffer to the next numbered rotation file.

        The JSON dump runs on a worker thread so a large buffer never
        stalls the event loop; ``_rotating`` keeps rotations serialized.
        """
        base = t.path
        if base is None:
            self._rotating = False
            return
        seq = self._rotations + 1
        target = base.with_name(f"{base.stem}.{seq:04d}{base.suffix}")
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, t.rotate, target)
            self._rotations = seq
            metrics().inc("serve.trace_rotations")
            log.info(
                "trace rotated", extra={"ctx": {
                    "path": str(target), "sequence": seq,
                }},
            )
        except Exception as exc:  # noqa: BLE001 - keep serving
            log.error(
                "trace rotation failed", extra={"ctx": {
                    "path": str(target), "error": str(exc),
                }},
            )
        finally:
            self._rotating = False

    async def _route(
        self,
        method: str,
        path: str,
        query: str,
        headers: Mapping[str, str],
        body: bytes,
        info: dict,
    ) -> tuple[int, bytes]:
        if path == "/predict":
            if method != "POST":
                raise ProtocolError(
                    405, "method_not_allowed", "POST /predict"
                )
            return await self._handle_predict(body, info)
        if path == "/healthz":
            if method != "GET":
                raise ProtocolError(
                    405, "method_not_allowed", "GET /healthz"
                )
            return 200, self._json(self._healthz())
        if path == "/metrics":
            if method != "GET":
                raise ProtocolError(
                    405, "method_not_allowed", "GET /metrics"
                )
            if self._wants_prom(query, headers):
                info["content_type"] = PROM_CONTENT_TYPE
                text = render_prometheus(metrics().snapshot())
                return 200, text.encode("utf-8")
            return 200, self._json({
                "schema": METRICS_SCHEMA,
                "uptime_seconds": round(
                    time.time() - self.started_at, 3
                ),
                "metrics": metrics().snapshot(),
            })
        if path == "/debug/requests":
            if method != "GET":
                raise ProtocolError(
                    405, "method_not_allowed", "GET /debug/requests"
                )
            recent = list(self._recent)
            recent.reverse()  # newest first
            return 200, self._json({
                "capacity": self._recent.maxlen,
                "count": len(recent),
                "requests": recent,
            })
        if path == "/models":
            if method != "GET":
                raise ProtocolError(
                    405, "method_not_allowed", "GET /models"
                )
            return 200, self._json(self.registry.summary())
        if path == "/-/reload":
            if method != "POST":
                raise ProtocolError(
                    405, "method_not_allowed", "POST /-/reload"
                )
            summary = await self.reload()
            return 200, self._json(summary)
        raise ProtocolError(
            404, "not_found",
            f"no route {path!r} (have: /predict, /healthz, /metrics, "
            "/debug/requests, /models, /-/reload)",
        )

    @staticmethod
    def _wants_prom(query: str, headers: Mapping[str, str]) -> bool:
        """Prometheus text when asked via ?format=prom or Accept."""
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key == "format":
                return value in ("prom", "prometheus", "openmetrics")
        accept = headers.get("accept", "")
        return "text/plain" in accept or "openmetrics" in accept

    @staticmethod
    def _json(doc: dict) -> bytes:
        return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")

    def _healthz(self) -> dict:
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "inflight": self._inflight,
            "pending_batch_rows": self.batcher.pending_rows(),
            "instrument": self.instrument,
            "slow_request_ms": self.slow_request_ms,
            **self.registry.summary(),
        }

    async def _handle_predict(
        self, body: bytes, info: dict
    ) -> tuple[int, bytes]:
        payload = decode_predict_request(
            body, max_rows=MAX_ROWS_PER_REQUEST
        )
        try:
            served = self.registry.get(payload.get("model"))
        except KeyError as exc:
            raise ProtocolError(
                404, "unknown_model", str(exc).strip('"')
            ) from None
        info["model"] = served.name
        try:
            X = build_matrix(payload, served.model)
        except SchemaMismatchError as exc:
            raise schema_mismatch_to_error(exc) from exc
        n = X.shape[0]
        info["rows"] = n
        metrics().inc("serve.rows", n)
        ipc, epi, batched_rows, batch_id = await self.batcher.submit(
            served, X, info["request_id"]
        )
        info["batch_id"] = batch_id
        try:
            predictions = predictions_to_json(
                served.model, X, ipc, epi, payload.get("meta")
            )
        except SchemaMismatchError as exc:
            raise schema_mismatch_to_error(exc) from exc
        return 200, self._json({
            "model": served.name,
            "generation": served.generation,
            "schema_hash": served.preloaded.schema_hash,
            "batched_rows": batched_rows,
            "predictions": predictions,
        })


class ServerThread:
    """A server on a background thread (tests, benchmarks, notebooks).

    Runs its own event loop; ``start()`` blocks until the ephemeral port
    is bound (or raises the startup error), ``reload()``/``stop()``
    marshal into the loop thread-safely.  Usable as a context manager.
    """

    def __init__(
        self, specs: Mapping[str, str], *, port: int = 0, **server_kwargs
    ) -> None:
        self._specs = dict(specs)
        #: :class:`PredictionServer` keyword arguments, passed unchanged.
        self._kwargs = {"port": port, **server_kwargs}
        self.server: PredictionServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._error: BaseException | None = None

    # ------------------------------------------------------------- control

    @property
    def port(self) -> int:
        assert self.server is not None, "server not started"
        return self.server.port

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=120)
        if self._error is not None:
            raise self._error
        if self.server is None:
            raise ReproError("serve thread failed to start")
        return self

    def reload(self, timeout: float = 120.0) -> dict:
        return self._call(self.server.reload(), timeout)

    def stop(self, timeout: float = 30.0) -> None:
        if self.server is None or self._loop is None:
            return
        try:
            self._call(self.server.shutdown(), timeout)
        except RuntimeError:
            pass  # loop already gone
        self._thread.join(timeout=timeout)

    def _call(self, coro, timeout: float):
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------- internal

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced in start()
            self._error = exc
        finally:
            self._started.set()

    async def _main(self) -> None:
        registry = ModelRegistry(self._specs)
        self.server = PredictionServer(registry, **self._kwargs)
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._started.set()
        await self.server.wait_done()
