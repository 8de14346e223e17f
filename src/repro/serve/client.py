"""A small keep-alive client for the prediction server.

Built on :mod:`http.client` (stdlib, synchronous) — exactly what the
e2e tests (the ``repro serve`` process test among them) and the serve
benchmark need: one persistent connection per client thread, JSON
in/out, and structured errors that carry the server's parsed error
document.
"""

from __future__ import annotations

import http.client
import json

from ..errors import ReproError


class ServeClientError(ReproError):
    """A non-2xx server response, with the parsed error document."""

    def __init__(self, status: int, body: dict | None) -> None:
        body = body if isinstance(body, dict) else {}
        message = body.get("message") or f"server returned HTTP {status}"
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.code = body.get("error", "unknown")
        self.body = body


class ServeClient:
    """One keep-alive connection to a :class:`PredictionServer`."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8177,
        *, timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: The X-Request-Id the server echoed on the last response.
        self.last_request_id: str | None = None
        self._last_status = 0
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------- plumbing

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        headers: dict[str, str] | None = None,
    ) -> dict:
        """One round trip; retries once on a dropped keep-alive socket."""
        raw = self.request_raw(method, path, payload, headers=headers)
        try:
            doc = json.loads(raw) if raw else {}
        except ValueError:
            doc = {"message": raw.decode("utf-8", "replace")}
        if self._last_status >= 400:
            raise ServeClientError(self._last_status, doc)
        return doc

    def request_raw(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        *,
        headers: dict[str, str] | None = None,
    ) -> bytes:
        """One round trip returning the raw body (no JSON decoding).

        Records the response status in ``_last_status`` and the echoed
        request id in :attr:`last_request_id`; non-2xx is *not* raised
        here — :meth:`request` layers the error contract on top.
        """
        body = (
            json.dumps(payload).encode("utf-8")
            if payload is not None else None
        )
        send_headers = {"Content-Type": "application/json"}
        if headers:
            send_headers.update(headers)
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(
                    method, path, body=body, headers=send_headers
                )
                response = conn.getresponse()
                raw = response.read()
                break
            except (ConnectionError, http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        self._last_status = response.status
        self.last_request_id = response.getheader("X-Request-Id")
        return raw

    # ------------------------------------------------------------ endpoints

    def healthz(self) -> dict:
        return self.request("GET", "/healthz")

    def metrics(self) -> dict:
        return self.request("GET", "/metrics")

    def metrics_prom(self) -> str:
        """``GET /metrics`` as Prometheus text exposition 0.0.4."""
        raw = self.request_raw(
            "GET", "/metrics?format=prom",
            headers={"Accept": "text/plain"},
        )
        if self._last_status >= 400:
            raise ServeClientError(self._last_status, None)
        return raw.decode("utf-8")

    def debug_requests(self) -> dict:
        return self.request("GET", "/debug/requests")

    def models(self) -> dict:
        return self.request("GET", "/models")

    def reload_(self) -> dict:
        return self.request("POST", "/-/reload")

    def predict(
        self,
        rows: list,
        *,
        model: str | None = None,
        align: bool = False,
        columns: list[str] | None = None,
        meta: list | None = None,
        request_id: str | None = None,
    ) -> dict:
        """``POST /predict`` with the documented request shape.

        ``request_id`` propagates as the X-Request-Id header; the id
        the server actually used (propagated or minted) is available as
        :attr:`last_request_id` afterwards.
        """
        payload: dict = {"rows": rows}
        if model is not None:
            payload["model"] = model
        if align:
            payload["align"] = True
        if columns is not None:
            payload["columns"] = columns
        if meta is not None:
            payload["meta"] = meta
        headers = (
            {"X-Request-Id": request_id} if request_id else None
        )
        return self.request("POST", "/predict", payload, headers=headers)
