"""Closed-loop HTTP load for the ``serve_mixed`` workload.

One thread drives one keep-alive connection per request class through
:mod:`selectors`: each connection sends its next ``POST /predict`` only
after the previous reply has fully arrived (a closed loop, as a DSE
script that waits for every answer would).  Latency is timed from the
first byte sent to the last byte received.
"""

from __future__ import annotations

import http.client
import json
import selectors
import socket
import time
from dataclasses import dataclass, field


@dataclass
class Sample:
    label: str
    request_id: str
    start: float
    end: float
    status: int


@dataclass
class _Connection:
    label: str
    lane: int
    bodies: list[bytes]
    sock: socket.socket
    seq: int = 0
    out: bytes = b""
    sent: int = 0
    inbox: bytearray = field(default_factory=bytearray)
    start: float = 0.0
    request_id: str = ""

    def next_request(self) -> None:
        body = self.bodies[self.seq % len(self.bodies)]
        self.request_id = f"{self.label}-{self.seq:07d}"
        self.seq += 1
        self.out = (
            b"POST /predict HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\n"
            b"X-Request-Id: " + self.request_id.encode() + b"\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            + body
        )
        self.sent = 0
        self.start = time.monotonic()

    def response_status(self) -> int | None:
        """The status of the buffered response once it is complete."""
        head_end = self.inbox.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = bytes(self.inbox[:head_end]).decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = head_end + 4 + length
        if len(self.inbox) < total:
            return None
        del self.inbox[:total]
        return int(head[0].split()[1])


class ClosedLoop:
    """Keep-alive connections, one per request class."""

    def __init__(self, port: int, bodies: dict[str, list[bytes]]) -> None:
        self.conns = []
        for lane, (label, class_bodies) in enumerate(bodies.items()):
            sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self.conns.append(
                _Connection(label, lane, class_bodies, sock)
            )

    def close(self) -> None:
        for conn in self.conns:
            conn.sock.close()

    def run(
        self,
        *,
        requests: int | None = None,
        seconds: float | None = None,
        probe=None,
    ) -> list[Sample]:
        """``requests`` per connection, or as many as start within
        ``seconds``; each finished request is also recorded as a client
        span when a :class:`layers.LayerProbe` is given."""
        deadline = time.monotonic() + seconds if seconds is not None else None
        samples: list[Sample] = []
        done = {conn.label: 0 for conn in self.conns}
        sel = selectors.DefaultSelector()
        for conn in self.conns:
            conn.next_request()
            sel.register(conn.sock, selectors.EVENT_WRITE, conn)
        try:
            while sel.get_map():
                events = sel.select(timeout=30)
                if not events:
                    raise TimeoutError("server stopped answering")
                for key, mask in events:
                    conn = key.data
                    if mask & selectors.EVENT_WRITE:
                        conn.sent += conn.sock.send(conn.out[conn.sent:])
                        if conn.sent == len(conn.out):
                            sel.modify(conn.sock, selectors.EVENT_READ, conn)
                        continue
                    chunk = conn.sock.recv(1 << 18)
                    if not chunk:
                        raise ConnectionError("server closed the connection")
                    conn.inbox += chunk
                    status = conn.response_status()
                    if status is None:
                        continue
                    end = time.monotonic()
                    samples.append(Sample(
                        conn.label, conn.request_id, conn.start, end, status
                    ))
                    if probe is not None:
                        probe.client_span(
                            conn.start, end, lane=conn.lane,
                            request_id=conn.request_id, label=conn.label,
                            status=status,
                        )
                    done[conn.label] += 1
                    more = (
                        done[conn.label] < requests if requests is not None
                        else end < deadline
                    )
                    if more:
                        conn.next_request()
                        sel.modify(conn.sock, selectors.EVENT_WRITE, conn)
                    else:
                        sel.unregister(conn.sock)
        finally:
            sel.close()
        return samples


def get_json(port: int, path: str, body: bytes | None = None) -> dict:
    """One blocking request (``/metrics`` reads and the output check)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        if body is None:
            conn.request("GET", path)
        else:
            conn.request(
                "POST", path, body,
                {"Content-Type": "application/json"},
            )
        response = conn.getresponse()
        payload = response.read()
        if response.status != 200:
            raise RuntimeError(
                f"{path}: HTTP {response.status}: {payload[:200]!r}"
            )
        return json.loads(payload)
    finally:
        conn.close()
