"""Serving throughput/latency: single vs batched vectorized prediction.

Boots the real ``repro.serve`` stack against a trained artifact and
drives it with 1, 8 and 64 concurrent keep-alive clients in three modes:

* ``single`` — ``max_batch_rows=1``, one-row requests: every
  prediction is its own HTTP round trip and its own ``predict_labels``
  call (the baseline a naive client gets);
* ``microbatch`` — the server defaults, one-row requests: requests that
  arrive while the model is busy coalesce server-side into its next
  matrix call (transparent batching — same client code as ``single``);
* ``batched`` — the server defaults, 64-row requests: the client uses
  the vectorized batch-predict path and amortizes HTTP framing, JSON
  parsing and per-call model overhead over the whole matrix.

Records p50/p99 request latency, aggregate predictions/sec and the mean
rows per server-side matrix call for every (mode, concurrency) pair.
The full-size run asserts the batched path sustains >= 3x the
single-path predictions/sec at 64 clients, and that microbatching
actually coalesces (mean rows/call > 1 under concurrency).

A second leg drives identical traffic with ``instrument=False`` and
asserts per-request observability (labeled counters, latency
histograms, debug ring, access log) costs < 5% throughput at the top
client count.

Emits ``results/BENCH_serve.json`` and ``results/BENCH_serve_obs.json``
plus rendered tables.  Set ``REPRO_BENCH_SMOKE=1`` (CI) to run fewer
clients/requests — the records are still produced, but the speedup and
overhead assertions are only enforced on the full-size run.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import threading
import time
from pathlib import Path

from _bench_utils import emit, emit_record

from repro import NapelTrainer, SimulationCampaign, get_workload, save_model
from repro.core.reporting import format_table
from repro.serve import ServeClient, ServerThread

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")
CONCURRENCY = (1, 8) if SMOKE else (1, 8, 64)
BATCH_ROWS = 64
MIN_BATCHED_SPEEDUP = 3.0

#: (rows per request, requests per client, server keyword arguments)
#: per mode — the batched mode sends fewer, larger requests so every
#: mode pushes a comparable number of predictions through the server.
MODES = {
    "single": (1, 6 if SMOKE else 40, {"max_batch_rows": 1}),
    "microbatch": (1, 6 if SMOKE else 40, {}),
    "batched": (BATCH_ROWS, 3 if SMOKE else 10, {}),
}


def _percentile(sorted_values, q):
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[int(index)]


class _LoadClient:
    """A minimal raw-socket keep-alive client for load generation.

    ``http.client`` spends ~0.5 ms of Python (GIL-held) time per request
    — with 64 in-process client threads that overhead, not the server,
    would be the bottleneck.  The load driver speaks just enough
    HTTP/1.1 to send one precomputed request and parse one
    Content-Length response.
    """

    def __init__(self, port: int, body: bytes) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.request = (
            b"POST /predict HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            + body
        )
        self.buffer = b""

    def predict(self) -> dict:
        self.sock.sendall(self.request)
        while b"\r\n\r\n" not in self.buffer:
            self.buffer += self.sock.recv(65536)
        head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        status = int(head.split(None, 2)[1])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(self.buffer) < length:
            self.buffer += self.sock.recv(65536)
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        if status != 200:
            raise AssertionError(f"HTTP {status}: {body[:200]!r}")
        return json.loads(body)

    def close(self) -> None:
        self.sock.close()


def _drive(
    port: int, n_clients: int, n_requests: int, row: list, rows_per_req: int
) -> dict:
    """n_clients keep-alive clients x n_requests predict calls."""
    latencies: list[float] = []
    batched_rows: list[int] = []
    lock = threading.Lock()
    body = json.dumps({"rows": [row] * rows_per_req}).encode()

    def worker() -> None:
        local: list[float] = []
        sizes: list[int] = []
        client = _LoadClient(port, body)
        try:
            for _ in range(n_requests):
                start = time.perf_counter()
                response = client.predict()
                local.append(time.perf_counter() - start)
                sizes.append(response["batched_rows"])
        finally:
            client.close()
        with lock:
            latencies.extend(local)
            batched_rows.extend(sizes)

    threads = [
        threading.Thread(target=worker) for _ in range(n_clients)
    ]
    wall0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall0
    latencies.sort()
    total = n_clients * n_requests * rows_per_req
    return {
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "predictions_per_s": total / wall,
        "mean_batch_rows": sum(batched_rows) / len(batched_rows),
        "wall_s": wall,
    }


def _train_artifact(path: Path) -> list:
    """A small trained artifact + one in-schema feature row to serve.

    The forest is the CLI-default 60 trees: serving cost is per-tree
    dispatch, so a toy 10-tree model would understate the per-request
    work batching amortizes.
    """
    campaign = SimulationCampaign(scale=4.0)
    training = campaign.run(get_workload("atax"))
    trained = NapelTrainer(n_estimators=60, tune=False).train(training)
    save_model(trained.model, path)
    return [float(v) for v in training.X()[0]]


def test_serve_throughput():
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "model.pkl"
        row = _train_artifact(artifact)
        modes = {}
        for mode, (rows_per_req, n_requests, server_kwargs) in MODES.items():
            with ServerThread(
                {"default": str(artifact)}, **server_kwargs
            ) as server:
                # Warm up the executor, the alignment path and the
                # forests before anything is timed.
                with ServeClient(port=server.port) as client:
                    for _ in range(3):
                        client.predict([row] * rows_per_req)
                modes[mode] = {
                    n: _drive(server.port, n, n_requests, row, rows_per_req)
                    for n in CONCURRENCY
                }

    rows = [
        [
            mode,
            f"{MODES[mode][0]}",
            f"{n}",
            f"{r['p50_ms']:8.2f}",
            f"{r['p99_ms']:8.2f}",
            f"{r['predictions_per_s']:9.1f}",
            f"{r['mean_batch_rows']:6.1f}",
        ]
        for mode, by_conc in modes.items()
        for n, r in by_conc.items()
    ]
    top = max(CONCURRENCY)
    speedup = (
        modes["batched"][top]["predictions_per_s"]
        / modes["single"][top]["predictions_per_s"]
    )
    coalesce = (
        modes["microbatch"][top]["predictions_per_s"]
        / modes["single"][top]["predictions_per_s"]
    )
    emit("serve", format_table(
        ["mode", "rows/req", "clients", "p50 (ms)", "p99 (ms)",
         "pred/s", "rows/call"],
        rows,
        title=f"repro serve: single vs batched prediction "
              f"(at {top} clients batched is {speedup:.2f}x single, "
              f"microbatching {coalesce:.2f}x)",
    ))

    flat = {
        f"{mode}.c{n}.{key}": r[key]
        for mode, by_conc in modes.items()
        for n, r in by_conc.items()
        for key in ("p50_ms", "p99_ms", "predictions_per_s",
                    "mean_batch_rows")
    }
    flat[f"batched_speedup_c{top}"] = speedup
    flat[f"microbatch_speedup_c{top}"] = coalesce
    emit_record(
        "serve",
        flat,
        units={
            key: (
                "ms" if key.endswith("_ms")
                else "pred/s" if key.endswith("_per_s")
                else "rows" if key.endswith("_rows")
                else "x"
            )
            for key in flat
        },
        config={
            "smoke": SMOKE,
            "concurrency": list(CONCURRENCY),
            "modes": {
                mode: {"rows_per_request": spec[0],
                       "requests_per_client": spec[1],
                       "server": spec[2]}
                for mode, spec in MODES.items()
            },
            "trees": 60,
            "scale": 4.0,
        },
    )

    # Microbatching must actually coalesce under concurrency.
    if top > 1:
        assert modes["microbatch"][top]["mean_batch_rows"] > 1.0
    if not SMOKE:
        assert speedup >= MIN_BATCHED_SPEEDUP, (
            f"batched requests reached only {speedup:.2f}x the "
            f"single-path predictions/sec at {top} clients (floor: "
            f"{MIN_BATCHED_SPEEDUP}x)"
        )


#: Instrumentation overhead budget: labeled counters, latency
#: histograms, the debug ring and access logging together may cost at
#: most this fraction of the uninstrumented throughput at top
#: concurrency.
MAX_OBS_OVERHEAD = 0.05


def test_serve_obs_overhead():
    """Per-request observability must stay within the overhead budget.

    Drives identical microbatched one-row traffic against two servers —
    one with full instrumentation (labeled request counters, latency
    histograms, debug ring, access log), one with ``instrument=False``
    (only the aggregate counters kept from the pre-labels era) — and
    compares predictions/sec at the highest client count.
    """
    rows_per_req, n_requests, server_kwargs = MODES["microbatch"]
    top = max(CONCURRENCY)
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "model.pkl"
        row = _train_artifact(artifact)
        legs = {}
        for leg, instrument in (("on", True), ("off", False)):
            with ServerThread(
                {"default": str(artifact)},
                instrument=instrument,
                **server_kwargs,
            ) as server:
                with ServeClient(port=server.port) as client:
                    for _ in range(3):
                        client.predict([row] * rows_per_req)
                legs[leg] = _drive(
                    server.port, top, n_requests, row, rows_per_req
                )

    overhead = 1.0 - (
        legs["on"]["predictions_per_s"] / legs["off"]["predictions_per_s"]
    )
    emit("serve_obs", format_table(
        ["instrumentation", "clients", "p50 (ms)", "p99 (ms)", "pred/s"],
        [
            [
                leg,
                f"{top}",
                f"{r['p50_ms']:8.2f}",
                f"{r['p99_ms']:8.2f}",
                f"{r['predictions_per_s']:9.1f}",
            ]
            for leg, r in legs.items()
        ],
        title=f"repro serve: instrumentation overhead "
              f"({overhead * 100:.1f}% throughput cost at {top} clients; "
              f"budget {MAX_OBS_OVERHEAD * 100:.0f}%)",
    ))
    flat = {
        f"{leg}.c{top}.{key}": r[key]
        for leg, r in legs.items()
        for key in ("p50_ms", "p99_ms", "predictions_per_s")
    }
    flat[f"overhead_fraction_c{top}"] = overhead
    emit_record(
        "serve_obs",
        flat,
        units={
            key: (
                "ms" if key.endswith("_ms")
                else "pred/s" if key.endswith("_per_s")
                else "fraction"
            )
            for key in flat
        },
        config={
            "smoke": SMOKE,
            "clients": top,
            "rows_per_request": rows_per_req,
            "requests_per_client": n_requests,
            "server": server_kwargs,
            "max_overhead": MAX_OBS_OVERHEAD,
            "trees": 60,
            "scale": 4.0,
        },
    )

    # The budget is only meaningful under real concurrency; the smoke
    # run still exercises both legs and emits the record.
    if not SMOKE:
        assert overhead < MAX_OBS_OVERHEAD, (
            f"instrumentation cost {overhead * 100:.1f}% of throughput "
            f"at {top} clients (budget: {MAX_OBS_OVERHEAD * 100:.0f}%)"
        )
