"""Microbatching: many concurrent requests, one vectorized model call.

A random forest answers a 64-row matrix in barely more time than a
1-row vector — per-call overhead (per-tree dispatch, clamping, prior
offsets) dominates at small batch sizes.  Under concurrency the batcher
therefore *coalesces*, without ever waiting on a timer: each model keeps
at most one matrix call in flight, and the rows that arrive while it
runs form the next batch.  The first row to arrive for an idle model
opens a bucket and starts a dispatcher task; every request that became
ready in the same event-loop turn joins the bucket before the task
runs.  The dispatcher sends the bucket through **one**
``predict_labels`` call, fans the label slices back out to the awaiting
requests, and flushes the next bucket as soon as the call returns.  A
lone request is therefore answered by a 1-row call at once, and a busy
model batches exactly as much as its own call time lets pile up.  A
bucket that reaches ``max_rows`` is flushed at once by the request
that filled it, beside any call already in flight.

Buckets are keyed by (model name, generation): a hot reload opens a
fresh bucket (and dispatcher) for the new generation while the old one
finishes on the model object its requests resolved — no request ever
mixes generations.

Every flush carries a **batch id**: requests learn which batch answered
them (``submit`` returns it, the server echoes it into access logs and
``/debug/requests``), and under ``--trace`` the batcher emits one
``serve.predict_batch`` span whose args list the coalesced request ids
— the parent->batch link that connects one vectorized model call to all
the requests it served.  ``instrument=False`` strips the per-batch
histogram/gauge/trace work (the benchmark's overhead baseline) while
keeping the PR 8 counters.

The model call runs in a worker thread (``run_in_executor``), keeping
the event loop free to parse, batch and answer health checks while
NumPy crunches — the forest's heavy lifting releases the GIL.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from ..obs import DEFAULT_SIZE_BOUNDS, metrics, tracer
from .registry import ServedModel


@dataclass
class _Bucket:
    """Rows accumulating for one (model, generation) pair."""

    served: ServedModel
    batch_id: str
    items: list[tuple[np.ndarray, asyncio.Future, str | None]] = field(
        default_factory=list
    )
    rows: int = 0


def predict_matrix(
    served: ServedModel, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One timed, width-checked matrix call on pre-aligned rows."""
    with metrics().timer("serve.predict"):
        return served.model.predict_labels(X)


class MicroBatcher:
    """Accumulate concurrent predict calls into vectorized batches."""

    def __init__(
        self,
        *,
        max_rows: int = 4096,
        instrument: bool = True,
    ) -> None:
        if max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        self.max_rows = int(max_rows)
        self.instrument = instrument
        #: The open bucket of each key: rows not yet in a matrix call.
        self._buckets: dict[tuple[str, int], _Bucket] = {}
        #: The dispatcher task of each key that has rows to answer.
        self._dispatchers: dict[tuple[str, int], asyncio.Task] = {}
        self._batch_seq = itertools.count(1)

    # ------------------------------------------------------------- public

    def pending_rows(self) -> int:
        """Rows waiting in open buckets (drain visibility)."""
        return sum(b.rows for b in self._buckets.values())

    def _next_batch_id(self) -> str:
        return f"b{os.getpid()}-{next(self._batch_seq)}"

    async def submit(
        self,
        served: ServedModel,
        X: np.ndarray,
        request_id: str | None = None,
    ) -> tuple[np.ndarray, np.ndarray, int, str]:
        """Rows (model layout) -> (ipc_per_pe, epi, batch_rows, batch_id).

        ``batch_rows`` is the size of the matrix call that answered
        these rows — observability for how much coalescing actually
        happened (the response reports it as ``batched_rows``).
        ``batch_id`` names that call; the ``serve.predict_batch`` trace
        span with the same id lists every coalesced ``request_id``.
        """
        key = (served.name, served.generation)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = _Bucket(served=served, batch_id=self._next_batch_id())
            self._buckets[key] = bucket
        future = asyncio.get_running_loop().create_future()
        bucket.items.append((X, future, request_id))
        bucket.rows += X.shape[0]
        if self.instrument:
            metrics().set_gauge("serve.queue_rows", self.pending_rows())
        if bucket.rows >= self.max_rows:
            del self._buckets[key]
            await self._flush(bucket)
        elif key not in self._dispatchers:
            self._dispatchers[key] = asyncio.create_task(
                self._dispatch(key)
            )
        return await future

    async def drain(self) -> None:
        """Answer every open bucket and in-flight call (graceful-shutdown
        path): returns once no dispatcher has rows left."""
        while self._dispatchers:
            await asyncio.gather(*self._dispatchers.values())

    # ------------------------------------------------------------ internal

    async def _dispatch(self, key: tuple[str, int]) -> None:
        """Flush the key's open bucket until a call returns to none."""
        try:
            while (bucket := self._buckets.pop(key, None)) is not None:
                await self._flush(bucket)
        finally:
            del self._dispatchers[key]

    def _batch_span(
        self,
        served: ServedModel,
        batch_id: str,
        request_ids: list,
        rows: int,
    ):
        """The ``serve.predict_batch`` trace span linking batch->requests."""
        if not self.instrument:
            return contextlib.nullcontext()
        return tracer().span(
            "serve.predict_batch",
            cat="serve",
            batch_id=batch_id,
            model=served.name,
            generation=served.generation,
            rows=rows,
            request_ids=[r for r in request_ids if r is not None],
        )

    def _observe_batch(self, served: ServedModel, rows: int) -> None:
        if not self.instrument:
            return
        metrics().observe(
            "serve.batch.rows",
            rows,
            {"model": served.name},
            bounds=DEFAULT_SIZE_BOUNDS,
        )
        metrics().set_gauge("serve.queue_rows", self.pending_rows())

    async def _flush(self, bucket: _Bucket) -> None:
        loop = asyncio.get_running_loop()
        matrices = [X for X, _, _ in bucket.items]
        batch = (
            matrices[0] if len(matrices) == 1 else np.vstack(matrices)
        )
        total = batch.shape[0]
        metrics().inc("serve.batches")
        metrics().inc("serve.batched_rows", total)
        self._observe_batch(bucket.served, total)
        span = self._batch_span(
            bucket.served,
            bucket.batch_id,
            [rid for _, _, rid in bucket.items],
            total,
        )
        try:
            with span:
                ipc, epi = await loop.run_in_executor(
                    None, predict_matrix, bucket.served, batch
                )
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            for _, future, _ in bucket.items:
                if not future.done():
                    future.set_exception(exc)
            return
        offset = 0
        for X, future, _ in bucket.items:
            n = X.shape[0]
            if not future.done():
                future.set_result(
                    (ipc[offset:offset + n], epi[offset:offset + n],
                     total, bucket.batch_id)
                )
            offset += n
