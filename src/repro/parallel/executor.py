"""Ordered map over independent jobs, in-process or in a worker pool.

:func:`map_jobs` is the single entry point.  It resolves the requested
worker count (explicit argument > ``REPRO_JOBS`` environment variable >
serial), runs the jobs in the calling process or in a pool of worker
processes, and returns results in job order.  Worker-side exceptions are
captured with their traceback and re-raised in the caller as
:class:`ParallelError` carrying the job index and repr, so a failure
deep inside a pool points at the job that caused it.

The pool degrades gracefully: :func:`map_jobs` runs serially when only
one job (or one worker) is requested, when the interpreter is already
inside a pool worker (no nested pools), or when the platform
cannot start worker processes at all (missing ``fork``/semaphores, e.g.
restricted sandboxes) — emitting a warning rather than failing.
"""

from __future__ import annotations

import os
import traceback
import warnings
from typing import Callable, Iterable, TypeVar

from ..errors import ConfigError, ParallelError
from ..obs import get_logger, metrics, tracer
from ..obs.trace import HW_PID as _HW_PID

log = get_logger("repro.parallel")

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit job count is given.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Set in pool workers so nested ``map_jobs`` calls stay serial.
_IN_WORKER = False


def in_worker() -> bool:
    """True when running inside a :func:`map_jobs` pool worker."""
    return _IN_WORKER


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True
    log.debug(
        "pool worker started", extra={"ctx": {"pid": os.getpid()}}
    )


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective worker count: explicit value > ``REPRO_JOBS`` env > 1.

    ``jobs=0`` / ``REPRO_JOBS=0`` means "all CPUs"; a negative count
    (argument or environment) raises :class:`ConfigError`.  A
    non-integer environment value falls back to serial with a warning.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            warnings.warn(
                f"ignoring non-integer {JOBS_ENV_VAR}={raw!r}; running serial",
                RuntimeWarning,
                stacklevel=2,
            )
            return 1
    if jobs < 0:
        raise ConfigError(f"job count must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return int(jobs)


def _call_job(payload):
    """Pool-side shim: run one job, capturing any exception with context.

    Besides the job's result (or failure triple), ships the *delta* of
    the worker's observability state accumulated while running this job:
    the metrics-registry diff (so the parent's merged counters/timers
    match a serial run's counts exactly) and, when tracing is active, the
    trace events the job recorded (so the parent can remap them onto a
    per-worker timeline lane).
    """
    index, fn, job = payload
    before = metrics().snapshot()
    t = tracer()
    trace_mark = t.mark() if t.enabled else 0
    try:
        result = fn(job)
        ok, out = True, result
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        ok, out = False, (
            type(exc).__name__,
            str(exc),
            traceback.format_exc(),
        )
    events = t.events_since(trace_mark) if t.enabled else []
    return index, ok, out, metrics().diff(before), events


def _raise_failure(index: int, job, failure) -> None:
    exc_name, exc_msg, tb = failure
    log.error(
        "pool job failed",
        extra={"ctx": {
            "job_index": index,
            "exception": exc_name,
            "message": exc_msg,
        }},
    )
    raise ParallelError(
        f"job {index} ({job!r}) failed with {exc_name}: {exc_msg}\n{tb}"
    )


def process_pool_available() -> bool:
    """Whether this platform can actually start pool worker processes.

    Checked lazily and cached: some sandboxes expose ``multiprocessing``
    but fail at semaphore or process creation time.
    """
    global _POOL_AVAILABLE
    if _POOL_AVAILABLE is None:
        try:
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(
                max_workers=1, mp_context=_mp_context()
            ) as pool:
                _POOL_AVAILABLE = pool.submit(int, 1).result(timeout=60) == 1
        except BaseException:  # noqa: BLE001 - any failure means "no pool"
            _POOL_AVAILABLE = False
    return _POOL_AVAILABLE


_POOL_AVAILABLE: bool | None = None


def _mp_context():
    """Prefer fork (cheap, inherits loaded modules); fall back to spawn."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    method = "fork" if "fork" in methods else methods[0]
    return multiprocessing.get_context(method)


def map_jobs(
    fn: Callable[[T], R],
    jobs: Iterable[T],
    *,
    jobs_n: int | None = None,
) -> list[R]:
    """Apply ``fn`` to every job, in parallel when ``jobs_n`` allows it.

    The one-call API used by all hot loops: results are returned in job
    order, and ``jobs_n=None`` consults the ``REPRO_JOBS`` environment
    variable (absent -> serial).  One job, one worker or a call from
    inside a pool worker runs serially in the calling process, where
    exceptions propagate unchanged with their traceback intact; pool
    workers' exceptions re-raise as :class:`ParallelError` with the
    failing job's index and repr.
    """
    jobs = list(jobs)
    jobs_n = resolve_jobs(jobs_n)
    if jobs_n <= 1 or len(jobs) <= 1 or in_worker():
        return [fn(job) for job in jobs]
    if not process_pool_available():
        warnings.warn(
            "worker processes are unavailable on this platform; "
            "running jobs serially",
            RuntimeWarning,
            stacklevel=2,
        )
        return [fn(job) for job in jobs]
    import concurrent.futures

    workers = min(jobs_n, len(jobs))
    payloads = [(i, fn, job) for i, job in enumerate(jobs)]
    log.debug(
        "pool dispatch",
        extra={"ctx": {"jobs": len(jobs), "workers": workers}},
    )
    try:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_mp_context(),
            initializer=_mark_worker,
        ) as pool:
            raw = list(pool.map(_call_job, payloads))
    except (OSError, RuntimeError, ImportError) as exc:
        warnings.warn(
            f"process pool failed ({exc}); re-running jobs serially",
            RuntimeWarning,
            stacklevel=2,
        )
        log.warning(
            "process pool failed; re-running jobs serially",
            extra={"ctx": {"error": repr(exc)}},
        )
        return [fn(job) for job in jobs]
    out: list[R] = [None] * len(jobs)  # type: ignore[list-item]
    # Merge every worker's metrics delta and trace events (including
    # failed jobs': the work they did before dying still happened)
    # before raising.  Each distinct worker pid gets a stable lane in
    # job-index order, so the trace shows one timeline per worker.
    lanes: dict[int, int] = {}
    for _index, _ok, _result, delta, events in raw:
        metrics().merge_snapshot(delta)
        if events:
            worker_pid = next(
                (
                    e["pid"] for e in events
                    if isinstance(e.get("pid"), int)
                    and e["pid"] < _HW_PID
                ),
                None,
            )
            lane = None
            if worker_pid is not None:
                lane = lanes.setdefault(worker_pid, len(lanes) + 1)
            tracer().adopt(events, lane=lane)
    for index, ok, result, _delta, _events in raw:
        if not ok:
            _raise_failure(index, jobs[index], result)
        out[index] = result
    log.debug(
        "pool drained", extra={"ctx": {"jobs": len(jobs)}}
    )
    return out
