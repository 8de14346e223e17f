"""DoE simulation campaigns (paper phase 2).

A :class:`SimulationCampaign` turns a workload and a set of DoE-selected
input configurations into a :class:`~repro.core.dataset.TrainingSet`: it
generates each configuration's trace, profiles it (phase 1) and simulates
it on the target NMC architecture (phase 2).

A :class:`CampaignCache` memoises (workload, configuration, architecture)
-> (profile, simulation result), because the leave-one-application-out
evaluation and the benchmark harness revisit the same points many times.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import OrderedDict
from pathlib import Path
from typing import Mapping, Sequence

from ..config import NMCConfig, default_nmc_config
from ..doe import ParameterSpace, central_composite
from ..errors import CampaignError
from ..ir import InstructionTrace
from ..nmcsim import (
    MEMO_COUNTER_NAMES,
    SimulationResult,
    configure_store,
    resolve_engine,
    simulate_batch,
    store_dir,
)
from ..obs import get_logger, metrics, tracer
from ..parallel import map_jobs, resolve_jobs
from ..profiler import ApplicationProfile, analyze_trace
from ..schema import active_schema, canonical_hash
from ..store import atomic_write_text, discard, lru_get_or_build
from ..workloads import Workload
from ..workloads.base import config_seed
from .dataset import TrainingRow, TrainingSet

log = get_logger("repro.campaign")

#: Process-wide memo of generated traces, keyed like the campaign cache
#: plus the trace scale.  Architecture sweeps revisit the same (workload,
#: config, seed, scale) points once per architecture — the profile is
#: already reused via :class:`CampaignCache`, but the trace used to be
#: regenerated every time.  Traces are immutable once built, so sharing
#: one object across campaigns (each campaign owns *one* architecture) is
#: safe; the bound keeps at most a campaign's worth of points resident.
_TRACE_MEMO: OrderedDict[tuple[str, float], InstructionTrace] = OrderedDict()
_TRACE_MEMO_CAPACITY = 64


def _memoized_trace(
    workload: Workload,
    config: Mapping[str, float],
    seed: int,
    scale: float,
    point_key: str,
) -> InstructionTrace:
    """Generate (or reuse) the trace of one campaign point."""

    def build() -> InstructionTrace:
        with metrics().timer("phase.trace"):
            return workload.generate(config, scale=scale, seed=seed)

    trace, hit = lru_get_or_build(
        _TRACE_MEMO, (point_key, scale), build, _TRACE_MEMO_CAPACITY
    )
    if hit:
        metrics().inc("campaign.trace_reuse")
        log.debug("trace reused", extra={"ctx": {"point": point_key}})
    return trace


#: On-disk campaign-cache layout version.  v2: arch keys switched from
#: raw JSON dumps to backend-prefixed canonical content hashes; caches
#: written by older versions are discarded with a warning on load.
CACHE_FORMAT_VERSION = 2


def _arch_key(arch: NMCConfig) -> str:
    """Canonical cache key of one architecture.

    ``<backend>:<canonical_hash>`` — the hash covers every config field
    (so any device or PE knob change misses the cache), while the
    leading backend name keeps keys human-attributable in cache dumps.
    Uses the same canonicalisation as the feature-schema content hash,
    so float fields key bit-exactly rather than by ``repr``.
    """
    return f"{arch.backend}:{canonical_hash(arch)}"


def _config_key(workload: str, config: Mapping[str, float], seed: int) -> str:
    params = ",".join(f"{k}={config[k]:.8g}" for k in sorted(config))
    return f"{workload}|{params}|seed={seed}"


class CampaignCache:
    """Memoises campaign points, optionally persisted as JSON on disk.

    Persistent caches are keyed by the active feature schema's content
    hash: cached profiles encode the profiler's feature layout, so a
    cache written under a different schema (features added, renamed or
    reordered since) is *discarded* with a warning instead of being
    silently misread into the wrong columns.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._profiles: dict[str, ApplicationProfile] = {}
        self._results: dict[tuple[str, str], SimulationResult] = {}
        #: Lookup accounting (reset never; one cache = one campaign run's
        #: worth of statistics for the run manifest).
        self.hits = 0
        self.misses = 0
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.exists():
            self._load()

    @property
    def hit_ratio(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def get(
        self, point_key: str, arch_key: str, *, record: bool = True
    ) -> tuple[ApplicationProfile, SimulationResult] | None:
        """One point lookup.  ``record=False`` skips the hit/miss
        accounting — used by internal re-reads (e.g. the parallel merge
        loop re-fetching points it just stored) so serial and parallel
        campaigns report identical statistics."""
        profile = self._profiles.get(point_key)
        result = self._results.get((point_key, arch_key))
        found = profile is not None and result is not None
        if record:
            if found:
                self.hits += 1
                metrics().inc("campaign.cache.hits")
                tracer().instant(
                    "campaign.cache.hit", args={"point": point_key}
                )
                log.debug(
                    "cache hit", extra={"ctx": {"point": point_key}}
                )
            else:
                self.misses += 1
                metrics().inc("campaign.cache.misses")
                tracer().instant(
                    "campaign.cache.miss", args={"point": point_key}
                )
                log.debug(
                    "cache miss", extra={"ctx": {"point": point_key}}
                )
        return (profile, result) if found else None

    def get_profile(self, point_key: str) -> ApplicationProfile | None:
        return self._profiles.get(point_key)

    def put(
        self,
        point_key: str,
        arch_key: str,
        profile: ApplicationProfile,
        result: SimulationResult,
    ) -> None:
        self._profiles[point_key] = profile
        self._results[(point_key, arch_key)] = result

    def save(self) -> None:
        """Persist the cache atomically (no-op without a configured path).

        Written through :func:`repro.store.atomic_write_text`, so a
        failed or crashed write leaves the previous file intact and
        concurrent savers never collide on a temporary file.
        """
        if self.path is None:
            return
        data = {
            "format": CACHE_FORMAT_VERSION,
            "schema_hash": active_schema().content_hash,
            "profiles": {
                k: p.to_json_dict() for k, p in self._profiles.items()
            },
            "results": [
                {"point": pk, "arch": ak, "result": r.to_json_dict()}
                for (pk, ak), r in self._results.items()
            ],
        }
        atomic_write_text(self.path, json.dumps(data))

    def _load(self) -> None:
        """Read the cache file; a stale or damaged one is discarded."""
        try:
            data = json.loads(self.path.read_text())
            stored_format = data.get("format")
            if stored_format != CACHE_FORMAT_VERSION:
                raise ValueError(
                    f"written in cache format {stored_format!r}, this "
                    f"version writes format {CACHE_FORMAT_VERSION} (arch "
                    "keys are canonical backend-aware hashes)"
                )
            stored_hash = data.get("schema_hash")
            expected_hash = active_schema().content_hash
            if stored_hash != expected_hash:
                raise ValueError(
                    f"written under a different feature schema "
                    f"({str(stored_hash)[:12]} vs {expected_hash[:12]})"
                )
            profiles = {
                k: ApplicationProfile.from_json_dict(p)
                for k, p in data.get("profiles", {}).items()
            }
            results = {
                (entry["point"], entry["arch"]):
                    SimulationResult.from_json_dict(entry["result"])
                for entry in data.get("results", [])
            }
        except (ValueError, KeyError, TypeError, AttributeError, OSError) as exc:
            discard(
                f"campaign cache {self.path} is stale, corrupt or "
                f"unreadable ({exc!r}); starting with an empty cache"
            )
            return
        self._profiles = profiles
        self._results = results

    def __len__(self) -> int:
        return len(self._results)


def _simulate_batch_job(
    job: tuple[Workload, list, NMCConfig, float, str, dict],
) -> tuple[list, list, float, dict[str, int]]:
    """Simulate one contiguous chunk of campaign points (picklable).

    The only code that simulates campaign points: :meth:`run`,
    :meth:`run_point` and ``--jobs N`` pools all reach it.  ``job``
    carries the chunk's pending points ``(point_key, config, seed)``
    plus ``known_profiles`` — profiles the parent's cache already holds
    (from an earlier architecture sweep), shipped along so workers skip
    re-profiling.  :func:`repro.nmcsim.simulate_batch` replays every
    point's phase B in one kernel invocation while each point keeps its
    own ``campaign.point`` and ``phase.simulate`` spans.  The output is
    a pure function of the payload, so results are identical at any
    worker count; the returned mapping carries the chunk's
    ``sim.memo.*`` counter deltas for the parent's metrics registry.
    """
    workload, chunk, arch, scale, engine, known_profiles = job
    start = time.perf_counter()
    m = metrics()
    memo_before = {name: m.count(name) for name in MEMO_COUNTER_NAMES}
    profiles: list[ApplicationProfile] = []
    sim_points: list[tuple[InstructionTrace, NMCConfig, str, dict]] = []
    for point_key, config, seed in chunk:
        with tracer().span(
            "campaign.point", workload=workload.name, seed=seed
        ):
            trace = _memoized_trace(workload, config, seed, scale, point_key)
            profile = known_profiles.get(point_key)
            if profile is None:
                with metrics().timer("phase.profile"):
                    profile = analyze_trace(
                        trace, workload=workload.name,
                        parameters=dict(config),
                    )
            profiles.append(profile)
            sim_points.append(
                (trace, arch, workload.name, dict(config))
            )
    results = simulate_batch(sim_points, engine=engine)
    for result in results:
        m.inc("campaign.points.simulated")
        # Simulated (deterministic) kernel time, not wall-clock: the
        # shipped histogram deltas merge to a bit-identical snapshot at
        # any worker count.
        m.observe(
            "campaign.point.sim_time_s",
            result.time_s,
            {"workload": workload.name},
        )
    memo_deltas = {
        name: m.count(name) - memo_before[name]
        for name in MEMO_COUNTER_NAMES
    }
    return profiles, results, time.perf_counter() - start, memo_deltas


class SimulationCampaign:
    """Runs DoE configurations of workloads through profile + simulation.

    ``jobs`` selects the worker-process count for campaign runs (1 =
    serial, 0 = all CPUs, None = honour ``REPRO_JOBS``); see
    :mod:`repro.parallel` for the determinism guarantee.  ``engine``
    selects the simulation engine (None = honour ``REPRO_SIM_ENGINE``,
    default fast); both engines produce identical results.

    :meth:`run`, :meth:`run_point` and ``jobs > 1`` share one simulation
    path: uncached points are split into contiguous chunks (one per
    worker), same-trace points run phase A back to back against warm
    memos, and each chunk's phase B replays in one kernel invocation.
    ``memo_dir`` points the persistent phase-A memo store at a directory
    (None = honour ``REPRO_SIM_MEMO_DIR``); pool workers adopt the same
    store.
    """

    def __init__(
        self,
        arch: NMCConfig | None = None,
        *,
        cache: CampaignCache | None = None,
        scale: float = 1.0,
        jobs: int | None = None,
        engine: str | None = None,
        memo_dir: str | os.PathLike | None = None,
    ) -> None:
        self.arch = arch or default_nmc_config()
        self.arch.validate()
        self.cache = cache if cache is not None else CampaignCache()
        self.scale = scale
        self.jobs = resolve_jobs(jobs)
        self.engine = resolve_engine(engine)
        if memo_dir is not None:
            configure_store(memo_dir)
        # The canonical arch hash covers every config field; computing it
        # per point was measurable (~0.7 ms each) at campaign scale.
        self._arch_key = _arch_key(self.arch)
        #: Wall-clock seconds spent simulating, by workload (Table 4's
        #: "DoE run" column); profiling time is included, simulation of
        #: cached points is not re-counted.  Under parallel execution
        #: this sums the workers' per-point seconds (CPU cost), keeping
        #: the Table 4 semantics independent of the worker count.
        self.doe_run_seconds: dict[str, float] = {}
        #: Elapsed wall-clock of each workload's latest :meth:`run`
        #: (what a user actually waits for; under parallel execution
        #: this is what shrinks while ``doe_run_seconds`` stays put).
        self.wall_seconds: dict[str, float] = {}

    # ------------------------------------------------------------ points

    def run_point(
        self,
        workload: Workload,
        config: Mapping[str, float],
        *,
        replicate: int = 0,
    ) -> TrainingRow:
        """Profile + simulate one input configuration.

        ``replicate`` differentiates centre replicates of the CCD: each
        replicate runs with a distinct RNG seed, which is how a
        deterministic simulator exhibits the "pure error" the centre
        replicates of a classical CCD are meant to estimate.
        """
        config = workload.validate_config(config)
        return self._run_points(workload, [(config, replicate)], 1)[0]

    # --------------------------------------------------------- campaigns

    def run(
        self,
        workload: Workload,
        configs: Sequence[Mapping[str, float]] | None = None,
        *,
        jobs: int | None = None,
    ) -> TrainingSet:
        """Run a workload's DoE campaign (default: its CCD, Table 4 sizes).

        With ``jobs > 1`` (or a campaign-level ``jobs`` setting) the
        uncached points are simulated in worker processes and merged back
        into the cache in configuration order, producing a
        :class:`TrainingSet` identical to a serial run.
        """
        if configs is None:
            with metrics().timer("phase.doe"):
                space = ParameterSpace.of_workload(workload)
                configs = central_composite(space)
        if not configs:
            raise CampaignError("campaign needs at least one configuration")
        jobs_n = self.jobs if jobs is None else resolve_jobs(jobs)
        points: list[tuple[dict, int]] = []
        seen: dict[str, int] = {}
        for config in configs:
            validated = workload.validate_config(config)
            key = _config_key(workload.name, validated, 0)
            replicate = seen.get(key, 0)
            seen[key] = replicate + 1
            points.append((validated, replicate))
        log.info(
            "campaign start",
            extra={"ctx": {
                "workload": workload.name,
                "points": len(points),
                "jobs": jobs_n,
                "cached": len(self.cache),
            }},
        )
        start = time.perf_counter()
        rows = self._run_points(workload, points, jobs_n)
        elapsed = time.perf_counter() - start
        self.wall_seconds[workload.name] = elapsed
        log.info(
            "campaign done",
            extra={"ctx": {
                "workload": workload.name,
                "points": len(points),
                "seconds": round(elapsed, 3),
            }},
        )
        return TrainingSet(rows)

    def _pending_split(
        self,
        workload: Workload,
        points: Sequence[tuple[dict, int]],
    ) -> tuple[list[str], list[tuple[str, dict, int]]]:
        """Point keys of all points + the (key, config, seed) not cached.

        Cache accounting (hits/misses, trace instants) happens here, once
        per point, whatever the worker count.
        """
        keys: list[str] = []
        pending: list[tuple[str, dict, int]] = []
        for config, replicate in points:
            seed = config_seed(workload.name, config) + replicate
            point_key = _config_key(workload.name, config, seed)
            keys.append(point_key)
            if self.cache.get(point_key, self._arch_key) is None:
                pending.append((point_key, config, seed))
        return keys, pending

    def _merge_memo_deltas(
        self, outputs: Sequence[tuple], memo_before: Mapping[str, int]
    ) -> None:
        """Fold worker-side sim-memo counter activity into this process's
        registry.  map_jobs may have run the jobs in-process (serial
        fallback), in which case the counters already moved here — only
        the part not observed locally is added."""
        m = metrics()
        for name in MEMO_COUNTER_NAMES:
            reported = sum(deltas.get(name, 0) for *_, deltas in outputs)
            missing = reported - (m.count(name) - memo_before[name])
            if missing > 0:
                m.inc(name, missing)

    def _rows_from_cache(
        self,
        workload: Workload,
        points: Sequence[tuple[dict, int]],
        keys: Sequence[str],
    ) -> list[TrainingRow]:
        rows: list[TrainingRow] = []
        for (config, _), point_key in zip(points, keys):
            # record=False: accounting happened at the pending check above;
            # this re-read is bookkeeping, not a campaign-level lookup.
            cached = self.cache.get(point_key, self._arch_key, record=False)
            assert cached is not None
            profile, result = cached
            rows.append(TrainingRow(
                workload=workload.name,
                parameters=dict(config),
                profile=profile,
                arch=self.arch,
                result=result,
            ))
        return rows

    def _run_points(
        self,
        workload: Workload,
        points: Sequence[tuple[dict, int]],
        jobs_n: int,
    ) -> list[TrainingRow]:
        """Simulate the uncached points, then return every point's row.

        Pending points are split into (at most) ``jobs_n`` contiguous
        chunks, each simulated by :func:`_simulate_batch_job`, and merged
        back into the cache in point order, so cache contents and timing
        tallies are independent of worker completion order.  When the
        persistent memo store is configured, pool workers adopt the
        parent's store directory via the executor's ``worker_init``
        hook, so geometry work done by one worker is reused by all.
        """
        keys, pending = self._pending_split(workload, points)
        if pending:
            known_profiles = {}
            for point_key, _config, _seed in pending:
                profile = self.cache.get_profile(point_key)
                if profile is not None:
                    known_profiles[point_key] = profile
            n_chunks = max(1, min(jobs_n, len(pending)))
            base, extra = divmod(len(pending), n_chunks)
            chunks: list[list[tuple[str, dict, int]]] = []
            lo = 0
            for c in range(n_chunks):
                hi = lo + base + (1 if c < extra else 0)
                chunks.append(pending[lo:hi])
                lo = hi
            payloads = [
                (
                    workload, chunk, self.arch, self.scale, self.engine,
                    {
                        pk: known_profiles[pk]
                        for pk, _cfg, _seed in chunk
                        if pk in known_profiles
                    },
                )
                for chunk in chunks
            ]
            m = metrics()
            memo_before = {
                name: m.count(name) for name in MEMO_COUNTER_NAMES
            }
            sdir = store_dir()
            outputs = map_jobs(
                _simulate_batch_job,
                payloads,
                jobs_n=jobs_n,
                chunk=1,
                worker_init=(
                    functools.partial(configure_store, sdir)
                    if sdir is not None else None
                ),
            )
            self._merge_memo_deltas(outputs, memo_before)
            done = 0
            for chunk, (profiles, results, elapsed, _) in zip(
                chunks, outputs
            ):
                for (point_key, _cfg, _seed), profile, result in zip(
                    chunk, profiles, results
                ):
                    self.cache.put(
                        point_key, self._arch_key, profile, result
                    )
                done += len(chunk)
                self.doe_run_seconds[workload.name] = (
                    self.doe_run_seconds.get(workload.name, 0.0) + elapsed
                )
                log.info(
                    "campaign progress",
                    extra={"ctx": {
                        "workload": workload.name,
                        "point": done,
                        "of": len(pending),
                    }},
                )
        return self._rows_from_cache(workload, points, keys)

    def run_all(
        self,
        workloads: Sequence[Workload],
        *,
        jobs: int | None = None,
    ) -> TrainingSet:
        """CCD campaigns for several workloads, concatenated."""
        return TrainingSet.concat(self.run(w, jobs=jobs) for w in workloads)
