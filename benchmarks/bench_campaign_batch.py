"""Campaign-level speedup: batched replay + persistent memo store.

Simulates the full CCD of all twelve applications two ways: a per-point
baseline (one :meth:`NMCSimulator.run` per design point over the
memoized traces: one phase-B kernel call and one phase-A pass each) and
the campaign runner (:meth:`SimulationCampaign._run_points`: every
point's phase B in one multi-point kernel invocation, phase A served
from the persistent ``$REPRO_SIM_MEMO_DIR`` store), at jobs=1 and
jobs=4, with the store cold and warm.  Every variant's results are
verified bit-identical to the campaign's while being timed, so the
record can never show a speedup bought with accuracy.

Measurement protocol: per workload, one untimed warm-up campaign
generates the traces (kept in the process trace memo — DoE re-runs
re-simulate known traces), computes the profiles (reused through the
campaign cache, the existing cross-run mechanism) and fills the
persistent store.  Before each timed variant the traces' in-process
simulation memos *and* content-hash digests are dropped, so every
variant pays phase A the way a fresh process would: the per-point
baseline recomputes it, the batched+warm-store path re-derives the key
and loads the stored product.  Cold-store runs point at an empty
directory.

Emits ``BENCH_campaign_batch.json`` (under ``$REPRO_BENCH_DIR`` or
``benchmarks/results/``) plus a rendered table.  Set
``REPRO_BENCH_SMOKE=1`` (CI) for reduced traces; the speedup gates are
only enforced on the full-size run.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

from _bench_utils import emit, emit_record

from repro import get_workload
from repro.core import CampaignCache, SimulationCampaign
from repro.core import campaign as campaign_mod
from repro.core.reporting import format_table
from repro.doe import ParameterSpace, central_composite
from repro.nmcsim import NMCSimulator, configure_store, jit_status
from repro.obs import metrics
from repro.workloads.base import config_seed

WORKLOADS = (
    "atax", "bfs", "bp", "chol", "gemv", "gesu",
    "gram", "kme", "lu", "mvt", "syrk", "trmm",
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")
SCALE = 6.0 if SMOKE else 1.0
JOBS = 4
#: Campaign-level floor for batched+warm-store vs per-point at jobs=1,
#: per phase-B backend (compiled C kernel, pure-Python fallback).
MIN_SPEEDUP = {"cc": 2.0, "python": 1.3}

#: (record key, jobs, store) — store is "off" / "cold" / "warm".
#: ``per_point_j1`` is the bench-local baseline loop; the rest run the
#: campaign.
VARIANTS = (
    ("per_point_j1", 1, "off"),
    ("batched_cold_j1", 1, "cold"),
    ("batched_warm_j1", 1, "warm"),
    ("batched_warm_j4", JOBS, "warm"),
)


def _canonical(results):
    return json.dumps([r.to_json_dict() for r in results], sort_keys=True)


def _ccd_points(workload):
    """``(config, seed, point_key)`` of every CCD point, in row order —
    derived the way :meth:`SimulationCampaign.run` derives them."""
    points = []
    seen: dict[str, int] = {}
    for config in central_composite(ParameterSpace.of_workload(workload)):
        config = workload.validate_config(config)
        base_key = campaign_mod._config_key(workload.name, config, 0)
        replicate = seen.get(base_key, 0)
        seen[base_key] = replicate + 1
        seed = config_seed(workload.name, config) + replicate
        points.append(
            (config, seed,
             campaign_mod._config_key(workload.name, config, seed))
        )
    return points


def _run_per_point(workload, points):
    """Baseline: one simulator run per point over the memoized traces."""
    sim = NMCSimulator()
    return [
        sim.run(
            campaign_mod._memoized_trace(workload, config, seed, SCALE, key),
            workload=workload.name,
            parameters=dict(config),
        )
        for config, seed, key in points
    ]


def _profile_cache(template: CampaignCache) -> CampaignCache:
    """A fresh cache holding only the template's profiles (no results):
    every point is pending again, but profiling — already amortized
    across runs by the campaign cache — is not re-measured."""
    cache = CampaignCache()
    cache._profiles = dict(template._profiles)
    return cache


def _drop_sim_memos() -> None:
    """Cold-reset every memoized trace's simulator side tables.

    Drops the ``sim.*`` memo tables and the content-hash digest, so a
    timed variant pays phase A (or the store lookup, digest included)
    exactly like a fresh worker process; the traces themselves stay
    memoized — regeneration cost is identical across variants anyway.
    """
    for trace in campaign_mod._TRACE_MEMO.values():
        memo = getattr(trace, "_memo", None)
        if not memo:
            continue
        drop = [
            k for k in memo
            if isinstance(k, str)
            and (k.startswith("sim.") or k == "content_hash")
        ]
        for key in drop:
            del memo[key]


def test_campaign_batch_speedup():
    backend = jit_status()["backend"]
    totals = {key: 0.0 for key, *_ in VARIANTS}
    per_workload = {}
    with tempfile.TemporaryDirectory() as warm_root:
        for name in WORKLOADS:
            workload = get_workload(name)
            warm_dir = os.path.join(warm_root, name)
            # Untimed warm-up: traces into the process memo, profiles
            # into the cache, phase-A products into the store.
            seed_cache = CampaignCache()
            configure_store(warm_dir)
            warm_set = SimulationCampaign(
                cache=seed_cache, scale=SCALE, jobs=1,
            ).run(workload)
            expected = _canonical(row.result for row in warm_set.rows)
            points = _ccd_points(workload)
            times = {}
            for key, jobs, store in VARIANTS:
                if store == "off":
                    store_dir = ""  # explicitly disabled
                elif store == "cold":
                    store_dir = tempfile.mkdtemp(
                        prefix=f"cold-{name}-", dir=warm_root
                    )
                else:
                    store_dir = warm_dir
                configure_store(store_dir)
                campaign = SimulationCampaign(
                    cache=_profile_cache(seed_cache), scale=SCALE, jobs=jobs,
                )
                _drop_sim_memos()
                start = time.perf_counter()
                if key == "per_point_j1":
                    results = _run_per_point(workload, points)
                else:
                    results = [r.result for r in campaign.run(workload).rows]
                elapsed = time.perf_counter() - start
                # Equivalence contract, checked on the timed run itself.
                assert _canonical(results) == expected, (name, key)
                times[key] = elapsed
                totals[key] += elapsed
            per_workload[name] = times
        configure_store(None)

    speedup_j1 = totals["per_point_j1"] / totals["batched_warm_j1"]
    speedup_cold_j1 = totals["per_point_j1"] / totals["batched_cold_j1"]
    rows = [
        [
            name,
            *(f"{t[key]:7.3f}" for key, *_ in VARIANTS),
            f"{t['per_point_j1'] / t['batched_warm_j1']:5.2f}x",
        ]
        for name, t in per_workload.items()
    ]
    rows.append([
        "TOTAL",
        *(f"{totals[key]:7.3f}" for key, *_ in VARIANTS),
        f"{speedup_j1:5.2f}x",
    ])
    emit("campaign_batch", format_table(
        ["workload", *(key for key, *_ in VARIANTS), "warm j1 speedup"],
        rows,
        title=f"CCD campaigns (s), scale={SCALE}, "
              f"phase-B backend={backend} "
              "(results verified bit-identical per variant)",
    ))

    flat = {f"total.{key}_s": totals[key] for key, *_ in VARIANTS}
    flat.update({
        "total.speedup_warm_j1": speedup_j1,
        "total.speedup_cold_j1": speedup_cold_j1,
    })
    emit_record(
        "campaign_batch",
        flat,
        units={
            key: "s" if key.endswith("_s") else "x" for key in flat
        },
        config={
            "scale": SCALE, "smoke": SMOKE, "jobs": JOBS,
            "workloads": list(WORKLOADS),
            "jit_backend": backend,
            "counters": {
                name: metrics().count(name)
                for name in (
                    "sim.batch.calls", "sim.batch.points",
                    "sim.memo.store.hits", "sim.memo.store.misses",
                    "sim.memo.store.writes", "sim.memo.store.errors",
                )
            },
        },
    )

    assert all(v > 0 for v in totals.values())
    if not SMOKE:
        floor = MIN_SPEEDUP[backend]
        assert speedup_j1 >= floor, (
            f"batched campaign speedup {speedup_j1:.2f}x at jobs=1 "
            f"(backend={backend}) fell below {floor}x"
        )
