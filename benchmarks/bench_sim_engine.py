"""Simulation-engine speedup: fast (two-phase) vs reference (per-access).

Times both engines on the Table 2 test inputs of all twelve applications
— the trace sizes a DoE campaign actually simulates — and records the
per-workload and aggregate wall-clock speedup.  Results are verified
bit-identical while being timed, so the record can never show a speedup
bought with accuracy.

Measurement protocol: one untimed warm-up run primes the code paths and
the fast engine's geometry memos (the campaign steady state this
benchmark models — DoE points re-simulate the same traces), then each
engine takes the best of ``reps`` timed runs (minimum over repetitions
is the standard estimator for noisy single-core hosts).  The fast
engine's per-phase split (classify vs contend) is recorded for the best
run, so a future regression is attributable to the phase that caused it.

Phase B runs through the compiled C kernel whenever a C compiler is
found (see :mod:`repro.nmcsim._native`); the record notes which backend
actually ran.  The >= 10x aggregate-speedup assertion applies to the
``cc`` backend; toolchain-less hosts run the pure-Python loop and are
held to the >= 3x floor.

Emits ``results/BENCH_sim_engine.json`` plus a rendered table.  Set
``REPRO_BENCH_SMOKE=1`` (CI) to run reduced traces with one repetition —
the record is still produced, but the aggregate-speedup assertion is
only enforced on the full-size run.
"""

from __future__ import annotations

import json
import os
import time

from _bench_utils import emit, emit_record

from repro import get_workload
from repro.core.reporting import format_table
from repro.nmcsim import NMCSimulator, jit_status
from repro.obs import metrics

WORKLOADS = (
    "atax", "bfs", "bp", "chol", "gemv", "gesu",
    "gram", "kme", "lu", "mvt", "syrk", "trmm",
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")
SCALE = 6.0 if SMOKE else 1.0
REPS = 1 if SMOKE else 3
#: Aggregate floor per phase-B backend: the compiled kernel (the default
#: wherever a C compiler exists) and the pure-Python fallback.
MIN_AGGREGATE_SPEEDUP = {"cc": 10.0, "python": 3.0}


def _canonical(result):
    return json.dumps(result.to_json_dict(), sort_keys=True)


def _timer_total(name):
    timer = metrics().snapshot()["timers"].get(name, {})
    return timer.get("total_s", 0.0)


def _hist_sum(name):
    hist = metrics().snapshot()["histograms"].get(name, {})
    return hist.get("sum", 0.0)


def _best_of(simulator, trace, name, reps, *, phases=False):
    """Best-of-reps wall time (+ the best run's phase split, if asked)."""
    best = float("inf")
    result = None
    best_phases = {}
    for _ in range(reps):
        if phases:
            classify0 = _timer_total("phase.simulate.classify")
            contend0 = _hist_sum("sim.batch.contend_s")
        start = time.perf_counter()
        result = simulator.run(trace, workload=name, parameters={})
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            if phases:
                best_phases = {
                    "classify_s":
                        _timer_total("phase.simulate.classify") - classify0,
                    "contend_s":
                        _hist_sum("sim.batch.contend_s") - contend0,
                }
    return best, result, best_phases


def test_sim_engine_speedup():
    backend = jit_status()["backend"]
    per_workload = {}
    total_fast = total_ref = 0.0
    total_classify = total_contend = 0.0
    for name in WORKLOADS:
        workload = get_workload(name)
        trace = workload.generate(workload.test_config(), scale=SCALE, seed=7)
        fast_sim = NMCSimulator(engine="fast")
        ref_sim = NMCSimulator(engine="reference")
        fast_sim.run(trace, workload=name, parameters={})  # warm-up
        t_fast, r_fast, fast_phases = _best_of(
            fast_sim, trace, name, REPS, phases=True
        )
        t_ref, r_ref, _ = _best_of(ref_sim, trace, name, REPS)
        # Equivalence contract, checked on the exact runs being timed.
        assert _canonical(r_fast) == _canonical(r_ref), name
        per_workload[name] = {
            "fast_s": t_fast,
            "fast_classify_s": fast_phases["classify_s"],
            "fast_contend_s": fast_phases["contend_s"],
            "reference_s": t_ref,
            "speedup": t_ref / t_fast,
            "instructions": r_fast.instructions,
            "miss_ratio": r_fast.cache.miss_ratio,
        }
        total_fast += t_fast
        total_classify += fast_phases["classify_s"]
        total_contend += fast_phases["contend_s"]
        total_ref += t_ref

    aggregate = total_ref / total_fast
    rows = [
        [
            name,
            f"{w['instructions']:>9d}",
            f"{w['miss_ratio']:6.3f}",
            f"{w['reference_s']:8.3f}",
            f"{w['fast_s']:8.3f}",
            f"{w['fast_classify_s']:8.3f}",
            f"{w['fast_contend_s']:8.3f}",
            f"{w['speedup']:5.2f}x",
        ]
        for name, w in per_workload.items()
    ]
    rows.append([
        "TOTAL", "", "", f"{total_ref:8.3f}", f"{total_fast:8.3f}",
        f"{total_classify:8.3f}", f"{total_contend:8.3f}",
        f"{aggregate:5.2f}x",
    ])
    emit("sim_engine", format_table(
        ["workload", "instrs", "miss", "reference (s)", "fast (s)",
         "classify (s)", "contend (s)", "speedup"],
        rows,
        title=f"Simulation engines, scale={SCALE}, best of {REPS}, "
              f"phase-B backend={backend} "
              "(results verified bit-identical per run)",
    ))

    flat = {
        f"{name}.speedup": w["speedup"] for name, w in per_workload.items()
    }
    for name, w in per_workload.items():
        flat[f"{name}.fast_classify_s"] = w["fast_classify_s"]
        flat[f"{name}.fast_contend_s"] = w["fast_contend_s"]
    flat.update({
        "total.reference_s": total_ref,
        "total.fast_s": total_fast,
        "total.fast_classify_s": total_classify,
        "total.fast_contend_s": total_contend,
        "total.speedup": aggregate,
    })
    emit_record(
        "sim_engine",
        flat,
        units={
            key: "s" if key.endswith("_s") else "x" for key in flat
        },
        config={
            "scale": SCALE, "reps": REPS, "smoke": SMOKE, "seed": 7,
            "jit_backend": backend,
        },
    )

    assert total_fast > 0 and total_ref > 0
    if not SMOKE:
        floor = MIN_AGGREGATE_SPEEDUP[backend]
        assert aggregate >= floor, (
            f"fast engine aggregate speedup {aggregate:.2f}x "
            f"(backend={backend}) fell below {floor}x"
        )
