"""Paper Figure 4: NAPEL's prediction speedup over the simulator for 256
DoE configurations.

The scenario is the paper's motivating use case: early design-space
exploration, where an architect evaluates an application across many *NMC
architecture* configurations.  For each application we compare the cost of
evaluating 256 architecture design points:

* **simulator**: one cold :func:`~repro.nmcsim.simulate_batch` call over
  the 256 architectures on a freshly generated trace (no warm in-process
  memo, no persistent memo store).  That is how a campaign sweeps
  architectures: points that share a PE count, clock or L1 geometry
  share phase-A work (stream digests, L1 classification), and every
  point's phase B runs in one kernel call, so the sweep costs less than
  256 separate simulations;
* **NAPEL**: one kernel analysis (phase 1 is architecture-independent, so
  a single profile serves the whole architecture sweep), the assembly of
  its 256 feature rows (profile plus architecture) and 256 model
  evaluations.

The paper reports speedups between 33x and 1039x (average 220x) against
Ramulator, whose per-configuration cost is hours.  Our substrate simulator
is itself ~10^4x faster than Ramulator, and the batched sweep amortises
phase A across architectures, which compresses the achievable ratio
further; the bench reports the ratio it measures.
"""

import itertools
import time

import numpy as np

from _bench_utils import emit, emit_record

from repro import NapelTrainer, analyze_trace, default_nmc_config
from repro.core.predictor import NapelModel
from repro.core.reporting import format_bar_series, format_table
from repro.nmcsim import simulate_batch

#: Architecture design points per application, as in the paper.
N_CONFIGS = 256


def _sweep_architectures():
    """256 distinct NMC architecture configurations."""
    base = default_nmc_config()
    grid = itertools.product(
        (8, 16, 32, 64),            # PEs
        (0.8, 1.0, 1.25, 1.5),      # GHz
        (2, 8, 32, 128),            # L1 lines
        (16, 32, 48, 64),           # vaults
    )
    archs = [
        base.replace(n_pes=p, frequency_ghz=f, l1_lines=l, l1_ways=2, n_vaults=v)
        for p, f, l, v in grid
    ]
    assert len(archs) == N_CONFIGS
    return archs


def test_fig4_prediction_speedup(
    benchmark, workloads, full_training_set
):
    archs = _sweep_architectures()
    trained = NapelTrainer().train(full_training_set)

    speedups = {}
    rows = []
    for w in workloads:
        # Simulator side: the whole 256-architecture sweep, cold (a
        # trace of its own, so no phase-A memo is warm).
        sim_trace = w.generate(w.test_config())
        start = time.perf_counter()
        simulate_batch([(sim_trace, a, w.name, {}) for a in archs])
        sim_total = time.perf_counter() - start
        del sim_trace

        trace = w.generate(w.test_config())

        # NAPEL side: one profile, its 256 feature rows and their
        # predictions.
        start = time.perf_counter()
        profile = analyze_trace(trace, workload=w.name)
        profile_s = time.perf_counter() - start
        start = time.perf_counter()
        X = np.vstack([NapelModel.features(profile, a) for a in archs])
        assemble_s = time.perf_counter() - start
        start = time.perf_counter()
        trained.model.predict_labels(X)
        predict_s = time.perf_counter() - start

        napel_total = profile_s + assemble_s + predict_s
        speedups[w.name] = sim_total / napel_total
        rows.append([
            w.name,
            f"{sim_total:8.2f}",
            f"{sim_total / N_CONFIGS * 1e3:7.1f}",
            f"{profile_s:7.3f}",
            f"{assemble_s:7.3f}",
            f"{predict_s:7.3f}",
            f"{speedups[w.name]:8.1f}x",
        ])

    ordered = dict(sorted(speedups.items(), key=lambda kv: kv[1]))
    table = format_table(
        ["app", f"sim {N_CONFIGS} (s)", "sim per cfg (ms)",
         "profile (s)", "assemble 256 (s)", "predict 256 (s)", "speedup"],
        rows,
        title=f"Figure 4 data: NAPEL vs simulator, {N_CONFIGS} "
              "architecture design points per application",
    )
    chart = format_bar_series(
        "Figure 4: prediction speedup over the simulator "
        f"(min {min(speedups.values()):.0f}x, "
        f"avg {np.mean(list(speedups.values())):.0f}x, "
        f"max {max(speedups.values()):.0f}x; "
        "paper: 33x / 220x / 1039x)",
        {k: round(v, 1) for k, v in ordered.items()},
        unit="x",
    )
    emit("fig4_speedup", table + "\n\n" + chart)
    emit_record("fig4_speedup", {
        "speedup.min": min(speedups.values()),
        "speedup.mean": float(np.mean(list(speedups.values()))),
        "speedup.max": max(speedups.values()),
        **{f"{name}.speedup": s for name, s in speedups.items()},
    }, units="x")

    # Shape assertions: order-of-magnitude speedups with a wide spread.
    assert min(speedups.values()) > 5
    assert np.mean(list(speedups.values())) > 15
    assert max(speedups.values()) / min(speedups.values()) > 2

    # Benchmarked operation: the 256-point prediction sweep for one app.
    w = workloads[0]
    profile = analyze_trace(w.generate(w.central_config()), workload=w.name)
    X = np.vstack([NapelModel.features(profile, a) for a in archs])
    benchmark(lambda: trained.model.predict_labels(X))
