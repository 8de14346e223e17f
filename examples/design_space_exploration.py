#!/usr/bin/env python3
"""Early-stage NMC design-space exploration with NAPEL.

This is the paper's motivating use case (Section 1): once trained, NAPEL
evaluates *architecture* variants in milliseconds instead of re-simulating
each one.  We train on a small set of (input x architecture) simulations of
``kme`` and ``gemv``, then sweep PE count, core frequency and L1 size for
``bfs`` — an application the model has never seen — and rank the designs by
predicted energy-delay product.

Run:  python examples/design_space_exploration.py
"""

import itertools
import time

from repro import (
    NapelTrainer,
    SimulationCampaign,
    analyze_trace,
    default_nmc_config,
    get_workload,
)
from repro.core.dataset import TrainingSet
from repro.core.reporting import format_table

#: Architecture training points: a small factorial over the knobs we sweep.
TRAIN_ARCHS = [
    dict(n_pes=pes, frequency_ghz=freq, l1_lines=lines)
    for pes, freq, lines in itertools.product(
        (16, 32), (1.0, 1.5), (2, 64)
    )
]

#: The prediction sweep: a finer grid, mostly unseen configurations.
SWEEP_ARCHS = [
    dict(n_pes=pes, frequency_ghz=freq, l1_lines=lines)
    for pes, freq, lines in itertools.product(
        (16, 24, 32), (1.0, 1.25, 1.5), (2, 16, 64)
    )
]


def main() -> None:
    base = default_nmc_config()
    kme, gemv, bfs = (get_workload(n) for n in ("kme", "gemv", "bfs"))

    print(f"training: {len(TRAIN_ARCHS)} architectures x 2 workloads (CCD)")
    start = time.perf_counter()
    sets = []
    for arch_changes in TRAIN_ARCHS:
        campaign = SimulationCampaign(base.replace(**arch_changes))
        for w in (kme, gemv):
            sets.append(campaign.run(w))
    training = TrainingSet.concat(sets)
    print(
        f"collected {len(training)} rows in "
        f"{time.perf_counter() - start:.0f} s"
    )

    trained = NapelTrainer().train(training)
    print(f"train+tune: {trained.train_tune_seconds:.1f} s\n")

    # One profile of the unseen application serves every architecture in
    # the sweep: the profile is architecture-independent.
    profile = analyze_trace(
        bfs.generate(bfs.test_config()), workload="bfs"
    )

    start = time.perf_counter()
    rows = []
    for arch_changes in SWEEP_ARCHS:
        arch = base.replace(**arch_changes)
        pred = trained.model.predict(profile, arch)
        rows.append((pred.edp, arch_changes, pred))
    sweep_s = time.perf_counter() - start
    rows.sort(key=lambda r: r[0])

    table = [
        [
            changes["n_pes"],
            changes["frequency_ghz"],
            changes["l1_lines"],
            f"{pred.ipc:6.3f}",
            f"{pred.time_s * 1e6:8.2f}",
            f"{pred.energy_j * 1e3:8.4f}",
            f"{edp:.3e}",
        ]
        for edp, changes, pred in rows
    ]
    print(format_table(
        ["#PEs", "GHz", "L1 lines", "pred IPC", "time (us)",
         "energy (mJ)", "EDP (J*s)"],
        table,
        title=f"bfs (unseen) across {len(SWEEP_ARCHS)} NMC designs "
              f"(predicted in {sweep_s * 1e3:.0f} ms, best first)",
    ))
    best = rows[0][1]
    print(f"\nbest predicted design for bfs: {best}")


if __name__ == "__main__":
    main()
