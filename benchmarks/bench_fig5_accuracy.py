"""Paper Figure 5: leave-one-application-out prediction accuracy.

Mean relative error of performance (a) and energy (b) predictions for
every application, for NAPEL's random forest and the two baselines:
an ANN (Ipek et al. [17]) and a linear decision tree (Guo et al. [13]).

Paper shape: NAPEL averages 8.5% (perf) / 11.6% (energy); it is 1.7x /
1.4x more accurate than the ANN and 3.2x / 3.5x more accurate than the
linear decision tree; bfs, bp and kme show the highest NAPEL error.  We
assert the *ordering* (NAPEL < ANN < tree on both targets) and ceilings on
NAPEL's own mean MRE.  Absolute errors are ~2x the paper's; why is still
open (ROADMAP item "Explain the accuracy gap before chasing it": a probe
at larger inputs made the errors worse, not better).
"""


from _bench_utils import emit, emit_record

from repro import evaluate_loocv
from repro.core.reporting import format_table


def test_fig5_accuracy_comparison(benchmark, full_training_set):
    results = {}
    for model in ("rf", "ann", "tree"):
        results[model] = evaluate_loocv(
            full_training_set, model=model, tune=(model == "rf")
        )

    apps = list(results["rf"].perf_mre)
    rows = []
    for app in apps:
        rows.append([
            app,
            *[f"{results[m].perf_mre[app]:7.1%}" for m in ("rf", "ann", "tree")],
            *[f"{results[m].energy_mre[app]:7.1%}" for m in ("rf", "ann", "tree")],
        ])
    rows.append([
        "MEAN",
        *[f"{results[m].mean_perf_mre:7.1%}" for m in ("rf", "ann", "tree")],
        *[f"{results[m].mean_energy_mre:7.1%}" for m in ("rf", "ann", "tree")],
    ])
    rf, ann, tree = (results[m] for m in ("rf", "ann", "tree"))
    summary = (
        f"performance: NAPEL {rf.mean_perf_mre:.1%} "
        f"(paper 8.5%), ANN/NAPEL = {ann.mean_perf_mre / rf.mean_perf_mre:.1f}x "
        f"(paper 1.7x), tree/NAPEL = {tree.mean_perf_mre / rf.mean_perf_mre:.1f}x "
        f"(paper 3.2x)\n"
        f"energy:      NAPEL {rf.mean_energy_mre:.1%} "
        f"(paper 11.6%), ANN/NAPEL = {ann.mean_energy_mre / rf.mean_energy_mre:.1f}x "
        f"(paper 1.4x), tree/NAPEL = {tree.mean_energy_mre / rf.mean_energy_mre:.1f}x "
        f"(paper 3.5x)"
    )
    table = format_table(
        ["app", "perf NAPEL", "perf ANN", "perf tree",
         "energy NAPEL", "energy ANN", "energy tree"],
        rows,
        title="Figure 5: leave-one-application-out MRE",
    )
    emit("fig5_accuracy", table + "\n\n" + summary)
    emit_record("fig5_accuracy", {
        f"{m}.mean_{target}_mre": getattr(results[m], f"mean_{target}_mre")
        for m in ("rf", "ann", "tree")
        for target in ("perf", "energy")
    }, units="mre")

    # Paper shape: NAPEL most accurate on both targets; the linear
    # decision tree clearly worst.
    assert rf.mean_perf_mre < ann.mean_perf_mre
    assert rf.mean_perf_mre < tree.mean_perf_mre
    assert rf.mean_energy_mre < ann.mean_energy_mre
    assert rf.mean_energy_mre < tree.mean_energy_mre
    assert tree.mean_perf_mre > 2 * rf.mean_perf_mre
    # Ceilings: the means measured when they were set (18.3 % perf,
    # 17.1 % energy), rounded up to the next 0.5 pp, so an accuracy
    # regression fails even when the ordering holds.
    assert rf.mean_perf_mre <= 0.185, rf.mean_perf_mre
    assert rf.mean_energy_mre <= 0.175, rf.mean_energy_mre

    # ANN training is slower than NAPEL-without-tuning (paper: up to 5x
    # slower than NAPEL *with* tuning; our from-scratch MLP is lighter, so
    # we only assert the per-fold prediction path through the benchmark).
    benchmark.pedantic(
        lambda: evaluate_loocv(
            full_training_set, model="rf", tune=False, n_estimators=30
        ),
        rounds=1, iterations=1,
    )
