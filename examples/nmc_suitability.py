#!/usr/bin/env python3
"""NMC-suitability analysis (the paper's Section 3.4 use case, Figure 7).

For a handful of workloads, compares the energy-delay product of

* executing on the POWER9-class host (host model), against
* executing on the NMC system — both as *predicted* by a NAPEL model that
  has never seen the application, and as *simulated* ("Actual").

An application with EDP reduction > 1 is a good NMC offload candidate.

Run:  python examples/nmc_suitability.py  [app ...]
"""

import sys

from repro import SimulationCampaign, analyze_suitability, get_workload
from repro.core.reporting import format_table

#: One NMC-friendly irregular app and one host-friendly streaming app per
#: paper category, to keep the example quick (~2 min); pass workload names
#: on the command line to analyze others.
DEFAULT_APPS = ("bfs", "kme", "gemv", "mvt")


def main() -> None:
    names = sys.argv[1:] or DEFAULT_APPS
    workloads = [get_workload(n) for n in names]
    campaign = SimulationCampaign()

    print(f"running CCD campaigns for {', '.join(names)} ...")
    training = campaign.run_all(workloads)
    print(f"{len(training)} training rows collected\n")

    results = analyze_suitability(
        workloads, [campaign], training_set=training
    )
    rows = []
    for r in results:
        verdict = "NMC-suitable" if r.suitable_actual else "host wins"
        agree = "yes" if r.suitable_pred == r.suitable_actual else "NO"
        rows.append([
            r.workload,
            f"{r.host_edp:.3e}",
            f"{r.edp_reduction_actual:6.2f}",
            f"{r.edp_reduction_pred:6.2f}",
            f"{r.edp_mre:6.1%}",
            verdict,
            agree,
        ])
    print(format_table(
        ["app", "host EDP (J*s)", "EDP red (sim)", "EDP red (NAPEL)",
         "EDP MRE", "verdict", "NAPEL agrees"],
        rows,
        title="NMC-suitability analysis (cf. paper Figure 7)",
    ))


if __name__ == "__main__":
    main()
