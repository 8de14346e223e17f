#!/usr/bin/env python
"""Append a pipeline benchmark run to the committed perf trajectory.

Reads one results JSON written by ``benchmarks/pipeline/run.py`` and
appends one entry per workload to ``BENCH_pipeline.json`` at the repo
root (or ``--out``): the label, commit, seed, host slowdown, end-to-end
and layer metrics, ``results_digest`` and the failed/attempted counts::

    python benchmarks/pipeline/run.py --workload campaign_cold --seed 0
    python scripts/bench_record.py benchmarks/results/pipeline/pipeline_*.json \\
        --label "compiled profiler passes, change"

The commit comes from the run's own provenance; a run from a checkout
without git metadata (a ``git archive`` copy) names it with
``--commit``.  Entries are only ever appended, so the file reads as the
trajectory in the order runs were recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "BENCH_pipeline.json"


def entries(record: dict, label: str, commit: str | None) -> list[dict]:
    """One trajectory entry per workload of a ``run.py`` results record."""
    provenance = record.get("provenance", {})
    commit = commit or provenance.get("git_rev")
    if commit is None:
        raise SystemExit(
            "bench_record.py: the run carries no git revision; name it "
            "with --commit"
        )
    out = []
    for name, report in record["workloads"].items():
        out.append({
            "label": label,
            "source": "measured",
            "commit": commit,
            "dirty": provenance.get("git_dirty"),
            "workload": name,
            "seed": record["seed"],
            "seconds": record["seconds"],
            "traced": bool(record.get("trace")),
            "host_slowdown": report.get("host_slowdown"),
            "e2e": report.get("e2e", {}),
            "layers": report.get("layers"),
            "results_digest": report.get("results_digest"),
            "attempted": report.get("attempted"),
            "failed": report.get("failed"),
            "created_unix": record.get("created_unix"),
        })
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path, nargs="+",
                        help="run.py results JSON file(s), appended in order")
    parser.add_argument("--label", required=True,
                        help="what the run measured, e.g. 'PR title, parent'")
    parser.add_argument("--commit",
                        help="commit of a run whose checkout has no git data")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    opts = parser.parse_args(argv)

    doc = (json.loads(opts.out.read_text()) if opts.out.exists()
           else {"benchmark": "pipeline", "entries": []})
    added = []
    for path in opts.results:
        added += entries(json.loads(path.read_text()), opts.label, opts.commit)
    doc["entries"].extend(added)
    opts.out.write_text(json.dumps(doc, indent=1) + "\n")
    for entry in added:
        e2e = entry["e2e"]
        print(f"{entry['workload']:14s} {entry['commit'][:12]:12s} "
              f"seed {entry['seed']} items/s {e2e.get('items_per_s', 'n/a')} "
              f"digest {str(entry['results_digest'])[:16]}")
    print(f"{len(added)} entries appended to {opts.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
