#!/usr/bin/env python3
"""Compare two sets of pipeline-benchmark results.

    python benchmarks/pipeline/compare.py --base A.json [A2.json|DIR ...] \\
        --head B.json [B2.json|DIR ...]

For every workload and end-to-end metric of ``BENCHMARK.json`` it prints
each side's median and quartiles and a verdict:

* ``worse`` / ``better`` — the head median moved by more than the
  metric's bound, in the metric's bad / good direction;
* ``unchanged`` — it moved by no more than the bound;
* ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the bound, so the medians cannot be told apart; this
  becomes ``better`` only when every head run beats every base run.

It also checks that runs with the same seed and workload agree on
``results_digest`` and that no head run failed an operation.  Exit
status 1 on any ``worse`` verdict, digest mismatch or head failure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(paths: list[str]) -> list[dict]:
    """Result records from files, or every ``pipeline_*.json`` in a dir."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        files.extend(sorted(path.glob("pipeline_*.json")) if path.is_dir()
                     else [path])
    if not files:
        raise SystemExit(f"compare.py: no result files in {paths}")
    return [json.loads(f.read_text()) for f in files]


def runs(records: list[dict], workload: str) -> list[dict]:
    return [r["workloads"][workload] | {"seed": r["seed"]}
            for r in records if workload in r["workloads"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base: list[float], head: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, signed change of the head median; > 0 is better)."""
    sign = 1.0 if better == "higher" else -1.0
    b_med, h_med = statistics.median(base), statistics.median(head)
    change = sign * (h_med - b_med) / abs(b_med)
    if max(spread(base), spread(head)) > bound:
        beats = all(sign * (h - b) > 0 for h in head for b in base)
        return ("better" if beats else "unresolved"), change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "unchanged", change


def compare(base: list[dict], head: list[dict], spec: dict) -> int:
    problems = 0
    workloads = [
        w["name"] for w in spec["workloads"]
        if any(w["name"] in r["workloads"] for r in base)
        and any(w["name"] in r["workloads"] for r in head)
    ]
    print(f"{'workload':14s} {'metric':12s} {'base median [q1, q3]':>32s} "
          f"{'head median [q1, q3]':>32s} {'change':>8s}  verdict")
    for workload in workloads:
        b_runs, h_runs = runs(base, workload), runs(head, workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["e2e"][name] for r in b_runs if name in r["e2e"]]
            h = [r["e2e"][name] for r in h_runs if name in r["e2e"]]
            if not b or not h:
                print(f"{workload:14s} {name:12s} missing on one side")
                problems += 1
                continue
            result, change = verdict(b, h, metric["better"], metric["bound"])
            problems += result == "worse"
            cells = [
                "{1:.4g} [{0:.4g}, {2:.4g}] (n={3})".format(*quartiles(v), len(v))
                for v in (b, h)
            ]
            print(f"{workload:14s} {name:12s} {cells[0]:>32s} {cells[1]:>32s} "
                  f"{change:+8.1%}  {result} (bound {metric['bound']:.0%})")
        digests: dict[int, set[str]] = {}
        for r in b_runs + h_runs:
            digests.setdefault(r["seed"], set()).add(r.get("results_digest"))
        for seed, found in sorted(digests.items()):
            if len(found) > 1:
                print(f"{workload:14s} results_digest differs for seed {seed}: "
                      f"{sorted(str(d)[:16] for d in found)}")
                problems += 1
            else:
                print(f"{workload:14s} results_digest agrees for seed {seed}")
        for side, side_runs in (("base", b_runs), ("head", h_runs)):
            failed = sum(r["failed"] for r in side_runs)
            attempted = sum(r["attempted"] for r in side_runs)
            if failed:
                print(f"{workload:14s} {side}: {failed} of {attempted} "
                      "operations failed")
                problems += side == "head"
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    parser.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())
    return compare(load(args.base), load(args.head), spec)


if __name__ == "__main__":
    sys.exit(main())
