#!/usr/bin/env python3
"""Pipeline benchmark: campaign, sweeps, training and serving, each timed
end to end and per layer.

    python benchmarks/pipeline/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1 | --traced]

Each workload runs in a fresh child process (``scenario.py``) with
``jobs=1`` and every ``REPRO_*`` variable removed from its environment,
so it measures the code as a user gets it by default.  Every time it
reports is corrected for the speed of the shared host (``hostspeed.py``).
Set-up time is sampled five times per workload (four set-up-only
launches plus the measured one) and reported as the median.  Shared inputs — the round-0
campaign cache, and for serving a model trained on it — are built
untimed inside the invocation (or taken from ``campaign_cold`` when it
ran first) and never reused across invocations.

Prints a table of every metric, writes one results JSON under
``benchmarks/results/pipeline/`` (or ``$REPRO_BENCH_DIR``) plus
``trace_<workload>.json`` files for traced runs, and ends standard output
with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace 1`` its per-layer metrics.  Exit status 2 means an output
check failed.  ``REPRO_BENCH_SMOKE=1`` shrinks everything for a quick
plumbing check (scale 6, one arch per sweep, a 12-tree forest).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from scenario import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SMOKE_ENV = "REPRO_BENCH_SMOKE"
BENCH_DIR_ENV = "REPRO_BENCH_DIR"
SETUP_SAMPLES = 5
SMOKE_SECONDS = 3.0
CHILD_TIMEOUT_S = 170
PREP_TIMEOUT_S = 300


def child_env() -> dict[str, str]:
    """This environment minus every ``REPRO_*`` knob, with ``src`` first
    on the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def launch(argv: list[str], timeout: float, out: Path | None = None) -> dict | None:
    """Run ``scenario.py argv``; returns its report (``out``) or None."""
    cmd = [sys.executable, str(HERE / "scenario.py"), *argv]
    if out is not None:
        cmd += ["--out", str(out), "--launched", repr(time.monotonic())]
    # A session of its own, so a child that hangs is killed together with
    # whatever it started (the server, pool workers).
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
        print(f"run.py: {argv[0]} timed out after {timeout} s", file=sys.stderr)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code is None:
        return None
    if code != 0:
        print(f"run.py: {argv[0]} exited with {code}", file=sys.stderr)
        return None
    return json.loads(out.read_text()) if out is not None else {}


def run_workload(name: str, opts: argparse.Namespace, work: Path,
                 results: Path) -> dict:
    prep_args = ["--seed", str(opts.seed), "--work", str(work)]
    if opts.smoke:
        prep_args.append("--smoke")
    if name != "campaign_cold":
        needs_model = name == "serve_mixed"
        if not (work / "prep.json").exists() or (
            needs_model and not (work / "model.pkl").exists()
        ):
            launch(["prep", *prep_args] + (["--model"] if needs_model else []),
                   PREP_TIMEOUT_S)
    argv = [
        name, *prep_args, "--seconds", str(opts.seconds),
        "--trace", str(opts.trace),
        "--trace-file", str(results / f"trace_{name}.json"),
    ]
    samples = []
    for i in range(SETUP_SAMPLES - 1):
        report = launch(argv + ["--setup-only"], CHILD_TIMEOUT_S,
                        work / f"{name}.setup{i}.json")
        if report is not None:
            samples.append(report["setup_s"])
    report = launch(argv, CHILD_TIMEOUT_S, work / f"{name}.json")
    if report is None:
        return {"workload": name, "attempted": 1, "failed": 1,
                "checks": [], "e2e": {}, "layers": None}
    samples.append(report["setup_s"])
    report["setup_samples"] = samples
    report["e2e"]["setup_s"] = statistics.median(samples)
    return report


def git_provenance() -> dict:
    """Commit and dirty flag, when the checkout is itself a git repo."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_rev": rev, "git_dirty": bool(status) if rev else None}


def declared(spec: dict, trace: int) -> dict[str, str]:
    """Metric name -> unit of the set the result line must carry."""
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(reports: dict, spec: dict, trace: int) -> dict:
    """The contract line; with several workloads, names are prefixed."""
    units = declared(spec, trace)
    metrics = {}
    for name, report in reports.items():
        values = report["layers"] if trace else report["e2e"]
        if not values:
            continue
        if set(values) != set(units):
            raise SystemExit(
                f"run.py: {name} reported metrics {sorted(values)} but "
                f"BENCHMARK.json declares {sorted(units)}"
            )
        prefix = f"{name}." if len(reports) > 1 else ""
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    return {
        "correct": all(r["failed"] == 0 and r["e2e"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }


def print_table(reports: dict, spec: dict) -> None:
    units = {**declared(spec, 0), **declared(spec, 1)}
    for name, report in reports.items():
        checks = report["checks"]
        print(f"\n{name}: {sum(c['ok'] for c in checks)}/{len(checks)} "
              f"checks passed, {report['failed']} of {report['attempted']} "
              f"operations failed, digest {report.get('results_digest', '')[:16]}")
        for metric, value in {**report["e2e"], **(report["layers"] or {})}.items():
            print(f"  {metric:32s} {value:14.6g} {units.get(metric, '')}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Time the pipeline end to end and per layer."
    )
    parser.add_argument("--workload", action="extend", nargs="+",
                        choices=WORKLOADS, help="default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="timed part of each run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: trace every second round and report the "
                             "per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    opts = parser.parse_args(argv)
    if opts.seed < 0:
        parser.error("--seed must be >= 0")
    if opts.traced:
        opts.trace = 1
    opts.smoke = os.environ.get(SMOKE_ENV, "").strip() not in ("", "0")
    return opts


def main(argv: list[str] | None = None) -> int:
    opts = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if opts.seconds is None:
        opts.seconds = SMOKE_SECONDS if opts.smoke else float(spec["run_seconds"])
    # Work files stay inside the checkout even when results go elsewhere.
    scratch = ROOT / "benchmarks" / "results" / "pipeline"
    scratch.mkdir(parents=True, exist_ok=True)
    bench_dir = os.environ.get(BENCH_DIR_ENV, "").strip()
    results = Path(bench_dir) if bench_dir else scratch
    results.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=scratch))
    try:
        reports = {
            name: run_workload(name, opts, work, results)
            for name in dict.fromkeys(opts.workload or WORKLOADS)
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = result_line(reports, spec, opts.trace)
    measured = [r for r in reports.values() if "jit_status" in r]
    record = {
        "benchmark": "pipeline",
        "created_unix": time.time(),
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "smoke": opts.smoke,
        "provenance": {
            **git_provenance(),
            "python": platform.python_version(),
            "numpy": measured[0]["numpy"] if measured else None,
            "jit_status": measured[0]["jit_status"] if measured else None,
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
        },
        "correct": line["correct"],
        "workloads": reports,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = results / f"pipeline_{stamp}_seed{opts.seed}_{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print_table(reports, spec)
    print(f"\nresults: {path}")
    print(json.dumps(line))
    return 0 if line["correct"] else 2


if __name__ == "__main__":
    sys.exit(main())
