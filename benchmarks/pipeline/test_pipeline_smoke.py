"""Smoke test of the pipeline benchmark: every workload, traced, shrunk.

Runs ``run.py --trace 1`` under ``REPRO_BENCH_SMOKE=1`` (scale 6, one
arch per sweep, a 12-tree forest) and checks the contract a later run
relies on: every metric ``BENCHMARK.json`` declares is reported for
every workload, every output check passes, and ``compare.py`` accepts
the result set against itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def test_pipeline_smoke(tmp_path):
    env = dict(os.environ, REPRO_BENCH_SMOKE="1", REPRO_BENCH_DIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--trace", "1",
         "--seconds", "1", "--seed", "3"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0

    (path,) = tmp_path.glob("pipeline_*.json")
    record = json.loads(path.read_text())
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert list(record["workloads"]) == workloads
    for name, report in record["workloads"].items():
        assert report["checks"] and all(c["ok"] for c in report["checks"])
        assert len(report["results_digest"]) == 64
        assert set(report["e2e"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(v > 0 for v in report["e2e"].values()), report["e2e"]
        assert set(report["layers"]) == {m["name"] for m in SPEC["per_layer"]}
        assert (tmp_path / f"trace_{name}.json").is_file()
        for metric in SPEC["per_layer"]:
            reported = line["metrics"][f"{name}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]

    compared = subprocess.run(
        [sys.executable, str(HERE / "compare.py"),
         "--base", str(path), "--head", str(path)],
        capture_output=True, text=True, timeout=60,
    )
    assert compared.returncode == 0, compared.stdout + compared.stderr
