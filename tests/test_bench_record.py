"""``scripts/bench_record.py``: appending pipeline benchmark runs to the
committed perf trajectory ``BENCH_pipeline.json``."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "scripts" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)


def results(tmp_path, workloads=("campaign_cold", "train_loocv"), git_rev="abc123"):
    """A ``benchmarks/pipeline/run.py`` results file with one report per
    workload."""
    provenance = {"git_dirty": False}
    if git_rev is not None:
        provenance["git_rev"] = git_rev
    record = {
        "benchmark": "pipeline", "created_unix": 1.5, "seed": 3,
        "seconds": 10.0, "trace": None, "provenance": provenance,
        "workloads": {
            name: {
                "host_slowdown": 1.25,
                "e2e": {"items_per_s": 2.0 + i, "op_p50_ms": 9.0},
                "layers": None,
                "results_digest": f"digest-{name}",
                "attempted": 10 + i,
                "failed": 0,
            }
            for i, name in enumerate(workloads)
        },
    }
    path = tmp_path / f"run-{len(list(tmp_path.iterdir()))}.json"
    path.write_text(json.dumps(record))
    return path


def test_one_entry_per_workload(tmp_path, capsys):
    out = tmp_path / "trajectory.json"
    run = results(tmp_path)
    assert bench_record.main([str(run), "--label", "a run", "--out", str(out)]) == 0
    entries = json.loads(out.read_text())["entries"]
    assert [e["workload"] for e in entries] == ["campaign_cold", "train_loocv"]
    first = entries[0]
    assert first["label"] == "a run" and first["commit"] == "abc123"
    assert first["source"] == "measured" and first["dirty"] is False
    assert (first["seed"], first["seconds"], first["traced"]) == (3, 10.0, False)
    assert first["e2e"] == {"items_per_s": 2.0, "op_p50_ms": 9.0}
    assert first["results_digest"] == "digest-campaign_cold"
    assert (entries[1]["attempted"], entries[1]["failed"]) == (11, 0)
    assert "2 entries appended" in capsys.readouterr().out


def test_commit_required_without_git_rev(tmp_path):
    out = tmp_path / "trajectory.json"
    run = results(tmp_path, git_rev=None)
    with pytest.raises(SystemExit, match="--commit"):
        bench_record.main([str(run), "--label", "x", "--out", str(out)])
    assert not out.exists()
    bench_record.main(
        [str(run), "--label", "x", "--commit", "f00d", "--out", str(out)]
    )
    entries = json.loads(out.read_text())["entries"]
    assert {e["commit"] for e in entries} == {"f00d"}


def test_earlier_entries_survive_byte_for_byte(tmp_path):
    """Appending to the committed trajectory keeps its text up to the
    end of the last earlier entry, and adds entries only after it."""
    out = tmp_path / "trajectory.json"
    before = (ROOT / "BENCH_pipeline.json").read_text()
    out.write_text(before)
    bench_record.main([
        str(results(tmp_path, workloads=("dse_dram",))), "--label", "x",
        "--out", str(out),
    ])
    after = out.read_text()
    assert after.startswith(before[:before.rindex("\n ]\n}")])
    old, new = json.loads(before), json.loads(after)
    assert new["entries"][:-1] == old["entries"]
    assert {k: v for k, v in new.items() if k != "entries"} == (
        {k: v for k, v in old.items() if k != "entries"}
    )
    assert new["entries"][-1]["workload"] == "dse_dram"
