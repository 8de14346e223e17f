"""Output helpers shared by the benchmark modules."""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Mapping

REPO_ROOT = Path(__file__).resolve().parent.parent
CACHE_PATH = REPO_ROOT / ".cache" / "campaign.json"

#: Environment variable redirecting benchmark output files.
BENCH_DIR_ENV_VAR = "REPRO_BENCH_DIR"

#: Default output directory when ``$REPRO_BENCH_DIR`` is unset:
#: ``benchmarks/results/`` next to the benchmark modules.
DEFAULT_RESULTS_DIR = Path(__file__).resolve().parent / "results"


def results_dir() -> Path:
    """Where benchmark tables and JSON records land.

    ``$REPRO_BENCH_DIR`` (when set and non-empty) wins; otherwise the
    default ``benchmarks/results/`` is used.  Resolved per
    call, so a test can repoint it without reimporting.
    """
    env = os.environ.get(BENCH_DIR_ENV_VAR, "").strip()
    return Path(env) if env else DEFAULT_RESULTS_DIR


def emit(name: str, text: str) -> None:
    """Print a rendered table/figure and persist it under results_dir()."""
    out = results_dir()
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}", file=sys.stderr)


def emit_record(
    name: str,
    metrics: Mapping[str, float],
    *,
    units: str | Mapping[str, str] = "",
    config: object = None,
) -> Path:
    """Persist a benchmark's key numbers as ``BENCH_<name>.json``.

    The machine-readable twin of :func:`emit`: where the ``.txt`` file
    holds the rendered table for humans, the JSON record holds the
    scalars a regression tracker can diff run-over-run.  ``units`` is a
    single string applied to every metric, or a per-metric mapping;
    ``config`` (any JSON-serializable or hashable-by-
    :func:`repro.obs.config_hash` object) identifies what was measured.
    The record is written under :func:`results_dir` — by default
    ``benchmarks/results/``, or ``$REPRO_BENCH_DIR`` when set.
    """
    from repro.obs import config_hash

    record = {
        "bench": name,
        "timestamp_unix": round(time.time(), 3),
        "config_hash": config_hash(config) if config is not None else None,
        "results": [
            {
                "metric": metric,
                "value": value,
                "units": (
                    units if isinstance(units, str)
                    else units.get(metric, "")
                ),
            }
            for metric, value in metrics.items()
        ],
    }
    out = results_dir()
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return path
