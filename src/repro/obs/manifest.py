"""Run manifests: one JSON document describing a CLI invocation.

Every ``repro campaign`` / ``train`` / ``suitability`` run can emit a
manifest (``--manifest PATH``) recording what ran and how it went:

.. code-block:: json

    {
      "repro_version": "1.0.0",
      "command": "campaign",
      "argv": ["campaign", "gemv", "--scale", "4"],
      "started_at_unix": 1754390000.0,
      "schema_hash": "9f0c...",
      "arch_config_hash": "1b22...",
      "workloads": ["gemv"],
      "n_points": 11,
      "cache": {"hits": 0, "misses": 11, "hit_ratio": 0.0},
      "phases": {"trace": 1.2, "profile": 0.8, "simulate": 3.1},
      "model": {"name": "rf", "ipc_mre": 0.04, "ipc_r2": 0.99},
      "metrics": {"counters": {...}, "timers": {...}},
      "wall_seconds": 5.3,
      "exit_code": 0
    }

``model``/``cache``/``workloads``/``n_points`` appear only when the
command produced them; ``exit_code`` is always present (the manifest is
written even when the run fails, so a batch driver can tell *which* phase
died and after how long).  Writes are atomic
(:func:`repro.store.atomic_write_text`).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

# A module import, not a name import: repro.store imports repro.obs.
from .. import store
from .metrics import MetricsRegistry, metrics, phase_timings


def config_hash(config) -> str:
    """Stable SHA-256 of a (dataclass) configuration's field values.

    Delegates to :func:`repro.schema.canonical_hash`, the one content-hash
    convention shared with the campaign cache's arch keys — a manifest's
    ``arch_config_hash`` can therefore be matched against cache keys.
    """
    from ..schema import canonical_hash

    return canonical_hash(config)


def _package_version() -> str:
    from .. import __version__

    return __version__


class RunManifest:
    """Mutable manifest builder; commands fill it in, ``main`` writes it."""

    def __init__(self, command: str, argv: list[str] | None = None) -> None:
        self.data: dict = {
            "repro_version": _package_version(),
            "command": command,
            "argv": list(argv or []),
            "started_at_unix": round(time.time(), 3),
        }
        self._t0 = time.monotonic()

    def update(self, **fields) -> "RunManifest":
        """Set top-level manifest fields (last write wins)."""
        self.data.update(fields)
        return self

    def record_trace(
        self,
        path,
        *,
        events: int,
        dropped: int = 0,
        hw_dropped: int = 0,
    ) -> "RunManifest":
        """Record the run's event-trace output (``--trace``).

        Written even on failure, like every other manifest field: a
        partial trace of a crashed run is exactly when the timeline is
        most wanted.
        """
        self.data["trace_path"] = str(path)
        self.data["trace"] = {
            "events": int(events),
            "dropped": int(dropped),
            "hw_dropped": int(hw_dropped),
        }
        return self

    def finish(
        self,
        exit_code: int,
        *,
        registry: MetricsRegistry | None = None,
    ) -> dict:
        """Stamp the end-of-run fields; returns the manifest dict."""
        snapshot = (registry or metrics()).snapshot()
        self.data["phases"] = phase_timings(snapshot)
        self.data["metrics"] = snapshot
        self.data["wall_seconds"] = round(time.monotonic() - self._t0, 6)
        self.data["exit_code"] = exit_code
        return self.data

    def to_json_dict(self) -> dict:
        return json.loads(json.dumps(self.data, default=str))

    def write(self, path: str | Path) -> Path:
        """Atomically write the manifest JSON to ``path``."""
        return store.atomic_write_text(
            path, json.dumps(self.data, indent=2, default=str) + "\n"
        )

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunManifest":
        manifest = cls(data.get("command", ""), data.get("argv", []))
        manifest.data = dict(data)
        return manifest

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        return cls.from_json_dict(json.loads(Path(path).read_text()))
