"""Design-space exploration driver (the paper's motivating use case).

The paper's goal is "fast early-stage design space exploration of NMC
architectures" (Section 1).  This module is the loop an architect actually
runs on top of a trained NAPEL model:

* :func:`grid_space` enumerates candidate architectures from per-knob
  value lists;
* :func:`explore` predicts every candidate in one batched model pass
  (milliseconds per design, vs. a simulation each);
* :func:`pareto_front` extracts the time/energy Pareto-optimal designs —
  the output an architect takes to the next design iteration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..config import NMCConfig, default_nmc_config
from ..errors import MLError
from ..profiler import ApplicationProfile
from ..schema import active_schema
from .predictor import NapelModel, NapelPrediction
from .reporting import format_table


@dataclass(frozen=True)
class DesignPoint:
    """One explored architecture with its prediction."""

    changes: dict
    arch: NMCConfig
    prediction: NapelPrediction

    @property
    def time_s(self) -> float:
        return self.prediction.time_s

    @property
    def energy_j(self) -> float:
        return self.prediction.energy_j

    @property
    def edp(self) -> float:
        return self.prediction.edp


def grid_space(
    knobs: Mapping[str, Sequence],
    *,
    base: NMCConfig | None = None,
) -> list[NMCConfig]:
    """Every combination of the given architecture knob values.

    ``knobs`` maps :class:`~repro.config.NMCConfig` field names to value
    lists, e.g. ``{"n_pes": [16, 32], "frequency_ghz": [1.0, 1.25]}``.
    The memory backend is a knob like any other: ``{"backend": ["hmc",
    "hbm2"]}`` sweeps device families (``NMCConfig.replace`` re-bases
    device fields on the named backend's descriptor, carrying the PE
    knobs over).  Every produced configuration is validated.
    """
    if not knobs:
        raise MLError("grid_space needs at least one knob")
    base = base or default_nmc_config()
    names = list(knobs)
    out = []
    for values in itertools.product(*(knobs[name] for name in names)):
        out.append(base.replace(**dict(zip(names, values))))
    return out


def explore(
    model: NapelModel,
    profile: ApplicationProfile,
    archs: Sequence[NMCConfig],
) -> list[DesignPoint]:
    """Predict one kernel profile across all candidate architectures.

    One batched forest evaluation per target: the whole sweep costs
    milliseconds regardless of its size.
    """
    if not archs:
        raise MLError("explore needs at least one architecture")
    X = np.vstack([model.features(profile, a) for a in archs])
    ipc_per_pe, epi = model.predict_labels(X, schema=active_schema())
    points = []
    base_fields = default_nmc_config()
    for arch, ipc_pe, epi_v in zip(archs, ipc_per_pe, epi):
        prediction = model.derive_prediction(
            workload=profile.workload,
            instructions=profile.instruction_count,
            threads=profile.thread_count,
            n_pes=arch.n_pes,
            frequency_ghz=arch.frequency_ghz,
            ipc_per_pe=ipc_pe,
            energy_per_instruction_j=epi_v,
        )
        changes = {
            name: getattr(arch, name)
            for name in (
                "backend", "n_pes", "frequency_ghz", "l1_lines",
                "n_vaults", "pe_type", "issue_width", "mshr_entries",
            )
            if getattr(arch, name) != getattr(base_fields, name)
        }
        points.append(DesignPoint(changes=changes, arch=arch, prediction=prediction))
    return points


def pareto_front(points: Sequence[DesignPoint]) -> list[DesignPoint]:
    """The time/energy Pareto-optimal designs, sorted by time.

    A design is on the front iff no other design is at least as good on
    both objectives and strictly better on one.
    """
    if not points:
        return []
    ordered = sorted(points, key=lambda p: (p.time_s, p.energy_j))
    front: list[DesignPoint] = []
    best_energy = float("inf")
    for p in ordered:
        if p.energy_j < best_energy - 1e-18:
            front.append(p)
            best_energy = p.energy_j
    return front


def format_exploration(
    points: Sequence[DesignPoint], *, top: int = 15
) -> str:
    """Table of the best designs by EDP, Pareto members flagged."""
    front = {id(p) for p in pareto_front(points)}
    ranked = sorted(points, key=lambda p: p.edp)[:top]
    rows = [
        [
            ", ".join(f"{k}={v}" for k, v in p.changes.items()) or "(base)",
            f"{p.prediction.ipc:7.3f}",
            f"{p.time_s * 1e6:9.2f}",
            f"{p.energy_j * 1e3:9.4f}",
            f"{p.edp:.3e}",
            "*" if id(p) in front else "",
        ]
        for p in ranked
    ]
    return format_table(
        ["design", "IPC", "time (us)", "energy (mJ)", "EDP (J*s)", "Pareto"],
        rows,
        title=f"design-space exploration: top {len(rows)} of "
              f"{len(points)} designs (best EDP first)",
    )
