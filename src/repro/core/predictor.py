"""The trained NAPEL model (paper phase B: prediction).

Given a hardware-independent application profile and an NMC architecture
configuration, the model predicts per-PE IPC and energy-per-instruction
with two random forests and derives:

* aggregate IPC (per-PE IPC times the PEs the kernel's thread count uses),
* execution time via the paper's formula
  ``T_NMC = I_offload / (IPC * f_core)``,
* total energy ``E = epi * I_offload``,
* the energy-delay product used by the suitability analysis.

Each forest predicts the log of its label relative to the label's
mechanistic prior estimate (IPC and energy are ratio-scale quantities
spanning decades across applications); :meth:`NapelModel.predict_labels`
adds the prior back and exponentiates.

Every model carries the :class:`~repro.schema.FeatureSchema` it was
trained under, and :meth:`NapelModel.align_features` is the one check a
feature row meets: the column names of the incoming layout must equal
the model's (how the source schema cuts them into blocks does not
matter).  A drifted layout (features added, renamed, removed or
reordered since training) raises a
:class:`~repro.errors.SchemaMismatchError` naming the offending columns.
When the drift is a pure reorder/superset, passing ``align=True`` opts
in to projecting the incoming columns into the training layout by name.

Raw model outputs are clamped to the training-label range (with a small
margin): a prediction outside every observed label is an extrapolation
artefact, and clamping keeps the weaker Figure 5 baselines (ANN, linear
model tree) finite when they extrapolate wildly for unseen applications.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import NMCConfig
from ..errors import MLError, SchemaMismatchError
from ..obs import metrics
from ..profiler import ApplicationProfile
from ..schema import FeatureSchema, active_schema

#: Clamp margin in log space (allow a factor of e^0.5 ~ 1.65x beyond the
#: observed label range before clamping).
CLAMP_MARGIN = 0.5


@dataclass(frozen=True)
class NapelPrediction:
    """One NAPEL prediction for a (kernel, architecture) pair."""

    workload: str
    ipc: float
    ipc_per_pe: float
    energy_per_instruction_j: float
    instructions: int
    pes_used: int
    time_s: float
    energy_j: float

    @property
    def edp(self) -> float:
        """Energy-delay product (J * s)."""
        return self.energy_j * self.time_s


@dataclass(frozen=True)
class _Alignment:
    """A resolved projection plan from one source schema into a model.

    ``projection is None`` means the source layout already matches the
    training layout.  ``dropped_backend_*`` name the ``arch.backend.*``
    one-hot columns the projection would discard; rows with any of them
    set are refused (the model cannot represent that device).
    """

    projection: np.ndarray | None
    dropped_backend_names: tuple[str, ...] = ()
    dropped_backend_cols: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.intp)
    )


class NapelModel:
    """NAPEL's trained predictor: two forests + the time/energy formulas.

    ``schema`` is the feature schema the forests were trained under
    (default: the active runtime schema); all incoming feature data is
    validated against it.  ``ipc_bounds`` / ``energy_bounds`` are the
    (min, max) of the training labels in model space, used for clamping
    (see module docstring).

    The forests are trained on the log-ratio of each label to its
    mechanistic prior estimate (the ``prior.*`` feature columns); the
    prior offsets are added back at prediction time.  This gray-box
    residual formulation transfers across applications much better than
    raw labels: the physics carries the scale, the model carries the
    corrections.
    """

    _LN_PJ_TO_J = float(np.log(1e12))

    def __init__(
        self,
        ipc_model,
        energy_model,
        *,
        schema: FeatureSchema | None = None,
        ipc_bounds: tuple[float, float] | None = None,
        energy_bounds: tuple[float, float] | None = None,
    ) -> None:
        self.ipc_model = ipc_model
        self.energy_model = energy_model
        self.schema = schema if schema is not None else active_schema()
        self.ipc_bounds = ipc_bounds
        self.energy_bounds = energy_bounds
        self._alignments: dict[tuple[str, bool], "_Alignment"] = {}

    def __getstate__(self) -> dict:
        # The alignment memo is a runtime cache keyed by source-schema
        # hashes; persisting it would bloat artifacts for no benefit.
        state = dict(self.__dict__)
        state.pop("_alignments", None)
        return state

    @staticmethod
    def prior_offsets(
        X: np.ndarray, schema: FeatureSchema | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Log-space prior offsets (IPC, energy-per-instruction in J).

        ``schema`` names the columns of ``X`` (default: the active
        runtime schema).
        """
        schema = schema if schema is not None else active_schema()
        ipc_col = schema.index("prior.ipc_estimate")
        epi_col = schema.index("prior.log_epi_estimate")
        ipc_prior = np.log(np.maximum(X[:, ipc_col], 1e-12))
        epi_prior = X[:, epi_col] - NapelModel._LN_PJ_TO_J
        return ipc_prior, epi_prior

    # ------------------------------------------------------------ helpers

    @staticmethod
    def features(profile: ApplicationProfile, arch: NMCConfig) -> np.ndarray:
        """The model-input row for one (profile, architecture) pair."""
        from .dataset import assemble_features

        return assemble_features(profile, arch)

    def _resolve_alignment(
        self, schema: FeatureSchema, align: bool
    ) -> "_Alignment":
        """The projection plan from ``schema`` into the model.

        The rules are :meth:`align_features`'.  The plan is memoised per
        (source schema hash, align) pair on the model, so a long-lived
        server does O(1) schema work per request once a layout has been
        seen.
        """
        cache = self.__dict__.setdefault("_alignments", {})
        key = (schema.content_hash, align)
        plan = cache.get(key)
        if plan is not None:
            return plan
        if schema.names == self.schema.names:
            plan = _Alignment(projection=None)
        elif align:
            projection = self.schema.projection_from(schema)
            # Backend one-hots the projection drops: a row whose device
            # identity lives in one of them is refused at predict time
            # (see _check_dropped_backends).
            dropped = [
                (name, i)
                for i, name in enumerate(schema.names)
                if name not in self.schema
                and name.startswith("arch.backend.")
            ]
            plan = _Alignment(
                projection=projection,
                dropped_backend_names=tuple(n for n, _ in dropped),
                dropped_backend_cols=np.asarray(
                    [i for _, i in dropped], dtype=np.intp
                ),
            )
        else:
            diff = self.schema.diff(schema)
            raise SchemaMismatchError(
                "feature data does not match the schema this model was "
                f"trained under ({self.schema.content_hash[:12]}) — "
                + diff.describe()
                + "; retrain the model or pass align=True to project "
                "compatible columns by name",
                missing=diff.missing,
                extra=diff.extra,
                moved=diff.moved,
            )
        cache[key] = plan
        return plan

    def _check_dropped_backends(
        self, X: np.ndarray, plan: "_Alignment"
    ) -> None:
        """Refuse to align away a *live* backend one-hot column.

        Projection legitimately drops columns the model was not trained
        on — except when a dropped ``arch.backend.*`` one-hot is set in
        some row: that row describes a memory backend registered after
        training, and projecting it would erase the device identity and
        predict with stale (all-zero) one-hots.
        """
        if not plan.dropped_backend_cols.size:
            return
        hot = X[:, plan.dropped_backend_cols] != 0.0
        if not hot.any():
            return
        names = tuple(
            name
            for name, col_hot in zip(
                plan.dropped_backend_names, hot.any(axis=0)
            )
            if col_hot
        )
        raise SchemaMismatchError(
            "cannot align: the data selects memory backend(s) this model "
            f"was not trained on ({', '.join(names)}); projecting would "
            "silently zero the backend one-hot — retrain the model with "
            "the new backend(s) in the training set",
            extra=names,
        )

    def _clamp(
        self, raw: np.ndarray, bounds: tuple[float, float] | None
    ) -> np.ndarray:
        if bounds is None:
            return raw
        lo, hi = bounds
        return np.clip(raw, lo - CLAMP_MARGIN, hi + CLAMP_MARGIN)

    def align_features(
        self,
        X: np.ndarray,
        *,
        schema: FeatureSchema | None = None,
        align: bool = False,
    ) -> np.ndarray:
        """Validate ``X`` and return it in the model's training layout.

        The one place a feature layout is judged.  Without a source
        ``schema`` only the column count can be checked.  With one, the
        column names decide: the model's own names pass as they are, any
        missing/extra/moved column raises a :class:`SchemaMismatchError`
        naming them — unless ``align=True`` and every training feature is
        present, in which case the columns are projected into the
        training layout by name (refused if that would erase a live
        ``arch.backend.*`` one-hot).  Validation runs once per *batch*
        and the projection plan is memoised per source schema (see
        :meth:`_resolve_alignment`).  The prediction server calls it to
        read ``app.threads`` / ``arch.n_pes`` back out of the aligned
        rows before its own :meth:`predict_labels` call.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[np.newaxis, :]
        if schema is None:
            self.schema.validate_matrix(X, context="model input")
            return X
        schema.validate_matrix(X, context="model input")
        plan = self._resolve_alignment(schema, align)
        if plan.projection is None:
            return X
        self._check_dropped_backends(X, plan)
        return X[:, plan.projection]

    def predict_labels(
        self,
        X: np.ndarray,
        *,
        schema: FeatureSchema | None = None,
        align: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(per-PE IPC, energy-per-instruction) for feature rows ``X``.

        ``schema`` names the columns of ``X`` (pass it when ``X`` was
        assembled under a schema other than the model's own); see
        :meth:`align_features` for the validation rules.  Clamps the
        forests' log-residuals, adds the prior offsets back and
        exponentiates; this is the one path every evaluation
        (prediction, LOOCV, suitability) goes through, so all models are
        compared under identical conventions.
        """
        X = self.align_features(X, schema=schema, align=align)
        ipc_off, epi_off = self.prior_offsets(X, self.schema)
        ipc_raw = self._clamp(
            np.asarray(self.ipc_model.predict(X), dtype=np.float64),
            self.ipc_bounds,
        )
        epi_raw = self._clamp(
            np.asarray(self.energy_model.predict(X), dtype=np.float64),
            self.energy_bounds,
        )
        return np.exp(ipc_raw + ipc_off), np.exp(epi_raw + epi_off)

    # ------------------------------------------------------------ predict

    def predict(
        self,
        profile: ApplicationProfile,
        arch: NMCConfig,
        *,
        align: bool = False,
    ) -> NapelPrediction:
        """Predict IPC, energy and execution time for one kernel profile."""
        return self.predict_many([profile], arch, align=align)[0]

    def predict_many(
        self,
        profiles,
        arch: NMCConfig,
        *,
        align: bool = False,
    ) -> list[NapelPrediction]:
        """Batch prediction (one forest pass per target).

        Feature rows are assembled under the *active* runtime schema and
        validated against the model's training schema; see the module
        docstring for the drift rules.
        """
        profiles = list(profiles)
        if not profiles:
            return []
        for p in profiles:
            if p.instruction_count <= 0:
                raise MLError("profile has no instructions")
        with metrics().timer("phase.predict"):
            X = np.vstack([self.features(p, arch) for p in profiles])
            ipc_per_pe, epi = self.predict_labels(
                X, schema=active_schema(), align=align
            )
        metrics().inc("ml.predictions", len(profiles))
        if (ipc_per_pe <= 0).any() or (epi <= 0).any():
            raise MLError("model produced a non-positive prediction")
        return [
            self.derive_prediction(
                workload=p.workload,
                instructions=p.instruction_count,
                threads=p.thread_count,
                n_pes=arch.n_pes,
                frequency_ghz=arch.frequency_ghz,
                ipc_per_pe=ipc_pe,
                energy_per_instruction_j=epi_v,
            )
            for p, ipc_pe, epi_v in zip(profiles, ipc_per_pe, epi)
        ]

    @staticmethod
    def derive_prediction(
        *,
        workload: str,
        instructions: int,
        threads: int,
        n_pes: int,
        frequency_ghz: float,
        ipc_per_pe: float,
        energy_per_instruction_j: float,
    ) -> NapelPrediction:
        """The paper's derived quantities for one predicted label pair.

        The single place the time/energy formulas are evaluated:
        :meth:`predict_many`, :func:`repro.core.dse.explore` and the
        prediction server all go through it, so a served or explored
        prediction is bit-identical to a CLI one for the same inputs.
        """
        pes = min(max(1, int(threads)), int(n_pes))
        ipc = float(ipc_per_pe) * pes
        freq_hz = frequency_ghz * 1e9
        time_s = instructions / (ipc * freq_hz)
        return NapelPrediction(
            workload=workload,
            ipc=ipc,
            ipc_per_pe=float(ipc_per_pe),
            energy_per_instruction_j=float(energy_per_instruction_j),
            instructions=instructions,
            pes_used=pes,
            time_s=time_s,
            energy_j=float(energy_per_instruction_j) * instructions,
        )
