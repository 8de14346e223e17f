"""Saving and loading trained NAPEL models.

Trained models are plain Python object graphs (forests of
:class:`~repro.ml.tree.RegressionTree` nodes, numpy arrays), so standard
pickling round-trips them exactly.  :func:`save_model` wraps the pickle
with a format header so stale model files fail loudly instead of
mispredicting silently.

Format version 2 makes artifacts *self-describing*: the header embeds
the model's full :class:`~repro.schema.FeatureSchema` (as plain JSON, so
the column identity is inspectable without unpickling) plus its content
hash and the package version.  :func:`load_model` verifies the header
before trusting the payload, rejects v1 files (they carry no schema, so
their column meaning cannot be checked) with an actionable message, and
warns when the saving package version or the runtime feature schema
differs from the current one.
"""

from __future__ import annotations

import pickle
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import MLError
from ..schema import FeatureSchema, active_schema
from ..store import replacing
from .predictor import NapelModel

_MAGIC = "napel-model"
_FORMAT_VERSION = 2


def save_model(model: NapelModel, path: str | Path) -> None:
    """Serialise a trained model (format v2: schema-embedding) to ``path``.

    Written through :func:`repro.store.replacing`: a failed save leaves
    the previous artifact at ``path`` intact, so a serving process can
    still reload it.
    """
    if not isinstance(model, NapelModel):
        raise MLError(f"expected a NapelModel, got {type(model).__name__}")
    from .. import __version__

    schema = model.schema
    payload = {
        "magic": _MAGIC,
        "format": _FORMAT_VERSION,
        "repro_version": __version__,
        "schema": schema.to_json_dict(),
        "schema_hash": schema.content_hash,
        "model": model,
    }
    with replacing(path) as tmp, tmp.open("wb") as fh:
        pickle.dump(payload, fh)


def load_model(path: str | Path) -> NapelModel:
    """Load a model saved with :func:`save_model`.

    Only unpickle files you trust — pickle executes code on load.
    """
    path = Path(path)
    if not path.exists():
        raise MLError(f"no model file at {path}")
    with path.open("rb") as fh:
        try:
            payload = pickle.load(fh)
        except Exception as exc:
            raise MLError(
                f"{path} is corrupt or truncated and cannot be unpickled "
                f"({type(exc).__name__}: {exc})"
            ) from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise MLError(f"{path} is not a NAPEL model file")
    fmt = payload.get("format")
    if fmt == 1:
        raise MLError(
            f"{path} uses model format 1, which predates the feature "
            "schema and cannot be validated against the current feature "
            "layout; retrain and re-save it with this version "
            "(`repro train ... -o <file>`)"
        )
    if fmt != _FORMAT_VERSION:
        raise MLError(
            f"{path} uses model format {fmt}, expected {_FORMAT_VERSION}"
        )
    from .. import __version__

    saved_version = payload.get("repro_version")
    if saved_version != __version__:
        # The schema hash is the authoritative compatibility check, but a
        # version skew is still worth flagging: tree/forest internals may
        # have changed shape between releases.
        warnings.warn(
            f"{path} was saved by repro {saved_version}, this is repro "
            f"{__version__}; predictions are only guaranteed reproducible "
            "with the saving version",
            RuntimeWarning,
            stacklevel=2,
        )
    try:
        stored_schema = FeatureSchema.from_json_dict(payload["schema"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MLError(
            f"{path} has a malformed schema header ({exc!r})"
        ) from exc
    if payload.get("schema_hash") != stored_schema.content_hash:
        raise MLError(
            f"{path} schema hash does not match its embedded schema; the "
            "file is corrupt"
        )
    model = payload["model"]
    if not isinstance(model, NapelModel):
        raise MLError(f"{path} does not contain a NapelModel")
    if model.schema.content_hash != stored_schema.content_hash:
        raise MLError(
            f"{path} header schema disagrees with the pickled model's "
            "schema; the file is corrupt"
        )
    runtime = active_schema()
    if runtime.content_hash != stored_schema.content_hash:
        diff = stored_schema.diff(runtime)
        # Backend registrations mutate the arch block (one one-hot
        # column per backend), so an artifact can predate the *device
        # list* itself.  That drift deserves a sharper warning than a
        # generic reorder: rows selecting a post-training backend would
        # project onto all-zero one-hots, i.e. the stale model would
        # predict with the wrong device identity.  predict() refuses
        # such rows even under align=True; say so at load time.
        new_backends = tuple(
            n.removeprefix("arch.backend.")
            for n in diff.extra
            if n.startswith("arch.backend.")
        )
        if new_backends:
            warnings.warn(
                f"{path} predates memory backend(s) "
                f"{', '.join(new_backends)} registered in this runtime; "
                "predictions for those backends are impossible with this "
                "artifact (their one-hot identity columns did not exist "
                "at training time) and will be refused even under "
                "align=True — retrain to cover them",
                RuntimeWarning,
                stacklevel=2,
            )
        warnings.warn(
            f"{path} was trained under a different feature schema than "
            f"this runtime ({diff.describe()}); predict() will refuse "
            "incompatible inputs with a SchemaMismatchError",
            RuntimeWarning,
            stacklevel=2,
        )
    return model


@dataclass(frozen=True)
class PreloadedModel:
    """A model loaded, verified and ready to serve.

    The long-lived prediction server must not discover a broken or
    schema-drifted artifact on its first request: :func:`preload_model`
    front-loads every check at startup (or hot reload), captures the
    load-time warnings as data instead of letting them escape to the
    warning filter, and proves the forests actually evaluate by running
    one throwaway prediction.
    """

    model: NapelModel
    path: Path
    schema_hash: str
    n_features: int
    load_seconds: float
    verify_seconds: float
    warnings: tuple[str, ...] = field(default=())

    def summary(self) -> dict:
        """JSON-ready description (for /healthz and server manifests)."""
        return {
            "path": str(self.path),
            "schema_hash": self.schema_hash,
            "n_features": self.n_features,
            "load_seconds": round(self.load_seconds, 6),
            "verify_seconds": round(self.verify_seconds, 6),
            "warnings": list(self.warnings),
        }


def preload_model(path: str | Path) -> PreloadedModel:
    """Load and *verify* a model artifact for serving.

    Beyond :func:`load_model`'s header checks this runs a smoke
    prediction on a synthetic all-ones feature row and requires finite,
    positive outputs — a cheap end-to-end proof that the pickled forests
    are structurally intact, caught at startup rather than on the first
    live request.  Schema-drift warnings do not escape; they come back
    as strings on the result (the server logs them and surfaces them in
    /healthz).
    """
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = load_model(path)
    load_seconds = time.perf_counter() - t0
    t1 = time.perf_counter()
    probe = np.ones((1, len(model.schema)), dtype=np.float64)
    try:
        ipc, epi = model.predict_labels(probe)
    except MLError:
        raise
    except Exception as exc:  # noqa: BLE001 - artifact graphs can fail anyhow
        raise MLError(
            f"{path} failed preload verification: the pickled model "
            f"cannot evaluate a feature row "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if not (np.isfinite(ipc).all() and np.isfinite(epi).all()):
        raise MLError(
            f"{path} failed preload verification: the model produced "
            "non-finite outputs on a probe row"
        )
    verify_seconds = time.perf_counter() - t1
    return PreloadedModel(
        model=model,
        path=Path(path),
        schema_hash=model.schema.content_hash,
        n_features=len(model.schema),
        load_seconds=load_seconds,
        verify_seconds=verify_seconds,
        warnings=tuple(str(w.message) for w in caught),
    )
