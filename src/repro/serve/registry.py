"""The server's name-keyed model registry with warm-standby reload.

Mirrors the memory-backend registry pattern (:mod:`repro.backends`): a
flat name -> descriptor mapping, loud errors on unknown or duplicate
names, and an atomic-swap mutation discipline.  Every artifact is
*preloaded and verified* (:func:`repro.core.serialization.preload_model`)
before it becomes visible, so a corrupt or schema-drifted file is a
startup/reload error, never a mid-request surprise.

Hot reload is warm-standby: ``reload_all`` loads and verifies fresh
copies of *every* artifact first, and only then swaps the mapping in one
assignment.  Requests that resolved a model before the swap keep their
reference and finish on the old generation; a failed reload leaves the
serving set untouched.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from ..core.predictor import NapelModel
from ..core.serialization import PreloadedModel, preload_model
from ..errors import ConfigError
from ..obs import get_logger, metrics

log = get_logger("repro.serve.registry")


def parse_model_specs(specs: Iterable[str]) -> dict[str, str]:
    """``NAME=PATH`` CLI arguments -> an ordered name->path mapping.

    A bare ``PATH`` (no ``=``) is registered as ``default``.  Duplicate
    names are a configuration error — silently shadowing a model behind
    one name is exactly the ambiguity a registry exists to prevent.
    """
    out: dict[str, str] = {}
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep:
            name, path = "default", spec
        name = name.strip()
        path = path.strip()
        if not name or not path:
            raise ConfigError(
                f"--model expects NAME=PATH (or a bare PATH), got {spec!r}"
            )
        if name in out:
            raise ConfigError(
                f"model name {name!r} given twice (for {out[name]!r} and "
                f"{path!r}); every served model needs a unique name"
            )
        out[name] = path
    if not out:
        raise ConfigError("at least one --model NAME=PATH is required")
    return out


@dataclass(frozen=True)
class ServedModel:
    """One loaded artifact as served: model + provenance + generation."""

    name: str
    preloaded: PreloadedModel
    generation: int

    @property
    def model(self) -> NapelModel:
        return self.preloaded.model

    def summary(self) -> dict:
        data = self.preloaded.summary()
        data["name"] = self.name
        data["generation"] = self.generation
        return data


class ModelRegistry:
    """Name-keyed registry of served models with atomic-swap reload."""

    def __init__(self, specs: Mapping[str, str | Path]) -> None:
        if not specs:
            raise ConfigError("the model registry needs at least one model")
        self._specs: dict[str, Path] = {
            name: Path(path) for name, path in specs.items()
        }
        self._lock = threading.Lock()
        self._models: dict[str, ServedModel] = {}
        self._generation = 0
        self.last_reload_unix: float | None = None

    # ------------------------------------------------------------- loading

    def _load_generation(self, generation: int) -> dict[str, ServedModel]:
        loaded: dict[str, ServedModel] = {}
        for name, path in self._specs.items():
            entry = ServedModel(
                name=name,
                preloaded=preload_model(path),
                generation=generation,
            )
            for message in entry.preloaded.warnings:
                log.warning(
                    "model %r load warning", name,
                    extra={"ctx": {"model": name, "warning": message}},
                )
            log.info(
                "model loaded", extra={"ctx": entry.summary()},
            )
            loaded[name] = entry
        return loaded

    def load_all(self) -> dict[str, ServedModel]:
        """Preload + verify every configured artifact (startup path)."""
        with self._lock:
            generation = self._generation + 1
            loaded = self._load_generation(generation)
            self._models = loaded
            self._generation = generation
            metrics().set_gauge("serve.generation", generation)
            return dict(loaded)

    def reload_all(self) -> dict[str, ServedModel]:
        """Warm-standby reload: verify everything fresh, then swap.

        The old generation keeps serving until the *entire* new one has
        loaded and verified; any failure (missing file, corrupt pickle,
        failed verification) propagates to the caller and leaves the
        serving set exactly as it was.
        """
        with self._lock:
            generation = self._generation + 1
            loaded = self._load_generation(generation)
            self._models = loaded
            self._generation = generation
            self.last_reload_unix = time.time()
            metrics().set_gauge("serve.generation", generation)
            return dict(loaded)

    # -------------------------------------------------------------- lookup

    def get(self, name: str | None) -> ServedModel:
        """Resolve a request's model; ``None`` works iff one is served."""
        models = self._models
        if name is None:
            if len(models) == 1:
                return next(iter(models.values()))
            raise KeyError(
                "request names no model and the server holds "
                f"{len(models)}; pass \"model\" (one of: "
                f"{', '.join(models)})"
            )
        try:
            return models[name]
        except KeyError:
            known = ", ".join(models) or "(none)"
            raise KeyError(
                f"unknown model {name!r}; served models: {known}"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._models)

    @property
    def generation(self) -> int:
        return self._generation

    def summary(self) -> dict:
        """JSON-ready state for /healthz and the server manifest.

        Generation 1 is the startup load; each reload adds one.
        """
        return {
            "generation": self._generation,
            "reloads": max(self._generation - 1, 0),
            "last_reload_unix": self.last_reload_unix,
            "models": {
                name: entry.summary()
                for name, entry in self._models.items()
            },
        }
