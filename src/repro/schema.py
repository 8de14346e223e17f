"""The versioned feature schema: one authoritative feature identity.

NAPEL's model input is a ~400-column vector whose meaning used to be
spread over four implicit conventions: the profiler's 395-feature
catalog, the ``app.threads`` column, :data:`NMCConfig.ARCH_FEATURE_NAMES`
and the mechanistic ``prior.*`` estimates, concatenated positionally.
Any change to one of them silently invalidated every saved model and
campaign cache — the classic train/serve-skew failure mode.

This module pins the feature identity down:

* a :class:`FeatureBlock` is one ordered, named, typed group of columns
  (``profile``, ``app``, ``arch``, ``prior``);
* a :class:`FeatureSchema` is the ordered concatenation of blocks with a
  stable content hash, ``select()``/``index()``/``diff()`` helpers and a
  projection operator for aligning data produced under another schema;
* provider modules (:mod:`repro.profiler.features`, :mod:`repro.config`,
  :mod:`repro.core.dataset`) *register* their blocks here instead of
  being concatenated ad hoc; :func:`active_schema` assembles and caches
  the runtime schema in the canonical block order.

Model artifacts (:mod:`repro.core.serialization`) and campaign caches
(:mod:`repro.core.campaign`) embed the schema hash, so a feature that is
added, renamed, removed or reordered makes stale artifacts fail loudly
with a :class:`~repro.errors.SchemaMismatchError` naming the offending
columns instead of mispredicting silently.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, SchemaMismatchError

#: Version of the schema *conventions* (block structure, hashing rules).
#: Bump when the meaning of the schema metadata itself changes, not when
#: features change — feature changes are what the content hash detects.
#: v2: the ``arch`` block grew the backend one-hot and backend-derived
#: scalar columns (``arch.backend.*``, ``arch.closed_row``,
#: ``arch.link_gbytes_per_s``, ``arch.rw_asymmetry``).
SCHEMA_FORMAT_VERSION = 2

#: Canonical block order of the assembled feature matrix.  Providers may
#: register in any import order; assembly always follows this sequence.
BLOCK_ORDER = ("profile", "app", "arch", "prior")


@dataclass(frozen=True)
class FeatureBlock:
    """One ordered, named, typed group of feature columns."""

    name: str
    features: tuple[str, ...]
    dtype: str = "float64"
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(self.features))
        if not self.name:
            raise ConfigError("feature block needs a non-empty name")
        if not self.features:
            raise ConfigError(f"feature block {self.name!r} has no features")
        if len(set(self.features)) != len(self.features):
            dupes = sorted(
                {f for f in self.features if self.features.count(f) > 1}
            )
            raise ConfigError(
                f"feature block {self.name!r} has duplicate features: {dupes}"
            )

    def __len__(self) -> int:
        return len(self.features)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "features": list(self.features),
            "dtype": self.dtype,
            "description": self.description,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FeatureBlock":
        return cls(
            name=str(data["name"]),
            features=tuple(str(f) for f in data["features"]),
            dtype=str(data.get("dtype", "float64")),
            description=str(data.get("description", "")),
        )


@dataclass(frozen=True)
class SchemaDiff:
    """The difference between a reference schema and another schema.

    ``missing`` — reference features the other schema lacks;
    ``extra`` — features only the other schema has;
    ``moved`` — features present in both but in a different order among
    the features the two share (a missing or extra column shifts the
    columns after it without moving them).
    """

    missing: tuple[str, ...] = ()
    extra: tuple[str, ...] = ()
    moved: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.missing or self.extra or self.moved)

    def describe(self) -> str:
        if not self:
            return "schemas are identical"
        parts = []
        for label, names in (
            ("missing", self.missing),
            ("extra", self.extra),
            ("moved", self.moved),
        ):
            if names:
                shown = ", ".join(names[:8])
                if len(names) > 8:
                    shown += f", ... ({len(names)} total)"
                parts.append(f"{label}: {shown}")
        return "; ".join(parts)


class FeatureSchema:
    """An ordered, named, typed description of one feature matrix layout.

    Immutable once constructed.  Two schemas with the same blocks (names,
    features, dtypes, order) have the same :attr:`content_hash` — the key
    that model artifacts and campaign caches are validated against.
    ``version`` carries :data:`SCHEMA_FORMAT_VERSION` and is deliberately
    *not* part of the content hash: it versions the metadata conventions,
    not the feature identity.
    """

    def __init__(
        self,
        blocks: Iterable[FeatureBlock],
        *,
        version: int = SCHEMA_FORMAT_VERSION,
    ) -> None:
        self.blocks: tuple[FeatureBlock, ...] = tuple(blocks)
        if not self.blocks:
            raise ConfigError("a FeatureSchema needs at least one block")
        self.version = int(version)
        names: list[str] = []
        self._block_slices: dict[str, slice] = {}
        seen_blocks: set[str] = set()
        for block in self.blocks:
            if block.name in seen_blocks:
                raise ConfigError(f"duplicate feature block {block.name!r}")
            seen_blocks.add(block.name)
            start = len(names)
            names.extend(block.features)
            self._block_slices[block.name] = slice(start, len(names))
        self.names: tuple[str, ...] = tuple(names)
        if len(set(self.names)) != len(self.names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigError(
                f"feature name(s) appear in more than one block: {dupes}"
            )
        self._index: dict[str, int] = {n: i for i, n in enumerate(self.names)}

    # -------------------------------------------------------------- dunders

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureSchema):
            return NotImplemented
        return self.blocks == other.blocks and self.version == other.version

    def __hash__(self) -> int:
        return hash((self.blocks, self.version))

    def __repr__(self) -> str:
        blocks = ", ".join(f"{b.name}[{len(b)}]" for b in self.blocks)
        return (
            f"FeatureSchema(v{self.version}, {len(self)} features: {blocks}, "
            f"hash={self.content_hash[:12]})"
        )

    # -------------------------------------------------------------- lookups

    @property
    def content_hash(self) -> str:
        """Stable SHA-256 over the block structure (names, order, dtypes)."""
        cached = getattr(self, "_content_hash", None)
        if cached is None:
            canonical = json.dumps(
                [b.to_json_dict() for b in self.blocks],
                sort_keys=True,
                separators=(",", ":"),
            )
            cached = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            self._content_hash = cached
        return cached

    def block(self, name: str) -> FeatureBlock:
        for b in self.blocks:
            if b.name == name:
                return b
        known = [b.name for b in self.blocks]
        raise SchemaMismatchError(
            f"schema has no block {name!r} (blocks: {known})"
        )

    def block_slice(self, name: str) -> slice:
        """Column range of one block in the assembled matrix."""
        self.block(name)  # raise with a helpful message if absent
        return self._block_slices[name]

    def index(self, name: str) -> int:
        """Column index of one feature; SchemaMismatchError if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaMismatchError(
                f"feature {name!r} is not in the schema",
                missing=(name,),
            ) from None

    def select(self, what: str | Iterable[str]) -> np.ndarray:
        """Column indices of a block name or an iterable of feature names."""
        if isinstance(what, str):
            sl = self.block_slice(what)
            return np.arange(sl.start, sl.stop, dtype=np.intp)
        return np.asarray([self.index(n) for n in what], dtype=np.intp)

    def subset(self, keep: Sequence[str] | np.ndarray) -> "FeatureSchema":
        """A new schema containing only the kept features.

        ``keep`` is either a boolean mask aligned with :attr:`names` or an
        iterable of feature names.  Blocks emptied by the selection are
        dropped; relative feature order is preserved.
        """
        arr = np.asarray(keep)
        if arr.dtype == bool:
            if arr.shape != (len(self),):
                raise SchemaMismatchError(
                    f"boolean mask has {arr.shape} entries for "
                    f"{len(self)} features"
                )
            kept = {n for n, k in zip(self.names, arr) if k}
        else:
            kept = {n for n in keep}
            unknown = sorted(kept - set(self.names))
            if unknown:
                raise SchemaMismatchError(
                    f"cannot subset to unknown features: {unknown[:8]}",
                    missing=tuple(unknown),
                )
        blocks = []
        for b in self.blocks:
            features = tuple(f for f in b.features if f in kept)
            if features:
                blocks.append(
                    FeatureBlock(
                        name=b.name,
                        features=features,
                        dtype=b.dtype,
                        description=b.description,
                    )
                )
        return FeatureSchema(blocks, version=self.version)

    # ------------------------------------------------------------ comparing

    def diff(self, other: "FeatureSchema") -> SchemaDiff:
        """How ``other`` differs from this (reference) schema."""
        mine, theirs = set(self.names), set(other.names)
        missing = tuple(n for n in self.names if n not in theirs)
        extra = tuple(n for n in other.names if n not in mine)
        shared = [n for n in other.names if n in mine]
        rank = {n: i for i, n in enumerate(shared)}
        moved = tuple(
            n
            for i, n in enumerate(n for n in self.names if n in theirs)
            if rank[n] != i
        )
        return SchemaDiff(missing=missing, extra=extra, moved=moved)

    def projection_from(self, source: "FeatureSchema") -> np.ndarray:
        """Indices reordering ``source``-layout columns into this layout.

        ``X_target = X_source[:, projection]``.  Raises
        :class:`SchemaMismatchError` if any of this schema's features is
        absent from ``source`` (a projection cannot invent columns).
        """
        diff = self.diff(source)
        if diff.missing:
            raise SchemaMismatchError(
                "cannot project: source schema lacks required feature(s) — "
                + diff.describe(),
                missing=diff.missing,
                extra=diff.extra,
                moved=diff.moved,
            )
        return np.asarray(
            [source._index[n] for n in self.names], dtype=np.intp
        )

    def validate_matrix(self, X: np.ndarray, *, context: str = "") -> None:
        """Raise unless ``X`` has exactly one column per schema feature."""
        X = np.asarray(X)
        width = X.shape[-1] if X.ndim else 0
        if X.ndim not in (1, 2) or width != len(self):
            where = f" ({context})" if context else ""
            raise SchemaMismatchError(
                f"feature matrix{where} has shape {X.shape}; the schema "
                f"defines {len(self)} columns (hash {self.content_hash[:12]})"
            )

    # --------------------------------------------------------- persistence

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "content_hash": self.content_hash,
            "blocks": [b.to_json_dict() for b in self.blocks],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FeatureSchema":
        schema = cls(
            (FeatureBlock.from_json_dict(b) for b in data["blocks"]),
            version=int(data.get("version", SCHEMA_FORMAT_VERSION)),
        )
        stored = data.get("content_hash")
        if stored is not None and stored != schema.content_hash:
            raise SchemaMismatchError(
                "stored schema hash does not match its block list "
                f"({stored[:12]} vs {schema.content_hash[:12]}); the "
                "metadata is corrupt"
            )
        return schema


# ------------------------------------------------------ canonical hashing


def _canonicalize(value):
    """Reduce ``value`` to JSON-safe primitives with stable float text.

    Floats are rendered via :meth:`float.hex` so the digest does not
    depend on ``repr`` shortest-round-trip behaviour; dataclasses are
    flattened to dicts; unknown objects fall back to ``str``.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonicalize(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {str(k): _canonicalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonicalize(v) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, (str, int)):
        return value
    return str(value)


def canonical_hash(payload) -> str:
    """SHA-256 of the canonical JSON form of ``payload``.

    The one content-hash convention shared by the feature schema, the
    campaign cache's arch key and run manifests: dataclasses and
    mappings are flattened with sorted keys, floats are hex-encoded
    (bit-exact, ``repr``-independent), and the digest is over compact
    JSON.  Equal payloads hash equal across processes and platforms.
    """
    canonical = json.dumps(
        _canonicalize(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------- registry

_Provider = Callable[[], Sequence[str]]

_REGISTRY: dict[str, dict] = {}
_ACTIVE: FeatureSchema | None = None


def register_block(
    name: str,
    features: Sequence[str] | _Provider,
    *,
    dtype: str = "float64",
    description: str = "",
    replace: bool = False,
) -> None:
    """Register (or re-register) one feature block provider.

    ``features`` is either the name tuple itself or a zero-argument
    callable returning it (resolved lazily at assembly time).  Registering
    the same block twice with identical content is a no-op; conflicting
    content requires ``replace=True`` (used by tests that install
    synthetic schemas).
    """
    global _ACTIVE
    entry = {
        "features": features,
        "dtype": dtype,
        "description": description,
    }
    existing = _REGISTRY.get(name)
    if existing is not None and not replace:
        old = _resolve_features(existing["features"])
        new = _resolve_features(features)
        if old != new or existing["dtype"] != dtype:
            raise ConfigError(
                f"feature block {name!r} is already registered with "
                "different content; pass replace=True to override"
            )
        return
    _REGISTRY[name] = entry
    _ACTIVE = None


def _resolve_features(features: Sequence[str] | _Provider) -> tuple[str, ...]:
    if callable(features):
        features = features()
    return tuple(features)


def _ensure_default_providers() -> None:
    """Import the provider modules so their blocks are registered."""
    # Imported lazily to keep this module cycle-free: the providers import
    # repro.schema at module load, not the other way around.
    from . import config  # noqa: F401  (registers "arch")
    from .core import dataset  # noqa: F401  (registers "app" and "prior")
    from .profiler import features  # noqa: F401  (registers "profile")


def active_schema() -> FeatureSchema:
    """The process-wide runtime feature schema (assembled once, cached)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ensure_default_providers()
        missing = [n for n in BLOCK_ORDER if n not in _REGISTRY]
        if missing:
            raise ConfigError(
                f"no provider registered for feature block(s) {missing}"
            )
        ordered = list(BLOCK_ORDER) + [
            n for n in _REGISTRY if n not in BLOCK_ORDER
        ]
        _ACTIVE = FeatureSchema(
            FeatureBlock(
                name=n,
                features=_resolve_features(_REGISTRY[n]["features"]),
                dtype=_REGISTRY[n]["dtype"],
                description=_REGISTRY[n]["description"],
            )
            for n in ordered
        )
    return _ACTIVE


def _reset_active_schema() -> None:
    """Drop the cached schema (test hook; next access reassembles)."""
    global _ACTIVE
    _ACTIVE = None


def __getattr__(name: str):
    # The one remaining home of the legacy name: the flat column list of
    # the active schema.  Everything else should consume FeatureSchema.
    if name == "ALL_FEATURE_NAMES":
        return active_schema().names
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
