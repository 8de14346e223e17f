"""JSON request/response codec for the prediction server.

Request bodies are strict RFC 8259 JSON in UTF-8, decoded by
:func:`orjson.loads`: ``NaN``/``Infinity`` tokens, number literals
outside float64's range, a byte-order mark and nesting deeper than
:data:`MAX_NESTING` are ``bad_json``.  Replies are written by
:func:`json.dumps`.  One request shape, three row spellings:

.. code-block:: json

    {
      "model": "default",            // optional when one model is served
      "align": false,                // opt in to by-name projection
      "columns": ["profile.f0", ...],// names the positional row layout
      "rows": [[...], [...]],        // positional rows, or
                                     // [{"feature": value, ...}, ...]
      "meta": [{"workload": "atax", "instructions": 123}, ...]  // optional
    }

Every spelling becomes a positional matrix whose columns are named —
by ``columns``, by the rows' keys, or (bare positional rows) by the
model's own layout — and meets the served model through
:meth:`~repro.core.predictor.NapelModel.align_features`, the one check
of a feature layout.  Column names decide: ``columns`` equal to the
model's feature names need no ``align``.  A mismatch is a structured
**422** naming the missing/extra/moved columns; ``align=true`` opts in
to projecting a reordered/superset layout into the training layout by
name (refused if it would erase a live ``arch.backend.*`` one-hot).
Name-keyed rows are laid out as the model's features in model order,
then unknown keys sorted; a row lacking a model feature that another row
carries is a 422, and an unknown key a row does not carry reads as 0.0.

``meta`` is per-row sidecar data: when ``instructions`` is present the
response carries the paper's derived quantities (aggregate IPC, time,
energy, EDP) computed by the exact CLI code path
(:meth:`~repro.core.predictor.NapelModel.derive_prediction`), making a
served prediction bit-identical to ``repro predict``.
"""

from __future__ import annotations

import itertools
import json
import struct
from functools import lru_cache

import numpy as np
import orjson

from ..core.predictor import NapelModel
from ..errors import ReproError, SchemaMismatchError
from ..schema import FeatureBlock, FeatureSchema


class ProtocolError(ReproError):
    """An HTTP-mappable request error (status + machine-readable code)."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        *,
        details: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.details = dict(details or {})


def error_body(
    status: int,
    code: str,
    message: str,
    details: dict | None = None,
    *,
    request_id: str | None = None,
) -> bytes:
    """The canonical JSON error document."""
    doc = {"error": code, "status": status, "message": message}
    if request_id is not None:
        doc["request_id"] = request_id
    if details:
        doc.update(details)
    return (json.dumps(doc) + "\n").encode("utf-8")


def schema_mismatch_to_error(exc: SchemaMismatchError) -> ProtocolError:
    """A predict-path schema failure as a structured 422."""
    return ProtocolError(
        422,
        "schema_mismatch",
        str(exc),
        details={
            "missing": list(exc.missing),
            "extra": list(exc.extra),
            "moved": list(exc.moved),
        },
    )


@lru_cache(maxsize=128)
def schema_for_columns(columns: tuple[str, ...]) -> FeatureSchema:
    """A single-block schema naming a request's columns.

    Cached per column tuple: a steady client sends the same layout on
    every request, and the schema (and the model-side alignment memo
    keyed on its content hash) should be built exactly once.
    """
    try:
        return FeatureSchema(
            [FeatureBlock(name="request", features=columns)]
        )
    except ReproError as exc:
        raise ProtocolError(
            422, "bad_columns", f"invalid feature columns: {exc}"
        ) from exc


#: Deepest array/object nesting a request body may have.  orjson 3.8's
#: decoder recurses once per level on the native stack with no limit of
#: its own: a 400 KB body of 200,000 open brackets overflows a thread's
#: 8 MiB stack and kills the process.  A valid request nests 3 deep.
MAX_NESTING = 1024


def nesting_depth(raw: bytes) -> int:
    """How deeply arrays and objects nest in the JSON text ``raw``.

    Brackets inside strings do not count.  A quote opens or closes a
    string unless an odd run of backslashes precedes it.  On invalid
    JSON the result is still at least the depth a parser reaches before
    it fails: up to its first error the text is a valid prefix, which
    this scan reads exactly.
    """
    body = np.frombuffer(raw, dtype=np.uint8)
    quotes = np.flatnonzero(body == ord('"'))
    if b"\\" in raw:
        slashes = np.flatnonzero(body == ord("\\"))
        starts = np.diff(slashes, prepend=-2) != 1
        run_start = slashes[starts][np.cumsum(starts) - 1]
        last = np.searchsorted(slashes, quotes) - 1
        escaped = (
            (last >= 0)
            & (slashes[last] == quotes - 1)
            & ((quotes - run_start[last]) % 2 == 1)
        )
        quotes = quotes[~escaped]
    opens = (body == ord("[")) | (body == ord("{"))
    closes = (body == ord("]")) | (body == ord("}"))
    brackets = np.flatnonzero(opens | closes)
    brackets = brackets[np.searchsorted(quotes, brackets) % 2 == 0]
    steps = np.where(opens[brackets], 1, -1)
    return int(np.cumsum(steps).max(initial=0))


def decode_predict_request(raw: bytes, *, max_rows: int) -> dict:
    """Parse and structurally validate a ``POST /predict`` body."""
    body = np.frombuffer(raw, dtype=np.uint8)
    # No text nests deeper than it has opening brackets: a cheap bound
    # that spares the full scan for bodies of up to ~1000 rows.  "["
    # (0x5B) and "{" (0x7B) are the only bytes that OR 0x20 makes "{".
    n_open = np.count_nonzero((body | 0x20) == ord("{"))
    if n_open > MAX_NESTING and nesting_depth(raw) > MAX_NESTING:
        raise ProtocolError(
            400, "bad_json",
            f"request body nests deeper than {MAX_NESTING} levels",
        )
    try:
        payload = orjson.loads(raw)
    except orjson.JSONDecodeError as exc:
        raise ProtocolError(
            400, "bad_json", f"request body is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            400, "bad_request", "request body must be a JSON object"
        )
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ProtocolError(
            400, "bad_request",
            "\"rows\" must be a non-empty list of feature rows",
        )
    if len(rows) > max_rows:
        raise ProtocolError(
            413, "too_many_rows",
            f"request carries {len(rows)} rows; the server accepts at "
            f"most {max_rows} per request",
        )
    model = payload.get("model")
    if model is not None and not isinstance(model, str):
        raise ProtocolError(
            400, "bad_request", "\"model\" must be a string model name"
        )
    align = payload.get("align", False)
    if not isinstance(align, bool):
        raise ProtocolError(
            400, "bad_request", "\"align\" must be a boolean"
        )
    columns = payload.get("columns")
    if columns is not None and (
        not isinstance(columns, list)
        or not all(isinstance(c, str) for c in columns)
    ):
        raise ProtocolError(
            400, "bad_request",
            "\"columns\" must be a list of feature-name strings",
        )
    meta = payload.get("meta")
    if meta is not None:
        if not isinstance(meta, list) or len(meta) != len(rows):
            raise ProtocolError(
                400, "bad_request",
                "\"meta\" must be a list with one entry per row",
            )
        if not all(m is None or isinstance(m, dict) for m in meta):
            raise ProtocolError(
                400, "bad_request",
                "every \"meta\" entry must be an object or null",
            )
    return payload


def _matrix_from_lists(
    rows: list, columns: list | None
) -> tuple[np.ndarray, FeatureSchema | None]:
    widths = {len(r) if isinstance(r, list) else -1 for r in rows}
    if -1 in widths or len(widths) != 1:
        raise ProtocolError(
            400, "bad_request",
            "positional rows must all be equal-length lists of numbers",
        )
    X = _feature_matrix(rows)
    source = None
    if columns is not None:
        if len(columns) != X.shape[1]:
            raise ProtocolError(
                422, "schema_mismatch",
                f"\"columns\" names {len(columns)} features but rows "
                f"have {X.shape[1]} values",
            )
        source = schema_for_columns(tuple(columns))
    return X, source


def _matrix_from_dicts(
    rows: list, model_names: tuple[str, ...]
) -> tuple[np.ndarray, FeatureSchema]:
    """Name-keyed rows as a positional matrix plus the schema naming it.

    The columns are the union of the rows' keys: the model's features in
    model order, then unknown keys sorted.  A row lacking a model feature
    that another row carries is a 422; an unknown key a row does not
    carry reads as 0.0.  Whether the layout fits the model is judged
    afterwards, by the same call as positional rows.
    """
    keys = set().union(*rows)
    known = [n for n in model_names if n in keys]
    columns = known + sorted(keys.difference(known))
    for i, row in enumerate(rows):
        missing = [n for n in known if n not in row]
        if missing:
            raise ProtocolError(
                422, "schema_mismatch",
                f"row {i} lacks {len(missing)} feature(s) the model "
                "was trained on",
                details={"missing": missing[:32], "extra": [], "moved": []},
            )
    X = _feature_matrix(
        [[row.get(n, 0.0) for n in columns] for row in rows]
    )
    return X, schema_for_columns(tuple(columns))


@lru_cache(maxsize=64)
def _row_packer(width: int):
    """``pack(*row)`` of ``width`` float64 values, built once per width."""
    return struct.Struct(f"{width}d").pack


def _wide_int(values: list, X: np.ndarray) -> bool:
    """Whether ``values`` hold an int outside [-2**63, 2**64): it has no
    int64/uint64 form, so ``np.asarray`` would hold it as an object.  Its
    double ``X[i, j]`` is at least 2**63 in magnitude, so only such
    entries need a look at the original."""
    big = np.abs(X) >= 2.0 ** 63
    return bool(big.any()) and any(
        type(values[i][j]) is int and not -(2 ** 63) <= values[i][j] < 2 ** 64
        for i, j in zip(*np.nonzero(big))
    )


def _feature_matrix(values: list) -> np.ndarray:
    """Both row spellings' values as a float64 matrix, checked once.

    ``values`` are equal-length lists.  Each row is packed as doubles
    with one :class:`struct.Struct` call, which reads floats, ints and
    booleans (0/1, as ``float()`` reads them) and refuses strings (so
    ``"1e3"`` is not parsed as 1000.0), ``null``, lists and objects.  An
    int outside [-2**63, 2**64) or a value that is not finite is refused
    too, so the matrix equals ``np.asarray(values)`` cast to float64
    whenever that array is numeric.  A refused value is a 400.
    """
    width = len(values[0])
    try:
        X = np.frombuffer(
            b"".join(itertools.starmap(_row_packer(width), values))
        ).reshape(len(values), width)
    except (struct.error, OverflowError):
        X = None
    if X is None or not np.isfinite(X).all() or _wide_int(values, X):
        raise ProtocolError(
            400, "bad_request",
            "every feature value must be a finite JSON number",
        )
    return X


def build_matrix(
    payload: dict, model: NapelModel
) -> np.ndarray:
    """A validated request -> rows aligned to the model's layout.

    Both row spellings become a positional matrix and go through
    :meth:`NapelModel.align_features`, once per request — never per
    row, and (thanks to the model's alignment memo) resolved per
    *layout* only on first sighting.  The returned matrix is in the
    model's training layout, so the batcher can concatenate it with
    other requests' rows and run one width-checked ``predict_labels``
    call.  A layout the model refuses raises
    :class:`~repro.errors.SchemaMismatchError` (the server's 422); a
    value that is not a finite number (a string, ``null``, a nested
    list) is a 400, under both spellings alike.
    """
    rows = payload["rows"]
    dict_rows = isinstance(rows[0], dict)
    if any(isinstance(r, dict) != dict_rows for r in rows):
        raise ProtocolError(
            400, "bad_request",
            "rows must be all positional lists or all name-keyed objects",
        )
    if dict_rows:
        X, source = _matrix_from_dicts(rows, model.schema.names)
    else:
        X, source = _matrix_from_lists(rows, payload.get("columns"))
    return model.align_features(
        X, schema=source, align=bool(payload.get("align", False))
    )


def predictions_to_json(
    model: NapelModel,
    X_aligned: np.ndarray,
    ipc_per_pe: np.ndarray,
    epi: np.ndarray,
    meta: list | None,
) -> list[dict]:
    """Per-row response documents, with derived quantities when possible.

    Label outputs (per-PE IPC, energy/instruction) are always present.
    When a row's meta carries ``instructions``, the thread count, PE
    count and frequency are read back from the row's own feature columns
    and the full paper formulas run through
    :meth:`NapelModel.derive_prediction` — the same code path as
    ``repro predict``, hence bit-identical derived fields.
    """
    schema = model.schema
    try:
        threads_col = schema.index("app.threads")
        pes_col = schema.index("arch.n_pes")
        freq_col = schema.index("arch.frequency_ghz")
    except SchemaMismatchError:
        threads_col = None  # subset-trained model: labels only
    out: list[dict] = []
    for i in range(X_aligned.shape[0]):
        doc: dict = {
            "ipc_per_pe": float(ipc_per_pe[i]),
            "energy_per_instruction_j": float(epi[i]),
        }
        m = meta[i] if meta is not None else None
        instructions = (m or {}).get("instructions")
        if instructions is not None and threads_col is not None:
            try:
                instructions = int(instructions)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    400, "bad_request",
                    f"meta[{i}].instructions must be an integer",
                ) from exc
            if instructions <= 0:
                raise ProtocolError(
                    400, "bad_request",
                    f"meta[{i}].instructions must be positive",
                )
            pred = model.derive_prediction(
                workload=str((m or {}).get("workload", "")),
                instructions=instructions,
                threads=int(X_aligned[i, threads_col]),
                n_pes=int(X_aligned[i, pes_col]),
                frequency_ghz=float(X_aligned[i, freq_col]),
                ipc_per_pe=float(ipc_per_pe[i]),
                energy_per_instruction_j=float(epi[i]),
            )
            doc.update(
                workload=pred.workload,
                ipc=pred.ipc,
                pes_used=pred.pes_used,
                instructions=pred.instructions,
                time_s=pred.time_s,
                energy_j=pred.energy_j,
                edp=pred.edp,
            )
        out.append(doc)
    return out
