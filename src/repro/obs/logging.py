"""Structured logging for the long-running phases.

One package-level logger hierarchy rooted at ``repro`` (children:
``repro.campaign``, ``repro.nmcsim``, ``repro.ml``, ``repro.parallel``),
with two formatters:

* :class:`HumanFormatter` — terse ``HH:MM:SS LEVEL logger: message`` lines
  for the console (what ``repro -v`` shows on stderr);
* :class:`JsonLinesFormatter` — one JSON object per line, machine-parseable
  (what ``repro --log-json FILE`` appends to).

Structured context travels in the standard-library ``extra`` mechanism
under the single key ``ctx``::

    log.info("point done", extra={"ctx": {"point": 3, "of": 11}})

The JSON formatter merges ``ctx`` into the emitted object; the human
formatter appends it as ``key=value`` pairs.  Library code logs freely —
without :func:`configure_logging` a :class:`logging.NullHandler` swallows
everything, so importing :mod:`repro` never spams a host application.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import IO, Mapping

#: Root of the package logger hierarchy.
ROOT_LOGGER = "repro"

#: Attribute marking handlers installed by :func:`configure_logging`, so a
#: reconfiguration replaces exactly its own handlers and nothing else.
_MANAGED = "_repro_obs_managed"


def get_logger(name: str = ROOT_LOGGER) -> logging.Logger:
    """The package logger ``name`` (qualified under ``repro`` if bare)."""
    if name != ROOT_LOGGER and not name.startswith(ROOT_LOGGER + "."):
        name = f"{ROOT_LOGGER}.{name}"
    return logging.getLogger(name)


class HumanFormatter(logging.Formatter):
    """``HH:MM:SS LEVEL logger: message (key=value ...)`` console lines."""

    def __init__(self) -> None:
        super().__init__(
            fmt="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
            datefmt="%H:%M:%S",
        )

    def format(self, record: logging.LogRecord) -> str:
        text = super().format(record)
        ctx = getattr(record, "ctx", None)
        if isinstance(ctx, Mapping) and ctx:
            pairs = " ".join(f"{k}={v}" for k, v in ctx.items())
            text = f"{text} ({pairs})"
        return text


class JsonLinesFormatter(logging.Formatter):
    """One self-contained JSON object per log record.

    Fixed keys: ``ts`` (unix seconds), ``level``, ``logger``, ``message``;
    any ``ctx`` mapping is merged in at the top level (fixed keys win), and
    exception info is rendered under ``exc``.
    """

    def format(self, record: logging.LogRecord) -> str:
        entry: dict = {}
        ctx = getattr(record, "ctx", None)
        if isinstance(ctx, Mapping):
            entry.update(ctx)
        entry.update(
            ts=round(record.created, 6),
            level=record.levelname.lower(),
            logger=record.name,
            message=record.getMessage(),
        )
        if record.exc_info:
            entry["exc"] = self.formatException(record.exc_info)
        return json.dumps(entry, default=str, sort_keys=False)


def verbosity_level(verbosity: int) -> int:
    """Map a CLI verbosity count to a console logging level.

    ``-1`` (``--quiet``) shows errors only, ``0`` warnings, ``1`` (``-v``)
    info, ``>= 2`` (``-vv``) debug.
    """
    if verbosity < 0:
        return logging.ERROR
    if verbosity == 0:
        return logging.WARNING
    if verbosity == 1:
        return logging.INFO
    return logging.DEBUG


def configure_logging(
    verbosity: int = 0,
    *,
    json_path: str | None = None,
    stream: IO[str] | None = None,
) -> logging.Logger:
    """(Re)configure the ``repro`` logger hierarchy; returns its root.

    Installs a console handler (``stream``, default stderr) with the
    :class:`HumanFormatter` at the level implied by ``verbosity``, and —
    when ``json_path`` is given — a file handler appending
    :class:`JsonLinesFormatter` lines at DEBUG (the file always gets the
    full detail; verbosity only gates the console).  The logger's own
    level is the lowest of those handlers' levels, so a record no
    handler would keep is never built.  Idempotent: calling again
    replaces the previously-installed handlers.
    """
    root = logging.getLogger(ROOT_LOGGER)
    console_level = verbosity_level(verbosity)
    root.setLevel(logging.DEBUG if json_path else console_level)
    root.propagate = False
    for handler in list(root.handlers):
        if getattr(handler, _MANAGED, False):
            root.removeHandler(handler)
            handler.close()
    console = logging.StreamHandler(stream or sys.stderr)
    console.setLevel(console_level)
    console.setFormatter(HumanFormatter())
    setattr(console, _MANAGED, True)
    root.addHandler(console)
    if json_path:
        file_handler = logging.FileHandler(json_path, encoding="utf-8")
        file_handler.setLevel(logging.DEBUG)
        file_handler.setFormatter(JsonLinesFormatter())
        setattr(file_handler, _MANAGED, True)
        root.addHandler(file_handler)
    return root


# Importing repro must never print through the root logger's last-resort
# handler: library users opt into output via configure_logging().
logging.getLogger(ROOT_LOGGER).addHandler(logging.NullHandler())
