"""Durable on-disk writes for the package's JSON artifacts.

Campaign caches, run manifests and Chrome traces are all rewritten in
place by runs that may crash or overlap; :func:`atomic_write_text` is
the one way they reach disk.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path


def atomic_write_text(path: str | os.PathLike, text: str) -> Path:
    """Replace ``path`` with ``text`` (UTF-8) atomically; returns the path.

    The text goes to a uniquely named temporary file in the target's
    directory (created if missing), which :func:`os.replace` then moves
    into place.  Readers see the old file or the new one, never a torn
    write; concurrent writers of the same path never share a temporary
    file, so each replace succeeds and the last one wins.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path
