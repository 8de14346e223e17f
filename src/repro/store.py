"""The one place cached state reaches disk, is judged, or is bounded.

Every cache in the package keeps its own key and payload format —
:class:`~repro.core.campaign.CampaignCache` (one JSON file), the
per-trace geometry memos of :mod:`repro.nmcsim.simulator` and the
campaign trace memo — and delegates three policies to this module:

* **atomic replacement** — :func:`replacing` is the only way a file is
  rewritten: the new bytes go to a uniquely named temporary file in the
  target's directory, which :func:`os.replace` moves into place on
  success and which is removed on failure.  Readers see the old file or
  the new one, never a torn write, and a failed write leaves the old
  file byte-identical.  Campaign caches, run manifests, Chrome traces,
  model artifacts and the compiled kernel library all go through it.
* **discard on damage** — :func:`discard` is the only place that warns
  about damaged, stale or unwritable on-disk state.  Such state is never
  trusted and never raised: the caller rebuilds it.
* **bounded in-process memos** — :func:`lru_get_or_build` is the one
  least-recently-used get-or-build policy.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import warnings
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Hashable, Iterator, TypeVar

from .obs.logging import get_logger
from .obs.metrics import metrics

log = get_logger("repro.store")

T = TypeVar("T")


@contextlib.contextmanager
def replacing(path: str | os.PathLike) -> Iterator[Path]:
    """Yield a temporary path whose contents atomically replace ``path``.

    The temporary file is created empty next to ``path`` (whose
    directory is created if missing).  On a clean exit it is moved over
    ``path`` with :func:`os.replace`; on an exception it is removed and
    ``path`` is left as it was.  Concurrent writers never share a
    temporary file, so each replace succeeds and the last one wins.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    os.close(fd)
    try:
        yield Path(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> Path:
    """Replace ``path`` with ``text`` (UTF-8) atomically; returns the path."""
    with replacing(path) as tmp:
        tmp.write_text(text, encoding="utf-8")
    return Path(path)


def discard(message: str, *, counter: str | None = None) -> None:
    """Report damaged, stale or unwritable on-disk state being dropped.

    Emits ``message`` as a :class:`RuntimeWarning` (attributed to the
    caller of the function that discards) and as a ``repro.store`` log
    warning, and counts ``counter`` once when given.
    """
    if counter is not None:
        metrics().inc(counter)
    warnings.warn(message, RuntimeWarning, stacklevel=3)
    log.warning(message)


def lru_get_or_build(
    lru: OrderedDict, key: Hashable, build: Callable[[], T], cap: int
) -> tuple[T, bool]:
    """``lru[key]``, built with ``build()`` on a miss; returns (value, hit).

    A hit becomes the most recently used entry; a miss stores the built
    value and evicts least recently used entries down to ``cap``.
    """
    value = lru.get(key)
    if value is not None:
        lru.move_to_end(key)
        return value, True
    value = build()
    lru[key] = value
    while len(lru) > cap:
        lru.popitem(last=False)
    return value, False
