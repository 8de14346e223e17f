"""The one place cached state reaches disk, is judged, or is bounded.

Every cache in the package keeps its own key and payload format —
:class:`~repro.core.campaign.CampaignCache` (one JSON file), the phase-A
:class:`MemoStore` (one ``.npy`` stream per key), the per-trace geometry
memos of :mod:`repro.nmcsim.simulator` and the campaign trace memo — and
delegates three policies to this module:

* **atomic replacement** — :func:`replacing` is the only way a file is
  rewritten: the new bytes go to a uniquely named temporary file in the
  target's directory, which :func:`os.replace` moves into place on
  success and which is removed on failure.  Readers see the old file or
  the new one, never a torn write, and a failed write leaves the old
  file byte-identical.  Campaign caches, run manifests, Chrome traces,
  model artifacts, memo-store entries and the compiled phase-B kernel
  all go through it.
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
from typing import Callable, Hashable, Iterator, Mapping, TypeVar

import numpy as np

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


# ------------------------------------------------------------ memo store

#: On-disk :class:`MemoStore` entry layout version; bumped whenever the
#: encoded payload changes shape.  Skewed entries are discarded.
FORMAT_VERSION = 1

#: Name of the version-stamp array embedded in every entry.
_FORMAT_KEY = "__format__"


class MemoStore:
    """One directory of content-hash-keyed array entries.

    Each entry is a stream of raw ``.npy`` records — a names array, then
    one array per name, read with ``allow_pickle=False`` — rather than an
    ``.npz`` archive: loading skips the zipfile machinery, which
    dominates small-entry read cost.  Lookups and writes count as
    ``sim.memo.store.{hits,misses,writes,errors}``.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        # Two-level fan-out keeps directory listings sane for large
        # sweeps (thousands of entries).
        return self.root / key[:2] / f"{key}.bin"

    def get(self, key: str) -> dict[str, np.ndarray] | None:
        """The entry's arrays, or None (missing, damaged or skewed)."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                names = np.load(fh, allow_pickle=False)
                data = {
                    str(name): np.load(fh, allow_pickle=False)
                    for name in names
                }
            stored = data.pop(_FORMAT_KEY, None)
            version = int(stored[0]) if stored is not None and len(stored) else None
            if version != FORMAT_VERSION:
                raise ValueError(
                    f"entry format {version!r} != {FORMAT_VERSION}"
                )
        except FileNotFoundError:
            metrics().inc("sim.memo.store.misses")
            return None
        except Exception as exc:  # noqa: BLE001 - any damage means rebuild
            metrics().inc("sim.memo.store.misses")
            discard(
                f"sim memo store entry {path} is corrupt, unreadable or "
                f"version-skewed ({exc!r}); discarding it — the entry "
                "will be recomputed and rewritten",
                counter="sim.memo.store.errors",
            )
            return None
        metrics().inc("sim.memo.store.hits")
        return data

    def put(self, key: str, arrays: Mapping[str, np.ndarray]) -> None:
        """Write one entry atomically; a failed write is discarded.

        A store that cannot be written (read-only mount, disk full) must
        not fail the simulation it was meant to speed up.
        """
        path = self._path(key)
        payload = dict(arrays)
        payload[_FORMAT_KEY] = np.asarray([FORMAT_VERSION], dtype=np.int64)
        try:
            with replacing(path) as tmp, open(tmp, "wb") as fh:
                np.save(
                    fh, np.asarray(list(payload), dtype=np.str_),
                    allow_pickle=False,
                )
                for value in payload.values():
                    np.save(fh, np.asarray(value), allow_pickle=False)
        except OSError as exc:
            discard(
                f"sim memo store write to {path} failed ({exc!r}); "
                "continuing without persisting this entry",
                counter="sim.memo.store.errors",
            )
            return
        metrics().inc("sim.memo.store.writes")
