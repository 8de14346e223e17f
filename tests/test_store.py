"""Every file writer's durability, and the shared LRU policy of repro.store.

The durability test fails each writer midway through a real write:
``RLIMIT_FSIZE`` caps how far any file may grow, so the write stops with
``EFBIG`` after its first bytes, as on a full disk.  The previous file
must survive byte for byte and no temporary sibling may be left behind.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from pathlib import Path

import pytest

import repro
from repro.core.campaign import CampaignCache
from repro.core.predictor import NapelModel
from repro.core.serialization import save_model
from repro.obs import RunManifest, Tracer
from repro.store import lru_get_or_build


class _Entry:
    """Stands in for a cached profile or simulation result."""

    def __init__(self, generation: int) -> None:
        self.generation = generation

    def to_json_dict(self) -> dict:
        return {"generation": self.generation}


def _save_cache(path, generation):
    cache = CampaignCache()
    cache.path = path
    cache.put(f"point{generation}", "arch", _Entry(generation), _Entry(generation))
    cache.save()


def _write_manifest(path, generation):
    RunManifest("test", [str(generation)]).write(path)


def _write_trace(path, generation):
    tracer = Tracer()
    tracer.instant("generation", args={"n": generation})
    tracer.write(path)


def _save_model(path, generation):
    save_model(NapelModel({"generation": generation}, None), path)


#: Writer name -> (write(path, generation), target file name).
WRITERS = {
    "CampaignCache.save": (_save_cache, "cache.json"),
    "RunManifest.write": (_write_manifest, "manifest.json"),
    "Tracer.write": (_write_trace, "trace.json"),
    "save_model": (_save_model, "model.pkl"),
}


@contextlib.contextmanager
def file_size_limit(nbytes: int):
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_keeps_previous_file(tmp_path, writer):
    write, name = WRITERS[writer]
    path = tmp_path / "aa" / name
    write(path, 0)
    before = path.read_bytes()
    with pytest.raises(OSError), file_size_limit(16):
        write(path, 1)
    assert path.read_bytes() == before
    assert list(path.parent.iterdir()) == [path]


class TestLruGetOrBuild:
    def test_hit_skips_build_and_refreshes_order(self):
        lru = OrderedDict()
        assert lru_get_or_build(lru, "a", lambda: 1, 2) == (1, False)
        assert lru_get_or_build(lru, "b", lambda: 2, 2) == (2, False)
        assert lru_get_or_build(lru, "a", pytest.fail, 2) == (1, True)
        assert list(lru) == ["b", "a"]

    def test_miss_evicts_least_recently_used(self):
        lru = OrderedDict()
        for key in "abc":
            lru_get_or_build(lru, key, lambda: key.upper(), 2)
        assert list(lru.items()) == [("b", "B"), ("c", "C")]


def test_os_replace_only_in_repro_store():
    """repro.store owns how a file reaches disk: every rewrite goes
    through repro.store.replacing, never a hand-rolled os.replace."""
    package = Path(repro.__file__).parent
    found = [
        f"{path.relative_to(package)}:{n}"
        for path in sorted(package.rglob("*.py"))
        if path != package / "store.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "os.replace" in line
    ]
    assert found == [], "write through repro.store.replacing instead"
