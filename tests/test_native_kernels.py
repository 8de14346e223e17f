"""Differential tests of the compiled kernel library (repro.native).

Every kernel's C form must equal its pure-Python form (the oracle) on
drawn inputs: the ILP depths over drawn traces, the LRU stack distances
over drawn keys (both sides of the oracle's move-to-front / Fenwick
switch) and the grouped distances over one or many groups.  Whole
profiles of all twelve workloads must be identical under both forms.
The build tests check that a damaged cached object is rebuilt and that
concurrent cold processes share one object.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _helpers import use_kernel
from repro import NMCSimulator, default_nmc_config, get_workload, native
from repro.ir import Opcode, grouped_reuse_distances, reuse_distances
from repro.profiler import analyze_trace
from repro.profiler.features import ILP_WINDOWS

WORKLOADS = [
    "atax", "bfs", "bp", "chol", "gemv", "gesu",
    "gram", "kme", "lu", "mvt", "syrk", "trmm",
]

DIFF_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def forms(name):
    """``(cc, python)`` forms of kernel ``name``; skips without a compiler."""
    fn, backend = native.resolve(name)
    if backend != "cc":
        pytest.skip("no C compiler available")
    return fn, native.python_form(name)


def profile_json(monkeypatch, trace, form):
    with monkeypatch.context() as patch:
        use_kernel(patch, form)
        return analyze_trace(trace).to_json_dict()


# ------------------------------------------------------------------ ILP

#: Register ids: mostly a small file (so chains form), plus no-register
#: sources and ids far beyond any dense table.
registers = st.one_of(
    st.integers(-1, 12),
    st.just(-1),
    st.integers(2**20, 2**31 - 1),
)


@st.composite
def ilp_inputs(draw):
    n = draw(st.integers(0, 300))
    ops = st.sampled_from([int(op) for op in Opcode])
    opcodes = np.array(draw(st.lists(ops, min_size=n, max_size=n)), np.uint8)
    regs = [
        np.array(draw(st.lists(registers, min_size=n, max_size=n)), np.int32)
        for _ in range(3)
    ]
    line_ids = draw(st.lists(
        st.integers(0, 2**64 - 1), min_size=1, max_size=8, unique=True
    ))
    lines = np.array(
        draw(st.lists(st.sampled_from(line_ids), min_size=n, max_size=n)),
        np.uint64,
    )
    windows = tuple(draw(st.lists(
        st.one_of(st.sampled_from(ILP_WINDOWS), st.integers(1, 400)),
        max_size=8,
    )))
    return (opcodes, *regs, lines, windows)


class TestILPKernel:
    @DIFF_SETTINGS
    @given(args=ilp_inputs())
    def test_matches_python_oracle(self, args):
        cc, python = forms("ilp_depths")
        assert cc(*args) == python(*args)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_traces(self, n):
        cc, python = forms("ilp_depths")
        args = (
            np.full(n, int(Opcode.ATOMIC), np.uint8),
            np.full(n, 3, np.int32), np.full(n, 3, np.int32),
            np.full(n, -1, np.int32), np.zeros(n, np.uint64), ILP_WINDOWS,
        )
        assert cc(*args) == python(*args)

    def test_int_and_fp_chains_keep_separate_levels(self):
        """A register last written by an FP op keeps its int-chain level."""
        cc, python = forms("ilp_depths")
        ops = [Opcode.IALU, Opcode.IALU, Opcode.FALU, Opcode.IALU]
        args = (
            np.array([int(op) for op in ops], np.uint8),
            np.array([1, 1, 1, 2], np.int32),
            np.array([-1, 1, 1, 1], np.int32),
            np.full(4, -1, np.int32), np.zeros(4, np.uint64), (2, 8),
        )
        result = cc(*args)
        assert result == python(*args)
        assert result[1] == 3  # int chain: 1 -> 2 -> (fp) -> 3


# ------------------------------------------------------- reuse distance

@st.composite
def key_streams(draw):
    """Keys over an alphabet on either side of the oracle's 512-key
    move-to-front / Fenwick switch, drawn from the whole int64 range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([1, 2, 7, 100, 512, 513, 2000]))
    n = draw(st.integers(0, 2500))
    alphabet = rng.integers(-(2**63), 2**63 - 1, size=size, dtype=np.int64)
    return rng, alphabet[rng.integers(0, size, size=n)]


class TestReuseDistanceKernel:
    @DIFF_SETTINGS
    @given(stream=key_streams())
    def test_matches_python_oracle(self, stream):
        cc, python = forms("reuse_distances")
        _rng, keys = stream
        np.testing.assert_array_equal(cc(keys), python(keys))

    @pytest.mark.parametrize("n", [0, 1, 600])
    def test_all_equal_keys(self, n):
        cc, python = forms("reuse_distances")
        keys = np.full(n, 2**62, dtype=np.int64)
        np.testing.assert_array_equal(cc(keys), python(keys))

    @DIFF_SETTINGS
    @given(stream=key_streams(), n_groups=st.sampled_from([1, 2, 5, 64]))
    def test_grouped_matches_python_oracle(self, stream, n_groups):
        cc, python = forms("grouped_reuse_distances")
        rng, keys = stream
        labels = rng.integers(-(2**40), 2**40, size=n_groups)
        groups = labels[rng.integers(0, n_groups, size=len(keys))]
        np.testing.assert_array_equal(cc(keys, groups), python(keys, groups))

    def test_public_functions_dispatch(self, monkeypatch):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 700, size=3000)
        groups = rng.integers(0, 9, size=3000)
        compiled = (reuse_distances(keys), grouped_reuse_distances(keys, groups))
        use_kernel(monkeypatch, "python")
        np.testing.assert_array_equal(compiled[0], reuse_distances(keys))
        np.testing.assert_array_equal(
            compiled[1], grouped_reuse_distances(keys, groups)
        )


# --------------------------------------------------------- whole profiles

def small_trace(name, *, scale=8.0, seed=1):
    wl = get_workload(name)
    return wl.generate(wl.central_config(), scale=scale, seed=seed)


@pytest.mark.parametrize("name", WORKLOADS)
def test_profile_identical_under_both_forms(monkeypatch, name):
    if native.jit_status()["backend"] != "cc":
        pytest.skip("no C compiler available")
    trace = small_trace(name)
    assert profile_json(monkeypatch, trace, "cc") == profile_json(
        monkeypatch, trace, "python"
    )


# ----------------------------------------------------------------- build

requires_cc = pytest.mark.skipif(
    not any(shutil.which(c) for c in ("cc", "gcc", "clang")),
    reason="no C compiler available",
)


@requires_cc
class TestKernelBuild:
    """The C build is race-free and rebuilds damaged cached objects."""

    @pytest.fixture
    def cold_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(native.CACHE_ENV_VAR, str(tmp_path))
        monkeypatch.setattr(native, "_LIB", native._UNSET)
        monkeypatch.setattr(native, "_CC", {})
        return tmp_path

    def test_damaged_cached_object_is_rebuilt(self, cold_cache, monkeypatch):
        so_path = Path(native._so_path())
        so_path.write_bytes(b"\x00garbage, not a shared object\x00" * 8)
        with pytest.warns(RuntimeWarning, match="failed to load"):
            assert native.jit_status() == {"backend": "cc"}
        assert so_path.read_bytes()[:4] == b"\x7fELF"
        # Only the rebuilt object remains: no temporary build files.
        assert [p.name for p in cold_cache.iterdir()] == [so_path.name]
        trace = small_trace("kme", scale=6.0, seed=3)
        cfg = default_nmc_config()
        fast = NMCSimulator(cfg, engine="fast").run(trace)
        ref = NMCSimulator(cfg, engine="reference").run(trace)
        assert fast.to_json_dict() == ref.to_json_dict()
        assert profile_json(monkeypatch, trace, "cc") == profile_json(
            monkeypatch, trace, "python"
        )

    def test_concurrent_cold_builds_both_compile(self, cold_cache):
        import repro

        env = {
            **os.environ,
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
        }
        # Each cold process profiles and simulates: every kernel it
        # calls comes from the one shared object.
        code = (
            "from repro import NMCSimulator, analyze_trace, get_workload; "
            "from repro.nmcsim import jit_status; "
            "wl = get_workload('gemv'); "
            "trace = wl.generate(wl.central_config(), scale=8.0); "
            "analyze_trace(trace); NMCSimulator().run(trace); "
            "print(jit_status()['backend'])"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=300)[0].strip() for p in procs]
        assert outs == ["cc", "cc"]
        assert [p.name for p in cold_cache.iterdir()] == [
            Path(native._so_path()).name
        ]
