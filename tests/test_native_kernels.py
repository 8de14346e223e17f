"""Differential tests of the compiled kernel library (repro.native).

Every kernel's C form must equal its pure-Python form (the oracle) on
drawn inputs: the ILP depths over drawn traces, the LRU stack distances
over drawn keys (both sides of the oracle's move-to-front / Fenwick
switch), phase A's stream digests over drawn multi-thread traces and PE
slices, phase A's L1 walk over drawn multi-stream batches, whole
regression trees over drawn tie-heavy matrices (and their C replay of
``Generator.choice`` over every numpy bit generator), and the trace fill
over drawn builder actions.  Whole traces and profiles of all twelve
workloads and whole forests must be identical under both forms.
The build tests check that a damaged cached object is rebuilt and that
concurrent cold processes share one object.
"""

import ctypes
import logging
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _helpers import forest_key, repro_env, use_kernel
from test_ir_builder import builder_actions, replay
from repro import NMCSimulator, default_nmc_config, get_workload, native
from repro.errors import ConfigError
from repro.ir import Opcode, reuse_distances
from repro.ir.trace import TRACE_COLUMNS, dense_ids
from repro.ml import RandomForestRegressor, RegressionTree
from repro.ml import tree as tree_module
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


def dense_ilp_args(opcodes, dst, src1, src2, lines, windows):
    """Raw ILP inputs as the kernel forms take them: dense register ids
    (every negative id is -1, no register), dense line ids and the two
    table sizes."""
    uniq, _first, ids = dense_ids(np.concatenate((dst, src1, src2)))
    negative = int(np.searchsorted(uniq, 0))
    regs = np.maximum(ids - negative, -1).reshape(3, -1)
    line_uniq, _first, line_ids = dense_ids(lines)
    return (
        opcodes, *regs, line_ids, len(uniq) - negative, len(line_uniq),
        windows,
    )


def dense_keys(keys):
    """Raw keys as the reuse kernels take them: dense ids and their count."""
    uniq, _first, ids = dense_ids(keys)
    return ids, len(uniq)


class TestILPKernel:
    @DIFF_SETTINGS
    @given(args=ilp_inputs())
    def test_matches_python_oracle(self, args):
        cc, python = forms("ilp_depths")
        args = dense_ilp_args(*args)
        assert cc(*args) == python(*args)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_traces(self, n):
        cc, python = forms("ilp_depths")
        args = dense_ilp_args(
            np.full(n, int(Opcode.ATOMIC), np.uint8),
            np.full(n, 3, np.int32), np.full(n, 3, np.int32),
            np.full(n, -1, np.int32), np.zeros(n, np.uint64), ILP_WINDOWS,
        )
        assert cc(*args) == python(*args)

    def test_int_and_fp_chains_keep_separate_levels(self):
        """A register last written by an FP op keeps its int-chain level."""
        cc, python = forms("ilp_depths")
        ops = [Opcode.IALU, Opcode.IALU, Opcode.FALU, Opcode.IALU]
        args = dense_ilp_args(
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
        args = dense_keys(keys)
        np.testing.assert_array_equal(cc(*args), python(*args))

    @pytest.mark.parametrize("n", [0, 1, 600])
    def test_all_equal_keys(self, n):
        cc, python = forms("reuse_distances")
        args = dense_keys(np.full(n, 2**62, dtype=np.int64))
        np.testing.assert_array_equal(cc(*args), python(*args))

    def test_public_functions_dispatch(self, monkeypatch):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 700, size=3000)
        compiled = reuse_distances(keys)
        use_kernel(monkeypatch, "python")
        np.testing.assert_array_equal(compiled, reuse_distances(keys))


# ------------------------------------------------------- phase-A LRU walk

@st.composite
def classify_batches(draw):
    """A point's PE streams: 0-6 of them, some empty, some all-read or
    all-write, over a small line universe that includes negative ids."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_streams = draw(st.integers(0, 6))
    universe = draw(st.integers(1, 80))
    lines, writes = [], []
    for _ in range(n_streams):
        n = draw(st.sampled_from([0, 1, 5, 60, 300]))
        lo = draw(st.sampled_from([0, -universe // 2, -(2**40)]))
        lines.append(rng.integers(lo, lo + universe, size=n))
        mode = draw(st.sampled_from(["read", "write", "mixed"]))
        writes.append(
            np.full(n, mode == "write") if mode != "mixed"
            else rng.random(n) < 0.4
        )
    off = np.zeros(n_streams + 1, dtype=np.int64)
    np.cumsum([len(x) for x in lines], dtype=np.int64, out=off[1:])
    cat = (
        lambda parts, dtype:
        np.concatenate(parts).astype(dtype) if parts else np.empty(0, dtype)
    )
    return (
        cat(lines, np.int64), cat(writes, bool), off,
        draw(st.integers(1, 8)), draw(st.integers(1, 8)),
    )


class TestClassifyKernel:
    @DIFF_SETTINGS
    @given(batch=classify_batches())
    def test_matches_python_oracle(self, batch):
        cc, python = forms("classify_streams")
        lines, writes, off, n_sets, ways = batch
        got, want = (
            form(lines, writes, off, n_sets=n_sets, ways=ways)
            for form in (cc, python)
        )
        np.testing.assert_array_equal(got.hit, want.hit)
        np.testing.assert_array_equal(got.wb_line, want.wb_line)
        assert got.stats == want.stats
        assert len(got.stats) == len(off) - 1

    @pytest.mark.parametrize("n_sets, ways", [(0, 2), (2, 0), (-1, -1)])
    def test_bad_geometry_raises_under_both_forms(self, n_sets, ways):
        lines = np.arange(4, dtype=np.int64)
        writes = np.zeros(4, dtype=bool)
        off = np.array([0, 4], dtype=np.int64)
        for form in forms("classify_streams"):
            with pytest.raises(ConfigError):
                form(lines, writes, off, n_sets=n_sets, ways=ways)


# ------------------------------------------------- phase-A stream digests

_MEMORY_OPS = [int(Opcode.LOAD), int(Opcode.STORE), int(Opcode.ATOMIC)]
_COMPUTE_OPS = [int(op) for op in Opcode if int(op) not in _MEMORY_OPS]


@st.composite
def digest_inputs(draw):
    """A trace's opcode/addr/tid columns and a PE slice: 1-80 sparse
    thread ids (0 and 65535 among them, with gaps), threads interleaved
    in the trace, each compute-only, all-memory or mixed, addresses over
    the whole 64-bit space."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tids = set(draw(st.sampled_from([(), (0,), (65535,), (0, 65535)])))
    tids |= set(draw(st.lists(
        st.integers(0, 65535),
        min_size=max(0, 1 - len(tids)), max_size=80 - len(tids),
    )))
    tids = sorted(tids)
    parts = []
    for t in tids:
        n = draw(st.sampled_from([1, 3, 40, 150]))
        mode = draw(st.sampled_from(["compute", "memory", "mixed"]))
        pool = {
            "compute": _COMPUTE_OPS,
            "memory": _MEMORY_OPS,
            "mixed": _COMPUTE_OPS + _MEMORY_OPS,
        }[mode]
        parts.append((np.full(n, t), rng.choice(pool, size=n)))
    # Interleave the threads, each keeping its own program order.
    tid = rng.permutation(np.concatenate([p[0] for p in parts]))
    tid = tid.astype(np.uint16)
    opcode = np.empty(len(tid), dtype=np.uint8)
    for t, (_, ops) in zip(tids, parts):
        opcode[tid == t] = ops
    addr = rng.integers(0, 2**64 - 1, size=len(tid), dtype=np.uint64,
                        endpoint=True)
    addr[rng.random(len(tid)) < 0.3] >>= np.uint64(40)
    n_pes = draw(st.one_of(st.integers(1, 64), st.just(min(len(tids), 64))))
    kwargs = dict(
        n_pes=n_pes,
        cycle_ns=1.0 / draw(st.sampled_from([1.1, 1.25, 3.0])),
        line_shift=draw(st.integers(1, 256)).bit_length() - 1,
        issue_width=draw(st.integers(1, 4)),
    )
    return (opcode, addr, tid), kwargs


class TestStreamDigestKernel:
    @DIFF_SETTINGS
    @given(args=digest_inputs())
    def test_matches_python_oracle(self, args):
        cc, python = forms("stream_digests")
        cols, kwargs = args
        got, want = (form(*cols, **kwargs) for form in (cc, python))
        assert got.pe == want.pe
        assert got.n_instructions == want.n_instructions
        for name in ("off", "lines", "writes", "compute_ns", "pref"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name


# ------------------------------------------------------------ CART trees

@st.composite
def tree_inputs(draw):
    """A training set plus tree parameters.  Columns are drawn to be
    tie-heavy: small integers, a mix of 0.0 / -0.0 / 1.0, constants, or
    continuous; rows may be a bootstrap resample (duplicates)."""
    n = draw(st.integers(1, 200))
    p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    column = {
        "normal": lambda: rng.normal(size=n),
        "ints": lambda: rng.integers(0, 4, size=n).astype(np.float64),
        "zeros": lambda: rng.choice([0.0, -0.0, 1.0], size=n),
        "const": lambda: np.full(n, rng.normal()),
    }
    kinds = st.sampled_from(sorted(column))
    X = np.column_stack([
        column[kind]() for kind in draw(st.lists(kinds, min_size=p, max_size=p))
    ])
    y = column[draw(st.sampled_from(["normal", "ints", "const"]))]()
    if draw(st.booleans()):
        sample = rng.integers(0, n, size=n)
        X, y = X[sample], y[sample]
    params = {
        "min_samples_leaf": draw(st.sampled_from([1, 2, 5])),
        "max_depth": draw(st.sampled_from([None, 1, 3])),
        "max_features": draw(st.sampled_from(
            [None, "sqrt", "third", "log2", 1, 3, 0.5, 1.0]
        )),
    }
    return X, y, params, draw(st.integers(0, 2**32 - 1))


def tree_key(tree):
    """Everything a fitted tree is: node arrays (their dtypes and bytes),
    importances and the RNG's end state."""
    nodes = [(a.dtype.str, a.tobytes()) for a in (*tree.nodes_, tree.value_)]
    return (
        nodes, tree.feature_importances_.tobytes(), tree.rng.bit_generator.state
    )


def fit_tree(monkeypatch, form, X, y, params, seed):
    with monkeypatch.context() as patch:
        use_kernel(patch, form)
        return RegressionTree(rng=np.random.default_rng(seed), **params).fit(X, y)


class TestTreeKernel:
    @DIFF_SETTINGS
    @given(args=tree_inputs())
    def test_matches_python_oracle(self, monkeypatch, args):
        forms("build_tree")
        X, y, params, seed = args
        assert tree_key(fit_tree(monkeypatch, "cc", X, y, params, seed)) == (
            tree_key(fit_tree(monkeypatch, "python", X, y, params, seed))
        )

    def test_sums_match_numpy(self):
        """The C node sums are np.sum's pairwise summation, bit for bit,
        across its sequential (< 8), unrolled (<= 128) and split forms."""
        forms("build_tree")
        np_sum = native._library().np_sum
        np_sum.restype = ctypes.c_double
        np_sum.argtypes = [ctypes.c_void_p, ctypes.c_int64]
        rng = np.random.default_rng(11)
        for n in range(301):
            for a in (
                rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n),
                np.full(n, -0.0),
            ):
                got = np.float64(np_sum(a.ctypes.data, n))
                assert got.tobytes() == a.sum().tobytes(), n

    def test_parent_sse_squares_with_pow(self):
        """The parent SSE squares the node sum as numpy's scalar ``**``
        does (libm ``pow``), which differs from ``s * s`` in the last bit
        on about one draw in a thousand.  Nearly constant targets make
        ``sq - s**2 / n`` cancel, so that bit reaches the root gain (the
        raw importance) of a stump."""
        cc, python = forms("build_tree")
        rng = np.random.default_rng(3)
        columns = np.arange(13.0)[None, :]
        for _ in range(4000):
            y = 1000.0 + 1e-3 * rng.normal(size=13)
            got, want = (
                form(columns, y, columns.astype(np.int64), 1, 1, 2, 1,
                     np.random.default_rng(0))[5]
                for form in (cc, python)
            )
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_forest_identical_under_both_forms(self, monkeypatch, jobs):
        forms("build_tree")
        rng = np.random.default_rng(2)
        X = np.column_stack([
            rng.normal(size=120), rng.integers(0, 3, size=120),
            np.zeros(120), rng.normal(size=120),
        ])
        y = X[:, 0] * (X[:, 1] + 1) + 0.1 * rng.normal(size=120)
        keys = []
        for form in ("cc", "python"):
            with monkeypatch.context() as patch:
                use_kernel(patch, form)
                forest = RandomForestRegressor(
                    n_estimators=8, random_state=5, jobs=jobs
                ).fit(X, y)
            keys.append(forest_key(forest))
        assert keys[0] == keys[1]


# ------------------------------------------------ the trees' feature draw

BIT_GENERATORS = ["PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"]


def state_key(state):
    """A bit generator's state with its arrays as lists (comparable)."""
    if isinstance(state, dict):
        return {key: state_key(value) for key, value in state.items()}
    if isinstance(state, np.ndarray):
        return state.tolist()
    return state


@st.composite
def choice_shapes(draw):
    """``(p, k)`` on both branches of ``Generator.choice``: Floyd's
    algorithm (p <= 10000, or k <= p // 50) and the tail shuffle."""
    branch = draw(st.sampled_from(["small", "large-floyd", "large-tail"]))
    if branch == "small":
        p = draw(st.integers(1, 10000))
        lo, hi = 1, p
    else:
        p = draw(st.integers(10001, 30000))
        lo, hi = (1, p // 50) if branch == "large-floyd" else (p // 50 + 1, p)
    k = draw(st.one_of(st.just(lo), st.just(hi), st.integers(lo, hi)))
    return p, k


class TestChoiceReplay:
    @DIFF_SETTINGS
    @given(
        name=st.sampled_from(BIT_GENERATORS),
        shape=choice_shapes(),
        seed=st.integers(0, 2**64 - 1),
        draws=st.integers(1, 3),
    )
    def test_matches_generator_choice(self, name, shape, seed, draws):
        """Equal indices and an equal generator state after each draw,
        for every numpy bit generator (some buffer a spare uint32)."""
        forms("build_tree")
        choice = tree_module._choice_cc(native._library())
        p, k = shape
        want, got = (
            np.random.Generator(getattr(np.random, name)(seed)) for _ in "ab"
        )
        for _ in range(draws):
            np.testing.assert_array_equal(
                choice(got, p, k), want.choice(p, size=k, replace=False)
            )
            assert state_key(got.bit_generator.state) == state_key(
                want.bit_generator.state
            )

    def test_failed_self_check_falls_back_to_python(self, monkeypatch):
        """A C draw that disagrees with ``choice`` (as after a numpy
        change to it) is caught when the kernel is built: one warning,
        and the trees are the Python form's."""
        forms("build_tree")
        real = tree_module._choice_cc
        monkeypatch.setattr(
            tree_module, "_choice_cc",
            lambda lib: (lambda rng, p, k: real(lib)(rng, p, k)[::-1]),
        )
        monkeypatch.setattr(native, "_CC", {})
        records = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = records.append
        tree_module.log.addHandler(handler)
        try:
            fn, backend = native.resolve("build_tree")
            native.resolve("build_tree")
        finally:
            tree_module.log.removeHandler(handler)
        assert [r.getMessage() for r in records] == [
            "the C feature draw does not replay this numpy's "
            "Generator.choice; trees are built by the Python form"
        ]
        assert (fn, backend) == (native.python_form("build_tree"), "python")
        X, y, params, seed = (
            np.random.default_rng(4).normal(size=(60, 9)),
            np.random.default_rng(5).normal(size=60),
            {"max_features": "third"}, 6,
        )
        fallback = tree_key(fit_tree(monkeypatch, "cc", X, y, params, seed))
        assert fallback == tree_key(
            fit_tree(monkeypatch, "python", X, y, params, seed)
        )


# ------------------------------------------------------------ trace fill

def finished(monkeypatch, form, make):
    """The trace ``make()`` builds, filled by kernel form ``form``."""
    with monkeypatch.context() as patch:
        use_kernel(patch, form)
        return make()


class TestFillTraceKernel:
    @DIFF_SETTINGS
    @given(st.lists(builder_actions(), max_size=10))
    def test_matches_python_oracle(self, monkeypatch, actions):
        """Random templates (some with no address slot), repeated tids and
        zero counts, between scalar and bulk chunks."""
        forms("fill_trace")
        cc, py = (
            finished(monkeypatch, form, lambda: replay(actions).finish())
            for form in ("cc", "python")
        )
        for name in TRACE_COLUMNS:
            np.testing.assert_array_equal(
                getattr(cc, name), getattr(py, name), err_msg=name
            )

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_workload_traces_identical_under_both_forms(self, monkeypatch, name):
        forms("fill_trace")
        cc, py = (
            finished(monkeypatch, form, lambda: small_trace(name))
            for form in ("cc", "python")
        )
        assert cc.content_hash() == py.content_hash()


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
                env=repro_env(), stdout=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=300)[0].strip() for p in procs]
        assert outs == ["cc", "cc"]
        assert [p.name for p in cold_cache.iterdir()] == [
            Path(native._so_path()).name
        ]
