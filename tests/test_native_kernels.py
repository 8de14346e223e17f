"""Differential tests of the compiled kernel library (repro.native).

Every kernel's C form must equal its pure-Python form (the oracle) on
drawn inputs: the ILP depths over drawn traces, the LRU stack distances
and their per-stream bit-length counts over drawn keys (both sides of
the 512-id move-to-front / Fenwick switch), the profiler's column table
over drawn traces (register and pc spans past the table limit, addresses
near 2**64), the per-PC strides over drawn memory ops (INT64_MIN
strides), phase A's stream digests over drawn multi-thread traces and PE
slices, phase A's L1 walk over drawn multi-stream batches, phase A's
event packer over drawn boundary points (every product also keeping
the layout phase B reads unchecked) and over a whole campaign, whole
regression trees over drawn tie-heavy matrices and plans (and their C
replay of ``Generator.choice`` over every numpy bit generator), forest
descents over drawn node tables and rows, and the trace fill over drawn
builder actions.  Whole traces of all twelve workloads,
profiles of their central and test inputs and of the synthetic
microbenchmarks, and whole forests must be identical under both forms.
The build tests check that a damaged cached object is rebuilt and that
concurrent cold processes share one object.
"""

import ctypes
import functools
import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _helpers import forest_key, repro_env, require_compiler, use_kernel
from test_ir_builder import builder_actions, replay
from repro import NMCSimulator, default_nmc_config, get_workload, native
from repro.config import NMCConfig
from repro.doe import ParameterSpace, central_composite
from repro.errors import ConfigError, KernelBuildError, MLError
from repro.ir import InstructionTrace, Opcode, TraceColumns, reuse_distances
from repro.ir.builder import LoopTemplate, TemplateOp
from repro.ir.instructions import MEMORY_OPCODES, NO_REG
from repro.ir import trace as trace_module
from repro.ir.trace import TRACE_COLUMNS, dense_ids
from repro.ml import RandomForestRegressor, RegressionTree
from repro.ml import tree as tree_module
from repro.nmcsim import classify_steps, classify_streams
from repro.nmcsim._native import COLUMNS
from repro.nmcsim.dram import route_addresses
from repro.nmcsim.simulator import (
    _FLOAT_SEGS, _INT_SEGS, _META_LEN, _SEGS, _PhaseA, _Streams,
)
from repro.profiler import analyze_trace
from repro.profiler import ilp as ilp_module
from repro.profiler import reuse_distance as reuse_module
from repro.profiler.features import ILP_WINDOWS
from repro.workloads.base import config_seed
from repro.workloads.synthetic import SYNTHETIC_WORKLOADS

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
    """``(cc, python)`` forms of kernel ``name``; skips without a compiler
    and when the C form failed its build-time check."""
    require_compiler()
    fn, backend = native.resolve(name)
    if backend != "cc":
        pytest.skip(f"the C form of {name} failed its build-time check")
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
    (every negative id is -1, no register), the memory mask, the memory
    ops' dense line ids and the two table sizes."""
    uniq, _first, ids = dense_ids(np.concatenate((dst, src1, src2)))
    negative = int(np.searchsorted(uniq, 0))
    regs = np.maximum(ids - negative, -1).reshape(3, -1)
    mask = memory_mask(opcodes)
    line_uniq, _first, line_ids = dense_ids(lines[mask])
    return (
        opcodes, *regs, mask, line_ids, len(uniq) - negative, len(line_uniq),
        windows,
    )


def memory_mask(opcodes):
    return np.isin(opcodes, [int(op) for op in MEMORY_OPCODES])


def dense_keys(keys):
    """Raw keys as the reuse kernels take them: dense ids and their count."""
    uniq, _first, ids = dense_ids(keys)
    return ids, len(uniq)


@st.composite
def ilp_boundaries(draw):
    """Dense ILP inputs at the kernel's edges: one instruction, traces
    one short of, at and one past every :data:`ILP_WINDOWS` edge, no
    memory ops, register ids at 0 and at the top of their table (or no
    register, or an empty table), line ids at 0 and at the top of
    theirs, and non-memory ops whose line id no table holds (it is never
    read)."""
    w = draw(st.sampled_from(ILP_WINDOWS))
    n = draw(st.sampled_from([1, w - 1, w, w + 1]))
    memory = draw(st.booleans())
    pool = [int(op) for op in Opcode if memory or op not in MEMORY_OPCODES]
    opcodes = np.array(
        draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), np.uint8
    )
    n_regs = draw(st.sampled_from([1, 2, 4096, 0]))
    reg = st.sampled_from(sorted({-1, 0, n_regs - 1} if n_regs else {-1}))
    regs = [
        np.array(draw(st.lists(reg, min_size=n, max_size=n)), np.int64)
        for _ in range(3)
    ]
    n_lines = draw(st.sampled_from([1, 2, 4096] + ([] if memory else [0])))
    line = st.sampled_from(sorted({0, max(n_lines - 1, 0)}))
    mask = memory_mask(opcodes)
    m = int(mask.sum())
    lines = np.array(draw(st.lists(line, min_size=m, max_size=m)), np.int64)
    # Access ids past the sample are never read.
    lines = np.concatenate((lines, np.full(draw(st.integers(0, 2)), 2**62)))
    windows = draw(st.sampled_from([ILP_WINDOWS, (w,), (max(w - 1, 1), w + 1)]))
    return (opcodes, *regs, mask, lines, n_regs, n_lines, windows)


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

    @DIFF_SETTINGS
    @given(args=ilp_boundaries())
    def test_boundary_inputs_match_python_form(self, args):
        cc, python = forms("ilp_depths")
        assert cc(*args) == python(*args)

    @pytest.mark.parametrize(
        "case",
        ["dst", "src1", "src2", "line", "negative line", "missing line",
         "mask off", "mask on", "opcode"],
    )
    def test_bad_ids_raise(self, case):
        """The compiled form checks its index contract before it walks:
        an opcode past the kind table, a register id at n_regs, a mask
        that is not the memory ops, or a memory op's line id missing or
        outside [0, n_lines) raises ValueError."""
        cc, _python = forms("ilp_depths")
        ops = np.array([int(Opcode.LOAD), int(Opcode.STORE), int(Opcode.IALU)], np.uint8)
        cols = {name: np.array([0, 1, 1]) for name in ("dst", "src1", "src2")}
        mask = np.array([True, True, False])
        lines = np.array([0, 1])
        if case == "line":
            lines[1] = 2
        elif case == "negative line":
            lines[0] = -1
        elif case == "missing line":
            lines = lines[:1]
        elif case == "mask off":
            mask[1] = False
        elif case == "mask on":
            mask[2] = True
        elif case == "opcode":
            ops[2] = len(Opcode)
        else:
            cols[case][1] = 2
        with pytest.raises(ValueError, match="ilp_depths"):
            cc(ops, *cols.values(), mask, lines, 2, 2, ILP_WINDOWS)

    @pytest.mark.parametrize("n", [0, 1, 10, 37, 300])
    @pytest.mark.parametrize("windows", [
        (1,), "n", "n+", (3,), (7, 1, 4), tuple(range(1, 21)), (),
    ], ids=[
        "one", "n", "past_n", "not_dividing", "unsorted", "twenty", "none",
    ])
    def test_window_edges(self, n, windows):
        """Windows of 1, of n and past n, windows that do not divide n,
        any number of windows (none, or more than one lane group)."""
        cc, python = forms("ilp_depths")
        if windows == "n":
            windows = (max(n, 1),)
        elif windows == "n+":
            windows = (n + 1, 2 * n + 5)
        rng = np.random.default_rng(n)
        ops = np.array([int(op) for op in Opcode], np.uint8)
        args = dense_ilp_args(
            rng.choice(ops, n), *rng.integers(-1, 6, (3, n)).astype(np.int32),
            rng.integers(0, 4, n).astype(np.uint64), windows,
        )
        got = cc(*args)
        assert got == python(*args)
        assert len(got) == 7 + len(windows)

    @pytest.mark.parametrize("w", [2, 8, 256])
    @pytest.mark.parametrize("through", ["register", "memory"])
    def test_producer_one_op_before_a_chunk_start(self, w, through):
        """Op w - 1 (the last of chunk 0) feeds op w (the first of chunk
        1): a dependence under the infinite window only."""
        cc, python = forms("ilp_depths")
        n = 2 * w
        ops = np.full(n, int(Opcode.BRANCH), np.uint8)
        dst, src1, src2 = (np.full(n, -1, np.int32) for _ in range(3))
        lines = np.zeros(n, np.uint64)
        if through == "register":
            ops[[w - 1, w]] = int(Opcode.IALU)
            dst[w - 1] = src1[w] = 5
        else:
            ops[[w - 1, w]] = int(Opcode.STORE), int(Opcode.LOAD)
        windows = (w, w - 1, w + 1)
        args = dense_ilp_args(ops, dst, src1, src2, lines, windows)
        got = cc(*args)
        assert got == python(*args)
        # Every chunk is 1 deep, but 2 where it holds both ops.
        assert got[0] == 2
        assert got[7:] == [
            -(-n // v) + ((w - 1) // v == w // v) for v in windows
        ]
        assert got[7] == 2

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


def reuse_key(result):
    """A ``reuse_distances`` result as comparable lists (dtypes checked)."""
    hist, cold, dists = result
    assert hist.dtype == cold.dtype == np.int64
    assert dists is None or dists.dtype == np.int64
    return hist.tolist(), cold.tolist(), None if dists is None else dists.tolist()


class TestReuseDistanceKernel:
    @DIFF_SETTINGS
    @given(stream=key_streams(), split=st.booleans(), per_access=st.booleans())
    def test_matches_python_oracle(self, stream, split, per_access):
        """One stream or read/write streams, with or without the
        per-access distances."""
        cc, python = forms("reuse_distances")
        rng, keys = stream
        ids, n_ids = dense_keys(keys)
        is_write = rng.random(len(ids)) < 0.4 if split else None
        got, want = (
            reuse_key(form(ids, n_ids, is_write, per_access=per_access))
            for form in (cc, python)
        )
        assert got == want
        hist, cold, _ = want
        assert sum(map(sum, hist)) + sum(cold) == len(ids)

    @pytest.mark.parametrize("n_ids", [511, 512, 513, 514])
    def test_move_to_front_threshold(self, n_ids):
        """Alphabets on both sides of the 512-id move-to-front limit,
        every id present, the longest distance n_ids - 1."""
        cc, python = forms("reuse_distances")
        rng = np.random.default_rng(n_ids)
        ids = np.concatenate(
            [np.arange(n_ids), rng.integers(0, n_ids, 3000), np.arange(n_ids)]
        )
        is_write = rng.random(len(ids)) < 0.5
        for flags in (None, is_write):
            got, want = (
                reuse_key(form(ids, n_ids, flags, per_access=True))
                for form in (cc, python)
            )
            assert got == want
        assert max(want[2]) == n_ids - 1

    @pytest.mark.parametrize("n_ids", [1, 2, 512, 513])
    def test_immediate_repeats(self, n_ids):
        """Every id touched two or three times in a row (distance 0),
        in a shuffled order, on both sides of the 512-id switch."""
        cc, python = forms("reuse_distances")
        rng = np.random.default_rng(n_ids)
        order = np.concatenate([rng.permutation(n_ids) for _ in range(3)])
        ids = np.repeat(order, rng.integers(2, 4, len(order)))
        is_write = rng.random(len(ids)) < 0.5
        for flags in (None, is_write):
            got, want = (
                reuse_key(form(ids, n_ids, flags, per_access=True))
                for form in (cc, python)
            )
            assert got == want
        dists = np.array(want[2])
        assert np.count_nonzero(dists == 0) == np.count_nonzero(ids[1:] == ids[:-1])
        assert np.count_nonzero(dists == -1) == n_ids

    @pytest.mark.parametrize("n", [0, 1, 600])
    def test_all_equal_keys(self, n):
        cc, python = forms("reuse_distances")
        ids, n_ids = dense_keys(np.full(n, 2**62, dtype=np.int64))
        for flags in (None, np.arange(n) % 2 == 1):
            got, want = (
                reuse_key(form(ids, n_ids, flags, per_access=True))
                for form in (cc, python)
            )
            assert got == want

    def test_public_functions_dispatch(self, monkeypatch):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 700, size=3000)
        compiled = reuse_distances(keys)
        use_kernel(monkeypatch, "python")
        np.testing.assert_array_equal(compiled, reuse_distances(keys))


# --------------------------------------------------------- trace columns

#: Register operands: mostly a small file and NO_REG, some other
#: negative ids, some far beyond any table.
column_registers = st.one_of(
    st.integers(-1, 12), st.just(-1), st.integers(-40, -2),
    st.integers(2**30, 2**31 - 1),
)

#: Addresses near 0, 2**63 and 2**64, and anywhere.
addresses = st.one_of(
    st.integers(0, 4096), st.integers(2**63 - 4096, 2**63 + 4096),
    st.integers(2**64 - 4096, 2**64 - 1), st.integers(0, 2**64 - 1),
)


@st.composite
def column_traces(draw):
    """Traces of 0-120 instructions over every opcode, tids up to 65535,
    pcs in a small range or spread up to 2**32 - 1."""
    n = draw(st.integers(0, 120))
    memory = [int(Opcode.LOAD), int(Opcode.STORE), int(Opcode.ATOMIC)]
    ops = st.one_of(st.sampled_from(memory), st.sampled_from(list(Opcode)))

    def column(values, dtype):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype)

    pcs = draw(st.sampled_from([st.integers(0, 30), st.integers(0, 2**32 - 1)]))
    return InstructionTrace(
        opcode=column(ops, np.uint8),
        dst=column(column_registers, np.int32),
        src1=column(column_registers, np.int32),
        src2=column(column_registers, np.int32),
        addr=column(addresses, np.uint64),
        size=column(st.sampled_from([0, 1, 8, 65535]), np.uint16),
        pc=column(pcs, np.uint32),
        tid=column(st.sampled_from([0, 1, 7, 65535]), np.uint16),
    )


def assert_same_columns(got, want):
    """Two ``trace_columns`` products are equal, field by field, dtype
    included."""
    for name, a, b in zip(want._fields, got, want):
        for x, y in zip(*(v if isinstance(v, tuple) else (v,) for v in (a, b))):
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype, name
                assert x.shape == y.shape, name
                assert x.tobytes() == y.tobytes(), name
            else:
                assert x == y, name


def raw_status(trace, line_shift=6):
    """The C ``trace_columns`` status on ``trace`` (0: filled, -1/-2:
    register/pc span past its table limit)."""
    forms("trace_columns")
    n = len(trace)
    outs = [
        np.empty(n, bool), np.empty(n, np.uint64), np.empty(n, np.uint16),
        np.empty(n, bool), np.empty((3, n), np.int64), np.empty(n, np.int64),
        np.empty(n, np.uint64), np.empty(n, np.int64), np.empty(n, np.int64),
        np.empty(6, np.int64),
    ]
    return native._library().trace_columns(
        *(getattr(trace, name).ctypes.data for name in TRACE_COLUMNS), n,
        trace_module._KIND.ctypes.data, line_shift,
        trace_module._TABLE_SPAN * 3 * n, trace_module._TABLE_SPAN * n,
        *(a.ctypes.data for a in outs),
    )


def simple_trace(
    n, *, dst=None, src1=None, src2=None, pc=None, addr=None, memory=True
):
    """An n-instruction trace, loads and stores alternating (or all
    IALU), with the given register, pc and address columns."""
    ops = [Opcode.LOAD, Opcode.STORE] if memory else [Opcode.IALU]
    fill = (lambda col: np.full(n, -1) if col is None else np.asarray(col))
    return InstructionTrace(
        opcode=np.resize(np.array([int(op) for op in ops]), n),
        dst=fill(dst), src1=fill(src1), src2=fill(src2),
        addr=np.arange(n, dtype=np.uint64) * np.uint64(24) if addr is None
        else np.asarray(addr, dtype=np.uint64),
        size=np.full(n, 8), pc=np.arange(n) if pc is None else pc,
        tid=np.zeros(n),
    )


class TestTraceColumnsKernel:
    @DIFF_SETTINGS
    @given(
        trace=column_traces(),
        line_shift=st.one_of(st.sampled_from([0, 6, 12, 63]), st.integers(0, 63)),
    )
    def test_matches_python_oracle(self, trace, line_shift):
        cc, python = forms("trace_columns")
        assert_same_columns(cc(trace, line_shift), python(trace, line_shift))

    @pytest.mark.parametrize("make", [
        InstructionTrace.empty,
        lambda: simple_trace(9, memory=False),
        lambda: simple_trace(9),
        lambda: simple_trace(1, dst=[3]),
        lambda: simple_trace(6, src1=[0, 5, 5, 0, 2, 2]),
        lambda: simple_trace(7, addr=np.uint64(2**64 - 1) - np.array(
            [0, 64, 64, 0, 640, 1, 0], dtype=np.uint64
        )),
        lambda: simple_trace(8, addr=(np.array(
            [3, 0, 255, 7, 1, 128, 2, 0], dtype=np.uint64
        ) << np.uint64(56)) | np.uint64(0x1234)),
        lambda: simple_trace(9, addr=np.uint64(2**63) + np.array(
            [5, 2**63 - 1, 0, 64, 2**62, 0, 2**63 - 64, 1, 5], dtype=np.uint64
        )),
        lambda: simple_trace(40, addr=np.full(40, 2**63 + 12345)),
        lambda: simple_trace(3000, addr=np.random.default_rng(3).integers(
            0, 2**64 - 1, 3000, dtype=np.uint64, endpoint=True
        )),
    ], ids=[
        "empty", "no_memory_ops", "all_no_reg", "one", "sparse_regs",
        "lines_first_touched_descending_near_2**64",
        "lines_differing_only_in_the_top_byte", "lines_at_and_past_2**63",
        "every_access_on_one_line", "many_random_lines",
    ])
    def test_boundary_traces_match_python_form(self, make):
        """Edge traces, among them the line sort's: keys that differ in
        one digit only (the others skipped), keys at and past 2**63, one
        line, and thousands of lines over every digit."""
        cc, python = forms("trace_columns")
        trace = make()
        for line_shift in (0, 6, 63):
            got = cc(trace, line_shift)
            assert_same_columns(got, python(trace, line_shift))
            uniq = got.lines[0]
            assert (uniq[1:] > uniq[:-1]).all()
        assert raw_status(trace) == 0

    @pytest.mark.parametrize("n", [2, 5])
    def test_span_one_past_the_table_limit_runs_python_form(self, n):
        """Register values spanning 12 n slots (pcs 4 n) fill in C; one
        more slot returns the kernel's status and the Python form runs."""
        cc, python = forms("trace_columns")
        limit = trace_module._TABLE_SPAN
        for extra, status in ((0, 0), (1, -1)):
            regs = np.full(n, -1)
            regs[0] = limit * 3 * n - 2 + extra
            trace = simple_trace(n, src2=regs)
            assert raw_status(trace) == status
            assert_same_columns(cc(trace, 6), python(trace, 6))
        for extra, status in ((0, 0), (1, -2)):
            pcs = np.full(n, 2**32 - 1)
            pcs[0] -= limit * n - 1 + extra
            trace = simple_trace(n, pc=pcs)
            assert raw_status(trace) == status
            assert_same_columns(cc(trace, 6), python(trace, 6))

    def test_table_reads_kernel_once_and_memoises_scalars(self, monkeypatch):
        calls = []
        python = native.python_form("trace_columns")
        monkeypatch.setattr(native, "resolve", lambda name: (
            lambda *a: calls.append(a) or python(*a), "python"
        ))
        trace = simple_trace(40, dst=np.arange(40) % 7)
        cols = TraceColumns(trace)
        _ = cols.memory_mask, cols.registers, cols.pcs, cols.accesses
        assert cols.lines is cols.lines
        assert len(calls) == 1 and calls[0][1] == 6  # 64-byte lines
        assert trace._memo["thread_count"] == 1
        assert trace._memo[("footprint_lines", 6)] == len(cols.lines[0])


# ------------------------------------------------------- per-PC strides

@st.composite
def stride_inputs(draw):
    """Memory ops of 1-6 pcs (mixed with compute ops), addresses around
    0, 2**63 and 2**64 so strides wrap and reach INT64_MIN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 200))
    n_pcs = draw(st.integers(1, 6))
    mask = rng.random(n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    ids = rng.integers(0, n_pcs, size=n)
    m = int(mask.sum())
    bases = np.array([0, 2**63, 2**64 - 8, 2**62], dtype=np.uint64)
    addrs = bases[rng.integers(0, len(bases), size=m)] + rng.choice(
        np.array([0, 8, 16, 64, 4096], dtype=np.uint64), size=m
    )
    if draw(st.booleans()):   # one pc walks with a fixed stride
        addrs = np.arange(m, dtype=np.uint64) * np.uint64(24)
    is_write = rng.random(m) < 0.4
    return ids, mask, addrs, is_write, n_pcs


def stride_key(result):
    le, regular, abs_strides = result
    assert le.dtype == regular.dtype == abs_strides.dtype == np.int64
    return le.tolist(), regular.tolist(), abs_strides.tolist()


class TestStrideKernel:
    @DIFF_SETTINGS
    @given(args=stride_inputs())
    def test_matches_python_oracle(self, args):
        cc, python = forms("pc_strides")
        assert stride_key(cc(*args)) == stride_key(python(*args))

    def test_int64_min_stride_and_wrap(self):
        """Strides of +-2**63 are INT64_MIN and keep numpy's
        abs(INT64_MIN) (< 0, so within every bound); 0 up to 2**64 - 8
        wraps to -8, and back to +8."""
        cc, python = forms("pc_strides")
        addrs = np.array([0, 2**63, 0, 2**64 - 8, 0, 2**63], dtype=np.uint64)
        args = (np.zeros(6, np.int64), np.ones(6, bool), addrs,
                np.zeros(6, bool), 1)
        got = stride_key(cc(*args))
        assert got == stride_key(python(*args))
        le, regular, abs_strides = got
        int64_min = -(2**63)
        assert abs_strides == [int64_min, int64_min, 8, 8, int64_min]
        assert le[0] == 3   # every INT64_MIN stride counts as <= 0
        assert regular == [1, 5, 0, 0]   # only the second INT64_MIN repeats

    def test_no_memory_ops_and_last_pc(self):
        cc, python = forms("pc_strides")
        for mask in (np.zeros(5, bool), np.ones(5, bool)):
            m = int(mask.sum())
            args = (np.full(5, 9, np.int64), mask,
                    np.arange(m, dtype=np.uint64), np.ones(m, bool), 10)
            assert stride_key(cc(*args)) == stride_key(python(*args))


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


@st.composite
def classify_boundaries(draw):
    """Boundary batches of phase A's L1 walk: zero streams, one-access
    streams, lines rewritten into the last set (``n_sets - 1``, from
    negative line ids too) and the extreme int64 line ids."""
    n_sets, ways = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    sizes = draw(st.lists(st.sampled_from([0, 1, 1, 2, 9]), max_size=4))
    extremes = [np.iinfo(np.int64).min, np.iinfo(np.int64).max]
    lines = []
    for _ in range(sum(sizes)):
        k = draw(st.integers(-20, 20))
        lines.append(draw(st.sampled_from(
            [k, k * n_sets + n_sets - 1, *extremes]
        )))
    writes = draw(st.lists(
        st.booleans(), min_size=len(lines), max_size=len(lines)
    ))
    off = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, dtype=np.int64, out=off[1:])
    return (
        np.array(lines, dtype=np.int64), np.array(writes, dtype=bool), off,
        n_sets, ways,
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
        assert np.array_equal(got.stats, want.stats)
        assert len(got.stats) == len(off) - 1

    @DIFF_SETTINGS
    @given(batch=classify_boundaries())
    def test_boundary_inputs_match_python_form(self, batch):
        forms("classify_streams")  # the public wrapper runs the C form
        lines, writes, off, n_sets, ways = batch
        got = classify_streams(lines, writes, off, n_sets=n_sets, ways=ways)
        want = classify_steps(lines, writes, off, n_sets=n_sets, ways=ways)
        np.testing.assert_array_equal(got.hit, want.hit)
        np.testing.assert_array_equal(got.wb_line, want.wb_line)
        assert np.array_equal(got.stats, want.stats)
        assert len(got.stats) == len(off) - 1

    @pytest.mark.parametrize("n_sets, ways", [(0, 2), (2, 0), (-1, -1)])
    def test_bad_geometry_raises_under_both_forms(self, n_sets, ways):
        lines = np.arange(4, dtype=np.int64)
        writes = np.zeros(4, dtype=bool)
        off = np.array([0, 4], dtype=np.int64)
        for form in forms("classify_streams"):
            with pytest.raises(ConfigError):
                form(lines, writes, off, n_sets=n_sets, ways=ways)


# ------------------------------------------------------ phase-B contention

class PhaseAProduct:
    """What the phase-B kernel reads of a phase-A product: the
    :data:`~repro.nmcsim._native.COLUMNS` arrays and their addresses."""

    def __init__(self, columns):
        self.__dict__.update(columns)
        self.addresses = [columns[name].ctypes.data for name in COLUMNS]


#: Few distinct times and latencies, so events tie and rows reopen.
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0])


@st.composite
def contend_boundaries(draw):
    """Boundary batches of phase B: no points, points with zero streams,
    one-event streams, and routing rewritten to bank ``n_banks - 1`` and
    vault ``n_vaults - 1``, the largest indices each point's bank and bus
    state hold."""
    points, params, iparams = [], [], []
    for _ in range(draw(st.integers(0, 3))):
        n_banks, n_vaults = draw(st.integers(1, 16)), draw(st.integers(1, 4))
        sizes = draw(st.lists(st.sampled_from([1, 1, 2, 6]), max_size=4))
        n = sum(sizes)

        def column(values, size=n, dtype=np.int64):
            return np.array(
                draw(st.lists(values, min_size=size, max_size=size)), dtype
            )

        cols = {
            "off": np.concatenate(([0], np.cumsum(sizes))).astype(np.int64),
            "block": column(st.integers(0, 3)),
            "vault": column(st.integers(0, n_vaults - 1)),
            "bank": column(st.integers(0, n_banks - 1)),
            "wblock": column(st.integers(0, 3)),
            "wvault": column(st.integers(0, n_vaults - 1)),
            "wbank": column(st.integers(-1, n_banks - 1)),
            "dnext": column(_TIMES, dtype=np.float64),
            "t0": column(_TIMES, len(sizes), np.float64),
            "tail": column(_TIMES, len(sizes), np.float64),
        }
        edge = column(st.booleans(), dtype=bool)
        cols["bank"][edge] = n_banks - 1
        cols["vault"][edge] = n_vaults - 1
        cols["wbank"][edge & (cols["wbank"] >= 0)] = n_banks - 1
        cols["wvault"][edge] = n_vaults - 1
        points.append(PhaseAProduct(cols))
        params.append(draw(st.lists(_TIMES, min_size=9, max_size=9)))
        iparams.append([
            draw(st.integers(0, 1)), draw(st.integers(1, 4)),
            n_banks, n_vaults, len(sizes),
        ])
    return (
        points,
        np.array(params, dtype=np.float64).reshape(-1, 9),
        np.array(iparams, dtype=np.int64).reshape(-1, 5),
    )


class TestContendKernel:
    @DIFF_SETTINGS
    @given(batch=contend_boundaries())
    @example(batch=([], np.empty((0, 9)), np.empty((0, 5), np.int64)))
    def test_boundary_inputs_match_python_form(self, batch):
        cc, python = forms("contend_packed_multi")
        points, params, iparams = batch
        got, want = (form(points, params, iparams) for form in (cc, python))
        assert len(got) == iparams[:, 4].sum()
        assert got.tobytes() == want.tobytes()


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


@st.composite
def digest_boundaries(draw):
    """Boundary traces of the stream digests: one instruction, no memory
    ops at all, sparse thread ids up to 65535 (the largest a uint16 tid
    holds, which sizes the per-thread scratch), and PE slices of one PE
    and of more PEs than threads."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["one", "compute", "sparse"]))
    n_tids = 1 if kind == "one" else draw(st.integers(1, 6))
    tids = set(draw(st.lists(
        st.sampled_from([0, 1, 255, 256, 65534, 65535]),
        min_size=n_tids, max_size=n_tids,
    )))
    if kind == "sparse":
        tids.add(65535)
    pool = _COMPUTE_OPS if kind == "compute" else _COMPUTE_OPS + _MEMORY_OPS
    n = 1 if kind == "one" else draw(st.integers(len(tids), 60))
    tid = rng.permutation(
        np.concatenate((sorted(tids), rng.choice(sorted(tids), n - len(tids))))
    ).astype(np.uint16)
    opcode = rng.choice(pool, size=n).astype(np.uint8)
    addr = rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64, endpoint=True)
    n_pes = draw(st.one_of(
        st.just(1), st.integers(len(tids) + 1, len(tids) + 64)
    ))
    kwargs = dict(
        n_pes=n_pes,
        cycle_ns=1.0 / draw(st.sampled_from([1.1, 1.25, 3.0])),
        line_shift=draw(st.integers(0, 63)),
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

    @DIFF_SETTINGS
    @given(args=digest_boundaries())
    def test_boundary_inputs_match_python_form(self, args):
        cc, python = forms("stream_digests")
        cols, kwargs = args
        got, want = (form(*cols, **kwargs) for form in (cc, python))
        assert got.pe == want.pe
        assert got.n_instructions == want.n_instructions
        assert len(got) == min(kwargs["n_pes"], len(np.unique(cols[2])))
        for name in ("off", "lines", "writes", "compute_ns", "pref"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name


# ------------------------------------------------- phase-A event packer

@functools.lru_cache(maxsize=None)
def last_bank_lines(line_shift, block_shift, n_vaults, banks_per_vault):
    """Lines that route to the last bank of the last vault."""
    lines = np.arange(2**18, dtype=np.int64)
    vault, bank, _ = route_addresses(
        lines.astype(np.uint64) << np.uint64(line_shift), block_shift,
        n_vaults, banks_per_vault,
    )
    edge = lines[(vault == n_vaults - 1) & (bank == banks_per_vault - 1)]
    assert len(edge), "no line reaches the last bank"
    return edge


@st.composite
def pack_boundaries(draw):
    """Boundary points of the phase-A packer: zero streams, streams
    without memory ops, one-access streams, streams whose every access
    after the first hits, lines (and so dirty victims) routed to the
    last vault and bank, and the extreme int64 line ids."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    line_shift = draw(st.integers(0, 8))
    geometry = dict(
        line_shift=line_shift,
        block_shift=line_shift + draw(st.integers(0, 4)),
        n_vaults=draw(st.integers(1, 32)),
        banks_per_vault=draw(st.integers(1, 16)),
        l1_cycle_ns=draw(st.sampled_from([0.0, 0.5, 0.8, 1.0 / 3.0])),
    )
    edge = last_bank_lines(*(geometry[k] for k in (
        "line_shift", "block_shift", "n_vaults", "banks_per_vault"
    )))
    extremes = [np.iinfo(np.int64).min, np.iinfo(np.int64).max]
    lines, writes, compute = [], [], []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(
            ["quiet", "one", "repeat", "edge", "mixed"]
        ))
        n = {"quiet": 0, "one": 1}.get(kind, draw(st.integers(2, 40)))
        if kind == "repeat":
            part = np.full(n, draw(st.sampled_from([0, 7, *extremes])))
        elif kind == "edge":
            part = rng.choice(edge, size=n)
        else:
            part = rng.choice(
                np.concatenate((edge[:4], np.arange(12), extremes)), size=n
            )
        lines.append(part)
        writes.append(rng.random(n) < 0.5)
        compute.append(rng.choice([0.0, 0.8, 2.5, 1.0 / 3.0], size=n + 1))
    off = np.zeros(len(lines) + 1, dtype=np.int64)
    np.cumsum([len(x) for x in lines], dtype=np.int64, out=off[1:])
    cat = (
        lambda parts, dtype:
        np.concatenate(parts).astype(dtype) if parts else np.empty(0, dtype)
    )
    streams = _Streams(
        list(range(len(lines))), [len(x) + 3 for x in lines], off,
        cat(lines, np.int64), cat(writes, bool), cat(compute, np.float64),
        cat([np.concatenate(([0.0], np.cumsum(c))) for c in compute],
            np.float64),
    )
    cls = classify_steps(
        streams.lines, streams.writes, off,
        n_sets=draw(st.integers(1, 4)), ways=draw(st.integers(1, 4)),
    )
    return streams, cls, geometry


#: The segments holding one entry per miss event.
PACK_EVENT_SEGS = ("block", "vault", "bank", "wblock", "wvault", "wbank", "dnext")


def check_phase_a(lens, ints, floats, *, n_streams, n_vaults, banks_per_vault):
    """Assert the layout and index contract of one phase-A product, as
    phase B reads it unchecked (:class:`_PhaseA` and
    ``contend_packed_multi``); returns the product."""
    for blob, dtype in ((lens, np.int64), (ints, np.int64), (floats, np.float64)):
        assert blob.dtype == dtype and blob.ndim == 1
        assert blob.flags.c_contiguous
    n = lens.tolist()
    assert len(n) == len(_SEGS) and min(n) >= 0, n
    size = dict(zip(_SEGS, n))
    assert len({size[name] for name in PACK_EVENT_SEGS}) == 1, n
    assert size["off"] == size["sidx"] + 1, n
    assert size["t0"] == size["tail"] == size["sidx"], n
    assert size["f0_val"] == size["f0_idx"], n
    assert size["meta"] == _META_LEN and size["vault_counts"] == n_vaults, n
    assert sum(size[name] for name in _INT_SEGS) == len(ints)
    assert sum(size[name] for name in _FLOAT_SEGS) == len(floats)
    product = _PhaseA(lens, ints, floats)
    n_banks = n_vaults * banks_per_vault
    assert product.off[0] == 0 and product.off[-1] == len(product.block)
    assert np.all(np.diff(product.off) > 0)
    for name, lo, hi in (
        ("vault", 0, n_vaults), ("wvault", 0, n_vaults),
        ("bank", 0, n_banks), ("wbank", -1, n_banks),
    ):
        values = getattr(product, name)
        assert np.all((lo <= values) & (values < hi)), name
    assert product.vault_counts.sum() == (
        len(product.block) + np.count_nonzero(product.wbank >= 0)
    )
    assert len(product.sidx) + len(product.f0_idx) == n_streams
    assert product.meta[0] == n_streams
    return product


class TestPackKernel:
    @DIFF_SETTINGS
    @given(point=pack_boundaries())
    def test_boundary_inputs_match_python_form(self, point):
        cc, python = forms("pack_events")
        streams, cls, geometry = point
        got, want = (form(streams, cls, **geometry) for form in (cc, python))
        for a, b, name in zip(got, want, ("lens", "ints", "floats")):
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name
        for product in (got, want):
            check_phase_a(
                *product, n_streams=len(streams),
                n_vaults=geometry["n_vaults"],
                banks_per_vault=geometry["banks_per_vault"],
            )

    @pytest.mark.parametrize("arch", ["hmc", "dse-geometry", "hbm2"])
    def test_campaign_products_identical_under_both_forms(
        self, monkeypatch, arch
    ):
        """Every phase-A product of atax's CCD campaign at scale 4 (stream
        digests, L1 walk and packer in one form end to end) is byte-equal
        under both forms and keeps the layout phase B reads."""
        forms("pack_events")
        cfg = {
            "hmc": default_nmc_config(),
            "dse-geometry": default_nmc_config().replace(
                n_pes=16, l1_lines=8, l1_ways=4
            ),
            "hbm2": NMCConfig.from_backend("hbm2"),
        }[arch]
        wl = get_workload("atax")
        configs = central_composite(ParameterSpace.of_workload(wl))
        products = {}
        for form in ("cc", "python"):
            with monkeypatch.context() as patch:
                use_kernel(patch, form)
                products[form] = [
                    NMCSimulator(cfg)._compute_phase_a(wl.generate(
                        config, scale=4.0, seed=config_seed(wl.name, config)
                    ))
                    for config in configs
                ]
        for got, want in zip(products["cc"], products["python"]):
            for name in ("lens", "ints", "floats"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.tobytes() == b.tobytes(), name
            for product in (got, want):
                check_phase_a(
                    product.lens, product.ints, product.floats,
                    n_streams=int(product.meta[0]), n_vaults=cfg.n_vaults,
                    banks_per_vault=cfg.banks_per_vault,
                )


# ------------------------------------------------------------ CART trees

#: Columns drawn fresh: tie-heavy small integers, a mix of 0.0 / -0.0 /
#: 1.0, constants, or continuous.
FRESH_COLUMNS = {
    "normal": lambda rng, n: rng.normal(size=n),
    "ints": lambda rng, n: rng.integers(0, 4, size=n).astype(np.float64),
    "zeros": lambda rng, n: rng.choice([0.0, -0.0, 1.0], size=n),
    "const": lambda rng, n: np.full(n, rng.normal()),
}

#: Columns made from an earlier one: an exact copy and order-preserving
#: images share its rank class, a negated copy must not (unless it is
#: constant), and a rounded copy merges some of its values.
DERIVED_COLUMNS = {
    "copy": lambda x: x.copy(),
    "scaled": lambda x: 2.0 * x,
    "exp": np.exp,
    "negated": lambda x: -x,
    "rounded": lambda x: np.round(x, 1),
}


def draw_columns(draw, rng, n, p):
    """An ``(n, p)`` matrix of :data:`FRESH_COLUMNS` and
    :data:`DERIVED_COLUMNS` kinds (the first column fresh; a derived one
    is made from a fresh one, so no chain of images overflows)."""
    kinds = st.sampled_from(sorted(FRESH_COLUMNS) + sorted(DERIVED_COLUMNS))
    columns, fresh = [], []
    for kind in draw(st.lists(kinds, min_size=p, max_size=p)):
        if kind in FRESH_COLUMNS or not fresh:
            fresh.append(FRESH_COLUMNS.get(kind, FRESH_COLUMNS["normal"])(rng, n))
            columns.append(fresh[-1])
        else:
            source = fresh[draw(st.integers(0, len(fresh) - 1))]
            columns.append(DERIVED_COLUMNS[kind](source))
    return np.column_stack(columns)


@st.composite
def tree_inputs(draw):
    """A training set plus tree parameters.  Columns are tie-heavy and
    rank-class heavy (:func:`draw_columns`); rows may be a bootstrap
    resample (duplicates)."""
    n = draw(st.integers(1, 200))
    p = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = draw_columns(draw, rng, n, p)
    y = FRESH_COLUMNS[draw(st.sampled_from(["normal", "ints", "const"]))](rng, n)
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


@st.composite
def plan_inputs(draw):
    """One ``build_trees`` call: data, a plan's sample and its trees, at
    the kernel's boundaries.  ``case`` forces one: one row, one column,
    every column in one rank class, every column in its own class, k = p
    everywhere, ``min_samples_leaf`` above half the plan's rows (no valid
    cut), stumps, sparse draws (up to 48 columns and 200 rows, repeated
    classes, k of 1 to 3 and unbounded depth, so a class goes undrawn for
    many levels and its order row is brought up to date across many
    splits at once, above the nodes small enough to sort directly)
    and a chain (``y = 4**i`` over ``x = i``: each row outweighs all the
    rows below it, so every split peels the largest row off and the tree
    is as deep as it can be);
    otherwise the data is :func:`draw_columns`'.  A plan has one tree or
    many, on one seed (as a forest's) or on several."""
    case = draw(st.sampled_from([
        "mixed", "n=1", "p=1", "one class", "own classes", "k=p",
        "wide leaf", "stumps", "sparse draws", "chain",
    ]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if case == "p=1":
        p = 1
    elif case == "sparse draws":
        p = draw(st.integers(16, 48))
    else:
        p = draw(st.integers(2, 16))
    if case == "n=1":
        N = 1
    elif case == "sparse draws":
        N = draw(st.integers(p, 200))
    else:
        N = draw(st.integers(p, 80))
    if case == "one class":
        base = FRESH_COLUMNS[draw(st.sampled_from(["normal", "ints", "const"]))](rng, N)
        kinds = st.sampled_from(["copy", "scaled", "exp"])
        X = np.column_stack([
            DERIVED_COLUMNS[draw(kinds)](base) for _ in range(p)
        ])
    elif case == "own classes":
        # column j peaks at row j: no two share a rank row
        X = rng.normal(size=(N, p)) + 10.0 * np.eye(N, p)
    elif case == "chain":
        # the chain's column, its mirror image (another class) and noise
        i = np.arange(N, dtype=np.float64)
        X = np.column_stack([i, -i])
        if p > 2:
            X = np.column_stack([X, draw_columns(draw, rng, N, p - 2)])
    else:
        X = draw_columns(draw, rng, N, p)
    if case == "chain":
        y = 4.0 ** np.arange(N)
    elif draw(st.booleans()):
        y = rng.normal(size=N)
    else:
        y = rng.integers(0, 3, size=N).astype(np.float64)
    sample = None
    if draw(st.booleans()):
        sample = rng.integers(0, N, size=draw(st.integers(1, 2 * N)))
    n = N if sample is None else len(sample)
    shared_seed = draw(st.integers(0, 2**32 - 1))
    trees = []
    for _ in range(draw(st.sampled_from([1, 2, 7]))):
        if case == "k=p":
            k = p
        elif case == "sparse draws":
            k = draw(st.integers(1, 3))
        else:
            k = draw(st.integers(1, p))
        if case == "stumps":
            max_depth = 1
        elif case in ("sparse draws", "chain"):
            max_depth = None
        else:
            max_depth = draw(st.sampled_from([None, 1, 3]))
        if case == "wide leaf":
            leaf = n // 2 + 1
        elif case in ("sparse draws", "chain"):
            leaf = draw(st.sampled_from([1, 1, 2]))
        else:
            leaf = draw(st.sampled_from([1, 2, 5]))
        split = draw(st.sampled_from([2, 3, 10]))
        seed = shared_seed if draw(st.booleans()) else draw(st.integers(0, 2**32 - 1))
        trees.append((k, max_depth, split, leaf, seed))
    return case, X, y, sample, trees


def build_plan(form, X, y, sample, trees):
    """``form`` of ``build_trees`` over ``X``'s rank classes, each tree on
    a fresh generator from its seed: the fitted arrays and the
    generators' end states."""
    columns = np.ascontiguousarray(X.T)
    rngs = [np.random.default_rng(tree[-1]) for tree in trees]
    fitted = form(
        columns, y, *tree_module._rank_classes(columns), sample,
        [(*tree[:-1], rng) for tree, rng in zip(trees, rngs)],
    )
    return fitted, [rng.bit_generator.state for rng in rngs]


def plan_key(fitted):
    return [[(a.dtype.str, a.tobytes()) for a in tree] for tree in fitted]


class TestTreeKernel:
    @DIFF_SETTINGS
    @given(args=tree_inputs())
    def test_matches_python_oracle(self, monkeypatch, args):
        forms("build_trees")
        X, y, params, seed = args
        assert tree_key(fit_tree(monkeypatch, "cc", X, y, params, seed)) == (
            tree_key(fit_tree(monkeypatch, "python", X, y, params, seed))
        )

    @DIFF_SETTINGS
    @given(args=plan_inputs())
    def test_plan_boundaries_match_python_form(self, args):
        """Whole plans through both forms: equal trees, importances and
        generator end states; every node index within its tree."""
        cc, python = forms("build_trees")
        case, X, y, sample, trees = args
        N, p = X.shape
        ranks, classes = tree_module._rank_classes(np.ascontiguousarray(X.T))
        if case in ("n=1", "one class"):
            assert len(ranks) == 1 and not classes.any()
        if case == "own classes":
            assert len(ranks) == p
        got, got_states = build_plan(cc, X, y, sample, trees)
        want, want_states = build_plan(python, X, y, sample, trees)
        assert plan_key(got) == plan_key(want)
        assert got_states == want_states
        n = N if sample is None else len(sample)
        for feature, threshold, left, right, value, importance in got:
            count = len(value)
            assert 1 <= count <= 2 * n - 1
            split = left >= 0
            assert np.all((feature >= -1) & (feature < p))
            assert np.all(split == (feature >= 0)) and np.all(split == (right >= 0))
            assert np.all((left[split] > np.flatnonzero(split))
                          & (right[split] < count))
            assert importance.shape == (p,)
        if case == "wide leaf":
            assert all(len(tree[4]) == 1 for tree in got)
        if case == "chain" and sample is None:
            for (k, _depth, split, leaf, _seed), tree in zip(trees, got):
                if k == p and leaf == split - 1 == 1:
                    assert len(tree[4]) == 2 * N - 1

    @pytest.mark.parametrize("case", [
        "class", "negative class", "sample", "negative sample", "rank",
        "k", "no rows", "shape",
    ])
    def test_bad_indices_raise(self, case):
        """The compiled form checks its index contract before it reads:
        an out-of-range class, sample row, rank or k, or an empty plan,
        raises MLError instead of reading out of bounds."""
        cc, _python = forms("build_trees")
        rng = np.random.default_rng(0)
        columns = rng.normal(size=(3, 10))
        ranks, classes = tree_module._rank_classes(columns)
        y, sample, k = rng.normal(size=10), None, 2
        if case == "class":
            classes = classes.copy()
            classes[1] = len(ranks)
        elif case == "negative class":
            classes = -np.ones_like(classes)
        elif case == "sample":
            sample = np.array([0, 10])
        elif case == "negative sample":
            sample = np.array([-1, 3])
        elif case == "rank":
            ranks = ranks.copy()
            ranks[0, 4] = 10
        elif case == "k":
            k = 4
        elif case == "no rows":
            sample = np.zeros(0, dtype=np.int64)
        else:
            y = y[:9]
        with pytest.raises(MLError):
            cc(columns, y, ranks, classes, sample,
               [(k, None, 2, 1, np.random.default_rng(0))])

    def test_sums_match_numpy(self):
        """The C node sums are np.sum's pairwise summation, bit for bit,
        across its sequential (< 8), unrolled (<= 128) and split forms."""
        forms("build_trees")
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
        cc, python = forms("build_trees")
        rng = np.random.default_rng(3)
        columns = np.arange(13.0)[None, :]
        for _ in range(4000):
            y = 1000.0 + 1e-3 * rng.normal(size=13)
            got, want = (
                form(columns, y, columns.astype(np.int64), np.zeros(1, int),
                     None, [(1, 1, 2, 1, np.random.default_rng(0))])[0][5]
                for form in (cc, python)
            )
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_forest_identical_under_both_forms(self, monkeypatch, jobs):
        """Duplicate, scaled and negated columns share or split rank
        classes; the forest is the same under both forms either way."""
        forms("build_trees")
        rng = np.random.default_rng(2)
        base = np.column_stack([
            rng.normal(size=120), rng.integers(0, 3, size=120),
            np.zeros(120), rng.normal(size=120),
        ])
        X = np.column_stack([
            base, base[:, 0], 2.0 * base[:, 3], -base[:, 1],
            np.exp(base[:, 0]), -base[:, 3],
        ])
        y = X[:, 0] * (X[:, 1] + 1) + 0.1 * rng.normal(size=120)
        keys = []
        for form in ("cc", "python"):
            with monkeypatch.context() as patch:
                use_kernel(patch, form)
                forest = RandomForestRegressor(
                    n_estimators=8, max_features="sqrt", random_state=5,
                    jobs=jobs,
                ).fit(X, y)
            keys.append(forest_key(forest))
        assert keys[0] == keys[1]


# ------------------------------------------------------ forest descent

#: Split thresholds and row values share a few values, so ties (which go
#: left) are common.
DESCEND_VALUES = np.array([-1.0, 0.0, 0.5, 1.0])


@st.composite
def descend_inputs(draw):
    """A node table, its roots and rows for ``descend``.  ``case`` forces
    one tree, a root-only tree, zero rows, NaN in the rows (it goes
    right), or more rows than the numpy form walks in one block; rows
    are C-ordered, F-ordered or every other row of a larger matrix."""
    case = draw(st.sampled_from(
        ["mixed", "one tree", "root only", "no rows", "nan", "blocks"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 6))
    n_trees = 1 if case in ("one tree", "root only") else draw(st.integers(1, 5))
    feature, threshold, left, right, roots = [], [], [], [], []

    def grow(depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        if case != "root only" and depth < 6 and rng.random() < 0.7:
            feature[node] = int(rng.integers(p))
            threshold[node] = float(rng.choice(DESCEND_VALUES))
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
        return node

    for _ in range(n_trees):
        roots.append(grow(0))
    if case == "no rows":
        n = 0
    elif case == "blocks":
        n = tree_module._DESCEND_BLOCK // n_trees + draw(st.integers(1, 3))
    else:
        n = draw(st.integers(1, 40))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    X = rng.choice(DESCEND_VALUES, size=(2 * n if layout == "strided" else n, p))
    if case == "nan" or draw(st.booleans()):
        X[rng.random(X.shape) < 0.3] = np.nan
    X = X[::2] if layout == "strided" else np.asarray(X, order=layout)
    nodes = (
        np.array(feature, dtype=np.int64), np.array(threshold),
        np.array(left, dtype=np.int64), np.array(right, dtype=np.int64),
    )
    return nodes, np.array(roots, dtype=np.int64), X


def stump_table():
    """Root 0 splits on feature 0 into node 1, which splits on feature 1
    into leaves 2 and 3; node 4 is the root's right leaf."""
    return (
        np.array([0, 1, -1, -1, -1]), np.array([0.5, 0.5, 0.0, 0.0, 0.0]),
        np.array([1, 2, -1, -1, -1]), np.array([4, 3, -1, -1, -1]),
    )


class TestDescendKernel:
    @DIFF_SETTINGS
    @given(args=descend_inputs())
    def test_boundaries_match_python_form(self, args):
        """Equal leaves from both forms, and every leaf a leaf of its
        tree: NaN goes right as numpy's ``<=`` sends it."""
        cc, python = forms("descend")
        nodes, roots, X = args
        got = cc(nodes, roots, X)
        want = python(nodes, roots, X)
        assert got.dtype == want.dtype and got.shape == (len(roots), len(X))
        assert np.array_equal(got, want)
        assert np.all(nodes[2][got] < 0)

    @pytest.mark.parametrize("case", [
        "feature", "negative feature", "left at its own id",
        "right below its own id", "left past the count",
        "right past the count", "root", "negative root",
    ])
    def test_bad_indices_raise(self, case):
        """The compiled form checks the table before it reads: a split
        feature out of range, a child id at or below its node's or past
        the table, or a root out of range raises MLError instead of
        reading out of bounds or walking in a loop."""
        cc, _python = forms("descend")
        feature, threshold, left, right = stump_table()
        roots = np.array([0])
        if case == "feature":
            feature[1] = 2
        elif case == "negative feature":
            feature[0] = -1
        elif case == "left at its own id":
            left[1] = 1
        elif case == "right below its own id":
            right[1] = 0
        elif case == "left past the count":
            left[0] = 5
        elif case == "right past the count":
            right[1] = 5
        elif case == "root":
            roots = np.array([0, 5])
        else:
            roots = np.array([-1])
        with pytest.raises(MLError, match="out of range"):
            cc((feature, threshold, left, right), roots, np.zeros((3, 2)))

    def test_damaged_model_raises(self):
        """A forest whose node table was damaged after fitting (as a
        corrupted pickle would be) refuses to predict."""
        forms("descend")
        X, y = np.random.default_rng(0).random((40, 3)), np.arange(40.0)
        forest = RandomForestRegressor(n_estimators=3, random_state=0, jobs=1)
        forest.fit(X, y)
        feature, threshold, left, right = forest.nodes_
        split = int(np.flatnonzero(left >= 0)[0])
        left = left.copy()
        left[split] = split
        forest.nodes_ = (feature, threshold, left, right)
        with pytest.raises(MLError):
            forest.predict(X)


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
        forms("build_trees")
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
        forms("build_trees")
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
            fn, backend = native.resolve("build_trees")
            native.resolve("build_trees")
        finally:
            tree_module.log.removeHandler(handler)
        assert [r.getMessage() for r in records] == [
            "the C feature draw does not replay this numpy's "
            "Generator.choice; trees are built by the Python form"
        ]
        assert (fn, backend) == (native.python_form("build_trees"), "python")
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

@st.composite
def fill_boundaries(draw):
    """One ``threads()`` call at the trace fill's edges: one instruction,
    one thread, templates without memory ops, register ids at both ends
    of int32 (and no register), sizes of 1 and 65535, addresses of 0 and
    2**64 - 1, tids of 0 and 65535, zero counts and pcs reaching
    2**32 - 1."""
    n_seg = draw(st.sampled_from([1, 2, 5]))
    tid = st.sampled_from([0, 2**16 - 1])
    tids = draw(st.lists(tid, min_size=n_seg, max_size=n_seg))
    reg = st.sampled_from([NO_REG, 0, -(2**31), 2**31 - 1])
    memory = draw(st.booleans())
    runs = []
    for _ in range(draw(st.integers(1, 2))):
        ops = []
        for _ in range(draw(st.sampled_from([1, 3]))):
            regs = {r: draw(reg) for r in ("dst", "src1", "src2")}
            if memory and draw(st.booleans()):
                ops.append(TemplateOp(
                    draw(st.sampled_from(sorted(MEMORY_OPCODES))), addr="a",
                    size=draw(st.sampled_from([1, 2**16 - 1])), **regs,
                ))
            else:
                ops.append(TemplateOp(draw(st.sampled_from(
                    [op for op in Opcode if op not in MEMORY_OPCODES]
                )), **regs))
        template = LoopTemplate(ops)
        counts = draw(st.lists(
            st.sampled_from([1, 0, 3]), min_size=n_seg, max_size=n_seg
        ))
        address = st.sampled_from([0, 2**64 - 1])
        addresses = {
            key: np.array(draw(st.lists(
                address, min_size=sum(counts), max_size=sum(counts)
            )), np.uint64)
            for key in dict.fromkeys(template._slot_keys)
        }
        pc_base = draw(st.sampled_from([0, 2**32 - len(template)]))
        runs.append((template, counts, addresses, pc_base))
    return "threads", tids, runs


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

    @DIFF_SETTINGS
    @given(action=fill_boundaries())
    def test_boundary_inputs_match_python_form(self, monkeypatch, action):
        forms("fill_trace")
        cc, py = (
            finished(monkeypatch, form, lambda: replay([action]).finish())
            for form in ("cc", "python")
        )
        _, _tids, runs = action
        assert len(cc) == sum(sum(c) * len(t) for t, c, _a, _pc in runs)
        for name in TRACE_COLUMNS:
            a, b = getattr(cc, name), getattr(py, name)
            assert a.dtype == b.dtype, name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_workload_traces_identical_under_both_forms(self, monkeypatch, name):
        forms("fill_trace")
        cc, py = (
            finished(monkeypatch, form, lambda: small_trace(name))
            for form in ("cc", "python")
        )
        for col in TRACE_COLUMNS:
            a, b = getattr(cc, col), getattr(py, col)
            assert a.dtype == b.dtype, col
            assert a.tobytes() == b.tobytes(), col


# --------------------------------------------------------- whole profiles

def small_trace(name, *, scale=8.0, seed=1, config="central_config"):
    wl = get_workload(name)
    return wl.generate(getattr(wl, config)(), scale=scale, seed=seed)


def profile_traces():
    """Every app's central (id: its name) and test input at scale 8, and
    the synthetic microbenchmarks' central inputs."""
    for name in WORKLOADS:
        yield pytest.param(get_workload(name), "central_config", id=name)
        yield pytest.param(get_workload(name), "test_config", id=f"{name}-test")
    for cls in SYNTHETIC_WORKLOADS:
        yield pytest.param(cls(), "central_config", id=cls().name)


@pytest.mark.parametrize("wl, config", profile_traces())
def test_profile_identical_under_both_forms(monkeypatch, wl, config):
    if native.jit_status()["backend"] != "cc":
        pytest.skip("no C compiler available")
    trace = wl.generate(getattr(wl, config)(), scale=8.0, seed=1)
    assert profile_json(monkeypatch, trace, "cc") == profile_json(
        monkeypatch, trace, "python"
    )


@pytest.mark.parametrize("limit", [1, 333, 2**31])
def test_sample_limits_cut_streams_identically(monkeypatch, limit):
    """Sample limits that cut the instruction, access and pc streams
    mid-way (and one past all) profile identically under both forms."""
    if native.jit_status()["backend"] != "cc":
        pytest.skip("no C compiler available")
    trace = small_trace("bfs", config="test_config")
    assert 333 < int(trace.memory_mask.sum())
    monkeypatch.setattr(ilp_module, "ILP_SAMPLE_LIMIT", limit)
    monkeypatch.setattr(reuse_module, "REUSE_SAMPLE_LIMIT", limit)
    got = {}
    for form in ("cc", "python"):
        with monkeypatch.context() as patch:
            use_kernel(patch, form)
            got[form] = analyze_trace(trace).to_json_dict()
    assert got["cc"] == got["python"]


# ----------------------------------------------------------------- build

requires_cc = pytest.mark.skipif(
    native.find_compiler() is None, reason="no C compiler available"
)


@requires_cc
class TestKernelBuild:
    """The C build is race-free, rebuilds damaged cached objects and
    fails loud: a source that does not compile raises at every kernel
    call with the compiler's output, and only a host without a compiler
    runs the Python forms."""

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

    def test_broken_source_raises_with_compiler_output(
        self, cold_cache, monkeypatch
    ):
        monkeypatch.setattr(
            native, "_C_SOURCE", "#error kernel source broken\n" + native._C_SOURCE
        )
        for _ in range(2):
            with pytest.raises(KernelBuildError, match="kernel source broken"):
                native.resolve("ilp_depths")
        with pytest.raises(KernelBuildError, match="failed"):
            native.jit_status()
        # Nothing half-built is left in the cache.
        assert list(cold_cache.iterdir()) == []

    def test_no_compiler_runs_python_forms(self, cold_cache, monkeypatch):
        monkeypatch.setenv("PATH", "/nonexistent")
        assert native.find_compiler() is None
        assert native.jit_status() == {"backend": "python"}
        assert native.resolve("ilp_depths") == (
            native.python_form("ilp_depths"), "python"
        )
