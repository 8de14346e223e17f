"""Tests for TraceBuilder and LoopTemplate (repro.ir.builder)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.ir import (
    LoopTemplate,
    NO_REG,
    Opcode,
    TemplateOp,
    TraceBuilder,
    validate_trace,
)
from repro.ir.instructions import MEMORY_OPCODES
from repro.ir.trace import TRACE_COLUMNS


class TestTraceBuilder:
    def test_scalar_emission(self):
        b = TraceBuilder()
        b.load(1, addr=0x1000)
        b.emit(Opcode.FMUL, dst=2, src1=1, src2=3)
        b.store(2, addr=0x2000)
        trace = b.finish()
        assert len(trace) == 3
        assert trace[0].opcode == Opcode.LOAD
        assert trace[2].addr == 0x2000
        validate_trace(trace)

    def test_memory_requires_size(self):
        b = TraceBuilder()
        with pytest.raises(TraceError, match="size"):
            b.emit(Opcode.LOAD, dst=1, addr=64, size=0)

    def test_bulk_defaults(self):
        b = TraceBuilder()
        b.bulk(opcode=np.full(4, int(Opcode.IALU), dtype=np.uint8))
        trace = b.finish()
        assert len(trace) == 4
        assert (trace.dst == NO_REG).all()
        assert (trace.addr == 0).all()

    def test_bulk_rejects_unequal_lengths(self):
        b = TraceBuilder()
        with pytest.raises(TraceError, match="equal"):
            b.bulk(
                opcode=np.zeros(2, dtype=np.uint8),
                addr=np.zeros(3, dtype=np.uint64),
            )

    def test_bulk_rejects_unknown_columns(self):
        b = TraceBuilder()
        with pytest.raises(TraceError, match="unknown"):
            b.bulk(opcode=np.zeros(1, dtype=np.uint8), bogus=np.zeros(1))

    def test_bulk_rejects_unknown_columns_when_empty(self):
        b = TraceBuilder()
        with pytest.raises(TraceError, match="unknown"):
            b.bulk(bogus=np.zeros(0))

    def test_scalar_and_bulk_interleave_in_order(self):
        b = TraceBuilder()
        b.emit(Opcode.IALU, dst=1)
        b.bulk(opcode=np.full(2, int(Opcode.NOP), dtype=np.uint8))
        b.branch(1)
        trace = b.finish()
        assert [int(o) for o in trace.opcode] == [
            int(Opcode.IALU), int(Opcode.NOP), int(Opcode.NOP),
            int(Opcode.BRANCH),
        ]

    def test_len_tracks_pending(self):
        b = TraceBuilder()
        b.emit(Opcode.IALU, dst=1)
        b.emit(Opcode.IALU, dst=2)
        assert len(b) == 2

    def test_empty_finish(self):
        assert len(TraceBuilder().finish()) == 0


class TestTemplateOp:
    def test_memory_requires_addr_slot(self):
        with pytest.raises(TraceError, match="address slot"):
            TemplateOp(Opcode.LOAD, dst=1)

    def test_non_memory_rejects_addr_slot(self):
        with pytest.raises(TraceError, match="must not take"):
            TemplateOp(Opcode.IALU, dst=1, addr="x")

    @pytest.mark.parametrize("field, value", [
        ("dst", 2**32 + 5), ("src1", 2**31), ("src2", -(2**31) - 1),
        ("size", 70000), ("size", -1), ("dst", 1.5),
    ])
    def test_value_its_column_cannot_hold_raises_as_emit_does(
        self, field, value
    ):
        with pytest.raises(TraceError, match=field):
            TraceBuilder().emit(Opcode.IALU, **{field: value})
        with pytest.raises(TraceError, match=field):
            TemplateOp(Opcode.IALU, **{field: value})

    def test_integral_float_is_stored_as_int(self):
        op = TemplateOp(Opcode.LOAD, dst=3.0, addr="x", size=np.uint8(4))
        assert (op.dst, op.size) == (3, 4)
        assert type(op.dst) is int and type(op.size) is int


class TestLoopTemplate:
    def make(self):
        return LoopTemplate([
            TemplateOp(Opcode.LOAD, dst=1, addr="x", size=4),
            TemplateOp(Opcode.FALU, dst=2, src1=1),
            TemplateOp(Opcode.BRANCH, src1=2),
        ])

    def test_emit_count_and_order(self):
        t = self.make()
        b = TraceBuilder()
        t.emit(b, 5, {"x": np.arange(5) * 8}, tid=3, pc_base=100)
        trace = b.finish()
        assert len(trace) == 15
        assert trace[0].opcode == Opcode.LOAD
        assert trace[1].opcode == Opcode.FALU
        assert trace[3].opcode == Opcode.LOAD  # next iteration
        assert (trace.tid == 3).all()

    def test_pc_assignment(self):
        t = self.make()
        b = TraceBuilder()
        t.emit(b, 2, {"x": np.zeros(2)}, pc_base=10)
        trace = b.finish()
        assert trace.pc.tolist() == [10, 11, 12, 10, 11, 12]

    def test_addresses_interleaved(self):
        t = self.make()
        b = TraceBuilder()
        t.emit(b, 3, {"x": np.asarray([8, 16, 24])})
        trace = b.finish()
        assert trace.addr[0::3].tolist() == [8, 16, 24]
        assert (trace.addr[1::3] == 0).all()

    def test_sizes_only_on_memory_ops(self):
        t = self.make()
        b = TraceBuilder()
        t.emit(b, 2, {"x": np.zeros(2)})
        trace = b.finish()
        assert trace.size[0::3].tolist() == [4, 4]
        assert (trace.size[1::3] == 0).all()
        validate_trace(trace)

    def test_missing_address_array(self):
        t = self.make()
        with pytest.raises(TraceError, match="missing address"):
            t.emit(TraceBuilder(), 2, {})

    def test_wrong_address_length(self):
        t = self.make()
        with pytest.raises(TraceError, match="length"):
            t.emit(TraceBuilder(), 2, {"x": np.zeros(3)})

    def test_zero_iterations_is_noop(self):
        b = TraceBuilder()
        self.make().emit(b, 0, {"x": np.zeros(0)})
        assert len(b.finish()) == 0

    def test_negative_iterations_rejected(self):
        with pytest.raises(TraceError):
            self.make().emit(TraceBuilder(), -1, {"x": np.zeros(0)})

    def test_empty_template_rejected(self):
        with pytest.raises(TraceError):
            LoopTemplate([])

    @pytest.mark.parametrize("tid", [-1, 70000])
    def test_tid_outside_uint16_rejected(self, tid):
        with pytest.raises(TraceError, match=f"tid {tid} "):
            self.make().emit(TraceBuilder(), 2, {"x": np.zeros(2)}, tid=tid)

    @pytest.mark.parametrize("pc_base", [-1, 2**32 - 1])
    def test_pc_outside_uint32_rejected(self, pc_base):
        with pytest.raises(TraceError, match=f"pc_base {pc_base} "):
            self.make().emit(
                TraceBuilder(), 2, {"x": np.zeros(2)}, pc_base=pc_base
            )

    def test_highest_pc_accepted(self):
        b = TraceBuilder()
        self.make().emit(b, 1, {"x": np.zeros(1)}, pc_base=2**32 - 3)
        assert b.finish().pc.tolist() == [2**32 - 3, 2**32 - 2, 2**32 - 1]


class TestBadInputsFailLoud:
    """Values a column cannot hold raise instead of wrapping or truncating."""

    def template(self):
        return LoopTemplate([TemplateOp(Opcode.LOAD, dst=1, addr="x")])

    @pytest.mark.parametrize("column, values, match", [
        ("tid", [70000], "tid 70000 is outside uint16"),
        ("tid", [-1], "tid -1 is outside uint16"),
        ("opcode", [300], "opcode 300 is outside uint8"),
        ("dst", [2**31], "dst 2147483648 is outside int32"),
        ("addr", [-64], "addr -64 is outside uint64"),
        ("addr", [1.7], "addr values must be integers"),
        ("addr", [float("nan")], "addr values must be integers"),
        ("addr", [2.0**64], "is outside uint64"),
        ("size", ["8"], "size values must be integers"),
    ])
    def test_bulk(self, column, values, match):
        with pytest.raises(TraceError, match=match):
            TraceBuilder().bulk(**{column: np.asarray(values)})

    @pytest.mark.parametrize("addr, match", [
        ([8, -64], "addr -64 is outside uint64"),
        ([8, 1.7], "addr values must be integers"),
        ([8, float("inf")], "addr values must be integers"),
    ])
    def test_emit_and_threads_addresses(self, addr, match):
        with pytest.raises(TraceError, match=match):
            self.template().emit(TraceBuilder(), 2, {"x": np.asarray(addr)})
        with pytest.raises(TraceError, match=match):
            TraceBuilder().threads([0, 1], [
                (self.template(), [1, 1], {"x": np.asarray(addr)}, 0),
            ])

    @pytest.mark.parametrize("column, value, match", [
        ("opcode", 300, "opcode 300 is outside uint8"),
        ("tid", 70000, "tid 70000 is outside uint16"),
        ("dst", -2**31 - 1, "dst -2147483649 is outside int32"),
        ("pc", -1, "pc -1 is outside uint32"),
        ("addr", -64, "addr -64 is outside uint64"),
        ("addr", 2**64, "addr 18446744073709551616 is outside uint64"),
        ("addr", 1.7, "addr values must be integers"),
        ("addr", float("nan"), "addr values must be integers"),
        ("size", "8", "size values must be integers"),
    ])
    def test_scalar_emit(self, column, value, match):
        b = TraceBuilder()
        b.emit(Opcode.LOAD, dst=1, addr=8, size=8)
        fields = {"opcode": Opcode.LOAD, "dst": 1, "addr": 8, "size": 8}
        with pytest.raises(TraceError, match=match):
            b.emit(**{**fields, column: value})
        # The rejected emit left nothing behind.
        assert len(b) == 1
        assert b.finish().addr.tolist() == [8]

    def test_scalar_emit_exact_near_uint64_max(self):
        b = TraceBuilder()
        for addr in (0, 2**64 - 1024, 2**63 + 1, 64.0):
            b.emit(Opcode.LOAD, dst=1, addr=addr, size=8)
        assert b.finish().addr.tolist() == [0, 2**64 - 1024, 2**63 + 1, 64]

    def test_bulk_memory_op_needs_size(self):
        with pytest.raises(TraceError, match="size > 0"):
            TraceBuilder().bulk(
                opcode=np.array([int(Opcode.IALU), int(Opcode.LOAD)]),
                size=np.array([0, 0]),
            )

    def test_integral_floats_accepted(self):
        b = TraceBuilder()
        self.template().emit(b, 2, {"x": np.array([64.0, 2.0**63])})
        assert b.finish().addr.tolist() == [64, 2**63]

    def test_threads_rejects_bad_tids_and_counts(self):
        t = self.template()
        with pytest.raises(TraceError, match="tid 70000 "):
            TraceBuilder().threads([0, 70000], [(t, [1, 1], {"x": [0, 8]}, 0)])
        with pytest.raises(TraceError, match="one iteration count"):
            TraceBuilder().threads([0, 1], [(t, [2], {"x": [0, 8]}, 0)])
        with pytest.raises(TraceError, match=">= 0"):
            TraceBuilder().threads([0, 1], [(t, [3, -1], {"x": [0, 8]}, 0)])
        with pytest.raises(TraceError, match="length 2, expected 3"):
            TraceBuilder().threads([0, 1], [(t, [1, 2], {"x": [0, 8]}, 0)])


class TestThreads:
    def test_segments_then_runs_order(self):
        load = LoopTemplate([TemplateOp(Opcode.LOAD, dst=1, addr="x")])
        nop = LoopTemplate([TemplateOp(Opcode.NOP)])
        b = TraceBuilder()
        # Tids repeat; thread 7's load run is empty.
        b.threads([5, 7, 5], [
            (load, [2, 0, 1], {"x": [8, 16, 24]}, 10),
            (nop, [1, 1, 0], {}, 20),
        ])
        trace = b.finish()
        assert trace.tid.tolist() == [5, 5, 5, 7, 5]
        assert trace.pc.tolist() == [10, 10, 20, 20, 10]
        assert trace.addr.tolist() == [8, 16, 0, 0, 24]

    def test_all_zero_counts_is_noop(self):
        load = LoopTemplate([TemplateOp(Opcode.LOAD, dst=1, addr="x")])
        b = TraceBuilder()
        b.threads([0, 1], [(load, [0, 0], {"x": []}, 0)])
        b.threads([], [(load, [], {"x": []}, 0)])
        assert len(b) == 0
        assert len(b.finish()) == 0


# ------------------------------------------------------- differential

REGS = ("dst", "src1", "src2")
MEMORY = sorted(MEMORY_OPCODES)
NON_MEMORY = [op for op in Opcode if op not in MEMORY_OPCODES]
registers = st.integers(-1, 2**31 - 1)
#: Address arrays come in every dtype the workloads pass (any address
#: the uint64 column holds, as integral values).
ADDRESS_VALUES = {
    np.int64: st.integers(0, 2**63 - 1),
    np.uint64: st.integers(0, 2**64 - 1),
    np.float64: st.floats(0, 2**63).map(lambda x: float(int(x))),
}


def segment_emits(tids, runs):
    """A threads() call as the one-segment emits it stands for, in order."""
    for s, tid in enumerate(tids):
        for template, counts, addresses, pc_base in runs:
            lo = sum(counts[:s])
            part = {key: a[lo:lo + counts[s]] for key, a in addresses.items()}
            yield template, counts[s], part, tid, pc_base


def eager_chunk(action):
    """The eager algorithm the lazy builder replaced: every emit becomes a
    chunk of finished columns at once (template bodies by ``np.tile``)."""
    if action[0] == "scalar":
        return {name: [value] for name, value in action[1].items()}
    if action[0] == "bulk":
        _, n, columns = action
        return {
            name: columns.get(name, np.full(n, NO_REG if name in REGS else 0))
            for name in TRACE_COLUMNS
        }
    if action[0] == "threads":
        return eager_finish([
            eager_chunk(("template", *emit)) for emit in segment_emits(*action[1:])
        ])
    _, template, iterations, addresses, tid, pc_base = action
    ops, k, n = template.ops, len(template), iterations * len(template)
    chunk = {
        name: np.tile([getattr(op, name) for op in ops], iterations)
        for name in ("opcode", *REGS)
    }
    chunk["pc"] = np.tile(pc_base + np.arange(k), iterations)
    chunk["tid"] = np.full(n, tid)
    chunk["addr"], chunk["size"] = np.zeros(n, np.uint64), np.zeros(n, int)
    for j, op in enumerate(ops):
        if op.addr:
            chunk["addr"][j::k] = np.asarray(addresses[op.addr], np.uint64)
            chunk["size"][j::k] = op.size
    return chunk


def eager_finish(chunks):
    return {
        name: np.concatenate([np.zeros(0, dtype)] + [
            np.asarray(chunk[name], dtype) for chunk in chunks
        ])
        for name, dtype in TRACE_COLUMNS.items()
    }


def column_values(name, n):
    info = np.iinfo(TRACE_COLUMNS[name])
    return st.lists(
        st.integers(int(info.min), int(info.max)), min_size=n, max_size=n
    )


@st.composite
def scalar_emits(draw):
    if draw(st.booleans()):
        opcode, size = draw(st.sampled_from(MEMORY)), draw(st.integers(1, 64))
    else:
        opcode, size = draw(st.sampled_from(NON_MEMORY)), 0
    fields = {
        name: draw(column_values(name, 1))[0]
        for name in (*REGS, "addr", "pc", "tid")
    }
    return "scalar", dict(fields, opcode=opcode, size=size)


@st.composite
def bulk_chunks(draw):
    n = draw(st.integers(0, 12))
    names = draw(st.sets(st.sampled_from(list(TRACE_COLUMNS)), min_size=1))
    columns = {
        name: np.asarray(draw(column_values(name, n)), TRACE_COLUMNS[name])
        for name in names
    }
    # A memory opcode needs a size.
    memory = np.isin(columns.get("opcode", np.zeros(n)), MEMORY)
    if memory.any():
        size = columns.setdefault("size", np.zeros(n, TRACE_COLUMNS["size"]))
        size[memory & (size == 0)] = draw(st.integers(1, 2**16 - 1))
    return "bulk", n, columns
@st.composite
def address_arrays(draw, n):
    dtype = draw(st.sampled_from(list(ADDRESS_VALUES)))
    values = st.lists(ADDRESS_VALUES[dtype], min_size=n, max_size=n)
    return np.asarray(draw(values), dtype)


@st.composite
def loop_templates(draw):
    """A template (possibly without any address slot) and its keys."""
    keys = ["a", "b", "c"][:draw(st.integers(0, 3))]
    ops = []
    for _ in range(draw(st.integers(1, 9))):
        regs = {r: draw(registers) for r in REGS}
        if keys and draw(st.booleans()):
            ops.append(TemplateOp(
                draw(st.sampled_from(MEMORY)), addr=draw(st.sampled_from(keys)),
                size=draw(st.integers(1, 2**16 - 1)), **regs,
            ))
        else:
            ops.append(TemplateOp(draw(st.sampled_from(NON_MEMORY)), **regs))
    return LoopTemplate(ops), keys


@st.composite
def template_emits(draw):
    template, keys = draw(loop_templates())
    iterations = draw(st.integers(0, 40))
    addresses = {key: draw(address_arrays(iterations)) for key in keys}
    return (
        "template", template, iterations, addresses,
        draw(st.integers(0, 2**16 - 1)),
        draw(st.integers(0, 2**32 - len(template))),
    )


@st.composite
def thread_groups(draw):
    """One threads() call: repeated tids and zero counts are common."""
    n_seg = draw(st.integers(0, 5))
    tid = st.one_of(st.integers(0, 3), st.integers(0, 2**16 - 1))
    tids = draw(st.lists(tid, min_size=n_seg, max_size=n_seg))
    runs = []
    for _ in range(draw(st.integers(1, 3))):
        template, keys = draw(loop_templates())
        counts = draw(st.lists(
            st.integers(0, 8), min_size=n_seg, max_size=n_seg
        ))
        addresses = {key: draw(address_arrays(sum(counts))) for key in keys}
        pc_base = draw(st.integers(0, 2**32 - len(template)))
        runs.append((template, counts, addresses, pc_base))
    return "threads", tids, runs


def builder_actions():
    """Scalar emits, bulk chunks, one-segment emits and threads() calls."""
    return st.one_of(
        scalar_emits(), bulk_chunks(), template_emits(), thread_groups()
    )


def apply(builder: TraceBuilder, action) -> None:
    """Give ``builder`` one drawn action."""
    if action[0] == "scalar":
        builder.emit(**action[1])
    elif action[0] == "bulk":
        builder.bulk(**action[2])
    elif action[0] == "threads":
        builder.threads(*action[1:])
    else:
        _, template, iterations, addresses, tid, pc_base = action
        template.emit(builder, iterations, addresses, tid=tid, pc_base=pc_base)


def replay(actions) -> TraceBuilder:
    """A builder that received ``actions`` in order."""
    builder = TraceBuilder()
    for action in actions:
        apply(builder, action)
    return builder


def assert_columns_equal(trace, expected):
    for name, dtype in TRACE_COLUMNS.items():
        column = getattr(trace, name)
        assert column.dtype == dtype
        np.testing.assert_array_equal(column, expected[name], err_msg=name)


class TestLazyMatchesEagerOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(builder_actions(), max_size=12))
    def test_random_interleavings(self, actions):
        builder = TraceBuilder()
        chunks, expected = [], 0
        for action in actions:
            apply(builder, action)
            chunks.append(eager_chunk(action))
            expected += len(chunks[-1]["opcode"])
            assert len(builder) == expected
        # Emits copy their address arrays: later writes must not leak in.
        for action in actions:
            if action[0] == "template":
                for array in action[3].values():
                    array[...] = 0
            elif action[0] == "threads":
                for run in action[2]:
                    for array in run[2].values():
                        array[...] = 0
        assert_columns_equal(builder.finish(), eager_finish(chunks))

    @settings(max_examples=100, deadline=None)
    @given(thread_groups())
    def test_threads_equals_one_segment_emits(self, group):
        _, tids, runs = group
        one_by_one = TraceBuilder()
        for template, n, addresses, tid, pc_base in segment_emits(tids, runs):
            template.emit(one_by_one, n, addresses, tid=tid, pc_base=pc_base)
        expected = one_by_one.finish()
        builder = TraceBuilder()
        builder.threads(tids, runs)
        assert len(builder) == len(expected)
        assert_columns_equal(builder.finish(), {
            name: getattr(expected, name) for name in TRACE_COLUMNS
        })
