"""Packed dynamic-instruction trace container.

Traces are stored column-wise in numpy arrays so that multi-hundred-thousand
instruction traces stay cheap to hold and analyze.  The container is
immutable once built (use :class:`repro.ir.builder.TraceBuilder` to build).
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterator, Sequence
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .. import native
from ..errors import TraceError
from .instructions import (
    CONTROL_OPCODES, MEMORY_OPCODES, NO_REG, Instruction, Opcode,
)

#: numpy dtypes of the trace columns.
TRACE_COLUMNS: dict[str, np.dtype] = {
    "opcode": np.dtype(np.uint8),
    "dst": np.dtype(np.int32),
    "src1": np.dtype(np.int32),
    "src2": np.dtype(np.int32),
    "addr": np.dtype(np.uint64),
    "size": np.dtype(np.uint16),
    "pc": np.dtype(np.uint32),
    "tid": np.dtype(np.uint16),
}

#: Opcode byte -> is a memory instruction / writes memory (ATOMIC, a
#: read and a write, counts as a write).
_IS_MEMORY = np.zeros(256, dtype=bool)
_IS_MEMORY[[int(op) for op in MEMORY_OPCODES]] = True
_IS_WRITE = np.zeros(256, dtype=bool)
_IS_WRITE[[int(Opcode.STORE), int(Opcode.ATOMIC)]] = True
#: Opcode byte -> is a control-flow instruction.
_IS_CONTROL = np.zeros(256, dtype=bool)
_IS_CONTROL[[int(op) for op in CONTROL_OPCODES]] = True

#: dense_ids sorts a column whose value range exceeds this many times its length.
_TABLE_SPAN = 4


def dense_ids(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(values, return_index=True, return_inverse=True)``, in O(n)
    from a presence table ranked by ``cumsum`` if the value range is small."""
    n = len(values)
    if n:
        lo = values.min()
        span = int(values.max()) - int(lo) + 1
    if n == 0 or span > _TABLE_SPAN * n:
        return np.unique(values, return_index=True, return_inverse=True)
    off = (values - lo).astype(np.intp)
    first = np.full(span, n, dtype=np.intp)
    np.minimum.at(first, off, np.arange(n))
    present = first < n
    rank = np.cumsum(present) - 1
    uniq = np.flatnonzero(present).astype(values.dtype) + lo
    return uniq, first[present], rank[off]


class InstructionTrace:
    """An immutable dynamic instruction trace.

    Columns (all numpy arrays of equal length):

    ``opcode``
        :class:`repro.ir.Opcode` values as ``uint8``.
    ``dst``, ``src1``, ``src2``
        virtual register operands, ``NO_REG`` (-1) when absent.
    ``addr``, ``size``
        byte address and access size for memory opcodes (0 otherwise).
    ``pc``
        static program counter of the emitting IR statement.
    ``tid``
        software thread id.
    """

    __slots__ = (
        "opcode", "dst", "src1", "src2", "addr", "size", "pc", "tid",
        "_memo", "__weakref__",
    )

    def __init__(self, **columns: np.ndarray) -> None:
        missing = set(TRACE_COLUMNS) - set(columns)
        extra = set(columns) - set(TRACE_COLUMNS)
        if missing or extra:
            raise TraceError(
                f"trace columns mismatch: missing={sorted(missing)}, "
                f"extra={sorted(extra)}"
            )
        lengths = {name: len(col) for name, col in columns.items()}
        if len(set(lengths.values())) > 1:
            raise TraceError(f"trace columns have unequal lengths: {lengths}")
        for name, dtype in TRACE_COLUMNS.items():
            arr = np.ascontiguousarray(columns[name], dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # Memo for derived scalars (footprint, opcode histogram): the
        # columns are immutable, so once computed they never change.
        # Simulating the same trace repeatedly (both engines, or many
        # architecture points of a campaign) skips the re-scan.
        object.__setattr__(self, "_memo", {})

    # Frozen container: forbid rebinding of columns after __init__.
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("InstructionTrace is immutable")

    # ------------------------------------------------------------ basics

    def __len__(self) -> int:
        return len(self.opcode)

    def __iter__(self) -> Iterator[Instruction]:
        for i in range(len(self)):
            yield self[i]

    def __getitem__(self, index: int | slice) -> "Instruction | InstructionTrace":
        if isinstance(index, slice):
            return InstructionTrace(
                **{name: getattr(self, name)[index] for name in TRACE_COLUMNS}
            )
        i = int(index)
        return Instruction(
            opcode=Opcode(int(self.opcode[i])),
            dst=int(self.dst[i]),
            src1=int(self.src1[i]),
            src2=int(self.src2[i]),
            addr=int(self.addr[i]),
            size=int(self.size[i]),
            pc=int(self.pc[i]),
            tid=int(self.tid[i]),
        )

    def __repr__(self) -> str:
        return (
            f"InstructionTrace(n={len(self)}, threads={self.thread_count}, "
            f"memory_ops={self.memory_op_count})"
        )

    # -------------------------------------------------------- properties

    @property
    def memory_mask(self) -> np.ndarray:
        """Boolean mask selecting memory instructions."""
        return _IS_MEMORY[self.opcode]

    @property
    def memory_op_count(self) -> int:
        return int(self.memory_mask.sum())

    @property
    def thread_count(self) -> int:
        got = self._memo.get("thread_count")
        if got is None:
            got = self._memo["thread_count"] = _thread_count(self.tid)
        return got

    def check_opcodes(self) -> None:
        """Raise :class:`~repro.errors.TraceError` on an opcode byte past
        ``Opcode.NOP`` (memoised; run before any opcode-indexed lookup)."""
        if "opcodes_ok" not in self._memo:
            top = int(self.opcode.max(initial=0))
            if top > max(Opcode):
                raise TraceError(f"unknown opcode value {top}")
            self._memo["opcodes_ok"] = True

    def opcode_counts(self) -> dict[Opcode, int]:
        """Histogram of opcodes present in the trace (memoised)."""
        got = self._memo.get("opcode_counts")
        if got is None:
            counts = np.bincount(self.opcode).tolist()
            got = {Opcode(v): c for v, c in enumerate(counts) if c}
            self._memo["opcode_counts"] = got
        return dict(got)

    def footprint_lines(self, line_shift: int) -> int:
        """Distinct cache lines touched by memory accesses (memoised)."""
        key = ("footprint_lines", line_shift)
        got = self._memo.get(key)
        if got is None:
            lines = np.sort(self.addr[self.memory_mask] >> np.uint64(line_shift))
            got = int(np.count_nonzero(lines[1:] != lines[:-1])) + bool(len(lines))
            self._memo[key] = got
        return got

    # ------------------------------------------------------------ views

    def for_thread(self, tid: int) -> "InstructionTrace":
        """The sub-trace executed by software thread ``tid`` (in order)."""
        mask = self.tid == tid
        return InstructionTrace(
            **{name: getattr(self, name)[mask] for name in TRACE_COLUMNS}
        )

    def memory_accesses(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(addresses, sizes, is_write) of memory instructions, in order."""
        mask = self.memory_mask
        return self.addr[mask], self.size[mask], _IS_WRITE[self.opcode[mask]]

    # ------------------------------------------------------ construction

    @classmethod
    def empty(cls) -> "InstructionTrace":
        return cls(
            **{
                name: np.empty(0, dtype=dtype)
                for name, dtype in TRACE_COLUMNS.items()
            }
        )

    @classmethod
    def from_instructions(cls, instructions: Sequence[Instruction]) -> "InstructionTrace":
        """Build a trace from explicit :class:`Instruction` tuples."""
        n = len(instructions)
        cols = {
            name: np.empty(n, dtype=dtype) for name, dtype in TRACE_COLUMNS.items()
        }
        for i, ins in enumerate(instructions):
            cols["opcode"][i] = int(ins.opcode)
            cols["dst"][i] = ins.dst
            cols["src1"][i] = ins.src1
            cols["src2"][i] = ins.src2
            cols["addr"][i] = ins.addr
            cols["size"][i] = ins.size
            cols["pc"][i] = ins.pc
            cols["tid"][i] = ins.tid
        return cls(**cols)


def _thread_count(tid: np.ndarray) -> int:
    """Distinct thread ids of a uint16 ``tid`` column."""
    return int(np.count_nonzero(np.bincount(tid)))


class _Tallies(NamedTuple):
    """The integer counts of one trace that the profile's scalar
    families divide: the ``trace_columns`` kernel tallies them in the
    scan that builds the columns."""

    opcodes: np.ndarray  #: int64 count of each :class:`Opcode` value
    reg_reads: int  #: src1 and src2 values other than ``NO_REG``
    reg_writes: int  #: dst values other than ``NO_REG``
    read_bytes: int  #: access sizes of the reads
    write_bytes: int  #: access sizes of the writes (ATOMIC included)
    control: int  #: control ops (``CONTROL_OPCODES``)
    control_sites: int  #: distinct pcs of the control ops
    first_touches: np.ndarray  #: int64 lines first touched before each cut-off


class _Columns(NamedTuple):
    """Every derived column of one trace: the ``trace_columns`` kernel's
    product (see :class:`TraceColumns` for each column)."""

    memory_mask: np.ndarray
    accesses: tuple[np.ndarray, np.ndarray, np.ndarray]
    registers: tuple[np.ndarray, int, int]
    pcs: tuple[np.ndarray, int]
    lines: tuple[np.ndarray, np.ndarray, np.ndarray]
    thread_count: int
    tallies: _Tallies


def _trace_columns_py(trace: InstructionTrace, line_shift: int, cuts: int) -> _Columns:
    """Python form of the ``trace_columns`` kernel (the oracle).

    ``cuts`` splits the accesses at ``(c + 1) * m // cuts`` for each
    ``c < cuts`` (m accesses): the tallies' ``first_touches``.
    """
    accesses = trace.memory_accesses()
    uniq, _first, ids = dense_ids(np.concatenate((trace.dst, trace.src1, trace.src2)))
    negative = int(np.searchsorted(uniq, 0))
    ids = np.maximum(ids - negative, -1).reshape(3, -1)
    registers = (ids, len(uniq) - negative, int(np.count_nonzero(uniq != NO_REG)))
    uniq, _first, ids = dense_ids(trace.pc)
    lines = dense_ids(accesses[0] >> np.uint64(line_shift))
    m, first = len(accesses[0]), lines[1]
    _addrs, sizes, is_write = accesses
    control = _IS_CONTROL[trace.opcode]
    tallies = _Tallies(
        np.bincount(trace.opcode, minlength=len(Opcode))[:len(Opcode)].astype(np.int64),
        int(np.count_nonzero(trace.src1 != NO_REG))
        + int(np.count_nonzero(trace.src2 != NO_REG)),
        int(np.count_nonzero(trace.dst != NO_REG)),
        int(sizes[~is_write].sum()),
        int(sizes[is_write].sum()),
        int(np.count_nonzero(control)),
        len(np.unique(trace.pc[control])),
        np.array(
            [np.count_nonzero(first < (c + 1) * m // cuts) for c in range(cuts)],
            dtype=np.int64,
        ),
    )
    return _Columns(
        trace.memory_mask, accesses, registers, (ids, len(uniq)), lines,
        _thread_count(trace.tid), tallies,
    )


#: Per-opcode kind bits of the C kernel: bit 0 a memory op, bit 1 a
#: write, bit 2 a control op.
_KIND = (_IS_MEMORY | (_IS_WRITE << 1) | (_IS_CONTROL << 2)).astype(np.uint8)


def _trace_columns_cc(lib: native.Library) -> Callable:
    fn = lib.trace_columns
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        [ctypes.c_void_p] * 8 + [ctypes.c_int64, ctypes.c_void_p]
        + [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 11
    )

    def kernel(trace: InstructionTrace, line_shift: int, cuts: int) -> _Columns:
        n = len(trace)
        mask, write = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
        addrs, uniq = np.empty(n, dtype=np.uint64), np.empty(n, dtype=np.uint64)
        sizes = np.empty(n, dtype=np.uint16)
        regs = np.empty((3, n), dtype=np.int64)
        pcs, first, ids = (np.empty(n, dtype=np.int64) for _ in range(3))
        counts = np.empty(6, dtype=np.int64)
        tally = np.empty(256 + 6 + cuts, dtype=np.int64)
        status = fn(
            *(getattr(trace, name).ctypes.data for name in TRACE_COLUMNS), n,
            _KIND.ctypes.data, line_shift, _TABLE_SPAN * 3 * n, _TABLE_SPAN * n,
            cuts, *(a.ctypes.data for a in (
                mask, addrs, sizes, write, regs, pcs, uniq, first, ids, counts,
                tally,
            )),
        )
        if status:  # a span too wide for a table, or out of memory
            return _trace_columns_py(trace, line_shift, cuts)
        m, n_regs, distinct, n_pcs, n_lines, threads = counts.tolist()
        return _Columns(
            mask, (addrs[:m], sizes[:m], write[:m]), (regs, n_regs, distinct),
            (pcs, n_pcs),
            (uniq[:n_lines].copy(), first[:n_lines].copy(), ids[:m]), threads,
            _Tallies(tally[:len(Opcode)], *tally[256:262].tolist(), tally[262:]),
        )

    return kernel


native.register("trace_columns", _trace_columns_py, _trace_columns_cc)


class TraceColumns:
    """Derived columns of one trace, all built together on first use by
    the ``trace_columns`` kernel, cache lines at the profile's
    :data:`~repro.profiler.features.LINE_BYTES`; they live as long as
    the table.  Only scalars go on the trace's memo: the thread count,
    the footprint line count and the opcode histogram (when every
    opcode byte is an :class:`Opcode`).

    Index contract of the kernel, which its C form does not check: the
    trace's columns are equally long and typed as :data:`TRACE_COLUMNS`
    (an :class:`InstructionTrace` guarantees both).  Any register, pc,
    tid and address value is valid; a register or pc range wider than
    ``_TABLE_SPAN`` times its value count runs the Python form.
    """

    def __init__(self, trace: InstructionTrace) -> None:
        self.trace = trace

    @cached_property
    def _table(self) -> _Columns:
        # Imported on use: repro.profiler imports this package.
        from ..profiler.features import LINE_BYTES, WORKING_SET_CHECKPOINTS

        shift = LINE_BYTES.bit_length() - 1
        got = native.resolve("trace_columns")[0](
            self.trace, shift, WORKING_SET_CHECKPOINTS
        )
        memo = self.trace._memo
        memo["thread_count"] = got.thread_count
        memo[("footprint_lines", shift)] = len(got.lines[0])
        ops = got.tallies.opcodes.tolist()
        if sum(ops) == len(self.trace):
            memo["opcode_counts"] = {Opcode(v): c for v, c in enumerate(ops) if c}
        return got

    @property
    def memory_mask(self) -> np.ndarray:
        return self._table.memory_mask

    @property
    def accesses(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(addresses, sizes, is_write) of the memory instructions."""
        return self._table.accesses

    @property
    def registers(self) -> tuple[np.ndarray, int, int]:
        """Dense dst/src1/src2 ids (rows; -1: none), table size, distinct regs."""
        return self._table.registers

    @property
    def pcs(self) -> tuple[np.ndarray, int]:
        """Dense pc ids and the number of distinct pcs."""
        return self._table.pcs

    @property
    def lines(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """dense_ids of the accesses' cache lines."""
        return self._table.lines

    @property
    def tallies(self) -> _Tallies:
        """The trace's integer counts (see :class:`_Tallies`); the
        first-touch cut-offs split the accesses into
        :data:`~repro.profiler.features.WORKING_SET_CHECKPOINTS`."""
        return self._table.tallies


def columns_of(trace: InstructionTrace | TraceColumns) -> TraceColumns:
    """The derived-column table of ``trace`` (a table is its own)."""
    return trace if isinstance(trace, TraceColumns) else TraceColumns(trace)


# Re-export for convenience in type checking.
__all__ = ["InstructionTrace", "TRACE_COLUMNS", "NO_REG"]
