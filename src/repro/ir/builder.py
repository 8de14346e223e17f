"""Incremental and vectorized trace construction.

Two levels of API:

* :class:`TraceBuilder` — scalar ``append``-style emission plus a bulk
  column append, used directly for small/irregular code regions, and
  :meth:`TraceBuilder.threads`, which records one phase of a kernel (the
  loop-template runs of every thread) in one call.
* :class:`LoopTemplate` — describes one loop-body of IR statements once;
  :meth:`LoopTemplate.emit` records ``n`` iterations of it as a
  one-segment ``threads`` call, with per-iteration memory addresses
  supplied as arrays.  Each column is allocated once, in
  :meth:`TraceBuilder.finish`, which fills every template group of the
  trace in one call of the ``fill_trace`` kernel (:mod:`repro.native`).
  Generation cost is then per phase, not per thread and loop.

Register-dependence semantics: virtual registers are *renamed* by the
analyses, i.e. only read-after-write dependencies matter.  A loop template
whose reads are satisfied by writes earlier in the same iteration yields
independent iterations (high ILP); a template that reads a register written
by the previous iteration (an accumulator) creates a loop-carried serial
chain.  Workloads use this to express their true dependence structure.
"""

from __future__ import annotations

import ctypes
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .. import native
from ..errors import TraceError
from .instructions import MEMORY_OPCODES, NO_REG, Opcode
from .trace import _IS_MEMORY, TRACE_COLUMNS, InstructionTrace


def _column(name: str, values) -> np.ndarray:
    """``values`` as a new array of column ``name``'s dtype.

    A value the cast would wrap or truncate (out of the dtype's range,
    fractional, not finite) raises :class:`TraceError` instead.
    """
    dtype = TRACE_COLUMNS[name]
    values = np.asarray(values)
    kind = values.dtype.kind
    if values.size and values.dtype != dtype:
        if kind not in "biuf" or kind == "f" and not (
            np.isfinite(values).all() and (values == np.trunc(values)).all()
        ):
            raise TraceError(f"{name} values must be integers")
        info = np.iinfo(dtype)
        for value in (values.min(), values.max()):
            if not info.min <= int(value) <= info.max:
                raise TraceError(f"{name} {int(value)} is outside {dtype}")
    return np.array(values, dtype=dtype)


def _scalar(name: str, value) -> int:
    """``value`` as the int column ``name`` holds; :func:`_column`'s
    checks for one Python value, exact for any int."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    try:
        value = operator.index(value)
    except TypeError:
        raise TraceError(f"{name} values must be integers") from None
    info = np.iinfo(TRACE_COLUMNS[name])
    if not info.min <= value <= info.max:
        raise TraceError(f"{name} {value} is outside {info.dtype}")
    return value


class TraceBuilder:
    """Accumulates instructions and freezes them into an InstructionTrace."""

    def __init__(self) -> None:
        # In emission order, ``(chunk, instructions)``: a chunk is a column
        # dict (scalar or bulk) or one threads() call ``(tids, runs)``.
        self._chunks: list = []
        # Scalar staging buffers, flushed into a chunk when bulk data arrives
        # or at finish().
        self._scalar: dict[str, list[int]] = {name: [] for name in TRACE_COLUMNS}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------- scalar

    def emit(
        self,
        opcode: Opcode,
        dst: int = NO_REG,
        src1: int = NO_REG,
        src2: int = NO_REG,
        addr: int = 0,
        size: int = 0,
        pc: int = 0,
        tid: int = 0,
    ) -> None:
        """Append a single instruction."""
        values = [
            _scalar(name, value) for name, value in zip(
                TRACE_COLUMNS, (opcode, dst, src1, src2, addr, size, pc, tid)
            )
        ]
        if opcode in MEMORY_OPCODES and size <= 0:
            raise TraceError(f"memory opcode {Opcode(opcode).name} requires size > 0")
        for column, value in zip(self._scalar.values(), values):
            column.append(value)
        self._count += 1

    # Convenience wrappers ------------------------------------------------

    def load(self, dst: int, addr: int, size: int = 8, *, pc: int = 0, tid: int = 0) -> None:
        self.emit(Opcode.LOAD, dst=dst, addr=addr, size=size, pc=pc, tid=tid)

    def store(self, src: int, addr: int, size: int = 8, *, pc: int = 0, tid: int = 0) -> None:
        self.emit(Opcode.STORE, src1=src, addr=addr, size=size, pc=pc, tid=tid)

    def branch(self, src1: int = NO_REG, *, pc: int = 0, tid: int = 0) -> None:
        self.emit(Opcode.BRANCH, src1=src1, pc=pc, tid=tid)

    # --------------------------------------------------------------- bulk

    def bulk(self, **columns: np.ndarray) -> None:
        """Append pre-built column arrays (all of equal length).

        Missing columns default to zeros (``NO_REG`` for register columns).
        """
        unknown = set(columns) - set(TRACE_COLUMNS)
        if unknown:
            raise TraceError(f"unknown trace columns: {sorted(unknown)}")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) != 1:
            raise TraceError("bulk columns must have equal lengths")
        (n,) = lengths
        if n == 0:
            return
        chunk = {
            name: _column(name, columns[name]) if name in columns
            else np.full(n, NO_REG if name in ("dst", "src1", "src2") else 0, dtype)
            for name, dtype in TRACE_COLUMNS.items()
        }
        if (_IS_MEMORY[chunk["opcode"]] & (chunk["size"] == 0)).any():
            raise TraceError("memory opcodes require size > 0")
        self._append(chunk, n)

    def threads(self, tids: Sequence[int], runs: Sequence[tuple]) -> None:
        """Record one phase of a kernel, every thread in one call.

        ``tids`` names the thread of each segment (ids may repeat).  Each
        run is ``(template, counts, addresses, pc_base)``: for each segment
        ``s`` in order, and each run in order, ``counts[s]`` iterations of
        ``template`` are emitted under ``tids[s]``.  Each address array
        holds the template's per-segment arrays concatenated in segment
        order; it is copied here, so the caller may reuse it.
        """
        tids = _column("tid", tids)
        group, n = [], 0
        for template, counts, addresses, pc_base in runs:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != tids.shape:
                raise TraceError("a run needs one iteration count per segment")
            if counts.size and counts.min() < 0:
                raise TraceError("iterations must be >= 0")
            k = len(template)
            if not 0 <= pc_base <= 0xFFFFFFFF - (k - 1):
                raise TraceError(f"pc_base {pc_base} puts a pc outside uint32")
            total = int(counts.sum())
            slots = {}
            for key in dict.fromkeys(template._slot_keys):
                if key not in addresses:
                    raise TraceError(f"missing address array {key!r}")
                if len(addresses[key]) != total:
                    raise TraceError(
                        f"address array {key!r} has length "
                        f"{len(addresses[key])}, expected {total}"
                    )
                slots[key] = _column("addr", addresses[key])
            group.append((
                template, counts, [slots[key] for key in template._slot_keys],
                pc_base,
            ))
            n += total * k
        if n:
            self._append((tids, group), n)

    def _append(self, chunk, n: int) -> None:
        self._flush_scalar()
        self._chunks.append((chunk, n))
        self._count += n

    def _flush_scalar(self) -> None:
        scalar = self._scalar
        if scalar["opcode"]:
            self._scalar = {name: [] for name in TRACE_COLUMNS}
            chunk = {
                name: np.array(values, dtype=TRACE_COLUMNS[name])
                for name, values in scalar.items()
            }
            self._chunks.append((chunk, len(scalar["opcode"])))

    # ------------------------------------------------------------- freeze

    def finish(self) -> InstructionTrace:
        """Freeze the accumulated instructions into an immutable trace."""
        self._flush_scalar()
        if not self._count:
            return InstructionTrace.empty()
        cols = {
            name: np.zeros(self._count, dtype=dtype)
            for name, dtype in TRACE_COLUMNS.items()
        }
        groups, start = [], 0
        for chunk, n in self._chunks:
            if isinstance(chunk, dict):
                for name, col in cols.items():
                    col[start:start + n] = chunk[name]
            else:
                groups.append((start, *chunk))
            start += n
        native.resolve("fill_trace")[0](cols, groups)
        return InstructionTrace(**cols)


@dataclass(frozen=True)
class TemplateOp:
    """One IR statement of a :class:`LoopTemplate`.

    ``addr`` may be ``None`` (non-memory op), or the string key of the
    address array passed to :meth:`LoopTemplate.emit`.  A register or
    size its trace column cannot hold raises :class:`TraceError`, as in
    :meth:`TraceBuilder.emit`.
    """

    opcode: Opcode
    dst: int = NO_REG
    src1: int = NO_REG
    src2: int = NO_REG
    addr: str | None = None
    size: int = 8

    def __post_init__(self) -> None:
        for name in ("dst", "src1", "src2", "size"):
            object.__setattr__(self, name, _scalar(name, getattr(self, name)))
        if self.opcode in MEMORY_OPCODES and self.addr is None:
            raise TraceError(
                f"memory opcode {self.opcode.name} requires an address slot"
            )
        if self.addr is not None and self.opcode not in MEMORY_OPCODES:
            raise TraceError(
                f"non-memory opcode {self.opcode.name} must not take an address"
            )


class LoopTemplate:
    """A loop body emitted ``n`` times with per-iteration addresses.

    Each :class:`TemplateOp` in the body receives a distinct static program
    counter ``pc_base + position``, so instruction-reuse analysis sees the
    loop as a small hot code region, exactly as PISA would.
    """

    def __init__(self, ops: Sequence[TemplateOp]) -> None:
        if not ops:
            raise TraceError("a loop template needs at least one op")
        self.ops = tuple(ops)
        #: Position and address key of each op that takes an address.
        self._addr_ops = tuple(j for j, op in enumerate(self.ops) if op.addr)
        self._slot_keys = tuple(self.ops[j].addr for j in self._addr_ops)
        # One row per op: its opcode, dst, src1, src2 and size columns,
        # then its slot ordinal (-1: no address), as the C fill reads it.
        slots = iter(range(len(self._addr_ops)))
        self._body = np.array([
            (op.opcode, op.dst, op.src1, op.src2, *(
                (op.size, next(slots)) if op.addr else (0, -1)
            ))
            for op in self.ops
        ], dtype=np.int64)
        self._rows = {
            name: self._body[:, c].astype(TRACE_COLUMNS[name])
            for c, name in enumerate(("opcode", "dst", "src1", "src2", "size"))
        }
        self._pc = np.arange(len(self.ops), dtype=np.uint32)
        # Templates are shared (the workload patterns build each once).
        for array in (self._body, self._pc, *self._rows.values()):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ops)

    def emit(
        self,
        builder: TraceBuilder,
        iterations: int,
        addresses: Mapping[str, np.ndarray] | None = None,
        *,
        tid: int = 0,
        pc_base: int = 0,
    ) -> None:
        """Record ``iterations`` copies of the body on ``builder``: a
        one-segment :meth:`TraceBuilder.threads` call."""
        builder.threads([tid], [(self, [iterations], addresses or {}, pc_base)])


def _fill_trace_py(cols: dict[str, np.ndarray], groups: list) -> None:
    """Write every threads() group ``(start, tids, runs)`` into ``cols``:
    the oracle of the C form, O(runs) numpy calls per group."""
    for start, tids, runs in groups:
        counts = np.array([run[1] for run in runs])
        k = np.array([len(run[0]) for run in runs])
        # Instructions of each (run, segment) piece; pieces are laid out
        # segment-major, so the first position of each is a cumsum.
        sizes = counts * k[:, None]
        ends = start + np.cumsum(sizes.T).reshape(sizes.T.shape).T
        seg_sizes = sizes.sum(axis=0)
        stop = start + int(seg_sizes.sum())
        cols["tid"][start:stop] = np.repeat(tids, seg_sizes)
        for (template, c, slots, pc_base), end, size, width in zip(
            runs, ends, sizes, k
        ):
            # Each iteration's first position: its piece's first position
            # plus its rank within the piece.
            lead = np.repeat(end - size - (np.cumsum(c) - c) * width, c)
            lead += np.arange(len(lead)) * width
            at = lead[:, None] + np.arange(width)
            for name, row in template._rows.items():
                cols[name][at] = row
            cols["pc"][at] = template._pc + pc_base
            for j, slot in zip(template._addr_ops, slots):
                cols["addr"][lead + j] = slot


def _fill_trace_cc(lib: native.Library) -> Callable:
    """The library's ``fill_trace`` over flat group/run/body tables.

    Index contract, which the C form does not check: every group's
    instructions, ``sum(counts) * len(template)`` per run from its
    ``start``, end within the columns; each run has one count per
    segment, every count is ``>= 0`` and each address array holds one
    entry per iteration (``sum(counts)``); every body row's slot
    ordinal is ``-1`` or below the template's slot count, and ``pc_base
    + len(template) - 1`` fits uint32.  Every bound is known before the
    call: :meth:`TraceBuilder.threads` checks the counts, the address
    lengths and ``pc_base``, :class:`LoopTemplate` numbers its slots,
    and :meth:`TraceBuilder.finish` sizes the columns and places each
    group, so the C form returns no status.  Any value of a column's
    dtype is valid in that column.
    """
    fn = lib.fill_trace
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p] * 9 + [ctypes.c_int64] + [ctypes.c_void_p] * 6

    def kernel(cols: dict[str, np.ndarray], groups: list) -> None:
        if not groups:
            return
        gtab, rtab, tids, counts, bodies, slots = [], [], [], [], [], []
        n_tids = n_counts = n_body = 0
        for start, g_tids, runs in groups:
            gtab += (start, len(g_tids), n_tids, len(rtab) // 5, len(runs))
            tids.append(g_tids)
            n_tids += len(g_tids)
            for template, c, addrs, pc_base in runs:
                rtab += (n_body, len(template), pc_base, n_counts, len(slots))
                bodies.append(template._body)
                counts.append(c)
                n_body += len(template)
                n_counts += len(c)
                slots += [a.ctypes.data for a in addrs]
        tables = (
            np.concatenate(tids), np.array(rtab, np.int64),
            np.concatenate(counts), np.concatenate(bodies),
            np.array(slots, np.uint64),
            np.zeros(max(len(runs) for *_, runs in groups), np.int64),
        )
        gtab = np.array(gtab, np.int64)
        fn(
            *(cols[name].ctypes.data for name in TRACE_COLUMNS),
            gtab.ctypes.data, len(groups), *(t.ctypes.data for t in tables),
        )

    return kernel


native.register("fill_trace", _fill_trace_py, _fill_trace_cc)
