"""Incremental and vectorized trace construction.

Two levels of API:

* :class:`TraceBuilder` — scalar ``append``-style emission plus a bulk
  column append, used directly for small/irregular code regions.
* :class:`LoopTemplate` — describes one loop-body of IR statements once;
  :meth:`LoopTemplate.emit` records ``n`` iterations of it as one run, with
  per-iteration memory addresses supplied as arrays.  Each column is
  allocated once, in :meth:`TraceBuilder.finish`, which writes a run by
  broadcasting the body into an ``(iterations, k)`` view.  This keeps trace
  generation fast for the large regular loops of the PolyBench-style kernels.

Register-dependence semantics: virtual registers are *renamed* by the
analyses, i.e. only read-after-write dependencies matter.  A loop template
whose reads are satisfied by writes earlier in the same iteration yields
independent iterations (high ILP); a template that reads a register written
by the previous iteration (an accumulator) creates a loop-carried serial
chain.  Workloads use this to express their true dependence structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import TraceError
from .instructions import MEMORY_OPCODES, NO_REG, Opcode
from .trace import TRACE_COLUMNS, InstructionTrace


class TraceBuilder:
    """Accumulates instructions and freezes them into an InstructionTrace."""

    def __init__(self) -> None:
        # In emission order: column dicts, and LoopTemplate runs
        # ``(template, iterations, address arrays, tid, pc_base)``.
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
        if opcode in MEMORY_OPCODES and size <= 0:
            raise TraceError(f"memory opcode {opcode.name} requires size > 0")
        s = self._scalar
        s["opcode"].append(int(opcode))
        s["dst"].append(dst)
        s["src1"].append(src1)
        s["src2"].append(src2)
        s["addr"].append(addr)
        s["size"].append(size)
        s["pc"].append(pc)
        s["tid"].append(tid)
        self._count += 1

    # Convenience wrappers ------------------------------------------------

    def load(self, dst: int, addr: int, size: int = 8, *, pc: int = 0, tid: int = 0) -> None:
        self.emit(Opcode.LOAD, dst=dst, addr=addr, size=size, pc=pc, tid=tid)

    def store(self, src: int, addr: int, size: int = 8, *, pc: int = 0, tid: int = 0) -> None:
        self.emit(Opcode.STORE, src1=src, addr=addr, size=size, pc=pc, tid=tid)

    def ialu(self, dst: int, src1: int = NO_REG, src2: int = NO_REG, *, pc: int = 0, tid: int = 0) -> None:
        self.emit(Opcode.IALU, dst=dst, src1=src1, src2=src2, pc=pc, tid=tid)

    def falu(self, dst: int, src1: int = NO_REG, src2: int = NO_REG, *, pc: int = 0, tid: int = 0) -> None:
        self.emit(Opcode.FALU, dst=dst, src1=src1, src2=src2, pc=pc, tid=tid)

    def fmul(self, dst: int, src1: int = NO_REG, src2: int = NO_REG, *, pc: int = 0, tid: int = 0) -> None:
        self.emit(Opcode.FMUL, dst=dst, src1=src1, src2=src2, pc=pc, tid=tid)

    def fdiv(self, dst: int, src1: int = NO_REG, src2: int = NO_REG, *, pc: int = 0, tid: int = 0) -> None:
        self.emit(Opcode.FDIV, dst=dst, src1=src1, src2=src2, pc=pc, tid=tid)

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
        chunk: dict[str, np.ndarray] = {}
        for name, dtype in TRACE_COLUMNS.items():
            if name in columns:
                chunk[name] = np.ascontiguousarray(columns[name], dtype=dtype)
            elif name in ("dst", "src1", "src2"):
                chunk[name] = np.full(n, NO_REG, dtype=dtype)
            else:
                chunk[name] = np.zeros(n, dtype=dtype)
        self._append(chunk, n)

    def _append(self, chunk, n: int) -> None:
        self._flush_scalar()
        self._chunks.append(chunk)
        self._count += n

    def _flush_scalar(self) -> None:
        if not self._scalar["opcode"]:
            return
        chunk = {
            name: np.asarray(values, dtype=TRACE_COLUMNS[name])
            for name, values in self._scalar.items()
        }
        self._chunks.append(chunk)
        self._scalar = {name: [] for name in TRACE_COLUMNS}

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
        start = 0
        for chunk in self._chunks:
            if isinstance(chunk, dict):
                stop = start + len(chunk["opcode"])
                for name, col in cols.items():
                    col[start:stop] = chunk[name]
            else:
                template, iterations, slots, tid, pc_base = chunk
                shape = (iterations, len(template))
                stop = start + iterations * shape[1]
                for name, row in template._rows.items():
                    cols[name][start:stop].reshape(shape)[:] = row
                cols["pc"][start:stop].reshape(shape)[:] = template._pc + pc_base
                cols["tid"][start:stop] = tid
                addr = cols["addr"][start:stop].reshape(shape)
                for (j, _), slot in zip(template._addr_slots, slots):
                    addr[:, j] = slot
            start = stop
        return InstructionTrace(**cols)


@dataclass(frozen=True)
class TemplateOp:
    """One IR statement of a :class:`LoopTemplate`.

    ``addr`` may be ``None`` (non-memory op), or the string key of the
    address array passed to :meth:`LoopTemplate.emit`.
    """

    opcode: Opcode
    dst: int = NO_REG
    src1: int = NO_REG
    src2: int = NO_REG
    addr: str | None = None
    size: int = 8

    def __post_init__(self) -> None:
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
        self._addr_slots = tuple(
            (j, op.addr) for j, op in enumerate(self.ops) if op.addr
        )
        rows = {
            name: [getattr(op, name) for op in self.ops]
            for name in ("opcode", "dst", "src1", "src2")
        }
        rows["size"] = [op.size if op.addr else 0 for op in self.ops]
        self._rows = {
            name: np.array(row, dtype=TRACE_COLUMNS[name])
            for name, row in rows.items()
        }
        self._pc = np.arange(len(self.ops), dtype=np.uint32)

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def address_slots(self) -> tuple[str, ...]:
        """Names of the address arrays :meth:`emit` expects."""
        return tuple(sorted({key for _, key in self._addr_slots}))

    def emit(
        self,
        builder: TraceBuilder,
        iterations: int,
        addresses: Mapping[str, np.ndarray] | None = None,
        *,
        tid: int = 0,
        pc_base: int = 0,
    ) -> None:
        """Record ``iterations`` copies of the body on ``builder``.

        The columns are written by :meth:`TraceBuilder.finish`; the address
        arrays are copied here, so the caller may reuse them.
        """
        if iterations < 0:
            raise TraceError("iterations must be >= 0")
        k = len(self.ops)
        if not 0 <= tid <= 0xFFFF:
            raise TraceError(f"tid {tid} is outside uint16")
        if not 0 <= pc_base <= 0xFFFFFFFF - (k - 1):
            raise TraceError(f"pc_base {pc_base} puts a pc outside uint32")
        if iterations == 0:
            return
        addresses = addresses or {}
        slots = []
        for _, key in self._addr_slots:
            try:
                slot = addresses[key]
            except KeyError:
                raise TraceError(f"missing address array {key!r}") from None
            if len(slot) != iterations:
                raise TraceError(
                    f"address array {key!r} has length {len(slot)}, "
                    f"expected {iterations}"
                )
            slots.append(np.array(slot, dtype=np.uint64))
        builder._append((self, iterations, slots, tid, pc_base), iterations * k)
