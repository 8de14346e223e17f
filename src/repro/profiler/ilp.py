"""Instruction-level parallelism on an ideal machine (paper Table 1, "ILP").

The ideal machine has infinite functional units and perfect register
renaming: only read-after-write dependencies (through registers and through
memory) constrain scheduling.  ILP is the number of instructions divided by
the dependence-DAG critical-path length.

Besides the classic infinite-window ILP, windowed variants (the machine may
only look ahead ``w`` instructions; approximated by scheduling consecutive
chunks of ``w`` instructions independently and serialising the chunks) and
per-class dependence-chain ILP (integer, floating-point, memory) are
reported, mirroring PISA's ILP sub-features.

All of it is one call into the compiled kernel library
(:mod:`repro.native`) per trace over the dense register and line ids
of its derived-column table: the C kernel walks the sample once per
window (per-chunk epoch stamps stand in for clearing the level tables).
:func:`_chunk_depths`, the pure-Python walk, is the oracle and the
fallback on hosts without a C compiler.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Sequence

import numpy as np

from .. import native
from ..ir import InstructionTrace, Opcode, TraceColumns, columns_of
from .features import ILP_SAMPLE_LIMIT, ILP_WINDOWS

_INT_CODES = frozenset(
    int(op) for op in (Opcode.IALU, Opcode.IMUL, Opcode.IDIV, Opcode.CMP)
)
_FP_CODES = frozenset(
    int(op) for op in (Opcode.FALU, Opcode.FMUL, Opcode.FDIV, Opcode.FMA)
)
_MEM_CODES = frozenset(
    int(op) for op in (Opcode.LOAD, Opcode.STORE, Opcode.ATOMIC)
)
_LOAD = int(Opcode.LOAD)
_STORE = int(Opcode.STORE)
_ATOMIC = int(Opcode.ATOMIC)


def _chunk_depths(
    opcodes: list[int],
    dsts: list[int],
    src1s: list[int],
    src2s: list[int],
    lines: list[int],
    window: int | None,
) -> tuple[int, int, int, int]:
    """Total serialized DAG depth plus per-class chain depths.

    With ``window=None`` the whole stream is one chunk (infinite window).
    Returns (total_depth, int_chain, fp_chain, mem_chain).
    """
    n = len(opcodes)
    if n == 0:
        return 0, 0, 0, 0
    total_depth = 0
    int_chain = fp_chain = mem_chain = 0
    start = 0
    step = window if window else n
    while start < n:
        end = min(start + step, n)
        reg_level: dict[int, int] = {}
        store_level: dict[int, int] = {}
        # Per-class chain levels keyed by register.
        int_level: dict[int, int] = {}
        fp_level: dict[int, int] = {}
        depth = 0
        chunk_int = chunk_fp = chunk_mem = 0
        mem_serial = 0  # level of the last memory op chain within the chunk
        for i in range(start, end):
            op = opcodes[i]
            level = 0
            s1 = src1s[i]
            if s1 >= 0:
                level = reg_level.get(s1, 0)
            s2 = src2s[i]
            if s2 >= 0:
                l2 = reg_level.get(s2, 0)
                if l2 > level:
                    level = l2
            if op == _LOAD or op == _ATOMIC:
                line = lines[i]
                sl = store_level.get(line, 0)
                if sl > level:
                    level = sl
            level += 1
            if level > depth:
                depth = level
            d = dsts[i]
            if d >= 0:
                reg_level[d] = level
            if op == _STORE or op == _ATOMIC:
                store_level[lines[i]] = level
            # Per-class chains: an op extends the chain of its class if it
            # consumes a value produced by the same class.
            if op in _INT_CODES:
                cl = 0
                if s1 >= 0:
                    cl = int_level.get(s1, 0)
                if s2 >= 0:
                    cl = max(cl, int_level.get(s2, 0))
                cl += 1
                if d >= 0:
                    int_level[d] = cl
                if cl > chunk_int:
                    chunk_int = cl
            elif op in _FP_CODES:
                cl = 0
                if s1 >= 0:
                    cl = fp_level.get(s1, 0)
                if s2 >= 0:
                    cl = max(cl, fp_level.get(s2, 0))
                cl += 1
                if d >= 0:
                    fp_level[d] = cl
                if cl > chunk_fp:
                    chunk_fp = cl
            elif op in _MEM_CODES:
                # Memory chain: the deepest dependence level reached by a
                # memory op approximates the length of the address-dependence
                # chain feeding memory accesses (pointer chasing deepens it).
                if level > mem_serial:
                    mem_serial = level
        chunk_mem = min(depth, mem_serial)
        total_depth += depth
        int_chain += chunk_int
        fp_chain += chunk_fp
        mem_chain += chunk_mem
        start = end
    return total_depth, int_chain, fp_chain, mem_chain


def _ilp_depths_py(
    opcodes: np.ndarray,
    dsts: np.ndarray,
    src1s: np.ndarray,
    src2s: np.ndarray,
    lines: np.ndarray,
    n_regs: int,
    n_lines: int,
    windows: Sequence[int],
) -> list[int]:
    """Every depth :func:`ilp_features` needs, in one list.

    ``[depth, int_chain, fp_chain, mem_chain, n_int, n_fp, n_mem]`` for
    the infinite window (chain depths, then the per-class op counts),
    followed by the total depth under each of ``windows``.
    """
    ops = opcodes.tolist()
    cols = (ops, dsts.tolist(), src1s.tolist(), src2s.tolist(), lines.tolist())
    out = list(_chunk_depths(*cols, window=None))
    out.append(sum(1 for op in ops if op in _INT_CODES))
    out.append(sum(1 for op in ops if op in _FP_CODES))
    out.append(sum(1 for op in ops if op in _MEM_CODES))
    out.extend(_chunk_depths(*cols, window=w)[0] for w in windows)
    return out


#: Per-opcode kind bits of the C kernel: the class in bits 0-1 (1 int,
#: 2 fp, 3 memory), bit 2 reads memory, bit 3 writes memory.
_KIND = np.zeros(len(Opcode), dtype=np.int64)
_KIND[sorted(_INT_CODES)] = 1
_KIND[sorted(_FP_CODES)] = 2
_KIND[sorted(_MEM_CODES)] = 3
_KIND[[_LOAD, _ATOMIC]] |= 4
_KIND[[_STORE, _ATOMIC]] |= 8


def _ilp_depths_cc(lib: native.Library) -> Callable:
    """The library's ``ilp_depths`` with the Python form's signature.

    Index contract: the five columns are equally long and every window
    is positive (:data:`~repro.profiler.features.ILP_WINDOWS`), which
    the C form does not check; every register id is below ``n_regs`` (a
    negative id is no register) and every memory op's line id is in
    ``[0, n_lines)``, which only a pass over the columns can tell, so
    the C form checks both before it touches a table and returns a
    status, raised here as :class:`ValueError`.  A non-memory op's line
    id is never read.
    """
    fn = lib.ilp_depths
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        [ctypes.c_void_p] * 5 + [ctypes.c_int64] * 3
        + [ctypes.c_void_p, ctypes.c_int64] + [ctypes.c_void_p] * 7
    )

    def kernel(ops, dsts, src1s, src2s, lines, n_regs, n_lines, windows) -> list[int]:
        n = len(ops)
        cols = (_KIND[ops], dsts, src1s, src2s, lines)
        cols = [np.ascontiguousarray(c, dtype=np.int64) for c in cols]
        win = np.asarray(windows, dtype=np.int64)
        # The register and store level tables, each followed by its
        # epoch stamps, then the int- and fp-chain level tables.
        sizes = (n_regs, n_regs, n_lines, n_lines, n_regs, n_regs)
        tables = [np.zeros(k, dtype=np.int64) for k in sizes]
        out = np.empty(7 + len(win), dtype=np.int64)
        status = fn(
            *(c.ctypes.data for c in cols), n, n_regs, n_lines,
            win.ctypes.data, len(win), *(t.ctypes.data for t in tables),
            out.ctypes.data,
        )
        if status:
            raise ValueError(
                f"ilp_depths: a register id is not below {n_regs} or a "
                f"memory op's line id is outside [0, {n_lines})"
            )
        return out.tolist()

    return kernel


native.register("ilp_depths", _ilp_depths_py, _ilp_depths_cc)


def ilp_features(trace: InstructionTrace | TraceColumns) -> dict[str, float]:
    """ILP feature family: total, windowed, and per-class chain ILP, over
    the first :data:`~repro.profiler.features.ILP_SAMPLE_LIMIT`
    instructions."""
    cols = columns_of(trace)
    trace = cols.trace
    n = min(len(trace), ILP_SAMPLE_LIMIT)
    regs, n_regs, _distinct = cols.registers
    uniq, _first, line_ids = cols.lines
    # Each sampled memory op's line id; other ops never read theirs.
    mem = cols.memory_mask[:n]
    lines = np.zeros(n, dtype=np.int64)
    lines[mem] = line_ids[:np.count_nonzero(mem)]
    depth, int_chain, fp_chain, mem_chain, n_int, n_fp, n_mem, *windowed = (
        native.resolve("ilp_depths")[0](
            trace.opcode[:n], *regs[:, :n], lines, n_regs, len(uniq), ILP_WINDOWS
        )
    )
    out = {"ilp.total": n / depth if depth else 0.0}
    out["ilp.int_chain"] = n_int / int_chain if int_chain else 0.0
    out["ilp.fp_chain"] = n_fp / fp_chain if fp_chain else 0.0
    out["ilp.mem_chain"] = n_mem / mem_chain if mem_chain else 0.0
    for w, d in zip(ILP_WINDOWS, windowed):
        out[f"ilp.window_{w}"] = n / d if d else 0.0
    return out
