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
(:mod:`repro.native`) per trace, reading its derived-column table in
place (the opcodes, the dense register rows, the memory mask and the
accesses' dense line ids).  The C kernel walks the sample once for
every window: it links each op to its producers (the last writer of
each source register and, for a load, the last store to its line) and
takes the op's level under each window from the producers inside the
op's chunk.  :func:`_chunk_depths`, the pure-Python walk, is the
oracle and the fallback on hosts without a C compiler.
"""

from __future__ import annotations

import ctypes
from typing import Callable, Sequence

import numpy as np

from .. import native
from ..ir import InstructionTrace, Opcode, TraceColumns, columns_of
from .features import GROUP_SLICES, ILP_SAMPLE_LIMIT, ILP_WINDOWS, block_view

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
    mask: np.ndarray,
    line_ids: np.ndarray,
    n_regs: int,
    n_lines: int,
    windows: Sequence[int],
) -> list[int]:
    """Every depth :func:`ilp_features` needs, in one list.

    Over the ``len(opcodes)`` leading instructions of a trace: their
    dense register ids, their memory mask and the accesses' dense line
    ids (``line_ids[j]`` belongs to the j-th op with ``mask`` set; the
    array may run past the sample).  ``[depth, int_chain, fp_chain,
    mem_chain, n_int, n_fp, n_mem]`` for the infinite window (chain
    depths, then the per-class op counts), followed by the total depth
    under each of ``windows``.
    """
    n = len(opcodes)
    mask = np.asarray(mask[:n], dtype=bool)
    # Each sampled memory op's line id; other ops never read theirs.
    lines = np.zeros(n, dtype=np.int64)
    lines[mask] = line_ids[:np.count_nonzero(mask)]
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
_KIND = np.zeros(len(Opcode), dtype=np.uint8)
_KIND[sorted(_INT_CODES)] = 1
_KIND[sorted(_FP_CODES)] = 2
_KIND[sorted(_MEM_CODES)] = 3
_KIND[[_LOAD, _ATOMIC]] |= 4
_KIND[[_STORE, _ATOMIC]] |= 8


def _ilp_depths_cc(lib: native.Library) -> Callable:
    """The library's ``ilp_depths`` with the Python form's signature.

    It reads the columns in place (the register rows and line ids of a
    :class:`~repro.ir.TraceColumns` table are contiguous ``int64``).
    Index contract: the register rows and ``mask`` are at least as long
    as ``opcodes``, which the C form does not check; every opcode has a
    kind, every register id is below ``n_regs`` (a negative id is no
    register), ``mask`` marks exactly the memory ops and each of their
    line ids is in ``[0, n_lines)``, which only a pass over the columns
    can tell, so the C form checks them before it walks and returns a
    status, raised here as :class:`ValueError`.
    """
    fn = lib.ilp_depths
    fn.restype = ctypes.c_int64
    fn.argtypes = (
        [ctypes.c_void_p] * 2 + [ctypes.c_int64] + [ctypes.c_void_p] * 5
        + [ctypes.c_int64] * 4 + [ctypes.c_void_p, ctypes.c_int64]
        + [ctypes.c_void_p]
    )

    def kernel(
        ops, dsts, src1s, src2s, mask, line_ids, n_regs, n_lines, windows
    ) -> list[int]:
        ops = np.ascontiguousarray(ops, dtype=np.uint8)
        regs = [np.ascontiguousarray(c, dtype=np.int64) for c in (dsts, src1s, src2s)]
        mask = np.ascontiguousarray(mask, dtype=bool)
        line_ids = np.ascontiguousarray(line_ids, dtype=np.int64)
        win = np.asarray(windows, dtype=np.int64)
        out = np.empty(7 + len(win), dtype=np.int64)
        status = fn(
            ops.ctypes.data, _KIND.ctypes.data, len(_KIND),
            *(c.ctypes.data for c in regs), mask.ctypes.data,
            line_ids.ctypes.data, len(line_ids), len(ops), n_regs, n_lines,
            win.ctypes.data, len(win), out.ctypes.data,
        )
        if status == -3:
            raise MemoryError("ilp_depths: out of memory")
        if status == -2:
            raise ValueError(f"ilp_depths: {len(ops)} instructions do not fit 32-bit levels")
        if status:
            raise ValueError(
                f"ilp_depths: an opcode has no kind, a register id is not "
                f"below {n_regs}, the mask is not the memory ops, or a "
                f"memory op's line id is missing or outside [0, {n_lines})"
            )
        return out.tolist()

    return kernel


native.register("ilp_depths", _ilp_depths_py, _ilp_depths_cc)


_SLICE = GROUP_SLICES["ilp"]


def write_ilp(out: np.ndarray, cols: TraceColumns) -> None:
    """Write the ILP block into ``out``: total, windowed and per-class
    chain ILP over the first
    :data:`~repro.profiler.features.ILP_SAMPLE_LIMIT` instructions."""
    trace = cols.trace
    n = min(len(trace), ILP_SAMPLE_LIMIT)
    regs, n_regs, _distinct = cols.registers
    uniq, _first, line_ids = cols.lines
    depth, int_chain, fp_chain, mem_chain, n_int, n_fp, n_mem, *windowed = (
        native.resolve("ilp_depths")[0](
            trace.opcode[:n], *regs[:, :n], cols.memory_mask, line_ids,
            n_regs, len(uniq), ILP_WINDOWS,
        )
    )
    ops = (n, *(n for _ in windowed), n_int, n_fp, n_mem)
    depths = (depth, *windowed, int_chain, fp_chain, mem_chain)
    out[_SLICE] = [k / d if d else 0.0 for k, d in zip(ops, depths)]


def ilp_features(trace: InstructionTrace | TraceColumns) -> dict[str, float]:
    """ILP feature family (see :func:`write_ilp`)."""
    return block_view(_SLICE, write_ilp, columns_of(trace))
