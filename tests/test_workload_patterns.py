"""Tests for the shared kernel loop templates (repro.workloads._patterns)."""

import numpy as np
import pytest

from repro.ir import Opcode, TraceBuilder
from repro.workloads import _patterns as pat


def emit_once(template, n=10):
    builder = TraceBuilder()
    addrs = {
        slot: np.arange(n, dtype=np.int64) * 64
        for slot in {op.addr for op in template.ops if op.addr}
    }
    template.emit(builder, n, addrs)
    return builder.finish()


ALL_TEMPLATES = {
    "dot_product": pat.dot_product,
    "dual_dot": pat.dual_dot,
    "stream_update": pat.stream_update,
    "gather_reduce": pat.gather_reduce,
    "gather_update": pat.gather_update,
    "atomic_update": pat.atomic_update,
    "distance_accumulate": pat.distance_accumulate,
    "rank1_update": pat.rank1_update,
    "scaled_update": pat.scaled_update,
    "scalar_divide": pat.scalar_divide,
}


@pytest.mark.parametrize("name", sorted(ALL_TEMPLATES))
def test_template_emits_valid_trace(name):
    from repro.ir import validate_trace

    trace = emit_once(ALL_TEMPLATES[name]())
    assert len(trace) > 0
    validate_trace(trace)


def test_dot_product_has_serial_accumulator():
    from repro.profiler import ilp_features

    trace = emit_once(pat.dot_product(), n=300)
    feats = ilp_features(trace)
    # 6 ops per iteration, one loop-carried FP chain: ILP ~ 6.
    assert feats["ilp.total"] == pytest.approx(6.0, rel=0.1)


def test_gather_reduce_has_dependent_loads():
    trace = emit_once(pat.gather_reduce())
    # The gathered load consumes the register of the index computation.
    ops = list(trace)
    idx_load = ops[0]
    addr_calc = ops[1]
    data_load = ops[2]
    assert idx_load.opcode == Opcode.LOAD
    assert addr_calc.src1 == idx_load.dst
    assert data_load.src1 == addr_calc.dst


def test_atomic_update_uses_atomic_opcode():
    trace = emit_once(pat.atomic_update())
    counts = trace.opcode_counts()
    assert counts[Opcode.ATOMIC] == 10


def test_scaled_update_has_no_scalar_load():
    """The register-resident multiplier must not generate loads."""
    trace = emit_once(pat.scaled_update())
    counts = trace.opcode_counts()
    # Two loads (b and a) per iteration, not three.
    assert counts[Opcode.LOAD] == 20


def test_dual_dot_three_streams():
    trace = emit_once(pat.dual_dot())
    assert trace.opcode_counts()[Opcode.LOAD] == 30  # a, b, x per iteration


def test_row_major_addressing():
    i = np.array([0, 1])
    j = np.array([2, 3])
    addrs = pat.row_major(1000, i, j, ncols=10)
    assert addrs.tolist() == [1000 + 2 * 8, 1000 + 13 * 8]
    blocked = pat.row_major(0, i, j, ncols=10, elem=64)
    assert blocked.tolist() == [2 * 64, 13 * 64]


def test_tile_ij_ordering():
    i, j = pat.tile_ij(np.array([5, 6]), 3)
    assert i.tolist() == [5, 5, 5, 6, 6, 6]
    assert j.tolist() == [0, 1, 2, 0, 1, 2]
