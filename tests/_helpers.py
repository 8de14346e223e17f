"""Trace-building, kernel-selection and fitted-forest helpers shared by
the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir import LoopTemplate, Opcode, TemplateOp, TraceBuilder
from repro import native


def build_stream_trace(n: int = 2000, *, tid: int = 0, pc_base: int = 0):
    """A sequential read-modify-write stream (unit stride, one thread)."""
    template = LoopTemplate([
        TemplateOp(Opcode.LOAD, dst=1, addr="a"),
        TemplateOp(Opcode.FMUL, dst=2, src1=1, src2=7),
        TemplateOp(Opcode.FALU, dst=3, src1=2, src2=7),
        TemplateOp(Opcode.STORE, src1=3, addr="a_out"),
        TemplateOp(Opcode.IALU, dst=9, src1=9),
        TemplateOp(Opcode.BRANCH, src1=9),
    ])
    builder = TraceBuilder()
    addrs = 0x100000 + np.arange(n, dtype=np.int64) * 8
    template.emit(
        builder, n, {"a": addrs, "a_out": addrs}, tid=tid, pc_base=pc_base
    )
    return builder.finish()


def build_random_trace(n: int = 2000, *, seed: int = 0, span: int = 1 << 24):
    """Random gathers over a large footprint (irregular pattern)."""
    rng = np.random.default_rng(seed)
    template = LoopTemplate([
        TemplateOp(Opcode.LOAD, dst=1, addr="x"),
        TemplateOp(Opcode.FALU, dst=8, src1=8, src2=1),
        TemplateOp(Opcode.BRANCH, src1=8),
    ])
    builder = TraceBuilder()
    addrs = 0x100000 + rng.integers(0, span, size=n, dtype=np.int64) * 8
    template.emit(builder, n, {"x": addrs}, tid=0, pc_base=0)
    return builder.finish()


def use_kernel(monkeypatch, name: str) -> None:
    """Run every compiled kernel (phase B, ILP, reuse distance) in one form.

    ``"python"`` forces the pure-Python forms; ``"cc"`` the compiled
    kernel library (the test is skipped on hosts without a C compiler).
    """
    if name == "python":
        monkeypatch.setattr(native, "_library", lambda: None)
    elif native.jit_status()["backend"] != "cc":
        pytest.skip("no C compiler available")


def reference_result(workload, row, *, scale: float, arch=None):
    """A campaign row's point re-simulated on the per-access reference
    engine, from a freshly generated trace (centre replicate 0)."""
    from repro.nmcsim import NMCSimulator
    from repro.workloads.base import config_seed

    params = dict(row.parameters)
    trace = workload.generate(
        params, scale=scale, seed=config_seed(workload.name, params)
    )
    return NMCSimulator(arch, engine="reference").run(
        trace, workload=workload.name, parameters=params
    )


def forest_trees(forest):
    """A fitted forest's trees, sliced back out of its node table.

    Each is a :class:`~repro.ml.tree.RegressionTree` holding only its
    ``nodes_`` (child indices made tree-local again) and ``value_``, so
    it predicts, applies and walks as the tree did before the forest
    dropped it; it has no importances and no RNG.
    """
    from repro.ml import RegressionTree

    bounds = [*forest.roots_.tolist(), len(forest.values_)]
    trees = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        feature, threshold, left, right = (a[lo:hi] for a in forest.nodes_)
        leaf = left < 0
        tree = RegressionTree()
        tree.nodes_ = (
            feature, threshold,
            np.where(leaf, left, left - lo), np.where(leaf, right, right - lo),
        )
        tree.value_ = forest.values_[lo:hi]
        tree.n_features_ = forest.n_features_
        trees.append(tree)
    return trees


def forest_key(forest):
    """Everything a fitted forest is: the dtypes and bytes of its node
    table, its importances and its OOB prediction (None without one)."""
    arrays = (
        *forest.nodes_, forest.roots_, forest.values_,
        forest.feature_importances_, forest.oob_prediction_,
    )
    return [None if a is None else (a.dtype.str, a.tobytes()) for a in arrays]
