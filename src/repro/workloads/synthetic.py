"""Synthetic microbenchmarks: STREAM, GUPS and pointer chasing.

Classic memory-system calibration kernels, useful for validating the
simulators and for stressing NAPEL with behaviour outside the Table 2
suite:

* :class:`Stream`      — McCalpin STREAM triad: pure sequential bandwidth;
* :class:`Gups`        — random read-modify-writes over a huge table
  (HPCC RandomAccess): pure memory-latency throughput;
* :class:`PointerChase` — a dependent load chain: one outstanding miss at
  a time, the worst case for any latency-hiding mechanism.

They implement the full :class:`~repro.workloads.Workload` interface, so
campaigns, profiling and prediction work on them unchanged — see
``examples/custom_workload.py`` for the usage pattern.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..ir import InstructionTrace, LoopTemplate, Opcode, TemplateOp, TraceBuilder
from . import _patterns as pat
from .base import AddressSpace, DoEParameter, SizeMapping, Workload, partition_counts

_THREADS = SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False)


class Stream(Workload):
    """STREAM triad: a[i] = b[i] + s * c[i] — sequential bandwidth."""

    name = "stream"
    description = "STREAM triad microbenchmark (synthetic)"

    _SIZE = SizeMapping(alpha=0.02, beta=1.0, minimum=256)

    @property
    def parameters(self) -> tuple[DoEParameter, ...]:
        return (
            DoEParameter(
                "elements", (100_000, 400_000, 700_000, 1_000_000, 1_300_000),
                800_000, self._SIZE,
            ),
            DoEParameter("threads", (1, 4, 16, 32, 64), 32, _THREADS),
        )

    def _generate(
        self,
        sizes: Mapping[str, int],
        raw: Mapping[str, float],
        rng: np.random.Generator,
    ) -> InstructionTrace:
        n = sizes["elements"]
        threads = min(sizes["threads"], n)
        space = AddressSpace()
        a = space.alloc(n * 8)
        b = space.alloc(n * 8)
        c = space.alloc(n * 8)
        triad = LoopTemplate([
            TemplateOp(Opcode.LOAD, dst=1, addr="b"),
            TemplateOp(Opcode.LOAD, dst=2, addr="c"),
            TemplateOp(Opcode.FMUL, dst=3, src1=2, src2=7),
            TemplateOp(Opcode.FALU, dst=4, src1=1, src2=3),
            TemplateOp(Opcode.STORE, src1=4, addr="a"),
            TemplateOp(Opcode.BRANCH, src1=9),
        ])
        builder = TraceBuilder()
        i = np.arange(n, dtype=np.int64)
        builder.threads(np.arange(threads), [
            (triad, partition_counts(n, threads), {
                "a": pat.vector_addr(a, i),
                "b": pat.vector_addr(b, i),
                "c": pat.vector_addr(c, i),
            }, 0),
        ])
        return builder.finish()


class Gups(Workload):
    """GUPS / RandomAccess: table[rand()] ^= value — latency throughput."""

    name = "gups"
    description = "GUPS random-access microbenchmark (synthetic)"

    _UPDATES = SizeMapping(alpha=0.05, beta=1.0, minimum=256)

    @property
    def parameters(self) -> tuple[DoEParameter, ...]:
        return (
            DoEParameter(
                "updates", (50_000, 200_000, 500_000, 800_000, 1_000_000),
                600_000, self._UPDATES,
            ),
            DoEParameter(
                "table_mib", (16, 64, 256, 512, 1024), 256,
                SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False),
            ),
            DoEParameter("threads", (1, 4, 16, 32, 64), 32, _THREADS),
        )

    def _generate(
        self,
        sizes: Mapping[str, int],
        raw: Mapping[str, float],
        rng: np.random.Generator,
    ) -> InstructionTrace:
        updates = sizes["updates"]
        table_bytes = int(raw["table_mib"]) << 20  # virtual footprint
        threads = min(sizes["threads"], updates)
        space = AddressSpace()
        table = space.alloc(table_bytes)
        update = pat.gather_update()
        builder = TraceBuilder()
        n_slots = table_bytes // 8
        slots = rng.integers(0, n_slots, size=updates).astype(np.int64)
        addrs = table + slots * 8
        builder.threads(np.arange(threads), [
            (update, partition_counts(updates, threads),
             {"idx": addrs, "data": addrs, "data_out": addrs}, 0),
        ])
        return builder.finish()


class PointerChase(Workload):
    """next = *next over a shuffled ring — serial dependent misses."""

    name = "chase"
    description = "pointer-chasing microbenchmark (synthetic)"

    _HOPS = SizeMapping(alpha=0.05, beta=1.0, minimum=128)

    @property
    def parameters(self) -> tuple[DoEParameter, ...]:
        return (
            DoEParameter(
                "hops", (50_000, 100_000, 300_000, 600_000, 800_000),
                400_000, self._HOPS,
            ),
            DoEParameter(
                "ring_mib", (4, 16, 64, 256, 512), 64,
                SizeMapping(alpha=1.0, beta=1.0, minimum=1, apply_scale=False),
            ),
            DoEParameter("threads", (1, 2, 4, 8, 16), 4, _THREADS),
        )

    def _generate(
        self,
        sizes: Mapping[str, int],
        raw: Mapping[str, float],
        rng: np.random.Generator,
    ) -> InstructionTrace:
        hops = sizes["hops"]
        ring_bytes = int(raw["ring_mib"]) << 20
        threads = sizes["threads"]
        space = AddressSpace()
        builder = TraceBuilder()
        n_nodes = ring_bytes // 64  # one node per cache line
        # Each dependent load consumes the pointer produced by the previous
        # one (dst=1 feeds src1=1): a strictly serial miss chain.
        chain = LoopTemplate([
            TemplateOp(Opcode.LOAD, dst=1, src1=1, addr="p"),
            TemplateOp(Opcode.BRANCH, src1=1),
        ])
        per_thread = max(1, hops // max(1, threads))
        rings = [space.alloc(ring_bytes) for _ in range(threads)]
        nodes = rng.integers(0, n_nodes, size=threads * per_thread).astype(np.int64)
        builder.threads(np.arange(threads), [
            (chain, np.full(threads, per_thread),
             {"p": np.repeat(rings, per_thread) + nodes * 64}, 0),
        ])
        return builder.finish()


#: The synthetic microbenchmarks (not part of the Table 2 registry).
SYNTHETIC_WORKLOADS: tuple[type[Workload], ...] = (Stream, Gups, PointerChase)
