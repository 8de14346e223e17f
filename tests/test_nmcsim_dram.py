"""Tests for the 3D-stacked DRAM model (repro.nmcsim.dram).

Every access goes through ``StackedMemory.access``, which adds one
logic-layer hop on the way to the vault and one on the way back, so a
request issued at ``t`` sees bank/bus time plus ``2 * hop_ns``.
Addresses are picked with ``route_addresses`` to land on the bank or vault
each behaviour needs.
"""

import numpy as np
import pytest

from repro.config import DRAMTiming, default_nmc_config
from repro.nmcsim.dram import StackedMemory, route_addresses


TIMING = DRAMTiming()
HOPS = 2 * TIMING.hop_ns
BLOCK = 256  # row-buffer bytes: lines of one block share a row


def memory(timing: DRAMTiming = TIMING) -> StackedMemory:
    return StackedMemory(default_nmc_config().replace(timing=timing))


def route(mem: StackedMemory, addrs: np.ndarray):
    """(vault, bank, block) of byte addresses on ``mem``'s geometry."""
    cfg = mem.config
    return route_addresses(
        addrs, cfg.row_buffer_bytes.bit_length() - 1, cfg.n_vaults,
        cfg.banks_per_vault,
    )


def routes(mem: StackedMemory, n_blocks: int = 4096):
    """(addrs, vault, bank, block) for the first ``n_blocks`` blocks."""
    addrs = np.arange(n_blocks, dtype=np.uint64) * np.uint64(BLOCK)
    return (addrs, *route(mem, addrs))


def same_bank_pair(mem: StackedMemory) -> tuple[int, int]:
    """Two block addresses that map to one bank but different rows."""
    addrs, vault, bank, _ = routes(mem)
    slot = vault * mem.config.banks_per_vault + bank
    (hits,) = np.nonzero(slot == slot[0])
    return int(addrs[hits[0]]), int(addrs[hits[1]])


def same_vault_other_banks(mem: StackedMemory, n: int) -> list[int]:
    """``n`` block addresses in one vault, each on a different bank."""
    addrs, vault, bank, _ = routes(mem)
    picked: dict[int, int] = {}
    for a, v, b in zip(addrs, vault, bank):
        if v == vault[0] and int(b) not in picked:
            picked[int(b)] = int(a)
    assert len(picked) >= n
    return list(picked.values())[:n]


class TestBank:
    def test_closed_row_latency(self):
        mem = memory()
        a, _ = same_bank_pair(mem)
        data_at = mem.access(0.0, a, False)
        assert data_at == pytest.approx(TIMING.closed_row_access_ns() + HOPS)

    def test_row_hit_within_linger(self):
        mem = memory()
        a, _ = same_bank_pair(mem)
        first = mem.access(0.0, a, False)
        # Another line of the same block, while the row still lingers.
        second = mem.access(first, a + 64, False)
        # Row hit: only CAS + burst (no new activation, no precharge).
        assert second - first == pytest.approx(
            TIMING.t_cl_ns + TIMING.t_bl_ns + HOPS
        )

    def test_different_row_pays_precharge_and_activation(self):
        mem = memory()
        a, b = same_bank_pair(mem)
        first = mem.access(0.0, a, False)
        second = mem.access(first, b, False)
        # Conflict while the row lingers open: tRP + full access.
        assert second - first == pytest.approx(
            TIMING.t_rp_ns + TIMING.closed_row_access_ns() + HOPS
        )

    def test_row_closes_after_linger(self):
        mem = memory()
        a, _ = same_bank_pair(mem)
        first = mem.access(0.0, a, False)
        late = first + TIMING.row_linger_ns + 100.0
        second = mem.access(late, a, False)
        # Auto-precharged in the background: a plain activation, no hit.
        assert second - late == pytest.approx(
            TIMING.closed_row_access_ns() + HOPS
        )

    def test_back_to_back_same_bank_serialises(self):
        mem = memory()
        a, b = same_bank_pair(mem)
        mem.access(0.0, a, False)
        # Second access must wait for the first activation to settle
        # (tRAS) and the conflicting row to precharge (tRP).
        second = mem.access(0.0, b, False)
        occupancy = max(TIMING.t_ras_ns, TIMING.t_rcd_ns + TIMING.t_cl_ns)
        assert second == pytest.approx(
            occupancy + TIMING.t_rp_ns + TIMING.closed_row_access_ns() + HOPS
        )

    def test_strict_closed_row_with_zero_linger(self):
        timing = DRAMTiming(row_linger_ns=0.0)
        mem = memory(timing)
        a, _ = same_bank_pair(mem)
        first = mem.access(0.0, a, False)
        second = mem.access(first + 1.0, a + 64, False)
        # Same row, yet no hit: the row closed as soon as data returned.
        assert second - (first + 1.0) == pytest.approx(
            timing.closed_row_access_ns() + HOPS
        )


class TestVault:
    def test_bus_serialises_bursts(self):
        mem = memory()
        a, b = same_vault_other_banks(mem, 2)
        # Two simultaneous accesses to different banks share the TSV bus.
        first = mem.access(0.0, a, False)
        second = mem.access(0.0, b, False)
        assert second >= first + TIMING.t_bl_ns - 1e-9

    def test_access_counter(self):
        mem = memory()
        a, b = same_vault_other_banks(mem, 2)
        mem.access(0.0, a, False)
        mem.access(0.0, b, True)
        assert mem.stats().max_vault_accesses == 2
        addrs, vault, _, _ = routes(mem)
        other = int(addrs[np.nonzero(vault != vault[0])[0][0]])
        mem.access(0.0, other, False)
        stats = mem.stats()
        assert stats.max_vault_accesses == 2
        assert stats.accesses == 3


class TestStackedMemory:
    def setup_method(self):
        self.mem = StackedMemory(default_nmc_config())

    def test_route_is_deterministic_and_in_range(self):
        cfg = self.mem.config
        addrs = np.array(
            [0, 64, 4096, 1 << 20, (1 << 31) + 192], dtype=np.uint64
        )
        vault, bank, row = route(self.mem, addrs)
        assert ((0 <= vault) & (vault < cfg.n_vaults)).all()
        assert ((0 <= bank) & (bank < cfg.banks_per_vault)).all()
        for again, first in zip(route(self.mem, addrs), (vault, bank, row)):
            assert np.array_equal(again, first)

    def test_same_block_same_route(self):
        # Two lines in the same 256 B block share vault/bank/row.
        routed = route(self.mem, np.array([0, 192], dtype=np.uint64))
        for column in routed:
            assert column[0] == column[1]

    def test_hashing_spreads_power_of_two_strides(self):
        """Strided access (the bp weight walk) must not camp on one vault."""
        addrs = np.arange(256, dtype=np.uint64) * np.uint64(48 * 1024)
        vaults, _, _ = route(self.mem, addrs)
        assert np.bincount(vaults).max() < 0.2 * len(vaults)

    def test_access_counts_reads_writes(self):
        self.mem.access(0.0, 0, is_write=False)
        self.mem.access(0.0, 64, is_write=True)
        stats = self.mem.stats()
        assert stats.reads == 1 and stats.writes == 1
        assert stats.accesses == 2
        assert stats.activates == 2

    def test_access_latency_includes_hops(self):
        data_at = self.mem.access(0.0, 0, is_write=False)
        expected = TIMING.closed_row_access_ns() + HOPS
        assert data_at == pytest.approx(expected)

    def test_parallel_vaults_overlap(self):
        # Accesses to different vaults at t=0 all complete at the minimum
        # latency (no serialisation across vaults).
        addrs, vault, _, _ = routes(self.mem)
        _, first = np.unique(vault, return_index=True)
        times = [self.mem.access(0.0, int(addrs[i]), False) for i in first[:4]]
        assert len(times) == 4
        assert max(times) == pytest.approx(min(times))
