"""The stacked-memory cube: address mapping, vaults and banks.

Address interleaving follows the HMC convention: consecutive
row-buffer-sized blocks (256 B) rotate across vaults, then across banks
within the vault.  This spreads streaming accesses over all vaults and
banks, which is what gives 3D-stacked memory its internal bandwidth.

Each bank runs a closed-page-with-timeout policy: every access activates
the row, performs the column access and transfers the burst, and the
controller keeps the row open for a short linger window
(``row_linger_ns``).  Within the window an access to the *same* row is a
row-buffer hit (CAS + burst only) and one to a *different* row first
precharges the open row (explicit ``tRP``).  Once the window expires the
controller auto-precharges in the background, so a later access pays
only the activation; ``row_linger_ns = 0`` is a strict closed-row
policy.

Each vault has an FCFS controller and one TSV data bus that serialises
the bursts of its banks' concurrent accesses.  Requests are served in
arrival order, which the event-driven simulator guarantees by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...config import DRAMTiming, NMCConfig
from ...obs.trace import HW_TID_VAULT_BASE


def route_addresses(
    addrs: np.ndarray, block_shift: int, n_vaults: int, banks_per_vault: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Map byte addresses to (vault, bank, block) int64 arrays.

    The block id (``2 ** block_shift`` bytes, one row buffer) is hashed
    with a Fibonacci multiplicative hash before interleaving, so
    power-of-two strides do not camp on a single vault or bank.  Lines
    within the same block share a row (the block id), enabling
    row-buffer hits for streaming.  ``addrs`` must be non-negative byte
    addresses.  The hash product is taken mod 2**64 (uint64
    wrap-around); :meth:`StackedMemory.access` keeps only bits 17..48
    of the exact product, so the two mappings agree.  ``bank`` is the
    bank's index within its vault.
    """
    block = addrs.astype(np.uint64) >> np.uint64(block_shift)
    folded = (
        (block * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(17)
    ) & np.uint64(0xFFFFFFFF)
    vault = folded % np.uint64(n_vaults)
    bank = (folded // np.uint64(n_vaults)) % np.uint64(banks_per_vault)
    return vault.astype(np.int64), bank.astype(np.int64), block.astype(np.int64)


def timing_constants(timing: DRAMTiming) -> tuple[float, ...]:
    """The per-access timing constants of :meth:`StackedMemory.access`,
    in the order of the phase-B kernels' parameter table
    (:data:`repro.nmcsim._native.PARAM_FIELDS` up to ``l1_cycle``):
    tCL, tBL, tRP, the interconnect hop, the row-linger window, the
    closed-row access latency, a bank's occupancy per activation and the
    posted-write extra (0.0 on DRAM-class backends, the program penalty
    on NAND-class ones)."""
    return (
        timing.t_cl_ns, timing.t_bl_ns, timing.t_rp_ns, timing.hop_ns,
        timing.row_linger_ns, timing.closed_row_access_ns(),
        max(timing.t_ras_ns, timing.t_rcd_ns + timing.t_cl_ns),
        timing.t_wr_extra_ns,
    )


@dataclass
class VaultStats:
    """Aggregate DRAM statistics after a simulation."""

    accesses: int = 0
    reads: int = 0
    writes: int = 0
    max_vault_accesses: int = 0

    @property
    def activates(self) -> int:
        """Row activations: one per access under the closed-row policy."""
        return self.accesses


class StackedMemory:
    """Vaults + address mapping of the 3D-stacked DRAM cube.

    ``timeline`` (a :class:`repro.obs.HardwareTimeline`, optional) receives
    one ``vault.access`` slice per DRAM access — the vault-occupancy lanes
    of the simulated-hardware trace.

    :meth:`access` is the reference engine's DRAM model (called once per
    L1 miss and writeback); the fast engine's phase-B kernels
    (:mod:`repro.nmcsim._native`) replay the same expressions over the
    hoisted timing constants.  Per-bank and per-vault timing state is
    kept in flat lists on the hot path.
    """

    def __init__(self, config: NMCConfig, timeline=None) -> None:
        self.config = config
        self.timing = config.timing
        self.timeline = timeline
        self._block_shift = config.row_buffer_bytes.bit_length() - 1
        self.reads = 0
        self.writes = 0
        n_vaults = config.n_vaults
        banks = config.banks_per_vault
        # Flat per-vault / per-bank timing state (bank i of vault v lives
        # at index v * banks_per_vault + i).
        self._vault_accesses = [0] * n_vaults
        self._bus_ready = [0.0] * n_vaults
        self._bank_ready = [0.0] * (n_vaults * banks)
        self._bank_row = [-1] * (n_vaults * banks)
        self._bank_until = [-1.0] * (n_vaults * banks)
        # Timing constants hoisted out of the per-access path; the
        # phase-B kernels read the same floats.  The posted-write extra
        # is guarded by truthiness on the hot path, so symmetric devices
        # take no extra float ops.
        (
            self._t_cl, self._t_bl, self._t_rp, self._hop, self._linger,
            self._closed, self._occupancy, self._wr_extra,
        ) = timing_constants(config.timing)

    def access(
        self,
        now_ns: float,
        addr: int,
        is_write: bool,
        *,
        is_writeback: bool = False,
    ) -> float:
        """One cache-line access; returns the data-ready time (ns).

        The logic-layer interconnect hop to the vault and back is added
        here (PEs and vault controllers share the logic layer).  The body
        fuses routing (the :func:`route_addresses` hash), the bank's
        row-buffer timing and the vault bus into one frame.

        ``is_writeback`` marks a posted dirty-line writeback — the only
        access class that actually *writes* the array under
        write-allocate (demand store misses are line fetches) and hence
        the one that pays the backend's write-asymmetry penalty
        (``DRAMTiming.t_wr_extra_ns``), both in data time and bank
        occupancy.
        """
        cfg = self.config
        block = addr >> self._block_shift
        folded = (block * 0x9E3779B97F4A7C15 >> 17) & 0xFFFFFFFF
        vault = folded % cfg.n_vaults
        banks = cfg.banks_per_vault
        bank = (folded // cfg.n_vaults) % banks
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        hop = self._hop
        now = now_ns + hop
        self._vault_accesses[vault] += 1
        # --- bank timing (closed-page-with-timeout) ---
        bi = vault * banks + bank
        ready = self._bank_ready[bi]
        start = now if now > ready else ready
        open_row = self._bank_row[bi]
        row_open = open_row >= 0 and start <= self._bank_until[bi]
        if row_open and block == open_row:
            # Row-buffer hit: column access + burst only.
            data_at = start + self._t_cl + self._t_bl
            self._bank_ready[bi] = start + self._t_bl
        else:
            # Row conflict pays an explicit precharge; an expired row was
            # already auto-precharged in the background.
            pre = self._t_rp if row_open else 0.0
            data_at = start + pre + self._closed
            self._bank_ready[bi] = start + pre + self._occupancy
        if is_writeback and self._wr_extra:
            data_at += self._wr_extra
            self._bank_ready[bi] += self._wr_extra
        self._bank_row[bi] = block
        # The linger window follows the bank-level data time, before the
        # burst is (possibly) delayed by the vault bus below.
        self._bank_until[bi] = data_at + self._linger
        # --- vault TSV bus ---
        bus_ready = self._bus_ready[vault]
        if data_at - self._t_bl < bus_ready:
            data_at = bus_ready + self._t_bl
        self._bus_ready[vault] = data_at
        if self.timeline is not None:
            self.timeline.slice(
                HW_TID_VAULT_BASE + vault,
                "vault.access",
                now,
                data_at,
                bank=bank,
                write=bool(is_write),
            )
        return data_at + hop

    def stats(self) -> VaultStats:
        accesses = self.reads + self.writes
        per_vault = self._vault_accesses
        return VaultStats(
            accesses=accesses,
            reads=self.reads,
            writes=self.writes,
            max_vault_accesses=max(per_vault) if per_vault else 0,
        )
