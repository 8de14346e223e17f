"""System configurations for the NAPEL reproduction (paper Table 3).

Two systems are modelled:

* :class:`NMCConfig` — the near-memory computing system: 32 single-issue
  in-order processing elements (PEs) at 1.25 GHz embedded in the logic layer
  of a 3D-stacked DRAM (32 vaults, 8 stacked layers, 256 B row buffer, 4 GB,
  closed-row policy), each PE with a tiny 2-way L1 of 2 cache lines of 64 B.
* :class:`HostConfig` — the host baseline: an IBM POWER9 AC922-like machine
  (16 cores, 4-way SMT, 2.3 GHz, 32 KiB L1 / 256 KiB L2 / 10 MiB L3,
  DDR4-2666).

Energy constants are grouped in :class:`NMCEnergyParams` and
:class:`HostEnergyParams`.  The absolute values are published-literature
estimates for HMC-class stacked DRAM and POWER9-class server silicon; the
reproduction only relies on their *relative* magnitudes (see DESIGN.md).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from . import schema
from .errors import ConfigError

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


def _positive(value: float) -> bool:
    """True for a finite value > 0; NaN and inf are rejected."""
    return math.isfinite(value) and value > 0


def _non_negative(value: float) -> bool:
    """True for a finite value >= 0; NaN and inf are rejected."""
    return math.isfinite(value) and value >= 0


@dataclass(frozen=True)
class DRAMTiming:
    """Timing parameters (nanoseconds) of one memory backend.

    The *field semantics* are device-neutral — row activation, column
    access, burst, precharge, an on-device interconnect hop and a
    row-linger window cover 3D stacks, planar DRAM channels and
    page-buffered NAND alike.  The *default values* are the HMC-class
    device of paper Table 3; every registered backend
    (:mod:`repro.backends`) ships its own instance.
    """

    t_rcd_ns: float = 13.75   #: row-to-column delay (ACT -> READ/WRITE)
    t_cl_ns: float = 13.75    #: column access (CAS) latency
    t_rp_ns: float = 13.75    #: row precharge time
    t_ras_ns: float = 27.5    #: minimum row-open time
    t_bl_ns: float = 6.4      #: burst transfer time of one 64 B cache line
    hop_ns: float = 3.2       #: logic-layer interconnect hop (PE <-> vault)
    #: How long the controller keeps a row open after an access before the
    #: automatic precharge fires (closed-page-with-timeout policy);
    #: back-to-back accesses to the same row within this window are row
    #: hits.  Set to 0 for a strict closed-row policy; open-page
    #: controllers (DDR channels, NAND page buffers) use a long window.
    row_linger_ns: float = 25.0
    #: Extra latency a *posted write* (dirty-line writeback) pays on top
    #: of the read pipeline — 0 for symmetric DRAM-class devices, large
    #: for NAND-class program operations.  Demand store misses are line
    #: *fetches* under write-allocate and pay read timing; the write
    #: itself is deferred to the eviction/flush, which is where this
    #: penalty lands.
    t_wr_extra_ns: float = 0.0

    def closed_row_access_ns(self) -> float:
        """Latency of one access under the closed-row policy.

        With a closed-row policy every access activates the row, performs the
        column access and transfers the burst; the precharge is overlapped
        with the data return and only constrains back-to-back accesses to the
        same bank (see :meth:`repro.nmcsim.dram.StackedMemory.access`).
        """
        return self.t_rcd_ns + self.t_cl_ns + self.t_bl_ns

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in ("row_linger_ns", "t_wr_extra_ns"):
                if not _non_negative(value):
                    raise ConfigError(f"{f.name} must be >= 0")
            elif not _positive(value):
                raise ConfigError(f"DRAM timing {f.name!r} must be positive")


@dataclass(frozen=True)
class NMCEnergyParams:
    """Per-event energies (picojoules) and static power for the NMC system.

    Like :class:`DRAMTiming`, the field semantics are device-neutral
    (every backend has activation, per-bit access, link and static
    terms); the defaults are HMC-class estimates (~3.7 pJ/bit internal
    access, SerDes link ~2 pJ/bit) and each registered backend supplies
    its own values.
    """

    int_alu_pj: float = 4.0       #: simple integer op
    int_mul_pj: float = 16.0      #: integer multiply
    int_div_pj: float = 40.0      #: integer divide
    fp_alu_pj: float = 12.0       #: FP add/sub/compare
    fp_mul_pj: float = 20.0       #: FP multiply
    fp_div_pj: float = 60.0       #: FP divide
    branch_pj: float = 3.0        #: branch/control op
    other_pj: float = 3.0         #: moves and miscellaneous ops
    l1_access_pj: float = 8.0     #: L1 cache lookup (hit or miss probe)
    dram_activate_pj: float = 900.0   #: row activation (256 B row buffer)
    dram_rw_pj_per_bit: float = 3.7   #: internal column read/write per bit
    #: Extra per-bit energy of a device *write* on top of the symmetric
    #: read/write term — 0 for DRAM, large for NAND program operations.
    dram_wr_extra_pj_per_bit: float = 0.0
    link_pj_per_bit: float = 2.0      #: off-chip SerDes link per bit
    pe_static_w: float = 0.020        #: static+clock power per PE (W)
    dram_static_w: float = 0.850      #: DRAM background power, whole cube (W)

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            if not _non_negative(getattr(self, f.name)):
                raise ConfigError(f"NMC energy {f.name!r} must be >= 0")


#: Compute-side fields carried over unchanged when :meth:`NMCConfig.replace`
#: switches a configuration to a different memory backend (the device
#: fields re-base on the new backend's descriptor instead).
PE_FIELDS = (
    "n_pes", "frequency_ghz", "pe_type", "issue_width", "mshr_entries",
    "l1_ways", "l1_lines", "line_bytes",
)


@dataclass(frozen=True)
class NMCConfig:
    """Architecture configuration of the NMC system (paper Table 3).

    Every field that Table 1 of the paper lists as an *NMC architectural
    feature* (core count, frequency, cache geometry, DRAM organisation) is a
    field here, so a configuration can be turned into a feature vector for
    the NAPEL model with :meth:`feature_vector`.

    ``backend`` names the memory device the DRAM-side fields were drawn
    from (:mod:`repro.backends`); the default field values *are* the
    ``hmc`` descriptor, so ``NMCConfig()`` and
    ``NMCConfig.from_backend("hmc")`` are the same configuration.
    """

    n_pes: int = 32                    #: number of near-memory PEs
    frequency_ghz: float = 1.25        #: PE clock frequency
    #: PE core type: "inorder" (the paper's Table 3 system: single-issue,
    #: blocking loads) or "ooo" (a lightweight out-of-order core:
    #: multi-issue with MSHR-based miss overlap).  The paper notes NAPEL
    #: "can be extended to support other types of general-purpose cores"
    #: by selecting the appropriate architectural features — this is that
    #: extension point.
    pe_type: str = "inorder"
    issue_width: int = 1               #: instructions issued per cycle
    mshr_entries: int = 1              #: outstanding misses per PE (ooo)
    l1_ways: int = 2                   #: L1 associativity
    l1_lines: int = 2                  #: total number of L1 cache lines
    line_bytes: int = 64               #: cache line size
    n_vaults: int = 32                 #: vertical DRAM partitions
    n_layers: int = 8                  #: stacked DRAM layers
    banks_per_vault: int = 16          #: DRAM banks within each vault
    row_buffer_bytes: int = 256        #: row buffer size per bank
    dram_bytes: int = 4 * GIB          #: total stacked-DRAM capacity
    closed_row: bool = True            #: closed-row controller policy
    link_width_bits: int = 16          #: off-chip link width (lanes/bits)
    link_gbps: float = 15.0            #: link lane speed (Gbit/s per lane)
    backend: str = "hmc"               #: registered memory backend name
    timing: DRAMTiming = field(default_factory=DRAMTiming)
    energy: NMCEnergyParams = field(default_factory=NMCEnergyParams)

    def validate(self) -> None:
        if self.n_pes < 1:
            raise ConfigError("n_pes must be >= 1")
        if not _positive(self.frequency_ghz):
            raise ConfigError("frequency_ghz must be positive")
        if self.pe_type not in ("inorder", "ooo"):
            raise ConfigError("pe_type must be 'inorder' or 'ooo'")
        if self.issue_width < 1 or self.mshr_entries < 1:
            raise ConfigError("issue_width and mshr_entries must be >= 1")
        if self.pe_type == "inorder" and self.mshr_entries != 1:
            raise ConfigError("in-order PEs have exactly one MSHR")
        if self.l1_lines < 1 or self.l1_ways < 1:
            raise ConfigError("L1 geometry must be >= 1 way and >= 1 line")
        if self.l1_lines % self.l1_ways:
            raise ConfigError("l1_lines must be a multiple of l1_ways")
        if self.line_bytes < 1 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigError("line_bytes must be a positive power of two")
        # Device-level validation is per-descriptor: the registered
        # backend owns the DRAM-organisation, link and timing rules.
        from .backends import get_backend

        get_backend(self.backend).validate_config(self)

    @property
    def l1_bytes(self) -> int:
        """Total L1 capacity in bytes (2 lines x 64 B = 128 B by default)."""
        return self.l1_lines * self.line_bytes

    @property
    def l1_sets(self) -> int:
        return self.l1_lines // self.l1_ways

    @property
    def cycle_ns(self) -> float:
        """Duration of one PE clock cycle in nanoseconds."""
        return 1.0 / self.frequency_ghz

    @property
    def link_gbytes_per_s(self) -> float:
        """Aggregate off-chip link bandwidth (full duplex, one direction)."""
        return self.link_width_bits * self.link_gbps / 8.0

    # ----- NAPEL architectural features (paper Table 1, lower half) -----
    # Registered below as the "arch" block of the model-input feature
    # schema (repro.schema); feature_vector() must stay aligned with
    # arch_feature_names().  ARCH_FEATURE_NAMES is the static scalar
    # part; the full block adds one one-hot column per registered
    # backend plus the backend-derived scalars (row policy, link
    # bandwidth, read/write asymmetry).

    ARCH_FEATURE_NAMES = (
        "arch.n_pes",
        "arch.frequency_ghz",
        "arch.line_bytes",
        "arch.l1_lines",
        "arch.n_layers",
        "arch.dram_gib",
        "arch.n_vaults",
        "arch.row_buffer_bytes",
        "arch.issue_width",
        "arch.mshr_entries",
    )

    #: Backend-derived scalar features appended after the one-hot block.
    BACKEND_SCALAR_FEATURES = (
        "arch.closed_row",
        "arch.link_gbytes_per_s",
        "arch.rw_asymmetry",
    )

    def feature_vector(self) -> list[float]:
        """Architectural feature values, aligned with arch_feature_names()."""
        from .backends import backend_names

        t = self.timing
        return [
            float(self.n_pes),
            float(self.frequency_ghz),
            float(self.line_bytes),
            float(self.l1_lines),
            float(self.n_layers),
            self.dram_bytes / GIB,
            float(self.n_vaults),
            float(self.row_buffer_bytes),
            float(self.issue_width),
            float(self.mshr_entries),
        ] + [
            1.0 if self.backend == name else 0.0 for name in backend_names()
        ] + [
            1.0 if self.closed_row else 0.0,
            self.link_gbytes_per_s,
            t.t_wr_extra_ns / t.closed_row_access_ns(),
        ]

    @classmethod
    def from_backend(cls, name: str = "hmc", **overrides: object) -> "NMCConfig":
        """Build a configuration on a registered memory backend.

        Device fields come from the backend's descriptor; compute-side
        fields keep their defaults; ``overrides`` wins over both.
        """
        from .backends import get_backend

        return get_backend(name).to_config(**overrides)

    def replace(self, **changes: object) -> "NMCConfig":
        """Return a copy with the given fields replaced (validated).

        Changing ``backend`` re-bases the device fields (topology,
        capacity, row policy, link, timing, energy) on the new backend's
        descriptor while carrying the compute-side fields
        (:data:`PE_FIELDS`) over; other ``changes`` still win.
        """
        new_backend = changes.get("backend")
        if new_backend is not None and new_backend != self.backend:
            from .backends import get_backend

            carried: dict[str, object] = {
                f: getattr(self, f) for f in PE_FIELDS
            }
            carried.update(
                (k, v) for k, v in changes.items() if k != "backend"
            )
            return get_backend(str(new_backend)).to_config(**carried)
        cfg = dataclasses.replace(self, **changes)  # type: ignore[arg-type]
        cfg.validate()
        return cfg


def arch_feature_names() -> tuple[str, ...]:
    """The full ``arch`` feature block, including backend features.

    Scalar knobs first (:data:`NMCConfig.ARCH_FEATURE_NAMES`), then one
    ``arch.backend.<name>`` one-hot column per registered backend (in
    registration order) and the backend-derived scalars.  Registering a
    backend changes this list — and therefore the schema content hash —
    which is exactly the drift the schema machinery must flag.
    """
    from .backends import backend_names

    return (
        NMCConfig.ARCH_FEATURE_NAMES
        + tuple(f"arch.backend.{name}" for name in backend_names())
        + NMCConfig.BACKEND_SCALAR_FEATURES
    )


schema.register_block(
    "arch",
    arch_feature_names,
    description=(
        "NMC architectural knobs (paper Table 1, lower half) plus "
        "memory-backend identity features"
    ),
)


@dataclass(frozen=True)
class HostEnergyParams:
    """Power/energy constants for the POWER9-class host model."""

    idle_w: float = 60.0              #: chip idle power
    max_dynamic_w: float = 130.0      #: additional power at full activity
    op_energy_pj: float = 60.0        #: average energy per retired instr
    l2_access_pj: float = 25.0
    l3_access_pj: float = 90.0
    dram_access_pj: float = 15000.0   #: off-chip DDR4 access, 64 B line
    dram_static_w: float = 6.0        #: DIMM background power

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            if not _non_negative(getattr(self, f.name)):
                raise ConfigError(f"Host energy {f.name!r} must be >= 0")


@dataclass(frozen=True)
class HostConfig:
    """IBM POWER9 AC922-like host configuration (paper Table 3, upper half)."""

    n_cores: int = 16
    smt: int = 4
    frequency_ghz: float = 2.3
    issue_width: int = 4               #: superscalar issue width
    rob_window: int = 256              #: out-of-order instruction window
    line_bytes: int = 128              #: POWER9 uses 128 B cache lines
    l1_bytes: int = 32 * KIB
    l2_bytes: int = 256 * KIB
    l3_bytes: int = 10 * MIB
    #: Capacity divisor matching the workload trace scaling: scaled kernels
    #: shrink their working sets by roughly this factor, so the host model
    #: evaluates them against proportionally smaller caches to preserve the
    #: full-scale working-set-to-cache ratio (see DESIGN.md).  Set to 1.0
    #: to model the nominal Table 3 capacities.
    cache_scale: float = 384.0
    l1_latency_cycles: int = 3
    l2_latency_cycles: int = 12
    l3_latency_cycles: int = 38
    dram_latency_ns: float = 90.0
    dram_bandwidth_gbs: float = 120.0  #: sustained 8-channel DDR4-2666
    max_mlp: float = 2.5               #: peak overlapped misses (irregular)
    prefetch_mlp: float = 24.0         #: effective MLP for strided streams
    energy: HostEnergyParams = field(default_factory=HostEnergyParams)

    def validate(self) -> None:
        if self.n_cores < 1 or self.smt < 1:
            raise ConfigError("n_cores and smt must be >= 1")
        if not _positive(self.frequency_ghz):
            raise ConfigError("frequency_ghz must be positive")
        if not self.l1_bytes < self.l2_bytes < self.l3_bytes:
            raise ConfigError("cache sizes must be strictly increasing")
        if not (math.isfinite(self.cache_scale) and self.cache_scale >= 1.0):
            raise ConfigError("cache_scale must be >= 1")
        if self.issue_width < 1 or self.rob_window < 1:
            raise ConfigError("issue_width and rob_window must be >= 1")
        if not (_positive(self.dram_latency_ns)
                and _positive(self.dram_bandwidth_gbs)):
            raise ConfigError("DRAM latency and bandwidth must be positive")
        if not (_positive(self.max_mlp) and _positive(self.prefetch_mlp)):
            raise ConfigError("MLP factors must be positive")
        self.energy.validate()

    @property
    def hardware_threads(self) -> int:
        """Total simultaneous hardware threads (cores x SMT)."""
        return self.n_cores * self.smt

    def replace(self, **changes: object) -> "HostConfig":
        cfg = dataclasses.replace(self, **changes)  # type: ignore[arg-type]
        cfg.validate()
        return cfg


def default_nmc_config() -> NMCConfig:
    """The NMC system of paper Table 3."""
    cfg = NMCConfig()
    cfg.validate()
    return cfg


def default_host_config() -> HostConfig:
    """The host system of paper Table 3."""
    cfg = HostConfig()
    cfg.validate()
    return cfg
