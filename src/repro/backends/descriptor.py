"""Backend descriptors: the declarative identity of one memory device.

A :class:`BackendDescriptor` bundles everything that makes a near-memory
device *that device* — topology (vaults/layers/banks for a 3D stack,
channels/ranks for planar parts), :class:`~repro.config.DRAMTiming`,
:class:`~repro.config.NMCEnergyParams` and the off-chip
:class:`LinkParams` — while the compute side (PE count, clock, cache
geometry) stays on :class:`~repro.config.NMCConfig` where DoE sweeps
live.  Descriptors are frozen: a registered backend never mutates, so
campaign caches and simulation memos may key on its name.

The split follows the dataclass-config idiom of NandMachine-style
simulators: one schema module defines the per-device parameter
dataclasses, a registry maps names to concrete instances, and the rest
of the system consumes descriptor fields instead of device constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..config import DRAMTiming, NMCEnergyParams, _non_negative, _positive
from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..config import NMCConfig

#: Device families a descriptor may declare (feeds docs and reports, not
#: simulation semantics — those flow entirely through the field values).
FAMILIES = ("3d-stacked", "2.5d-stacked", "planar-dram", "nand-flash")


@dataclass(frozen=True)
class LinkParams:
    """Off-chip host<->device link model of one backend.

    ``width_bits`` x ``gbps`` gives the raw one-direction bandwidth;
    ``packet_overhead`` is the fraction lost to protocol framing and
    ``setup_latency_s`` the one-time offload round trip.  ``serdes``
    records whether the link crosses a serializer (HMC-style packetised
    lanes) or a wide parallel interface (HBM interposer, DDR bus) — it
    feeds the arch feature block and reports, not timing.
    """

    width_bits: int = 16
    gbps: float = 15.0
    serdes: bool = True
    packet_overhead: float = 0.10
    setup_latency_s: float = 1.0e-6

    @property
    def gbytes_per_s(self) -> float:
        """Raw one-direction link bandwidth (GB/s)."""
        return self.width_bits * self.gbps / 8.0

    def validate(self) -> None:
        if self.width_bits < 1 or not _positive(self.gbps):
            raise ConfigError("link width and lane speed must be positive")
        if not 0.0 <= self.packet_overhead < 1.0:
            raise ConfigError("link packet_overhead must be in [0, 1)")
        if not _non_negative(self.setup_latency_s):
            raise ConfigError("link setup_latency_s must be >= 0")


@dataclass(frozen=True)
class BackendDescriptor:
    """One registered memory backend: topology + timing + energy + link.

    ``n_vaults`` is the unit of bank-level parallelism the address hash
    interleaves over — vaults for a 3D stack, (pseudo-)channels for HBM,
    DDR or NAND parts; ``n_layers`` is 1 for planar devices.
    """

    name: str
    description: str
    family: str = "3d-stacked"
    n_vaults: int = 32
    n_layers: int = 8
    banks_per_vault: int = 16
    row_buffer_bytes: int = 256
    dram_bytes: int = 4 * 1024**3
    closed_row: bool = True
    timing: DRAMTiming = field(default_factory=DRAMTiming)
    energy: NMCEnergyParams = field(default_factory=NMCEnergyParams)
    link: LinkParams = field(default_factory=LinkParams)

    @property
    def rw_asymmetry(self) -> float:
        """Extra write latency relative to a closed-row read access.

        0 for symmetric devices (DRAM-class); > 0 when writes pay a
        program penalty (``DRAMTiming.t_wr_extra_ns``, NAND-class).
        """
        return self.timing.t_wr_extra_ns / self.timing.closed_row_access_ns()

    def validate(self) -> None:
        """Descriptor self-consistency (checked at registration)."""
        if not self.name:
            raise ConfigError("backend descriptor needs a non-empty name")
        if self.family not in FAMILIES:
            raise ConfigError(
                f"backend {self.name!r} family must be one of "
                f"{', '.join(FAMILIES)}"
            )
        if self.n_vaults < 1 or self.n_layers < 1 or self.banks_per_vault < 1:
            raise ConfigError(
                f"backend {self.name!r}: topology fields must be >= 1"
            )
        if self.row_buffer_bytes < 1 or (
            self.row_buffer_bytes & (self.row_buffer_bytes - 1)
        ):
            raise ConfigError(
                f"backend {self.name!r}: row_buffer_bytes must be a "
                "positive power of two"
            )
        if self.dram_bytes < self.n_vaults * self.row_buffer_bytes:
            raise ConfigError(
                f"backend {self.name!r}: dram_bytes too small for the "
                "vault/channel organisation"
            )
        self.timing.validate()
        self.energy.validate()
        self.link.validate()

    def validate_config(self, config: "NMCConfig") -> None:
        """Device-level validation of a config built on this backend.

        The per-descriptor home of the DRAM-organisation rules that used
        to live in ``NMCConfig.validate`` — a backend may constrain the
        device fields beyond the generic checks by subclassing.
        """
        if (
            config.n_vaults < 1
            or config.n_layers < 1
            or config.banks_per_vault < 1
        ):
            raise ConfigError("DRAM organisation fields must be >= 1")
        if config.dram_bytes < config.n_vaults * config.row_buffer_bytes:
            raise ConfigError("dram_bytes too small for vault organisation")
        if config.link_width_bits < 1 or not _positive(config.link_gbps):
            raise ConfigError("link parameters must be positive")
        config.timing.validate()
        config.energy.validate()

    def to_config(self, **overrides: object) -> "NMCConfig":
        """Build an :class:`~repro.config.NMCConfig` on this backend.

        Device fields default to the descriptor's values; compute-side
        fields keep the ``NMCConfig`` defaults.  Any field may be
        overridden (that is what DoE sweeps over a backend do).
        """
        from ..config import NMCConfig

        base: dict[str, object] = dict(
            backend=self.name,
            n_vaults=self.n_vaults,
            n_layers=self.n_layers,
            banks_per_vault=self.banks_per_vault,
            row_buffer_bytes=self.row_buffer_bytes,
            dram_bytes=self.dram_bytes,
            closed_row=self.closed_row,
            link_width_bits=self.link.width_bits,
            link_gbps=self.link.gbps,
            timing=self.timing,
            energy=self.energy,
        )
        base.update(overrides)
        cfg = NMCConfig(**base)  # type: ignore[arg-type]
        cfg.validate()
        return cfg

    def summary(self) -> dict:
        """Manifest/CLI-ready description of this backend."""
        return {
            "name": self.name,
            "description": self.description,
            "family": self.family,
            "topology": (
                f"{self.n_vaults}x{self.n_layers}x{self.banks_per_vault}"
            ),
            "row_buffer_bytes": self.row_buffer_bytes,
            "capacity_gib": self.dram_bytes / 1024**3,
            "row_policy": "closed" if self.closed_row else "open",
            "link_gbytes_per_s": self.link.gbytes_per_s,
            "serdes": self.link.serdes,
            "rw_asymmetry": self.rw_asymmetry,
        }

    def to_json_dict(self) -> dict:
        import dataclasses

        return dataclasses.asdict(self)

    def replace(self, **changes: object) -> "BackendDescriptor":
        """A validated copy with the given fields replaced."""
        import dataclasses

        desc = dataclasses.replace(self, **changes)  # type: ignore[arg-type]
        desc.validate()
        return desc
