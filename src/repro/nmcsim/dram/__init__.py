"""3D-stacked DRAM model: vaults, banks, closed-row timing."""

from .hmc import StackedMemory, VaultStats, route_addresses

__all__ = ["StackedMemory", "VaultStats", "route_addresses"]
