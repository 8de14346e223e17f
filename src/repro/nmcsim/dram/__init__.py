"""3D-stacked DRAM model: vaults, banks, closed-row timing."""

from .hmc import StackedMemory, VaultStats

__all__ = ["StackedMemory", "VaultStats"]
