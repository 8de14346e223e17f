"""Workload framework: DoE parameters, size scaling, trace generation.

A :class:`Workload` plays the role of an instrumented benchmark kernel in
the paper: given an input configuration (a point in its DoE parameter
space, Table 2) it produces the dynamic instruction trace of the code
region annotated for NMC offload.

Size scaling
------------
The paper's input sizes (up to 8000x8000 matrices) are intractable for a
pure-Python cycle-level simulator, so each size-like parameter carries a
:class:`SizeMapping` that maps the paper's parameter value to an *effective*
size used for trace generation.  The mapping is strictly monotone (bigger
paper inputs always produce bigger traces) and is applied identically during
training and prediction, so it acts as a units change, not a distortion of
the design space.  See DESIGN.md ("Trace scaling").
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..errors import WorkloadError
from ..ir import InstructionTrace

#: The five CCD levels, in order (paper Section 2.4).
LEVEL_NAMES = ("minimum", "low", "central", "high", "maximum")


@dataclass(frozen=True)
class SizeMapping:
    """Monotone mapping from a paper-scale parameter to an effective size.

    ``effective = clip(round(alpha * value ** beta / scale), minimum, maximum)``

    ``beta`` < 1 compresses parameters that enter the kernel's complexity
    super-linearly (beta=0.5 for O(n^2) kernels, 1/3 for O(n^3)); ``scale``
    is the caller's additional global shrink factor (1.0 = none).  An
    optional ``maximum`` caps repeat-style parameters whose effect on the
    access pattern saturates (the mapping stays monotone non-decreasing).
    """

    alpha: float = 1.0
    beta: float = 1.0
    minimum: int = 2
    maximum: int | None = None
    #: Thread-count-like parameters keep their value under global scaling.
    apply_scale: bool = True

    def effective(self, value: float, scale: float = 1.0) -> int:
        if value <= 0:
            raise WorkloadError(f"parameter value must be positive, got {value}")
        if scale <= 0:
            raise WorkloadError(f"scale must be positive, got {scale}")
        if not self.apply_scale:
            scale = 1.0
        eff = max(self.minimum, int(round(self.alpha * value**self.beta / scale)))
        if self.maximum is not None:
            eff = min(eff, self.maximum)
        return eff


#: Identity-like mapping for parameters that are already small (threads...).
IDENTITY = SizeMapping(alpha=1.0, beta=1.0, minimum=1)


@dataclass(frozen=True)
class DoEParameter:
    """One DoE parameter with its five levels and test value (Table 2)."""

    name: str
    levels: tuple[float, float, float, float, float]
    test: float
    mapping: SizeMapping = field(default_factory=lambda: IDENTITY)

    def __post_init__(self) -> None:
        if len(self.levels) != 5:
            raise WorkloadError(
                f"parameter {self.name!r} needs exactly 5 levels"
            )
        lo, *_rest, hi = self.levels
        if not lo <= hi:
            raise WorkloadError(
                f"parameter {self.name!r}: minimum level exceeds maximum"
            )

    @property
    def minimum(self) -> float:
        return self.levels[0]

    @property
    def low(self) -> float:
        return self.levels[1]

    @property
    def central(self) -> float:
        return self.levels[2]

    @property
    def high(self) -> float:
        return self.levels[3]

    @property
    def maximum(self) -> float:
        return self.levels[4]

    def level(self, name: str) -> float:
        try:
            return self.levels[LEVEL_NAMES.index(name)]
        except ValueError:
            raise WorkloadError(f"unknown level {name!r}") from None


class AddressSpace:
    """Simple bump allocator for workload data structures.

    Regions are page-aligned and non-overlapping, so reuse-distance and
    cache behaviour of distinct arrays never alias.
    """

    def __init__(self, base: int = 0x1000_0000) -> None:
        self._next = base

    def alloc(self, nbytes: int, align: int = 4096) -> int:
        """Reserve ``nbytes`` and return the region's base address."""
        if nbytes < 0:
            raise WorkloadError("allocation size must be non-negative")
        addr = (self._next + align - 1) // align * align
        self._next = addr + nbytes
        return addr


def partition_counts(n: int, parts: int) -> np.ndarray:
    """Chunk sizes of :func:`partition_range`, as an int64 array."""
    if parts < 1:
        raise WorkloadError("parts must be >= 1")
    return n // parts + (np.arange(parts) < n % parts)


def partition_range(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous chunks (OpenMP-static).

    Returns ``parts`` (start, end) pairs; trailing chunks may be empty when
    ``parts > n``.
    """
    ends = np.cumsum(partition_counts(n, parts)).tolist()
    return list(zip([0, *ends[:-1]], ends))


class Workload(abc.ABC):
    """An instrumented benchmark kernel (one row of paper Table 2)."""

    #: Short name used throughout the paper's tables ("atax", "bfs", ...).
    name: str = ""
    #: Human-readable description from Table 2.
    description: str = ""

    @property
    @abc.abstractmethod
    def parameters(self) -> tuple[DoEParameter, ...]:
        """The workload's DoE parameters with their levels."""

    @abc.abstractmethod
    def _generate(
        self,
        sizes: Mapping[str, int],
        raw: Mapping[str, float],
        rng: np.random.Generator,
    ) -> InstructionTrace:
        """Emit the kernel trace.

        ``sizes`` holds the scaled *effective* sizes (how many elements are
        visited); ``raw`` holds the unmapped paper-scale parameter values.
        Workloads whose full-scale footprint matters to the memory system
        (irregular access over huge arrays) lay their data out in the
        *virtual* address space implied by ``raw`` while emitting only
        ``sizes``-many accesses — preserving the full-scale reuse and
        stride signature at a tractable trace length (see DESIGN.md).
        """

    # ------------------------------------------------------------ helpers

    def parameter(self, name: str) -> DoEParameter:
        for p in self.parameters:
            if p.name == name:
                return p
        raise WorkloadError(f"{self.name}: unknown parameter {name!r}")

    def central_config(self) -> dict[str, float]:
        """The all-central CCD configuration."""
        return {p.name: p.central for p in self.parameters}

    def test_config(self) -> dict[str, float]:
        """The previously-unseen *test* input of Table 2 (Section 3.4)."""
        return {p.name: p.test for p in self.parameters}

    def validate_config(self, config: Mapping[str, float]) -> dict[str, float]:
        """Check that a configuration names every parameter, return a copy."""
        out: dict[str, float] = {}
        for p in self.parameters:
            if p.name not in config:
                raise WorkloadError(
                    f"{self.name}: configuration missing parameter {p.name!r}"
                )
            value = float(config[p.name])
            if value <= 0:
                raise WorkloadError(
                    f"{self.name}: parameter {p.name!r} must be positive"
                )
            out[p.name] = value
        extra = set(config) - set(out)
        if extra:
            raise WorkloadError(
                f"{self.name}: unknown parameters {sorted(extra)}"
            )
        return out

    def generate(
        self,
        config: Mapping[str, float],
        *,
        scale: float = 1.0,
        seed: int | None = None,
    ) -> InstructionTrace:
        """Generate the kernel's dynamic trace for one input configuration.

        ``scale`` further shrinks all size-mapped parameters (useful in
        tests); ``seed`` overrides the deterministic per-configuration seed.
        """
        config = self.validate_config(config)
        sizes = {
            p.name: p.mapping.effective(config[p.name], scale)
            for p in self.parameters
        }
        if seed is None:
            seed = config_seed(self.name, config)
        rng = np.random.default_rng(seed)
        trace = self._generate(sizes, config, rng)
        if len(trace) == 0:
            raise WorkloadError(f"{self.name}: generated an empty trace")
        return trace

    def __repr__(self) -> str:
        params = ", ".join(p.name for p in self.parameters)
        return f"<Workload {self.name} ({params})>"


def config_seed(name: str, config: Mapping[str, float]) -> int:
    """Deterministic RNG seed derived from workload name and configuration."""
    text = name + "|" + "|".join(
        f"{k}={config[k]:.6g}" for k in sorted(config)
    )
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")
