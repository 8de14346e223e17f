"""Analytical out-of-order host core model (POWER9 analog).

A first-order mechanistic model in the style of interval analysis:

* **compute**: instructions retire at ``min(issue_width, ILP)`` per cycle,
  with long-latency FP divides serialising their share;
* **cache stalls**: L2/L3 hits add their access latency, discounted by the
  out-of-order window's ability to overlap them;
* **DRAM**: off-chip misses cost the DRAM latency divided by the effective
  memory-level parallelism (MLP).  Regular, stride-predictable streams are
  prefetched (high effective MLP); irregular or dependent access chains are
  not — this is the mechanism that separates host-friendly PolyBench
  streams from NMC-friendly irregular kernels in Figure 7;
* **bandwidth**: total DRAM traffic is bounded by the sustained DDR4
  bandwidth, shared by all threads;
* **SMT**: threads beyond one per core add diminishing throughput.

All inputs come from the hardware-independent application profile — the
host model never sees the raw trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import HostConfig, default_host_config
from ..errors import SimulationError
from ..profiler import ApplicationProfile
from .cache_hierarchy import CacheHierarchyModel

#: Incremental throughput of the 2nd..4th SMT thread on a core.
SMT_GAIN = (1.0, 0.45, 0.25, 0.15)

#: Fraction of cache-hit latency the OoO window hides.
L2_OVERLAP = 0.75
L3_OVERLAP = 0.60

#: Cross-core line ping-pong cost of one contended atomic (ns).
ATOMIC_PINGPONG_NS = 15.0


@dataclass(frozen=True)
class HostResult:
    """Host execution estimate for one kernel profile."""

    workload: str
    instructions: int
    threads: int
    time_s: float
    compute_time_s: float
    memory_time_s: float
    bandwidth_time_s: float
    dram_accesses: float
    power_w: float
    energy_j: float

    @property
    def edp(self) -> float:
        """Energy-delay product (J * s), the Figure 7 metric."""
        return self.energy_j * self.time_s


class HostSimulator:
    """Estimates host execution time and energy from a profile."""

    def __init__(self, config: HostConfig | None = None) -> None:
        self.config = config or default_host_config()
        self.config.validate()
        self.hierarchy = CacheHierarchyModel(self.config)

    # ------------------------------------------------------------ pieces

    def _parallel_throughput(self, threads: int) -> float:
        """Aggregate core-throughput multiplier for ``threads`` threads."""
        cfg = self.config
        cores = min(threads, cfg.n_cores)
        throughput = float(cores)
        extra = threads - cores
        smt_level = 1
        while extra > 0 and smt_level < cfg.smt:
            batch = min(extra, cfg.n_cores)
            throughput += batch * SMT_GAIN[min(smt_level, len(SMT_GAIN) - 1)]
            extra -= batch
            smt_level += 1
        return throughput

    def _effective_mlp(self, profile: ApplicationProfile) -> float:
        """Memory-level parallelism the core+prefetchers achieve.

        Only accesses that are both stride-*predictable* and have a *small*
        stride (<= 4 elements = 32 B; larger strides cross pages quickly and
        hardware prefetchers do not follow them) enjoy the prefetcher's MLP.
        The remaining accesses overlap up to the core's miss-handling limit
        (``max_mlp`` outstanding misses).
        """
        cfg = self.config
        prefetchable = min(
            profile["stride.regular_read"], profile["stride.frac_le_4"]
        )
        # Harmonic blend: total stall time is the sum of each class's
        # misses divided by that class's parallelism, so the effective MLP
        # is the harmonic, not arithmetic, mixture.
        return 1.0 / (
            prefetchable / cfg.prefetch_mlp
            + (1.0 - prefetchable) / cfg.max_mlp
        )

    # -------------------------------------------------------------- main

    def evaluate(
        self,
        profile: ApplicationProfile,
        *,
        threads: int | None = None,
    ) -> HostResult:
        """Estimate host time/energy for a kernel profile.

        ``threads`` defaults to the software thread count recorded in the
        profile (the kernel's own decomposition).
        """
        cfg = self.config
        n = profile.instruction_count
        if n <= 0:
            raise SimulationError("profile has no instructions")
        threads = threads or profile.thread_count
        threads = max(1, min(threads, cfg.hardware_threads))

        freq_hz = cfg.frequency_ghz * 1e9
        throughput = self._parallel_throughput(threads)

        # ---- compute component -----------------------------------------
        ilp = max(0.5, profile["ilp.window_256"])
        retire_rate = min(float(cfg.issue_width), ilp)
        div_frac = profile["mix.fp_div"] + profile["mix.int_div"]
        cpi = 1.0 / retire_rate + div_frac * 8.0  # divides serialise
        compute_cycles = n * cpi
        compute_time = compute_cycles / (freq_hz * throughput)

        # ---- cache / memory latency component ---------------------------
        mem_ops = n * profile["mix.mem_all"]
        levels = self.hierarchy.level_traffic(profile)
        l2_stall = levels.l2_hit * cfg.l2_latency_cycles * (1 - L2_OVERLAP)
        l3_stall = levels.l3_hit * cfg.l3_latency_cycles * (1 - L3_OVERLAP)
        cache_cycles = mem_ops * (l2_stall + l3_stall)
        dram_accesses = mem_ops * levels.dram
        mlp = self._effective_mlp(profile)
        dram_time = dram_accesses * cfg.dram_latency_ns * 1e-9 / mlp
        # Latency stalls parallelise across threads like compute does.
        memory_time = (cache_cycles / freq_hz + dram_time) / throughput

        # ---- bandwidth component ----------------------------------------
        dram_bytes = dram_accesses * cfg.line_bytes
        bandwidth_time = dram_bytes / (cfg.dram_bandwidth_gbs * 1e9)

        # ---- coherence contention on hot atomics --------------------------
        # Atomic read-modify-writes to a small set of hot lines (shared
        # reduction targets, e.g. k-means centroid sums) serialise across
        # all cores: the line ping-pongs through the coherence fabric.  The
        # contended fraction is the share of atomics whose write-stream
        # reuse distance is tiny (< 16 lines — a handful of shared targets).
        atomics = n * profile["mix.atomic"]
        hot_frac = profile["drd.write.cdf_4"]
        atomic_time = atomics * hot_frac * ATOMIC_PINGPONG_NS * 1e-9

        core_time = compute_time + memory_time + atomic_time
        time_s = max(core_time, bandwidth_time)
        if time_s <= 0:
            raise SimulationError("host model produced non-positive time")

        # ---- power / energy ----------------------------------------------
        utilisation = min(1.0, (compute_time / time_s) * (threads / cfg.hardware_threads) + 0.15)
        power = (
            cfg.energy.idle_w
            + cfg.energy.max_dynamic_w * utilisation
            + cfg.energy.dram_static_w
        )
        energy = (
            power * time_s
            + n * cfg.energy.op_energy_pj * 1e-12
            + dram_accesses * cfg.energy.dram_access_pj * 1e-12
        )
        return HostResult(
            workload=profile.workload,
            instructions=n,
            threads=threads,
            time_s=time_s,
            compute_time_s=compute_time,
            memory_time_s=memory_time,
            bandwidth_time_s=bandwidth_time,
            dram_accesses=dram_accesses,
            power_w=energy / time_s,
            energy_j=energy,
        )
