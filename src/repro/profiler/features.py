"""The application-profile feature catalog.

The paper's PISA-based analysis produces an application profile with **395
features** ("the application profile p has 395 features", Section 2.3).  This
module pins down our catalog: feature family sizes, canonical names and
ordering.  The total is asserted to be exactly 395 at import time so the
profile layout can never silently drift.

Distance-style features are bucketed at power-of-two boundaries; see the
individual analysis modules for semantics.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..schema import register_block

#: Instruction-mix category fractions (see instruction_mix.py).
MIX_CATEGORIES = (
    "int_alu", "int_mul", "int_div",
    "fp_alu", "fp_mul", "fp_div", "fma",
    "load", "store", "atomic",
    "branch", "cmp", "move", "call_ret", "nop",
    "int_all", "fp_all", "mem_all", "control_all",
)

#: Per-opcode fractions, one per Opcode value (16 opcodes).
N_OPCODES = 16

#: ILP features: total + 6 window sizes + 3 per-class chain depths.
ILP_WINDOWS = (8, 16, 32, 64, 128, 256)
ILP_NAMES = (
    ("ilp.total",)
    + tuple(f"ilp.window_{w}" for w in ILP_WINDOWS)
    + ("ilp.int_chain", "ilp.fp_chain", "ilp.mem_chain")
)

#: Reuse-distance bucket thresholds (in cache lines / instructions): 2^0..2^31.
DATA_REUSE_BUCKETS = 32
INSTR_REUSE_CDF_BUCKETS = 32
INSTR_REUSE_PDF_BUCKETS = 24
REUSE_STREAMS = ("read", "write", "all")

#: Cache sizes for memory-traffic features: 128 B .. 64 MiB (20 sizes).
TRAFFIC_CACHE_SIZES = tuple(128 << i for i in range(20))

REGISTER_NAMES = (
    "reg.reads_per_instr",
    "reg.writes_per_instr",
    "reg.operands_per_instr",
    "reg.unique_registers",
)

FOOTPRINT_NAMES = (
    "footprint.data_bytes",
    "footprint.data_lines",
    "footprint.data_pages",
    "footprint.instr_bytes",
    "footprint.read_bytes",
    "footprint.write_bytes",
)

STRIDE_BUCKETS = (0, 1, 2, 4, 8, 16, 64, 256)  # strides in elements of 8 B
STRIDE_NAMES = (
    tuple(f"stride.frac_le_{s}" for s in STRIDE_BUCKETS)
    + ("stride.regular_read", "stride.regular_write",
       "stride.dominant_frac", "stride.entropy")
)

BRANCH_NAMES = (
    "branch.density",
    "branch.avg_basic_block",
    "branch.unique_branch_sites",
    "branch.per_memory_op",
)

WORKING_SET_CHECKPOINTS = 8  # footprint growth measured at 8 trace fractions

# The granularities and sample sizes the catalog is measured at: part of
# what a profile means, so fixed here rather than per call.  ILP
# converges quickly for loop-dominated kernels, so its sample is short.
LINE_BYTES = 64  #: cache line of the data reuse, traffic, footprint and ILP
PAGE_BYTES = 4096  #: page of ``footprint.data_pages``
ILP_SAMPLE_LIMIT = 15_000  #: leading instructions the ILP family schedules
REUSE_SAMPLE_LIMIT = 200_000  #: leading accesses / pcs of the reuse families


def feature_groups() -> "OrderedDict[str, tuple[str, ...]]":
    """The full catalog: group name -> ordered feature names."""
    groups: "OrderedDict[str, tuple[str, ...]]" = OrderedDict()
    groups["mix"] = tuple(f"mix.{c}" for c in MIX_CATEGORIES)
    groups["opcode_mix"] = tuple(f"opcode.{i}" for i in range(N_OPCODES))
    groups["ilp"] = ILP_NAMES
    for stream in REUSE_STREAMS:
        groups[f"data_reuse_cdf_{stream}"] = tuple(
            f"drd.{stream}.cdf_{i}" for i in range(DATA_REUSE_BUCKETS)
        )
    for stream in REUSE_STREAMS:
        groups[f"data_reuse_pdf_{stream}"] = tuple(
            f"drd.{stream}.pdf_{i}" for i in range(DATA_REUSE_BUCKETS)
        )
    groups["data_reuse_stats"] = tuple(
        f"drd.{stream}.{stat}"
        for stream in REUSE_STREAMS
        for stat in ("mean_log2", "median_log2")
    )
    groups["instr_reuse_cdf"] = tuple(
        f"ird.cdf_{i}" for i in range(INSTR_REUSE_CDF_BUCKETS)
    )
    groups["instr_reuse_pdf"] = tuple(
        f"ird.pdf_{i}" for i in range(INSTR_REUSE_PDF_BUCKETS)
    )
    groups["instr_reuse_stats"] = ("ird.mean_log2", "ird.median_log2")
    groups["traffic"] = tuple(
        f"traffic.{kind}_{size}"
        for size in TRAFFIC_CACHE_SIZES
        for kind in ("read_miss", "write_miss", "bytes")
    )
    groups["register"] = REGISTER_NAMES
    groups["footprint"] = FOOTPRINT_NAMES
    groups["stride"] = STRIDE_NAMES
    groups["branch"] = BRANCH_NAMES
    groups["working_set"] = tuple(
        f"wset.frac_{i}" for i in range(WORKING_SET_CHECKPOINTS)
    )
    return groups


#: Flat, order-stable list of all profile feature names.
FEATURE_NAMES: tuple[str, ...] = tuple(
    name for names in feature_groups().values() for name in names
)

#: Total number of application-profile features; the paper reports 395.
TOTAL_FEATURES: int = len(FEATURE_NAMES)

assert TOTAL_FEATURES == 395, (
    f"feature catalog drifted: {TOTAL_FEATURES} != 395"
)


def _group_slices() -> dict[str, slice]:
    out, start = {}, 0
    for group, names in feature_groups().items():
        out[group] = slice(start, start + len(names))
        start += len(names)
    return out


#: Group name -> where its features sit in a profile vector.
GROUP_SLICES: dict[str, slice] = _group_slices()


def group_span(first: str, last: str) -> slice:
    """The profile-vector slice from group ``first`` through ``last``."""
    return slice(GROUP_SLICES[first].start, GROUP_SLICES[last].stop)


def block_view(block: slice, write, *args) -> dict[str, float]:
    """Name -> value of one block of a profile vector: ``write(out,
    *args)`` fills the block into ``out``, a 395-float vector."""
    out = np.zeros(TOTAL_FEATURES)
    write(out, *args)
    return dict(zip(FEATURE_NAMES[block], out[block].tolist()))

# This catalog is the "profile" block of the model-input feature schema
# (see repro.schema): the schema, not ad-hoc concatenation, defines where
# these columns sit in the assembled matrix.
register_block(
    "profile",
    FEATURE_NAMES,
    description="395 PISA-style hardware-independent profile features",
)
