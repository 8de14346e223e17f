"""Equivalence suite for the two simulation engines.

The fast (two-phase, vectorized) engine must produce *bit-identical*
:class:`SimulationResult` values to the per-access reference engine —
across workloads, cache geometries (any associativity), core models,
campaign execution modes, the geometry memos, the compiled phase-B
kernel and tracing.  These tests enforce that contract, plus golden and
property tests of phase A's LRU classifier, under both kernel forms,
against hand-traced expectations and an independent stack-distance +
ordered-dict reconstruction.
"""

import contextlib
import json
from collections import OrderedDict, defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _helpers import reference_result, use_kernel
from repro import SimulationCampaign, default_nmc_config, get_workload
from repro.backends import backend_names
from repro.config import NMCConfig
from repro.errors import ConfigError
from repro.ir import COLD_DISTANCE, Opcode, TraceBuilder, reuse_distances
from repro.nmcsim import (
    NMCSimulator,
    classify_streams,
    jit_status,
    simulate_batch,
)
from repro.obs import activate_tracing, metrics, reset_tracing

WORKLOADS = [
    "atax", "bfs", "bp", "chol", "gemv", "gesu",
    "gram", "kme", "lu", "mvt", "syrk", "trmm",
]

BACKENDS = ["hmc", "hbm2", "ddr4-channel", "nand-nmc"]

#: Columns of a classification's per-stream ``stats`` rows.
HITS, MISSES, WRITEBACKS, FLUSHES = range(4)


def result_dict(result):
    """Canonical JSON form — the strictest practical equality."""
    return json.dumps(result.to_json_dict(), sort_keys=True)


def small_trace(name, *, scale=6.0, seed=3):
    wl = get_workload(name)
    return wl.generate(wl.test_config(), scale=scale, seed=seed)


def assert_classifications_equal(a, b):
    np.testing.assert_array_equal(a.hit, b.hit)
    np.testing.assert_array_equal(a.wb_line, b.wb_line)
    assert np.array_equal(a.stats, b.stats)


def classify_one(monkeypatch, lines, writes, *, n_sets, ways):
    """One stream through :func:`classify_streams` under each kernel form
    (what the ``kernel_form`` fixture selects: the Python form, and the
    compiled one when a compiler exists), asserted equal; returns it."""
    forms = ["python"]
    if jit_status()["backend"] == "cc":
        forms.append("cc")
    results = []
    for form in forms:
        with monkeypatch.context() as patch:
            use_kernel(patch, form)
            results.append(classify_streams(
                lines, writes, np.array([0, len(lines)]),
                n_sets=n_sets, ways=ways,
            ))
    for other in results[1:]:
        assert_classifications_equal(results[0], other)
    return results[0]


# ------------------------------------------------------- classifier golden


class TestClassifierGolden:
    """Hand-traced streams with independently derived expectations."""

    def test_two_way_single_set(self, monkeypatch):
        # W A, W B, R A, W C, R B against one 2-way set:
        #   W A miss; W B miss; R A hit (distance 1);
        #   W C miss, evicts LRU B (dirty)  -> writeback of B;
        #   R B miss, evicts LRU A (dirty)  -> writeback of A.
        # Residents at the end: C (dirty), B (clean) -> flush {C}.
        a, b, c = 3, 5, 9
        lines = np.array([a, b, a, c, b], dtype=np.int64)
        writes = np.array([1, 1, 0, 1, 0], dtype=bool)
        cls = classify_one(monkeypatch, lines, writes, n_sets=1, ways=2)
        np.testing.assert_array_equal(
            cls.hit, [False, False, True, False, False]
        )
        np.testing.assert_array_equal(cls.wb_line, [-1, -1, -1, b, a])
        (stats,) = cls.stats
        assert stats[HITS] == 1
        assert stats[MISSES] == 4
        assert stats[WRITEBACKS] == 3  # two evictions + one flush
        assert stats[FLUSHES] == 1

    def test_direct_mapped_single_set(self, monkeypatch):
        # W 3, R 3, R 5, W 3 against one direct-mapped line:
        #   W 3 miss; R 3 hit (repeat); R 5 miss evicts dirty 3;
        #   W 3 miss evicts clean 5.  Flush {3}.
        lines = np.array([3, 3, 5, 3], dtype=np.int64)
        writes = np.array([1, 0, 0, 1], dtype=bool)
        cls = classify_one(monkeypatch, lines, writes, n_sets=1, ways=1)
        np.testing.assert_array_equal(cls.hit, [False, True, False, False])
        np.testing.assert_array_equal(cls.wb_line, [-1, -1, 3, -1])
        assert cls.stats[0, WRITEBACKS] == 2
        assert cls.stats[0, FLUSHES] == 1

    def test_two_way_thrash_never_hits(self, monkeypatch):
        # Cyclic A, B, C through a 2-way set: classic LRU worst case.
        lines = np.array([1, 2, 3] * 5, dtype=np.int64)
        writes = np.zeros(len(lines), dtype=bool)
        cls = classify_one(monkeypatch, lines, writes, n_sets=1, ways=2)
        assert not cls.hit.any()
        assert cls.stats[0, WRITEBACKS] == 0
        assert cls.stats[0, FLUSHES] == 0

    def test_sets_are_independent(self, monkeypatch):
        # Lines 0 and 1 land in different sets of a 2-set cache; the
        # interleaved stream hits on every revisit.
        lines = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
        writes = np.zeros(6, dtype=bool)
        cls = classify_one(monkeypatch, lines, writes, n_sets=2, ways=1)
        np.testing.assert_array_equal(
            cls.hit, [False, False, True, True, True, True]
        )

    def test_empty_and_singleton_streams(self, monkeypatch):
        empty = classify_one(
            monkeypatch, np.empty(0, dtype=np.int64), np.empty(0, dtype=bool),
            n_sets=2, ways=2,
        )
        assert len(empty.hit) == 0
        assert empty.stats[0, MISSES] == 0
        one = classify_one(
            monkeypatch, np.array([7], dtype=np.int64), np.array([True]),
            n_sets=2, ways=2,
        )
        np.testing.assert_array_equal(one.hit, [False])
        assert one.stats[0, FLUSHES] == 1
        assert one.stats[0, WRITEBACKS] == 1  # the flush

    def test_rejects_invalid_geometry(self, monkeypatch):
        lines = np.array([1, 2], dtype=np.int64)
        writes = np.zeros(2, dtype=bool)
        with pytest.raises(ConfigError):
            classify_one(monkeypatch, lines, writes, n_sets=1, ways=0)
        with pytest.raises(ConfigError):
            classify_one(monkeypatch, lines, writes, n_sets=0, ways=2)

    def test_high_associativity_is_exact(self, monkeypatch):
        # ways > 2 must agree with the Cache walk exactly.
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 32, 400).astype(np.int64)
        writes = rng.random(400) < 0.3
        for ways in (3, 4, 8):
            o_hit, o_wb, o_flush = stackdist_oracle(lines, writes, 4, ways)
            cls = classify_one(monkeypatch, lines, writes, n_sets=4, ways=ways)
            np.testing.assert_array_equal(cls.hit, o_hit)
            np.testing.assert_array_equal(cls.wb_line, o_wb)
            assert cls.stats[0, FLUSHES] == len(o_flush)


# ----------------------------------------------------- classifier property


def stackdist_oracle(lines, writes, n_sets, ways):
    """Independent oracle: stack-distance hits + ordered-dict LRU walk.

    Hits come straight from the Mattson stack-distance criterion — an
    access hits iff its per-set reuse distance
    (:func:`repro.ir.reuse_distances` of its set's sub-stream) is a real
    reuse below ``ways``; dirty/writeback/flush state from a per-set
    ``OrderedDict`` walk that shares no code with the classifier.  The walk cross-asserts the hit
    mask, so the two halves of the oracle also check each other.
    """
    dist = np.empty(len(lines), dtype=np.int64)
    set_of = lines % n_sets
    for s in np.unique(set_of):
        at = np.flatnonzero(set_of == s)
        dist[at] = reuse_distances(lines[at])
    hit = (dist != COLD_DISTANCE) & (dist < ways)
    sets = defaultdict(OrderedDict)  # per set: line -> dirty, LRU first
    wb_line = np.full(len(lines), -1, dtype=np.int64)
    for k, (ln, w) in enumerate(zip(lines.tolist(), writes.tolist())):
        s = sets[ln % n_sets]
        if ln in s:
            assert hit[k], "stack-distance oracle disagrees with LRU walk"
            dirty = s.pop(ln)
            s[ln] = dirty or bool(w)
        else:
            assert not hit[k], "stack-distance oracle disagrees with LRU walk"
            if len(s) >= ways:
                victim, vdirty = next(iter(s.items()))
                del s[victim]
                if vdirty:
                    wb_line[k] = victim
            s[ln] = bool(w)
    flush = sorted(
        ln for s in sets.values() for ln, dirty in s.items() if dirty
    )
    return hit, wb_line, np.asarray(flush, dtype=np.int64)


class TestClassifierProperty:
    """Both kernel forms == stack-distance oracle on random streams."""

    @pytest.mark.parametrize("n_sets", [1, 2, 4, 8])
    @pytest.mark.parametrize("ways", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_streams(self, monkeypatch, n_sets, ways, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 600))
        # A small line universe relative to the cache forces heavy
        # conflict/capacity interaction (evictions, re-allocations).
        universe = max(2, 3 * n_sets * ways)
        lines = rng.integers(0, universe, n).astype(np.int64)
        writes = rng.random(n) < 0.4
        got = classify_one(monkeypatch, lines, writes, n_sets=n_sets, ways=ways)
        o_hit, o_wb, o_flush = stackdist_oracle(lines, writes, n_sets, ways)
        np.testing.assert_array_equal(got.hit, o_hit)
        np.testing.assert_array_equal(got.wb_line, o_wb)
        (stats,) = got.stats
        assert stats[HITS] == int(o_hit.sum())
        assert stats[MISSES] == len(lines) - int(o_hit.sum())
        assert stats[FLUSHES] == len(o_flush)
        assert stats[WRITEBACKS] == int((o_wb >= 0).sum()) + len(o_flush)

    def test_all_writes_and_all_reads(self, monkeypatch):
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 12, 300).astype(np.int64)
        for writes in (np.zeros(300, dtype=bool), np.ones(300, dtype=bool)):
            got = classify_one(monkeypatch, lines, writes, n_sets=2, ways=2)
            o_hit, o_wb, o_flush = stackdist_oracle(lines, writes, 2, 2)
            np.testing.assert_array_equal(got.hit, o_hit)
            np.testing.assert_array_equal(got.wb_line, o_wb)
            assert got.stats[0, FLUSHES] == len(o_flush)


# ------------------------------------------------------- engine selection


class TestEngineSelection:
    def test_default_is_fast(self):
        assert NMCSimulator().engine == "fast"
        assert NMCSimulator(engine="reference").engine == "reference"

    def test_invalid_engine_rejected(self):
        with pytest.raises(ConfigError, match="turbo"):
            NMCSimulator(engine="turbo")


# ---------------------------------------------------- engine equivalence

GEOMETRIES = {
    # Table 3 defaults: tiny 2-way L1, the high-miss regime.
    "default": {},
    # Direct-mapped sweep point.
    "direct_mapped": {"l1_lines": 16, "l1_ways": 1},
    # High associativity: long recency lists per set.
    "four_way": {"l1_lines": 64, "l1_ways": 4},
    "eight_way": {"l1_lines": 64, "l1_ways": 8},
    # Different DRAM shape: routing, bank and bus state all change.
    "narrow_cube": {"n_vaults": 8, "banks_per_vault": 4},
}


class TestEngineEquivalence:
    """fast == reference, bit for bit, on every workload."""

    def _compare(self, trace, cfg, name):
        rf = NMCSimulator(cfg, engine="fast").run(
            trace, workload=name, parameters={"p": 1.0}
        )
        rr = NMCSimulator(cfg, engine="reference").run(
            trace, workload=name, parameters={"p": 1.0}
        )
        assert result_dict(rf) == result_dict(rr)
        return rf

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_all_workloads_default_config(self, name):
        self._compare(small_trace(name), default_nmc_config(), name)

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("name", ["atax", "bfs", "kme"])
    def test_swept_geometries(self, name, geometry):
        cfg = default_nmc_config().replace(**GEOMETRIES[geometry])
        self._compare(small_trace(name), cfg, name)

    def test_streams_without_memory_ops(self):
        """PE streams with no memory op (hence no miss: every L1 starts
        empty) finish after their compute alone, next to streams that
        miss and write back; the packer's quiet-stream branch agrees
        with the reference engine."""
        builder = TraceBuilder()
        for i in range(40):
            builder.emit(Opcode.IALU, dst=1, src1=1, tid=0)
            builder.emit(Opcode.FMUL, dst=2, src1=2, src2=2, tid=2)
            builder.load(3, 0x1000 + 64 * (i % 5), tid=1)
            builder.store(3, 0x8000 + 64 * (i % 3), tid=1)
        builder.emit(Opcode.FDIV, dst=4, src1=4, src2=4, tid=2)
        trace = builder.finish()
        cfg = default_nmc_config().replace(n_pes=4)
        product = NMCSimulator(cfg)._compute_phase_a(trace)
        assert sorted(product.f0_idx.tolist()) == [0, 2]
        assert product.sidx.tolist() == [1]
        for pe_type, mshrs in (("inorder", 1), ("ooo", 4)):
            self._compare(
                trace,
                cfg.replace(pe_type=pe_type, mshr_entries=mshrs),
                "quiet",
            )

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_all_workloads_ooo(self, name):
        cfg = default_nmc_config().replace(
            pe_type="ooo", issue_width=2, mshr_entries=8
        )
        self._compare(small_trace(name), cfg, name)

    @pytest.mark.parametrize("mshrs", [1, 2, 16])
    def test_ooo_mshr_sweep(self, mshrs):
        cfg = default_nmc_config().replace(
            pe_type="ooo", issue_width=2, mshr_entries=mshrs
        )
        self._compare(small_trace("chol"), cfg, "chol")

    def test_seed_and_scale_sweep(self):
        cfg = default_nmc_config()
        wl = get_workload("gemv")
        for seed in (0, 9):
            for scale in (4.0, 8.0):
                trace = wl.generate(wl.test_config(), scale=scale, seed=seed)
                self._compare(trace, cfg, "gemv")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_all_workloads_all_backends(self, name, backend):
        cfg = NMCConfig.from_backend(backend)
        self._compare(small_trace(name, scale=8.0), cfg, name)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_with_ooo_cores(self, backend):
        cfg = NMCConfig.from_backend(backend).replace(
            pe_type="ooo", issue_width=2, mshr_entries=8
        )
        self._compare(small_trace("chol", scale=8.0), cfg, "chol")

    def test_backend_memo_keys_do_not_collide(self):
        # Same trace, two backends, back to back: the events memo is
        # keyed by backend, so the second run must not reuse the first
        # backend's packed timing events.
        trace = small_trace("atax", scale=8.0)
        results = {}
        for backend in ("hmc", "ddr4-channel"):
            cfg = NMCConfig.from_backend(backend)
            fast = NMCSimulator(cfg, engine="fast").run(trace)
            ref = NMCSimulator(cfg, engine="reference").run(trace)
            assert result_dict(fast) == result_dict(ref), backend
            results[backend] = fast.time_s
        assert results["hmc"] != results["ddr4-channel"]


# -------------------------------------------------- campaign equivalence

ATAX_CONFIGS = [
    {"dimensions": 500, "threads": 4},
    {"dimensions": 1250, "threads": 8},
    {"dimensions": 2000, "threads": 16},
]


@contextlib.contextmanager
def campaign_engine(engine, tmp_path):
    """Campaigns run the fast engine; hardware tracing is what routes
    their points through the per-access reference engine."""
    if engine == "fast":
        yield
        return
    activate_tracing(tmp_path / "hw.json", hw=True)
    try:
        yield
    finally:
        reset_tracing()


def run_campaign(jobs, arch=None):
    campaign = SimulationCampaign(arch, scale=4.0, jobs=jobs)
    return campaign.run(get_workload("atax"), ATAX_CONFIGS)


def assert_rows_match_reference(training, arch=None):
    """Each row equals a reference-engine run of its own trace."""
    atax = get_workload("atax")
    for row in training.rows:
        expected = reference_result(atax, row, scale=4.0, arch=arch)
        assert result_dict(row.result) == result_dict(expected)


def assert_rows_equal(got, expected):
    assert len(got.rows) == len(expected.rows)
    for a, b in zip(got.rows, expected.rows):
        assert a.workload == b.workload
        assert a.parameters == b.parameters
        np.testing.assert_array_equal(a.features, b.features)
        assert result_dict(a.result) == result_dict(b.result)


class TestCampaignEquivalence:
    @pytest.mark.parametrize(
        "engine,jobs", [("fast", 1), ("fast", 2), ("reference", 2)]
    )
    def test_matches_reference_serial(self, engine, jobs, tmp_path):
        with campaign_engine(engine, tmp_path):
            batches_before = metrics().count("sim.batch.calls")
            training = run_campaign(jobs)
            batched = metrics().count("sim.batch.calls") > batches_before
        assert batched == (engine == "fast")
        assert_rows_match_reference(training)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_run_point_matches_run_row(self, engine, tmp_path):
        # run() and run_point() share one simulation path: a lone point
        # reproduces its campaign row bit for bit.
        atax = get_workload("atax")
        rows = run_campaign(1).rows
        with campaign_engine(engine, tmp_path):
            for config, row in zip(ATAX_CONFIGS, rows):
                single = SimulationCampaign(scale=4.0).run_point(atax, config)
                assert single.parameters == row.parameters
                np.testing.assert_array_equal(single.features, row.features)
                assert result_dict(single.result) == result_dict(row.result)

    def test_trace_reused_across_architectures(self):
        # Two campaigns over the same input points but different
        # architectures: the second must reuse the memoized traces.
        run_campaign(1)
        before = metrics().count("campaign.trace_reuse")
        run_campaign(1, arch=default_nmc_config().replace(n_vaults=8))
        after = metrics().count("campaign.trace_reuse")
        assert after >= before + len(ATAX_CONFIGS)


# ------------------------------------------------------ geometry memos


class TestClassificationMemo:
    def test_resimulating_a_trace_hits_every_memo(self):
        trace = small_trace("gemv")
        sim = NMCSimulator(default_nmc_config(), engine="fast")
        first = sim.run(trace, workload="gemv")
        m = metrics()
        before = {name: m.count(name) for name in
                  ("sim.memo.streams.hits", "sim.memo.classify.hits",
                   "sim.memo.events.hits")}
        second = sim.run(trace, workload="gemv")
        assert result_dict(second) == result_dict(first)
        for name, count in before.items():
            assert m.count(name) == count + 1, name

    def test_cold_phase_a_records_sub_timers(self):
        """A cold run splits ``phase.simulate.classify`` into its digest,
        LRU and pack steps, each timed once, inside the parent span."""
        trace = small_trace("kme", seed=7)
        before = metrics().snapshot()
        NMCSimulator(default_nmc_config().replace(n_pes=5)).run(trace)
        timers = metrics().diff(before)["timers"]
        parts = [
            timers[f"phase.simulate.classify.{step}"]
            for step in ("digest", "lru", "pack")
        ]
        assert [t["count"] for t in parts] == [1, 1, 1]
        assert timers["phase.simulate.classify"]["count"] == 1
        assert (
            sum(t["total_s"] for t in parts)
            <= timers["phase.simulate.classify"]["total_s"]
        )

    def test_geometry_sharing_campaign_hits_classify_memo(self):
        # Same traces (campaign trace memo), same L1 geometry, different
        # DRAM shape: classification is served from the memo while the
        # DRAM-dependent event build re-runs — and results still match
        # the reference engine exactly.
        run_campaign(1)
        hits_before = metrics().count("sim.memo.classify.hits")
        narrow = default_nmc_config().replace(n_vaults=8)
        got = run_campaign(1, arch=narrow)
        assert (
            metrics().count("sim.memo.classify.hits")
            >= hits_before + len(ATAX_CONFIGS)
        )
        assert_rows_match_reference(got, narrow)

    def test_parallel_memo_campaign_matches_serial(self):
        serial = run_campaign(1)
        assert_rows_equal(run_campaign(2), serial)


# ------------------------------------------------- compiled phase-B kernel


@st.composite
def nmc_configs(draw):
    """A memory backend plus a swept PE / L1 geometry on top of it."""
    ways = draw(st.sampled_from([1, 2, 3, 4, 8]))
    pe_type = draw(st.sampled_from(["inorder", "ooo"]))
    return NMCConfig.from_backend(draw(st.sampled_from(backend_names()))).replace(
        n_pes=draw(st.sampled_from([1, 2, 3, 4, 8, 32])),
        l1_ways=ways,
        l1_lines=ways * draw(st.sampled_from([1, 2, 3, 4, 8])),
        pe_type=pe_type,
        issue_width=draw(st.sampled_from([1, 2])),
        mshr_entries=draw(st.integers(1, 8)) if pe_type == "ooo" else 1,
    )


@st.composite
def sim_cases(draw):
    """A workload trace at drawn input parameters and a small scale, plus
    one to three architectures to simulate it on."""
    workload = get_workload(draw(st.sampled_from(WORKLOADS)))
    config = {
        p.name: draw(st.sampled_from((*p.levels, p.test)))
        for p in workload.parameters
    }
    scale = draw(st.sampled_from([6.0, 8.0, 12.0]))
    trace = workload.generate(config, scale=scale)
    archs = draw(st.lists(nmc_configs(), min_size=1, max_size=3))
    return workload.name, config, trace, archs


def assert_engines_agree(case):
    """fast == reference for every architecture, and one batched replay
    of all of them == per-point runs."""
    name, params, trace, archs = case
    per_point = []
    for cfg in archs:
        fast = NMCSimulator(cfg, engine="fast").run(
            trace, workload=name, parameters=params
        )
        ref = NMCSimulator(cfg, engine="reference").run(
            trace, workload=name, parameters=params
        )
        assert result_dict(fast) == result_dict(ref), cfg
        per_point.append(result_dict(fast))
    batched = simulate_batch([(trace, cfg, name, params) for cfg in archs])
    assert [result_dict(r) for r in batched] == per_point


EQUIVALENCE_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestJITEquivalence:
    """Differential test of phase B: drawn workloads, geometries and
    backends, under the pure-Python and the compiled kernel."""

    def test_jit_status_shape(self, monkeypatch):
        assert jit_status()["backend"] in ("cc", "python")
        use_kernel(monkeypatch, "python")
        assert jit_status() == {"backend": "python"}

    @EQUIVALENCE_SETTINGS
    @given(case=sim_cases())
    def test_packed_kernel_python_semantics_match_reference(
        self, monkeypatch, case
    ):
        use_kernel(monkeypatch, "python")
        assert_engines_agree(case)

    @EQUIVALENCE_SETTINGS
    @given(case=sim_cases())
    def test_compiled_kernel_matches_reference(self, monkeypatch, case):
        use_kernel(monkeypatch, "cc")
        assert_engines_agree(case)


# -------------------------------------------------------- traced runs


class TestTracedEquivalence:
    def test_hw_traced_fast_run_matches_reference(self, tmp_path):
        """Hardware tracing forces the per-access path; results agree."""
        trace = small_trace("atax")
        cfg = default_nmc_config()
        baseline = NMCSimulator(cfg, engine="reference").run(trace)
        fast_plain = NMCSimulator(cfg, engine="fast").run(trace)
        try:
            activate_tracing(tmp_path / "trace.json", hw=True)
            traced = NMCSimulator(cfg, engine="fast").run(trace)
        finally:
            reset_tracing()
        assert result_dict(traced) == result_dict(baseline)
        assert result_dict(fast_plain) == result_dict(baseline)

    def test_pipeline_traced_fast_run_stays_fast_and_identical(self, tmp_path):
        """Pipeline-only tracing (hw=False) keeps the fast engine."""
        trace = small_trace("mvt")
        cfg = default_nmc_config()
        baseline = NMCSimulator(cfg, engine="reference").run(trace)
        try:
            activate_tracing(tmp_path / "trace.json", hw=False)
            traced = NMCSimulator(cfg, engine="fast").run(trace)
        finally:
            reset_tracing()
        assert result_dict(traced) == result_dict(baseline)
