"""Memory-backend descriptors, registry, and bit-identity guarantees.

The ``hmc`` backend is the pre-refactor device: ``NMCConfig()`` (and
``--backend hmc``) must reproduce the pinned pre-refactor golden results
bit for bit, on both engines.  The other descriptors are exercised
against per-backend golden snapshots and the fast/reference equivalence
contract.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import get_workload
from repro.backends import (
    BackendDescriptor,
    LinkParams,
    backend_names,
    backend_summaries,
    get_backend,
    register_backend,
)
from repro.backends.registry import _unregister_backend
from repro.config import NMCConfig, arch_feature_names, default_nmc_config
from repro.core.campaign import CACHE_FORMAT_VERSION, CampaignCache, _arch_key
from repro.doe import ParameterSpace, central_composite, cross_backends
from repro.doe.lhs import latin_hypercube
from repro.errors import ConfigError, DoEError, SchemaMismatchError
from repro.nmcsim import NMCSimulator
from repro.nmcsim.energy import compute_energy
from repro.nmcsim.interconnect import LinkModel
from repro.schema import (
    FeatureBlock,
    FeatureSchema,
    active_schema,
    canonical_hash,
)

DATA = Path(__file__).parent / "data"
ALL_BACKENDS = ("hmc", "hbm2", "ddr4-channel", "nand-nmc")


def load_golden(name):
    return json.loads((DATA / name).read_text())


def run(name, cfg, *, scale, seed, engine, **run_kwargs):
    wl = get_workload(name)
    trace = wl.generate(wl.test_config(), scale=scale, seed=seed)
    return NMCSimulator(cfg, engine=engine).run(trace, **run_kwargs)


# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_shipped_backends_registered_in_order(self):
        assert backend_names() == ALL_BACKENDS

    def test_unknown_backend_raises_named_error(self):
        with pytest.raises(ConfigError, match="unknown memory backend"):
            get_backend("hbm3")
        with pytest.raises(ConfigError, match="hmc"):
            get_backend("hbm3")  # the known names are listed

    def test_identical_reregistration_is_noop(self):
        before = active_schema()
        register_backend(get_backend("hmc"))
        assert active_schema() is before

    def test_conflicting_duplicate_rejected(self):
        clone = get_backend("hmc").replace(n_vaults=64)
        with pytest.raises(ConfigError, match="already registered"):
            register_backend(clone)
        assert get_backend("hmc").n_vaults == 32

    def test_register_custom_backend_extends_schema(self):
        custom = get_backend("hbm2").replace(
            name="hbm2e", description="test-only clone"
        )
        try:
            register_backend(custom)
            assert "hbm2e" in backend_names()
            assert "arch.backend.hbm2e" in active_schema().names
        finally:
            _unregister_backend("hbm2e")
        assert "arch.backend.hbm2e" not in active_schema().names

    def test_invalid_descriptor_rejected(self):
        with pytest.raises(ConfigError):
            BackendDescriptor(name="", description="x").validate()
        with pytest.raises(ConfigError):
            get_backend("hmc").replace(family="cassette-tape")
        with pytest.raises(ConfigError):
            get_backend("hmc").replace(row_buffer_bytes=257)

    def test_summaries_cover_all_backends(self):
        names = [s["name"] for s in backend_summaries()]
        assert names == list(ALL_BACKENDS)


# -------------------------------------------------------- config semantics


class TestConfigBackendSemantics:
    def test_default_config_is_hmc(self):
        assert default_nmc_config() == NMCConfig.from_backend("hmc")
        assert NMCConfig() == NMCConfig.from_backend("hmc")

    def test_from_backend_applies_descriptor_fields(self):
        cfg = NMCConfig.from_backend("hbm2")
        d = get_backend("hbm2")
        assert cfg.backend == "hbm2"
        assert cfg.n_vaults == d.n_vaults
        assert cfg.row_buffer_bytes == d.row_buffer_bytes
        assert cfg.timing == d.timing
        assert cfg.energy == d.energy
        assert cfg.link_width_bits == d.link.width_bits

    def test_from_backend_overrides_win(self):
        cfg = NMCConfig.from_backend("ddr4-channel", n_pes=8)
        assert cfg.n_pes == 8
        assert cfg.backend == "ddr4-channel"

    def test_replace_rebases_device_fields_and_carries_pe_knobs(self):
        cfg = default_nmc_config().replace(n_pes=16, issue_width=2)
        moved = cfg.replace(backend="nand-nmc")
        d = get_backend("nand-nmc")
        assert moved.n_pes == 16 and moved.issue_width == 2
        assert moved.n_vaults == d.n_vaults
        assert moved.timing == d.timing
        assert moved.closed_row == d.closed_row

    def test_replace_same_backend_keeps_device_overrides(self):
        cfg = default_nmc_config().replace(n_vaults=16)
        assert cfg.backend == "hmc"
        assert cfg.n_vaults == 16

    def test_unknown_backend_in_config_fails_validation(self):
        with pytest.raises(ConfigError, match="unknown memory backend"):
            NMCConfig(backend="tape").validate()

    def test_feature_vector_one_hot_and_scalars(self):
        names = arch_feature_names()
        for b in ALL_BACKENDS:
            cfg = NMCConfig.from_backend(b)
            features = dict(zip(names, cfg.feature_vector()))
            for other in ALL_BACKENDS:
                assert features[f"arch.backend.{other}"] == (
                    1.0 if other == b else 0.0
                )
            assert features["arch.closed_row"] == float(cfg.closed_row)
            assert features["arch.link_gbytes_per_s"] == pytest.approx(
                cfg.link_gbytes_per_s
            )
        nand = dict(zip(names, NMCConfig.from_backend("nand-nmc").feature_vector()))
        assert nand["arch.rw_asymmetry"] > 1.0


# ------------------------------------------------------------ bit identity


class TestHmcBitIdentity:
    """``--backend hmc`` must equal the pre-refactor simulator exactly."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden("golden_pre_refactor_hmc.json")

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_all_workloads_match_pre_refactor_golden(self, golden, engine):
        cfg = NMCConfig.from_backend("hmc")
        for name, want in golden["results"].items():
            got = run(
                name, cfg, scale=golden["scale"], seed=golden["seed"],
                engine=engine, workload=name, parameters={"p": 1.0},
            ).to_json_dict()
            assert got == want, f"{name} ({engine}) drifted from golden"


class TestBackendGoldens:
    """Per-backend golden snapshots at the test inputs."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden("golden_backends.json")

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_backend_matches_golden(self, golden, backend):
        cfg = NMCConfig.from_backend(backend)
        for name, want in golden["results"][backend].items():
            got = run(
                name, cfg, scale=golden["scale"], seed=golden["seed"],
                engine="fast",
            ).to_json_dict()
            assert got == want, f"{backend}/{name} drifted from golden"

    def test_backends_actually_differ(self, golden):
        times = {
            b: golden["results"][b]["gemv"]["time_s"] for b in ALL_BACKENDS
        }
        assert len(set(times.values())) == len(ALL_BACKENDS)
        assert times["nand-nmc"] > 100 * times["hmc"]


# ---------------------------------------------------- write asymmetry


class TestWriteAsymmetry:
    def test_nand_write_asymmetry_slows_writeback_heavy_kernels(self):
        import dataclasses

        sym = NMCConfig.from_backend("nand-nmc").replace(
            timing=dataclasses.replace(
                get_backend("nand-nmc").timing, t_wr_extra_ns=0.0
            )
        )
        asym = NMCConfig.from_backend("nand-nmc")
        t_sym = run("gemv", sym, scale=8.0, seed=3, engine="fast").time_s
        t_asym = run("gemv", asym, scale=8.0, seed=3, engine="fast").time_s
        assert t_asym > t_sym

    def test_write_energy_asymmetry_counts_writes_only(self):
        cfg = NMCConfig.from_backend("nand-nmc")
        base = compute_energy(cfg, {}, 0, 100, 1e-6, dram_writes=0)
        with_writes = compute_energy(cfg, {}, 0, 100, 1e-6, dram_writes=10)
        extra = (
            10 * cfg.line_bytes * 8
            * cfg.energy.dram_wr_extra_pj_per_bit * 1e-12
        )
        assert with_writes.dram_dynamic_j == pytest.approx(
            base.dram_dynamic_j + extra
        )

    def test_hmc_energy_unchanged_by_write_count(self):
        cfg = NMCConfig.from_backend("hmc")
        assert compute_energy(cfg, {}, 0, 100, 1e-6, dram_writes=0) == (
            compute_energy(cfg, {}, 0, 100, 1e-6, dram_writes=50)
        )


# ------------------------------------------------------------- link model


class TestBackendLinkModel:
    def test_link_params_resolve_per_backend(self):
        hmc = LinkModel(NMCConfig.from_backend("hmc"))
        ddr = LinkModel(NMCConfig.from_backend("ddr4-channel"))
        assert hmc.packet_overhead == pytest.approx(0.10)
        assert hmc.setup_latency_s == pytest.approx(1.0e-6)
        assert ddr.packet_overhead == pytest.approx(0.05)
        assert ddr.setup_latency_s == pytest.approx(5.0e-7)
        cost = ddr.offload_cost(1024.0, 1024.0)
        assert cost.setup_s == pytest.approx(5.0e-7)

    def test_bandwidth_follows_config_width_and_gbps(self):
        cfg = NMCConfig.from_backend("hbm2")
        d = get_backend("hbm2")
        assert cfg.link_gbytes_per_s == pytest.approx(d.link.gbytes_per_s)
        model = LinkModel(cfg)
        assert model.effective_bw == pytest.approx(
            d.link.gbytes_per_s * 1e9 * (1.0 - d.link.packet_overhead)
        )

    def test_link_params_validation(self):
        with pytest.raises(ConfigError):
            LinkParams(width_bits=0).validate()
        with pytest.raises(ConfigError):
            LinkParams(packet_overhead=1.0).validate()


# --------------------------------------------------- canonical hash / cache


class TestCanonicalHash:
    def test_stable_across_key_order(self):
        assert canonical_hash({"a": 1.5, "b": 2}) == (
            canonical_hash({"b": 2, "a": 1.5})
        )

    def test_floats_hash_bit_exactly(self):
        assert canonical_hash(0.1) != canonical_hash(
            0.1 + 2.220446049250313e-16
        )

    def test_dataclasses_hash_by_fields(self):
        assert canonical_hash(NMCConfig()) == canonical_hash(
            NMCConfig.from_backend("hmc")
        )
        assert canonical_hash(NMCConfig()) != canonical_hash(
            NMCConfig.from_backend("hbm2")
        )

    def test_arch_key_prefixes_backend(self):
        for b in ALL_BACKENDS:
            key = _arch_key(NMCConfig.from_backend(b))
            assert key.startswith(f"{b}:")
        keys = {_arch_key(NMCConfig.from_backend(b)) for b in ALL_BACKENDS}
        assert len(keys) == len(ALL_BACKENDS)

    def test_arch_key_sensitive_to_pe_knobs(self):
        assert _arch_key(NMCConfig()) != _arch_key(
            NMCConfig().replace(n_pes=16)
        )


class TestCacheFormat:
    def test_cache_roundtrip_keeps_format(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = CampaignCache(path)
        cache.save()
        data = json.loads(path.read_text())
        assert data["format"] == CACHE_FORMAT_VERSION

    def test_old_format_cache_discarded_with_warning(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({
            "schema_hash": active_schema().content_hash,
            "profiles": {}, "results": [],
        }))
        with pytest.warns(RuntimeWarning, match="cache format"):
            cache = CampaignCache(path)
        assert len(cache) == 0

    def test_corrupt_cache_still_tolerated(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            cache = CampaignCache(path)
        assert len(cache) == 0


# ------------------------------------------------------------ DoE factor


class TestBackendDoEFactor:
    def space(self):
        return ParameterSpace.of_workload(get_workload("gemv"))

    def test_cross_backends_replicates_design(self):
        space = self.space()
        configs = central_composite(space)
        crossed = central_composite(space, backends=["hmc", "hbm2"])
        assert len(crossed) == 2 * len(configs)
        assert [c for b, c in crossed if b == "hmc"] == configs
        assert [c for b, c in crossed if b == "hbm2"] == configs

    def test_cross_backends_rejects_unknown_and_duplicates(self):
        with pytest.raises(ConfigError, match="unknown memory backend"):
            cross_backends([{}], ["hbm3"])
        with pytest.raises(DoEError, match="duplicate"):
            cross_backends([{}], ["hmc", "hmc"])
        with pytest.raises(DoEError, match="at least one"):
            cross_backends([{}], [])

    def test_lhs_backend_stratification_preserves_configs(self):
        space = self.space()
        plain = latin_hypercube(space, 8, np.random.default_rng(7))
        paired = latin_hypercube(
            space, 8, np.random.default_rng(7),
            backends=["hmc", "nand-nmc"],
        )
        assert [c for _, c in paired] == plain
        counts = {}
        for b, _ in paired:
            counts[b] = counts.get(b, 0) + 1
        assert counts == {"hmc": 4, "nand-nmc": 4}


# ------------------------------------------------------- schema rejection


class TestOldSchemaRejection:
    def test_pre_backend_arch_block_rejected_naming_backend_columns(self):
        """A v1 (pre-backend) model schema must fail loudly at predict."""
        schema = active_schema()
        old_arch = tuple(NMCConfig.ARCH_FEATURE_NAMES)
        old_schema = FeatureSchema([
            b if b.name != "arch" else FeatureBlock(
                "arch", old_arch, dtype=b.dtype, description=b.description
            )
            for b in schema.blocks
        ])
        assert old_schema.content_hash != schema.content_hash
        diff = old_schema.diff(schema)
        assert "arch.backend.hmc" in diff.extra
        assert "arch.closed_row" in diff.extra
        with pytest.raises(SchemaMismatchError, match="arch.backend"):
            raise SchemaMismatchError(
                diff.describe(), extra=diff.extra
            )

    def test_model_with_old_schema_refuses_new_features(self):
        from repro.core.predictor import NapelModel

        class _Stub:
            def predict(self, X):
                return np.zeros(len(X))

        schema = active_schema()
        old_schema = FeatureSchema([
            b if b.name != "arch" else FeatureBlock(
                "arch", tuple(NMCConfig.ARCH_FEATURE_NAMES),
                dtype=b.dtype, description=b.description,
            )
            for b in schema.blocks
        ])
        model = NapelModel(_Stub(), _Stub(), schema=old_schema)
        X = np.ones((1, len(schema)))
        with pytest.raises(SchemaMismatchError) as err:
            model.predict_labels(X, schema=schema)
        assert any(n.startswith("arch.backend.") for n in err.value.extra)
