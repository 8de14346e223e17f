"""Tests for the versioned feature schema (repro.schema)."""

import json

import numpy as np
import pytest

import repro.schema as schema_mod
from repro.config import arch_feature_names
from repro.core.dataset import APP_FEATURE_NAMES, DERIVED_FEATURE_NAMES
from repro.core.predictor import NapelModel
from repro.errors import ConfigError, SchemaMismatchError
from repro.profiler.features import FEATURE_NAMES
from repro.schema import (
    BLOCK_ORDER,
    FeatureBlock,
    FeatureSchema,
    active_schema,
    register_block,
)


@pytest.fixture
def toy_schema():
    return FeatureSchema([
        FeatureBlock("profile", ("p.a", "p.b", "p.c")),
        FeatureBlock("arch", ("arch.x", "arch.y")),
    ])


class TestActiveSchema:
    def test_block_order_and_contents(self):
        schema = active_schema()
        assert tuple(b.name for b in schema.blocks) == BLOCK_ORDER
        assert schema.block("profile").features == FEATURE_NAMES
        assert schema.block("app").features == APP_FEATURE_NAMES
        assert schema.block("arch").features == arch_feature_names()
        assert schema.block("prior").features == DERIVED_FEATURE_NAMES

    def test_names_concatenate_blocks(self):
        schema = active_schema()
        assert len(schema) == sum(len(b) for b in schema.blocks)
        assert schema.names[: len(FEATURE_NAMES)] == FEATURE_NAMES
        assert schema.names[-len(DERIVED_FEATURE_NAMES):] == (
            DERIVED_FEATURE_NAMES
        )

    def test_cached_and_stable(self):
        assert active_schema() is active_schema()
        assert active_schema().content_hash == active_schema().content_hash

    def test_legacy_flat_name_list(self):
        # The one remaining home of the legacy name.
        assert schema_mod.ALL_FEATURE_NAMES == active_schema().names


class TestFeatureBlock:
    def test_rejects_empty(self):
        with pytest.raises(ConfigError, match="no features"):
            FeatureBlock("empty", ())

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError, match="duplicate"):
            FeatureBlock("b", ("x", "y", "x"))


class TestFeatureSchema:
    def test_index_and_contains(self, toy_schema):
        assert toy_schema.index("arch.x") == 3
        assert "p.b" in toy_schema
        assert "nope" not in toy_schema

    def test_index_unknown_raises_with_fields(self, toy_schema):
        with pytest.raises(SchemaMismatchError) as err:
            toy_schema.index("nope")
        assert err.value.missing == ("nope",)

    def test_select_block_and_names(self, toy_schema):
        assert list(toy_schema.select("arch")) == [3, 4]
        assert list(toy_schema.select(["p.c", "p.a"])) == [2, 0]

    def test_block_slice(self, toy_schema):
        assert toy_schema.block_slice("profile") == slice(0, 3)
        with pytest.raises(SchemaMismatchError, match="no block"):
            toy_schema.block_slice("bogus")

    def test_duplicate_across_blocks_rejected(self):
        with pytest.raises(ConfigError, match="more than one block"):
            FeatureSchema([
                FeatureBlock("a", ("x", "y")),
                FeatureBlock("b", ("y", "z")),
            ])

    def test_validate_matrix(self, toy_schema):
        toy_schema.validate_matrix(np.zeros((4, 5)))
        with pytest.raises(SchemaMismatchError, match="5 columns"):
            toy_schema.validate_matrix(np.zeros((4, 6)))


class TestContentHash:
    def test_identical_blocks_same_hash(self, toy_schema):
        twin = FeatureSchema([
            FeatureBlock("profile", ("p.a", "p.b", "p.c")),
            FeatureBlock("arch", ("arch.x", "arch.y")),
        ])
        assert twin.content_hash == toy_schema.content_hash

    def test_reorder_changes_hash(self, toy_schema):
        reordered = FeatureSchema([
            FeatureBlock("profile", ("p.b", "p.a", "p.c")),
            FeatureBlock("arch", ("arch.x", "arch.y")),
        ])
        assert reordered.content_hash != toy_schema.content_hash

    def test_rename_changes_hash(self, toy_schema):
        renamed = FeatureSchema([
            FeatureBlock("profile", ("p.a", "p.b", "p.zzz")),
            FeatureBlock("arch", ("arch.x", "arch.y")),
        ])
        assert renamed.content_hash != toy_schema.content_hash

    def test_version_not_in_hash(self, toy_schema):
        other = FeatureSchema(toy_schema.blocks, version=99)
        assert other.content_hash == toy_schema.content_hash
        assert other != toy_schema


class TestDiffAndProjection:
    def test_diff_identical_is_falsy(self, toy_schema):
        diff = toy_schema.diff(toy_schema)
        assert not diff
        assert diff.describe() == "schemas are identical"

    def test_diff_names_all_three_kinds(self, toy_schema):
        other = FeatureSchema([
            FeatureBlock("profile", ("p.b", "p.a", "p.new")),
            FeatureBlock("arch", ("arch.x", "arch.y")),
        ])
        diff = toy_schema.diff(other)
        assert diff.missing == ("p.c",)
        assert diff.extra == ("p.new",)
        assert set(diff.moved) == {"p.a", "p.b"}
        text = diff.describe()
        assert "p.c" in text and "p.new" in text

    def test_diff_missing_or_extra_column_moves_nothing(self, toy_schema):
        shifted = FeatureSchema([
            FeatureBlock("profile", ("p.new", "p.a", "p.c")),
            FeatureBlock("arch", ("arch.x", "arch.y")),
        ])
        diff = toy_schema.diff(shifted)
        assert (diff.missing, diff.extra, diff.moved) == (
            ("p.b",), ("p.new",), ()
        )
        assert toy_schema.diff(FeatureSchema([
            FeatureBlock("profile", ("p.b", "p.c")),
            FeatureBlock("arch", ("arch.x", "arch.y")),
        ])).moved == ()

    def test_projection_reorders_columns(self, toy_schema):
        source = FeatureSchema([
            FeatureBlock("arch", ("arch.y", "arch.x")),
            FeatureBlock("profile", ("p.c", "p.b", "p.a")),
        ])
        X_src = np.arange(10.0).reshape(2, 5)
        proj = toy_schema.projection_from(source)
        X = X_src[:, proj]
        for j, name in enumerate(toy_schema.names):
            assert np.array_equal(X[:, j], X_src[:, source.index(name)])

    def test_projection_refuses_missing(self, toy_schema):
        source = FeatureSchema([FeatureBlock("profile", ("p.a", "p.b"))])
        with pytest.raises(SchemaMismatchError, match="lacks required"):
            toy_schema.projection_from(source)

    def test_subset_by_mask_drops_empty_blocks(self, toy_schema):
        mask = np.array([True, False, True, False, False])
        sub = toy_schema.subset(mask)
        assert sub.names == ("p.a", "p.c")
        assert [b.name for b in sub.blocks] == ["profile"]

    def test_subset_by_names(self, toy_schema):
        sub = toy_schema.subset(["arch.y", "p.b"])
        assert sub.names == ("p.b", "arch.y")  # schema order preserved
        with pytest.raises(SchemaMismatchError, match="unknown"):
            toy_schema.subset(["p.a", "ghost"])


class TestJsonRoundTrip:
    def test_roundtrip(self, toy_schema):
        data = json.loads(json.dumps(toy_schema.to_json_dict()))
        restored = FeatureSchema.from_json_dict(data)
        assert restored == toy_schema
        assert restored.content_hash == toy_schema.content_hash

    def test_tampered_hash_rejected(self, toy_schema):
        data = toy_schema.to_json_dict()
        data["content_hash"] = "0" * 64
        with pytest.raises(SchemaMismatchError, match="corrupt"):
            FeatureSchema.from_json_dict(data)


class TestRegistry:
    def test_identical_reregistration_is_noop(self):
        before = active_schema()
        register_block("arch", arch_feature_names)
        assert active_schema() is before

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ConfigError, match="replace=True"):
            register_block("arch", ("arch.bogus",))
        # The failed registration must not have clobbered the real block.
        assert (
            active_schema().block("arch").features
            == arch_feature_names()
        )


class _ColumnPicker:
    """Stand-in forest: predicts the value of one fixed column."""

    def __init__(self, column):
        self.column = column

    def predict(self, X):
        return np.asarray(X)[:, self.column]


#: The two prior columns every NapelModel reads its label offsets from.
PRIOR = FeatureBlock("prior", ("prior.ipc_estimate", "prior.log_epi_estimate"))


def _toy_rows(n, *blocks):
    """``n`` rows over ``blocks`` plus the prior block: ``arange`` values
    in the toy columns, and priors whose offsets are exactly zero."""
    width = sum(len(b) for b in blocks)
    X = np.empty((n, width + 2))
    X[:, :width] = np.arange(n * width, dtype=np.float64).reshape(n, width)
    X[:, width] = 1.0
    X[:, width + 1] = NapelModel._LN_PJ_TO_J
    return X


class TestModelSchemaGuard:
    """A model trained before a feature reorder must refuse to predict."""

    def _model(self, schema):
        return NapelModel(
            _ColumnPicker(0),
            _ColumnPicker(1),
            schema=FeatureSchema(schema.blocks + (PRIOR,)),
        )

    def test_reordered_input_refused_naming_moved_columns(self, toy_schema):
        model = self._model(toy_schema)
        reordered = FeatureSchema([
            FeatureBlock("profile", ("p.b", "p.a", "p.c")),
            FeatureBlock("arch", ("arch.x", "arch.y")),
            PRIOR,
        ])
        X = np.ones((2, 7))
        with pytest.raises(SchemaMismatchError) as err:
            model.predict_labels(X, schema=reordered)
        assert set(err.value.moved) == {"p.a", "p.b"}
        assert "p.a" in str(err.value)

    def test_align_projects_reordered_input(self, toy_schema):
        model = self._model(toy_schema)
        blocks = (
            FeatureBlock("profile", ("p.b", "p.a", "p.c")),
            FeatureBlock("arch", ("arch.x", "arch.y")),
        )
        reordered = FeatureSchema(blocks + (PRIOR,))
        X_src = _toy_rows(2, *blocks)
        ipc, epi = model.predict_labels(X_src, schema=reordered, align=True)
        # Model reads training columns 0 ("p.a") and 1 ("p.b"), which live
        # at source columns 1 and 0 respectively.
        assert np.array_equal(ipc, np.exp(X_src[:, 1]))
        assert np.array_equal(epi, np.exp(X_src[:, 0]))

    def test_align_cannot_invent_missing_columns(self, toy_schema):
        model = self._model(toy_schema)
        narrow = FeatureSchema([
            FeatureBlock("profile", ("p.a", "p.b", "p.c")),
            FeatureBlock("arch", ("arch.x", "arch.z")),
            PRIOR,
        ])
        with pytest.raises(SchemaMismatchError) as err:
            model.predict_labels(np.ones((1, 7)), schema=narrow, align=True)
        assert "arch.y" in err.value.missing

    def test_width_check_without_source_schema(self, toy_schema):
        model = self._model(toy_schema)
        with pytest.raises(SchemaMismatchError, match="7 columns"):
            model.predict_labels(np.ones((1, 6)))

    def test_matching_schema_passes(self, toy_schema):
        model = self._model(toy_schema)
        X = _toy_rows(2, *toy_schema.blocks)
        ipc, _ = model.predict_labels(X, schema=model.schema)
        assert np.array_equal(ipc, np.exp(X[:, 0]))

    def test_one_block_schema_with_the_model_names_needs_no_align(
        self, toy_schema
    ):
        """The names decide, not the blocks: one block listing the
        model's columns in order is the model's own layout."""
        model = self._model(toy_schema)
        flat = FeatureSchema([FeatureBlock("request", model.schema.names)])
        X = _toy_rows(2, *toy_schema.blocks)
        assert np.array_equal(model.align_features(X, schema=flat), X)
        ipc, epi = model.predict_labels(X, schema=flat)
        assert np.array_equal(ipc, np.exp(X[:, 0]))
        assert np.array_equal(epi, np.exp(X[:, 1]))
