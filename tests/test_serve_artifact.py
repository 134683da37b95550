"""Model artifacts: spec/schema round-trips, bitwise save-load-predict parity.

Covers the serving bundle contract (docs/ARCHITECTURE.md "Inference and
serving"): an artifact reconstructs its model(s) without user code, and
the reconstructed eval forward is bitwise identical to the in-memory
model — including batch-norm running statistics and PNA's degree-scale
buffer, and for seed ensembles sliced out of a stacked
``SeedGraphClassifier``.
"""

import numpy as np
import pytest

from repro.core import OODGNN, OODGNNConfig
from repro.encoders import build_model
from repro.graph.data import GraphBatch
from repro.graph.generators import erdos_renyi
from repro.nn.layers import stack_seed_modules
from repro.serve import ARTIFACT_FORMAT_VERSION, FeatureSchema, ModelArtifact, ModelSpec
from repro.training.loop import predict

FEATURE_DIM, OUT_DIM = 5, 3

SCHEMA = FeatureSchema(
    feature_dim=FEATURE_DIM, out_dim=OUT_DIM, task_type="multiclass",
    metric="accuracy", num_classes=OUT_DIM, dataset="unit-test",
)

# The roster comes from the shared spec registry (tests/encoder_specs.py).
from encoder_specs import ENCODER_SPECS

ROSTER = tuple(spec.name for spec in ENCODER_SPECS)


def make_graphs(rng, count=8):
    graphs = []
    for i in range(count):
        g = erdos_renyi(int(rng.integers(6, 14)), 0.5, rng)
        g.x = rng.normal(size=(g.num_nodes, FEATURE_DIM))
        g.y = int(i % OUT_DIM)
        graphs.append(g)
    return graphs


def warm_up(model, graphs):
    """One train-mode forward so batch-norm running stats leave their init.

    Without this the buffer round-trip would pass vacuously (zeros/ones
    would survive any broken persistence).
    """
    model.train()
    model(GraphBatch.from_graphs(graphs))
    model.eval()
    return model


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestSpecSchema:
    def test_schema_round_trip(self):
        assert FeatureSchema.from_dict(SCHEMA.to_dict()) == SCHEMA

    def test_schema_from_info(self):
        from repro.datasets.base import DatasetInfo

        info = DatasetInfo(
            name="x", task_type="multiclass", num_tasks=1, metric="accuracy",
            split_method="size", feature_dim=4, num_classes=7,
        )
        schema = FeatureSchema.from_info(info)
        assert schema.out_dim == 7 and schema.feature_dim == 4

    def test_schema_rejects_wrong_feature_dim(self, rng):
        g = make_graphs(rng, 1)[0]
        bad = FeatureSchema(feature_dim=FEATURE_DIM + 1, out_dim=OUT_DIM)
        with pytest.raises(ValueError, match="node features"):
            bad.validate_graph(g)

    def test_spec_round_trip(self):
        spec = ModelSpec("topkpool", hidden_dim=16, num_layers=2, kwargs={"pool_ratio": 0.7})
        assert ModelSpec.from_dict(spec.to_dict()) == spec

    def test_spec_for_ood_gnn(self):
        cfg = OODGNNConfig(hidden_dim=8, num_layers=2, readout="mean", dropout=0.0)
        spec = ModelSpec.for_ood_gnn(cfg)
        model = spec.build(SCHEMA)
        assert isinstance(model, OODGNN)
        assert model.config.readout == "mean"


class TestSingleSeedRoundTrip:
    @pytest.mark.parametrize("method", ROSTER)
    def test_bitwise_logits_across_roster(self, method, rng, tmp_path):
        spec = ModelSpec(method, hidden_dim=8, num_layers=2)
        model = spec.build(SCHEMA)
        graphs = make_graphs(rng)
        warm_up(model, graphs)
        path = ModelArtifact.from_model(model, spec, SCHEMA).save(tmp_path / f"{method}.npz")
        (rebuilt,) = ModelArtifact.load(path).build_models()
        np.testing.assert_array_equal(predict(model, graphs), predict(rebuilt, graphs))

    def test_ood_gnn_round_trip(self, rng, tmp_path):
        cfg = OODGNNConfig(hidden_dim=8, num_layers=2)
        model = OODGNN(FEATURE_DIM, OUT_DIM, rng, config=cfg)
        graphs = make_graphs(rng)
        warm_up(model, graphs)
        spec = ModelSpec.for_ood_gnn(cfg)
        path = ModelArtifact.from_model(model, spec, SCHEMA).save(tmp_path / "ood.npz")
        (rebuilt,) = ModelArtifact.load(path).build_models()
        np.testing.assert_array_equal(predict(model, graphs), predict(rebuilt, graphs))

    def test_pna_degree_scale_travels(self, rng, tmp_path):
        spec = ModelSpec("pna", hidden_dim=8, num_layers=2, kwargs={"pna_degree_scale": 2.5})
        model = spec.build(SCHEMA)
        graphs = make_graphs(rng)
        warm_up(model, graphs)
        path = ModelArtifact.from_model(model, spec, SCHEMA).save(tmp_path / "pna.npz")
        # Rebuild through a spec *without* the constructor kwarg: the value
        # must come back through the buffer payload alone.
        artifact = ModelArtifact.load(path)
        artifact.spec = ModelSpec("pna", hidden_dim=8, num_layers=2)
        (rebuilt,) = artifact.build_models()
        np.testing.assert_array_equal(predict(model, graphs), predict(rebuilt, graphs))

    def test_metadata_and_seeds(self, rng, tmp_path):
        spec = ModelSpec("gin", hidden_dim=8, num_layers=2)
        model = spec.build(SCHEMA)
        path = ModelArtifact.from_model(
            model, spec, SCHEMA, seed=13, metadata={"run": "abc"}
        ).save(tmp_path / "meta.npz")
        artifact = ModelArtifact.load(path)
        assert artifact.seeds == (13,)
        assert artifact.metadata == {"run": "abc"}
        assert artifact.schema == SCHEMA

    def test_plain_checkpoint_rejected(self, rng, tmp_path):
        from repro.nn.checkpoint import save_state

        model = build_model("gin", FEATURE_DIM, OUT_DIM, rng, hidden_dim=8, num_layers=2)
        save_state(model.state_dict(), tmp_path / "plain.npz", buffers=model.buffer_dict())
        with pytest.raises(ValueError, match="not a model artifact"):
            ModelArtifact.load(tmp_path / "plain.npz")


class TestSeedEnsembleRoundTrip:
    @pytest.mark.parametrize("method", ROSTER)
    def test_stacked_seed_state_dict_to_artifact_bitwise(self, method, rng, tmp_path):
        """sync_into(k) -> per-seed models -> artifact -> reload -> bitwise logits.

        Trains nothing: per-seed models are independently initialised and
        warmed up (distinct BN stats), stacked, and the stacked model's
        per-seed slices, synced into fresh models and bundled with
        ``from_models``, must round-trip through the artifact bitwise.
        """
        spec = ModelSpec(method, hidden_dim=8, num_layers=2)
        graphs = make_graphs(rng)
        models = []
        for k in range(3):
            model = build_model(method, FEATURE_DIM, OUT_DIM, np.random.default_rng(100 + k),
                                hidden_dim=8, num_layers=2)
            warm_up(model, graphs)
            models.append(model)
        stacked = stack_seed_modules(models)
        synced = []
        for k in range(stacked.num_seeds):
            fresh = spec.build(SCHEMA)
            stacked.sync_into(k, fresh)
            synced.append(fresh)
        path = ModelArtifact.from_models(synced, spec, SCHEMA).save(tmp_path / f"{method}-ens.npz")
        artifact = ModelArtifact.load(path)
        assert artifact.num_seeds == 3
        rebuilt = artifact.build_models()
        for model, clone in zip(models, rebuilt):
            np.testing.assert_array_equal(predict(model, graphs), predict(clone, graphs))

    @pytest.mark.parametrize("method", ROSTER)
    def test_from_models_ensemble_round_trip(self, method, rng, tmp_path):
        """Per-seed models bundle via from_models and round-trip bitwise."""
        spec = ModelSpec(method, hidden_dim=8, num_layers=2)
        graphs = make_graphs(rng)
        models = []
        for k in range(2):
            model = build_model(method, FEATURE_DIM, OUT_DIM, np.random.default_rng(7 + k),
                                hidden_dim=8, num_layers=2)
            warm_up(model, graphs)
            models.append(model)
        path = ModelArtifact.from_models(models, spec, SCHEMA, seeds=(4, 9)).save(
            tmp_path / f"{method}-ens.npz"
        )
        artifact = ModelArtifact.load(path)
        assert artifact.seeds == (4, 9)
        for model, clone in zip(models, artifact.build_models()):
            np.testing.assert_array_equal(predict(model, graphs), predict(clone, graphs))

    def test_length_mismatch_rejected(self, rng):
        spec = ModelSpec("gin", hidden_dim=8, num_layers=2)
        model = spec.build(SCHEMA)
        with pytest.raises(ValueError, match="mismatch"):
            ModelArtifact(spec, SCHEMA, [model.state_dict()], [model.buffer_dict()], (0, 1))


class TestFormatVersioning:
    def test_artifact_carries_checkpoint_format_version(self, tmp_path):
        from repro.nn.checkpoint import CHECKPOINT_FORMAT_VERSION, load_archive

        spec = ModelSpec("gin", hidden_dim=8, num_layers=2)
        path = ModelArtifact.from_model(spec.build(SCHEMA), spec, SCHEMA).save(tmp_path / "v.npz")
        _state, _buffers, metadata = load_archive(path)
        assert metadata["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert metadata["artifact_format_version"] == ARTIFACT_FORMAT_VERSION

    def test_unknown_artifact_version_rejected(self, tmp_path):
        from repro.nn.checkpoint import save_state

        spec = ModelSpec("gin", hidden_dim=8, num_layers=2)
        model = spec.build(SCHEMA)
        save_state(
            model.state_dict(),
            tmp_path / "future.npz",
            metadata={
                "kind": "repro-model-artifact",
                "artifact_format_version": ARTIFACT_FORMAT_VERSION + 1,
                "spec": spec.to_dict(),
                "schema": SCHEMA.to_dict(),
                "seeds": [0],
                "user": {},
            },
        )
        with pytest.raises(ValueError, match="format version"):
            ModelArtifact.load(tmp_path / "future.npz")
