"""The compute-dtype policy: float64 default, float32 serving mode.

Covers the policy surface (``compute_dtype`` coercion context,
``Module.to_dtype`` propagation, ``ModelArtifact`` dtype field/cast,
``InferenceEngine(dtype=...)`` and the dtype-derived ``max_nodes``
default) plus the documented float32-vs-float64 tolerance bounds across
the full encoder roster, seed ensembles and energy OOD scores (see
docs/ARCHITECTURE.md "Dtype policy").
"""

import numpy as np
import pytest

from encoder_specs import ENCODER_SPECS, spec_params
from repro.autograd import (
    Tensor,
    as_compute_dtype,
    compute_dtype,
    get_default_dtype,
    inference_mode,
    set_default_dtype,
)
from repro.encoders import build_model
from repro.graph.data import GraphBatch
from repro.graph.generators import erdos_renyi
from repro.nn.layers import BatchNorm1d, Linear
from repro.serve import FeatureSchema, InferenceEngine, ModelArtifact, ModelSpec
from repro.serve.batcher import default_max_nodes

#: Documented per-encoder relative output tolerance of the float32 mode
#: (max |logit32 - logit64| / max |logit64|).  Untrained sum-readout
#: stacks amplify node-count roundoff, hence the loose-but-bounded 1e-4.
FLOAT32_RELATIVE_TOLERANCE = 1e-4

_SCHEMA = FeatureSchema(feature_dim=6, out_dim=3, task_type="multiclass", num_classes=3)


def _graphs(count, nodes=40, seed=0, features=6):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        g = erdos_renyi(nodes, 0.08, rng)
        g.x = rng.normal(size=(g.num_nodes, features))
        graphs.append(g)
    return graphs


def _model(name, seed=0, **kwargs):
    kwargs.setdefault("hidden_dim", 16)
    kwargs.setdefault("num_layers", 2)
    return build_model(name, 6, 3, np.random.default_rng(seed), **kwargs)


class TestDtypePolicy:
    def test_as_compute_dtype(self):
        assert as_compute_dtype("float32") == np.float32
        assert as_compute_dtype(np.float64) == np.float64
        assert as_compute_dtype(np.dtype(np.float32)) == np.float32
        assert as_compute_dtype(None) == np.float64
        with pytest.raises(ValueError, match="float64 or float32"):
            as_compute_dtype(np.int64)
        with pytest.raises(ValueError, match="float64 or float32"):
            as_compute_dtype("float16")

    def test_default_dtype_is_float64(self):
        assert get_default_dtype() == np.float64
        assert Tensor(np.ones(3, dtype=np.float32)).dtype == np.float64

    def test_compute_dtype_context(self):
        with compute_dtype(np.float32):
            assert get_default_dtype() == np.float32
            assert Tensor([1.0, 2.0]).dtype == np.float32
            with compute_dtype("float64"):
                assert Tensor([1.0]).dtype == np.float64
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == np.float64

    def test_set_default_dtype_thread_local(self):
        set_default_dtype(np.float32)
        try:
            assert Tensor([0.5]).dtype == np.float32
        finally:
            set_default_dtype(np.float64)
        assert Tensor([0.5]).dtype == np.float64

    def test_float32_ops_stay_float32(self):
        with compute_dtype(np.float32):
            a = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
            b = Tensor(np.random.default_rng(1).normal(size=(3, 2)))
            out = ((a @ b) + 1.0).relu()
            assert out.dtype == np.float32

    def test_float32_backward(self):
        with compute_dtype(np.float32):
            x = Tensor(np.random.default_rng(0).normal(size=(5, 3)), requires_grad=True)
            loss = ((x * x).sum())
            loss.backward()
            assert x.grad.dtype == np.float32


class TestModuleToDtype:
    def test_casts_parameters_and_buffers(self):
        layer = BatchNorm1d(4)
        layer.to_dtype("float32")
        assert layer.gamma.dtype == np.float32
        assert layer.running_mean.dtype == np.float32
        assert layer.param_dtype == np.float32
        layer.to_dtype(np.float64)
        assert layer.gamma.dtype == np.float64

    def test_model_roundtrip_values(self):
        model = _model("gin")
        before = {n: p.copy() for n, p in model.state_dict().items()}
        model.to_dtype(np.float32).to_dtype(np.float64)
        for name, value in model.state_dict().items():
            np.testing.assert_allclose(value, before[name], rtol=1e-7)

    def test_linear_forward_dtype(self):
        layer = Linear(3, 2, np.random.default_rng(0)).to_dtype("float32")
        with inference_mode(), compute_dtype(np.float32):
            out = layer(Tensor(np.random.default_rng(1).normal(size=(5, 3))))
        assert out.dtype == np.float32


class TestEncoderRosterTolerance:
    @pytest.mark.parametrize("spec", spec_params(ENCODER_SPECS))
    def test_float32_outputs_close_to_float64(self, spec):
        name = spec.name
        batch = GraphBatch.from_graphs(_graphs(3, seed=2))
        model64 = spec.build(6, 3, np.random.default_rng(0), hidden_dim=16).eval()
        model32 = spec.build(6, 3, np.random.default_rng(0), hidden_dim=16).eval().to_dtype(np.float32)
        with inference_mode():
            out64 = model64(batch).data
        with inference_mode(), compute_dtype(np.float32):
            out32 = model32(batch).data
        assert out32.dtype == np.float32
        scale = np.abs(out64).max() + 1e-12
        rel = np.abs(out32.astype(np.float64) - out64).max() / scale
        assert rel < FLOAT32_RELATIVE_TOLERANCE, f"{name}: rel={rel:.2e}"


class TestEngineDtype:
    def test_auto_max_nodes_derivation(self):
        assert default_max_nodes(np.float64) == 2048
        assert default_max_nodes("float32") == 4096
        assert InferenceEngine.from_models([_model("gin").eval()], _SCHEMA).budget.max_nodes == 2048
        engine32 = InferenceEngine.from_models([_model("gin").eval()], _SCHEMA, dtype="float32")
        assert engine32.budget.max_nodes == 4096
        assert engine32.dtype == np.float32

    def test_explicit_max_nodes_respected(self):
        engine = InferenceEngine.from_models(
            [_model("gin").eval()], _SCHEMA, dtype="float32", max_nodes=123
        )
        assert engine.budget.max_nodes == 123
        unbounded = InferenceEngine.from_models([_model("gin").eval()], _SCHEMA, max_nodes=None)
        assert unbounded.budget.max_nodes is None
        with pytest.raises(ValueError, match="max_nodes"):
            InferenceEngine.from_models([_model("gin").eval()], _SCHEMA, max_nodes="huge")

    def test_float32_predictions_close(self):
        graphs = _graphs(6, seed=3)
        e64 = InferenceEngine.from_models([_model("gin").eval()], _SCHEMA)
        e32 = InferenceEngine.from_models([_model("gin").eval()], _SCHEMA, dtype="float32")
        p64 = e64.predict(graphs)
        p32 = e32.predict(graphs)
        for a, b in zip(p32, p64):
            scale = np.abs(b.output).max() + 1e-12
            assert np.abs(a.output.astype(np.float64) - b.output).max() / scale < FLOAT32_RELATIVE_TOLERANCE
            assert a.label == b.label
            assert abs(a.energy - b.energy) / (abs(b.energy) + 1e-9) < 1e-3

    def test_float32_seed_ensemble_and_energy(self):
        graphs = _graphs(5, seed=4)
        models64 = [_model("gin", seed=s).eval() for s in range(3)]
        models32 = [_model("gin", seed=s).eval() for s in range(3)]
        e64 = InferenceEngine.from_models(models64, _SCHEMA)
        e32 = InferenceEngine.from_models(models32, _SCHEMA, dtype="float32")
        assert e32._stacked is not None and e32._stacked.param_dtype == np.float32
        s64 = np.array([p.energy for p in e64.predict(graphs)])
        s32 = np.array([p.energy for p in e32.predict(graphs)])
        assert np.isfinite(s32).all()
        np.testing.assert_allclose(s32, s64, rtol=1e-3, atol=1e-4)


class TestArtifactDtype:
    def _artifact(self):
        model = _model("gin")
        spec = ModelSpec(method="gin", hidden_dim=16, num_layers=2)
        return ModelArtifact.from_model(model, spec, _SCHEMA)

    def test_default_dtype_field(self):
        artifact = self._artifact()
        assert artifact.dtype == np.float64

    def test_astype_roundtrip(self, tmp_path):
        artifact = self._artifact().astype("float32")
        assert artifact.dtype == np.float32
        path = artifact.save(tmp_path / "model32.npz")
        loaded = ModelArtifact.load(path)
        assert loaded.dtype == np.float32
        models = loaded.build_models()
        assert models[0].param_dtype == np.float32

    def test_engine_defaults_to_artifact_dtype(self, tmp_path):
        artifact = self._artifact().astype("float32")
        path = artifact.save(tmp_path / "model32.npz")
        engine = InferenceEngine(ModelArtifact.load(path))
        assert engine.dtype == np.float32
        assert engine.budget.max_nodes == 4096
        # Explicit dtype overrides the stored precision.
        engine64 = InferenceEngine(ModelArtifact.load(path), dtype="float64")
        assert engine64.dtype == np.float64
        assert engine64.models[0].param_dtype == np.float64

    def test_float32_artifact_predictions_close(self, tmp_path):
        graphs = _graphs(4, seed=6)
        model = _model("gin").eval()
        spec = ModelSpec(method="gin", hidden_dim=16, num_layers=2)
        artifact = ModelArtifact.from_model(model, spec, _SCHEMA)
        p64 = InferenceEngine(artifact).predict(graphs)
        path = artifact.astype("float32").save(tmp_path / "m.npz")
        p32 = InferenceEngine(ModelArtifact.load(path)).predict(graphs)
        for a, b in zip(p32, p64):
            scale = np.abs(b.output).max() + 1e-12
            assert np.abs(a.output.astype(np.float64) - b.output).max() / scale < FLOAT32_RELATIVE_TOLERANCE

    def test_file_size_halves(self, tmp_path):
        artifact = self._artifact()
        p64 = artifact.save(tmp_path / "m64.npz")
        p32 = artifact.astype("float32").save(tmp_path / "m32.npz")
        import os

        assert os.path.getsize(p32) < 0.75 * os.path.getsize(p64)


class TestServeCliDtype:
    def test_dtype_flag(self, tmp_path, capsys):
        import json

        from repro.serve.__main__ import main as serve_main

        model = _model("gin").eval()
        spec = ModelSpec(method="gin", hidden_dim=16, num_layers=2)
        path = ModelArtifact.from_model(model, spec, _SCHEMA).save(tmp_path / "m.npz")
        graphs = _graphs(2, seed=7)
        requests = [
            {"x": g.x.tolist(), "edge_index": g.edge_index.tolist()} for g in graphs
        ]
        request_path = tmp_path / "req.json"
        request_path.write_text(json.dumps(requests))
        code = serve_main([str(path), "--input", str(request_path), "--dtype", "float32"])
        assert code == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(lines) == 2
        assert all(np.isfinite(l["energy"]) for l in lines)
