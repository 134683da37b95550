"""Self-describing model artifacts: train once, deploy anywhere.

A :class:`ModelArtifact` bundles everything needed to answer prediction
requests without any user code: the weights and buffers (via
:mod:`repro.nn.checkpoint`), a :class:`ModelSpec` that rebuilds the
architecture by name, the dataset's :class:`FeatureSchema` (so requests
can be validated), and a format version.  Seed-ensemble artifacts carry K
seeds' parameters stacked along a leading axis.

The serving engine (:mod:`repro.serve.engine`) consumes artifacts;
``python -m repro.run --export-artifact`` produces them, bundling the
trained seed roster with :meth:`ModelArtifact.from_models`.  See
``docs/ARCHITECTURE.md`` ("Inference and serving") for the design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.data import Graph
from repro.nn.checkpoint import load_archive, save_state

__all__ = ["ARTIFACT_FORMAT_VERSION", "FeatureSchema", "ModelSpec", "ModelArtifact"]

#: Version of the artifact bundle layout (independent of the checkpoint
#: archive version; bump when the metadata schema below changes).
ARTIFACT_FORMAT_VERSION = 1

_ARTIFACT_KIND = "repro-model-artifact"


@dataclass(frozen=True)
class FeatureSchema:
    """What the model expects of a request graph (one row of Table 1).

    ``out_dim`` is the prediction-head width (``num_classes`` for
    multiclass tasks, the task count otherwise); ``task_type`` selects the
    output calibration (softmax / sigmoid / identity) and the energy-score
    formula at serving time.
    """

    feature_dim: int
    out_dim: int
    task_type: str = "multiclass"
    metric: str = "accuracy"
    num_classes: int = 0
    dataset: str = ""

    @classmethod
    def from_info(cls, info) -> "FeatureSchema":
        """Schema of a :class:`~repro.datasets.base.DatasetInfo`."""
        return cls(
            feature_dim=info.feature_dim,
            out_dim=info.model_out_dim,
            task_type=info.task_type,
            metric=info.metric,
            num_classes=info.num_classes,
            dataset=info.name,
        )

    def to_dict(self) -> dict:
        return {
            "feature_dim": self.feature_dim,
            "out_dim": self.out_dim,
            "task_type": self.task_type,
            "metric": self.metric,
            "num_classes": self.num_classes,
            "dataset": self.dataset,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FeatureSchema":
        return cls(**payload)

    def validate_graph(self, graph: Graph) -> None:
        """Raise ``ValueError`` when a request graph does not fit the model.

        Re-checks edge-index bounds even though :class:`Graph` validates
        them at construction: serving boundaries also see graphs whose
        ``edge_index`` was replaced after construction, and an
        out-of-range endpoint that slips through surfaces as a cryptic
        numpy gather error (or silent cross-graph read after batch
        offsetting) deep inside the packed forward.  Non-finite features
        are rejected too: JSON decoding accepts ``NaN`` and ``Infinity``,
        and they would come back as NaN outputs and a NaN energy, in a
        response body that is not valid JSON.
        """
        if graph.num_features != self.feature_dim:
            raise ValueError(
                f"request graph has {graph.num_features} node features, "
                f"model expects {self.feature_dim}"
            )
        if graph.num_nodes < 1:
            raise ValueError("request graph has no nodes")
        if not np.isfinite(graph.x).all():
            raise ValueError("request graph node features must be finite (no NaN or Infinity)")
        if graph.num_edges:
            lo = int(graph.edge_index.min())
            hi = int(graph.edge_index.max())
            if lo < 0 or hi >= graph.num_nodes:
                raise ValueError(
                    f"request graph edge indices [{lo}, {hi}] out of range "
                    f"for {graph.num_nodes} nodes"
                )


@dataclass(frozen=True)
class ModelSpec:
    """Architecture recipe: enough to rebuild the model by name.

    ``method`` is either ``"ood-gnn"`` or any name accepted by
    :func:`repro.encoders.build_model`; ``kwargs`` carries the
    architecture-relevant extras (``readout``, ``dropout``,
    ``pna_degree_scale``, ``factor_count``, ``pool_ratio``).  Training
    hyper-parameters do not belong here — an artifact only needs to
    reproduce the forward pass.
    """

    method: str
    hidden_dim: int = 64
    num_layers: int = 3
    kwargs: dict = field(default_factory=dict)

    @classmethod
    def for_ood_gnn(cls, config) -> "ModelSpec":
        """Spec of an :class:`~repro.core.ood_gnn.OODGNN` built from its config."""
        return cls(
            method="ood-gnn",
            hidden_dim=config.hidden_dim,
            num_layers=config.num_layers,
            kwargs={"readout": config.readout, "dropout": config.dropout},
        )

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "hidden_dim": self.hidden_dim,
            "num_layers": self.num_layers,
            "kwargs": dict(self.kwargs),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelSpec":
        return cls(
            method=payload["method"],
            hidden_dim=payload["hidden_dim"],
            num_layers=payload["num_layers"],
            kwargs=dict(payload.get("kwargs", {})),
        )

    def build(self, schema: FeatureSchema):
        """Construct the (untrained) model this spec describes.

        The init rng is fixed — every parameter is overwritten by the
        artifact's weights immediately after construction.
        """
        from repro.core.ood_gnn import OODGNN, OODGNNConfig
        from repro.encoders.models import build_model

        rng = np.random.default_rng(0)
        if self.method == "ood-gnn":
            config = OODGNNConfig(
                hidden_dim=self.hidden_dim, num_layers=self.num_layers, **self.kwargs
            )
            return OODGNN(schema.feature_dim, schema.out_dim, rng, config=config)
        return build_model(
            self.method,
            schema.feature_dim,
            schema.out_dim,
            rng,
            hidden_dim=self.hidden_dim,
            num_layers=self.num_layers,
            **self.kwargs,
        )


class ModelArtifact:
    """A deployable bundle: spec + schema + per-seed weights and buffers.

    ``states``/``buffers`` are index-aligned with ``seeds``; a single-seed
    artifact is simply ``K = 1``.  On disk everything lives in one ``.npz``
    checkpoint archive whose arrays carry a leading seed axis and whose
    metadata holds the spec, schema, seeds and format version.
    """

    def __init__(self, spec: ModelSpec, schema: FeatureSchema, states, buffers, seeds, metadata: dict | None = None):
        if not states:
            raise ValueError("artifact needs at least one seed's state")
        if not (len(states) == len(buffers) == len(seeds)):
            raise ValueError(
                f"states/buffers/seeds length mismatch: {len(states)}/{len(buffers)}/{len(seeds)}"
            )
        self.spec = spec
        self.schema = schema
        self.states = list(states)
        self.buffers = list(buffers)
        self.seeds = tuple(int(s) for s in seeds)
        self.metadata = dict(metadata or {})

    @property
    def num_seeds(self) -> int:
        """Number of seed members in the (possibly single-member) ensemble."""
        return len(self.seeds)

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the bundled weights (float64 unless cast).

        Part of the compute-dtype policy: the serving engine defaults its
        precision to this value, so a float32 artifact serves in float32
        without any flag (``InferenceEngine(artifact)``).
        """
        for state in self.states:
            for value in state.values():
                arr = np.asarray(value)
                if arr.dtype.kind == "f":
                    return arr.dtype
        return np.dtype(np.float64)

    def astype(self, dtype) -> "ModelArtifact":
        """Return a copy with every float weight/buffer cast to ``dtype``.

        The float32 bundle is half the size on disk and serves in float32
        by default; casting is lossy in the float64 -> float32 direction
        (documented tolerance bounds in docs/ARCHITECTURE.md).
        """
        from repro.autograd.tensor import as_compute_dtype

        dtype = as_compute_dtype(dtype)

        def cast(mapping):
            out = {}
            for name, value in mapping.items():
                arr = np.asarray(value)
                out[name] = arr.astype(dtype) if arr.dtype.kind == "f" else arr.copy()
            return out

        return ModelArtifact(
            self.spec,
            self.schema,
            [cast(s) for s in self.states],
            [cast(b) for b in self.buffers],
            self.seeds,
            dict(self.metadata),
        )

    def __repr__(self):
        return (
            f"ModelArtifact(method={self.spec.method!r}, seeds={self.seeds}, "
            f"dataset={self.schema.dataset!r})"
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model, spec: ModelSpec, schema: FeatureSchema, seed: int = 0, metadata: dict | None = None) -> "ModelArtifact":
        """Single-seed artifact from a trained model."""
        return cls(spec, schema, [model.state_dict()], [model.buffer_dict()], (seed,), metadata)

    @classmethod
    def from_models(cls, models, spec: ModelSpec, schema: FeatureSchema, seeds=None, metadata: dict | None = None) -> "ModelArtifact":
        """Seed-ensemble artifact from K trained per-seed models."""
        models = list(models)
        if seeds is None:
            seeds = tuple(range(len(models)))
        return cls(
            spec,
            schema,
            [m.state_dict() for m in models],
            [m.buffer_dict() for m in models],
            tuple(seeds),
            metadata,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path):
        """Write the bundle to ``path`` (one ``.npz``); returns the path written.

        The write is atomic (temp file + fsync + ``os.replace`` via
        :func:`repro.nn.checkpoint.save_state`): a crash mid-export
        leaves the previous artifact or nothing, never a torn file.
        """
        names = list(self.states[0])
        stacked_state = {n: np.stack([s[n] for s in self.states]) for n in names}
        buffer_names = list(self.buffers[0])
        stacked_buffers = {n: np.stack([b[n] for b in self.buffers]) for n in buffer_names}
        metadata = {
            "kind": _ARTIFACT_KIND,
            "artifact_format_version": ARTIFACT_FORMAT_VERSION,
            "spec": self.spec.to_dict(),
            "schema": self.schema.to_dict(),
            "seeds": list(self.seeds),
            # Informational (arrays carry their dtype; readers that
            # predate the field simply ignore it): lets tooling report the
            # serving precision without loading the weights.
            "dtype": self.dtype.name,
            "user": self.metadata,
        }
        return save_state(stacked_state, path, metadata=metadata, buffers=stacked_buffers)

    @classmethod
    def load(cls, path) -> "ModelArtifact":
        """Read a bundle written by :meth:`save`.

        Uses :func:`repro.nn.checkpoint.load_archive` — the metadata
        (spec, schema, seeds) is available before any model exists, which
        is what makes reconstruction user-code-free.
        """
        state, buffers, metadata = load_archive(path)
        if metadata.get("kind") != _ARTIFACT_KIND:
            raise ValueError(
                f"{path} is not a model artifact (a plain checkpoint? kind={metadata.get('kind')!r})"
            )
        version = metadata.get("artifact_format_version")
        if version != ARTIFACT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported artifact format version {version!r} "
                f"(this build reads version {ARTIFACT_FORMAT_VERSION})"
            )
        spec = ModelSpec.from_dict(metadata["spec"])
        schema = FeatureSchema.from_dict(metadata["schema"])
        seeds = tuple(metadata["seeds"])
        num_seeds = len(seeds)
        states = [{n: arr[k] for n, arr in state.items()} for k in range(num_seeds)]
        per_seed_buffers = [{n: arr[k] for n, arr in buffers.items()} for k in range(num_seeds)]
        return cls(spec, schema, states, per_seed_buffers, seeds, metadata.get("user"))

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def build_models(self) -> list:
        """Reconstruct the per-seed models, in eval mode, ready to serve."""
        models = []
        for state, buffers in zip(self.states, self.buffers):
            model = self.spec.build(self.schema)
            model.load_state_dict(state)
            model.load_buffer_dict(buffers)
            model.eval()
            models.append(model)
        return models
