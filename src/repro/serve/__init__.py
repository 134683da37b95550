"""Inference & serving: model artifacts, micro-batched engine, OOD scores.

The deployment layer on top of everything below it (see
``docs/ARCHITECTURE.md``, "Inference and serving"):

* :class:`ModelArtifact` / :class:`ModelSpec` / :class:`FeatureSchema` —
  self-describing bundles that rebuild a trained model without user code.
* :class:`InferenceEngine` — micro-batched, seed-ensembled, tape-free
  request serving with energy-based OOD scores per response.
* :class:`WorkerPool` (:mod:`repro.serve.pool`) — multi-process serving
  over one shared-memory weight bank (zero-copy weights per worker),
  supervised: dead workers respawn (:mod:`repro.serve.supervisor`) and
  the requests they held are retried within their deadlines.
* :mod:`repro.serve.net` — stdlib HTTP front-end with admission control
  (429), per-request deadlines (504), a circuit breaker (503 +
  ``Retry-After``), ``/stats`` telemetry and drain-on-SIGTERM.
* :mod:`repro.serve.faults` — deterministic fault injection
  (``REPRO_FAULTS`` / ``--faults``) for chaos testing the above.
* ``python -m repro.serve`` — load an artifact and serve a JSON request
  file, a JSON-lines stdin stream, or HTTP traffic (``--http``).

Quickstart::

    python -m repro.run --dataset proteins25 --method gin --seeds 2 \
        --batched-seeds --export-artifact model.npz
    python -m repro.serve model.npz --input requests.json
    python -m repro.serve model.npz --http --port 8732 --workers 4
"""

from repro.serve.artifact import ARTIFACT_FORMAT_VERSION, FeatureSchema, ModelSpec, ModelArtifact
from repro.serve.batcher import BatchBudget, plan_microbatches
from repro.serve.engine import InferenceEngine, Prediction
from repro.serve.faults import FAULTS, FaultInjector, configure_faults, injected_faults, parse_faults
from repro.serve.futures import DeadlineExceeded, EngineStopped, PendingResult, QueueFull
from repro.serve.ood import EnergyCalibration, energy_score, fit_energy_threshold
from repro.serve.pool import SharedWeights, WorkerPool
from repro.serve.stats import ServingStats
from repro.serve.supervisor import RespawnPolicy, WorkerSupervisor
from repro.serve.wire import graph_from_json, result_to_json

__all__ = [
    "FAULTS",
    "FaultInjector",
    "RespawnPolicy",
    "WorkerSupervisor",
    "configure_faults",
    "injected_faults",
    "parse_faults",
    "ARTIFACT_FORMAT_VERSION",
    "FeatureSchema",
    "ModelSpec",
    "ModelArtifact",
    "BatchBudget",
    "plan_microbatches",
    "InferenceEngine",
    "Prediction",
    "PendingResult",
    "DeadlineExceeded",
    "EngineStopped",
    "QueueFull",
    "EnergyCalibration",
    "energy_score",
    "fit_energy_threshold",
    "SharedWeights",
    "WorkerPool",
    "ServingStats",
    "graph_from_json",
    "result_to_json",
]
