"""The serving wire format: JSON request graphs in, JSON predictions out.

Shared by every front-end — the one-shot / stdin CLI
(:mod:`repro.serve.__main__`) and the HTTP layer (:mod:`repro.serve.net`)
— so a request that works against ``python -m repro.serve --stdin`` works
unchanged against ``POST /predict``.

A request graph is ``{"x": [[...], ...], "edge_index": [[srcs], [dsts]]}``
(``x`` rows are node feature vectors; ``edge_index`` may be omitted for an
edgeless graph).  :func:`graph_from_json` validates the payload **at the
boundary** and raises ``ValueError`` with a message that names the field
and the constraint — ragged feature rows, non-integer or out-of-range
edge indices, wrong feature width — instead of letting a malformed array
explode as a cryptic numpy gather error deep inside the packed forward
(or, worse, letting a float edge index be silently truncated toward a
*valid but wrong* node).  Front-ends map the ``ValueError`` to an error
response (HTTP 400 / an ``{"error": ...}`` stream line).
"""

from __future__ import annotations

import numpy as np

from repro.graph.data import Graph
from repro.serve.artifact import FeatureSchema

__all__ = ["graph_from_json", "result_to_json"]


def graph_from_json(payload: dict, schema: FeatureSchema | None = None) -> Graph:
    """Build a request :class:`Graph` from its JSON object.

    Raises ``ValueError`` (never a bare numpy error) when the payload is
    malformed; with ``schema`` the graph is additionally validated
    against the artifact's :class:`~repro.serve.artifact.FeatureSchema`,
    so a wrong-width feature row is rejected here rather than as a shape
    mismatch in the first GEMM.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"request graph must be a JSON object, got {type(payload).__name__}")
    if "x" not in payload:
        raise ValueError("request graph needs an 'x' field (node feature rows)")
    try:
        x = np.asarray(payload["x"], dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(
            "'x' must be a rectangular array of numbers (every node feature "
            "row the same length)"
        ) from None
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"'x' must be 2-D (num_nodes, num_features), got shape {x.shape}")
    edge_index = _edge_index_from_json(payload.get("edge_index"))
    # Graph.__post_init__ rejects negative / out-of-range endpoints with a
    # clear message; re-raise anything it finds as-is (it is a ValueError).
    graph = Graph(x=x, edge_index=edge_index)
    if schema is not None:
        schema.validate_graph(graph)
    return graph


def _edge_index_from_json(edge_index) -> np.ndarray:
    if edge_index is None:
        return np.zeros((2, 0), dtype=np.int64)
    try:
        edges = np.asarray(edge_index)
    except (TypeError, ValueError):
        raise ValueError("'edge_index' must be a rectangular [[sources], [targets]] array") from None
    if edges.size == 0:
        return np.zeros((2, 0), dtype=np.int64)
    if edges.ndim != 2 or edges.shape[0] != 2:
        raise ValueError(
            f"'edge_index' must have shape (2, num_edges) — [[sources], [targets]] — "
            f"got shape {edges.shape}"
        )
    if edges.dtype.kind == "f":
        # A float like 1.7 would be silently truncated to node 1 by an
        # int64 cast — a valid-looking but wrong edge.  Reject instead.
        if not np.isfinite(edges).all() or not (edges == np.trunc(edges)).all():
            raise ValueError("'edge_index' entries must be integers (node ids)")
        edges = edges.astype(np.int64)
    elif edges.dtype.kind not in "iu":
        raise ValueError(
            f"'edge_index' entries must be integers (node ids), got dtype {edges.dtype}"
        )
    return edges.astype(np.int64, copy=False)


def result_to_json(result) -> dict:
    """JSON-serialisable view of one :class:`~repro.serve.engine.Prediction`."""
    label = result.label
    if isinstance(label, np.ndarray):
        label = label.tolist()
    return {
        "prediction": label,
        "output": np.asarray(result.output).tolist(),
        "probs": None if result.probs is None else np.asarray(result.probs).tolist(),
        "energy": result.energy,
    }
