"""Core graph containers: :class:`Graph` and :class:`GraphBatch`.

A :class:`Graph` stores node features ``x`` (``(num_nodes, f)`` float),
directed edges ``edge_index`` (``(2, num_edges)`` int64, row 0 = source,
row 1 = target), an arbitrary label ``y``, and a free-form ``meta`` dict
(scaffold ids, generator parameters, ...).  Undirected graphs store both
edge directions, the PyG convention.

:class:`GraphBatch` is the disjoint union of several graphs with a
``batch`` vector mapping each node to its graph — the structure every
encoder in :mod:`repro.encoders` consumes.  Its :class:`Topology` holds
the read-only edge index and the batch's lazily built message-passing
operators, shared by every conv layer and freed with the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Graph", "GraphBatch", "Topology"]


@dataclass
class Graph:
    """A single attributed graph.

    Parameters
    ----------
    x:
        Node feature matrix ``(num_nodes, num_features)``.
    edge_index:
        ``(2, num_edges)`` int64 COO connectivity; for undirected graphs
        both ``(u, v)`` and ``(v, u)`` are present.
    y:
        Graph label: int for classification, float or float array for
        (multi-task) regression / multi-label targets.
    meta:
        Free-form metadata (e.g. ``scaffold`` id used by scaffold splits).
    """

    x: np.ndarray
    edge_index: np.ndarray
    y: object = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim == 1:
            self.x = self.x[:, None]
        self.edge_index = np.asarray(self.edge_index, dtype=np.int64).reshape(2, -1)
        if self.edge_index.size:
            lo, hi = int(self.edge_index.min()), int(self.edge_index.max())
            # Negatives are rejected outright (not wrapped): batching adds
            # node offsets to edge indices, so a -1 from one graph would
            # silently resolve into another graph's nodes.
            if lo < 0 or hi >= self.num_nodes:
                raise ValueError(
                    f"edge indices [{lo}, {hi}] out of range for {self.num_nodes} nodes"
                )

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self.x.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of directed edges (2x the undirected edge count)."""
        return self.edge_index.shape[1]

    @property
    def num_features(self) -> int:
        return self.x.shape[1]

    def with_features(self, x: np.ndarray) -> "Graph":
        """Copy of this graph with replaced node features."""
        return Graph(x=np.asarray(x, dtype=np.float64), edge_index=self.edge_index.copy(), y=self.y, meta=dict(self.meta))

    def __repr__(self):
        return f"Graph(nodes={self.num_nodes}, edges={self.num_edges}, y={self.y!r})"


class OperatorMemo:
    """Per-container memo of fixed-weight message-passing operators.

    Each ``(norm, dtype, num_seeds)`` operator is built on first use and
    shared by every later caller: the conv layers of a forward and its
    backward.  It lives and dies with its container.  No lock: a batch's
    forward runs on one thread, and a racing duplicate build would only
    waste time.  Subclasses provide ``_operators`` (a dict) and ``_build``.
    """

    __slots__ = ()

    def operator(self, norm: str, dtype=np.float64, num_seeds: int = 1):
        """The :class:`~repro.autograd.functional.MessagePassOperator` for
        ``norm`` over this connectivity, built at most once per key."""
        key = (norm, np.dtype(dtype), int(num_seeds))
        operator = self._operators.get(key)
        if operator is None:
            operator = self._operators[key] = self._build(*key)
        return operator


class Topology(OperatorMemo):
    """One batch's connectivity and its lazily filled operator plan.

    Holds a read-only int64 copy of ``edge_index``, so writing to the
    array it was built from cannot reach the operators built from it.
    ``num_nodes`` is the node count of the graph the edges index into.
    """

    __slots__ = ("edge_index", "num_nodes", "_operators")

    def __init__(self, edge_index, num_nodes: int):
        self.edge_index = np.array(edge_index, dtype=np.int64).reshape(2, -1)
        self.edge_index.flags.writeable = False
        self.num_nodes = int(num_nodes)
        self._operators: dict = {}

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[1]

    def _build(self, norm, dtype, num_seeds):
        # Deferred: repro.graph.segment imports this module.
        from repro.graph.segment import message_pass_operator

        return message_pass_operator(self.edge_index, self.num_nodes, norm, dtype, num_seeds)


class GraphBatch:
    """Disjoint union of graphs for vectorised encoding.

    Attributes
    ----------
    x:
        Stacked node features ``(total_nodes, f)``.
    topology:
        The batch's :class:`Topology`, which every conv aggregates over.
    edge_index:
        Offset-adjusted connectivity ``(2, total_edges)``; read-only,
        since it is ``topology.edge_index``.
    batch:
        ``(total_nodes,)`` int64 graph id per node.
    num_graphs:
        Number of graphs in the batch.
    y:
        Stacked labels: ``(num_graphs,)`` int array for classification or
        ``(num_graphs, num_tasks)`` float array otherwise.
    """

    def __init__(self, x, edge_index, batch, num_graphs, y=None, graphs=None):
        self.x = np.asarray(x, dtype=np.float64)
        self.topology = Topology(edge_index, self.x.shape[0])
        self.batch = np.asarray(batch, dtype=np.int64)
        self.num_graphs = int(num_graphs)
        self.y = y
        self.graphs = graphs

    @classmethod
    def from_graphs(cls, graphs: list[Graph]) -> "GraphBatch":
        """Build the disjoint union of ``graphs`` (order preserved)."""
        if not graphs:
            raise ValueError("cannot batch an empty graph list")
        xs, edges, batch_ids = [], [], []
        offset = 0
        for graph_id, g in enumerate(graphs):
            xs.append(g.x)
            edges.append(g.edge_index + offset)
            batch_ids.append(np.full(g.num_nodes, graph_id, dtype=np.int64))
            offset += g.num_nodes
        x = np.concatenate(xs, axis=0)
        edge_index = (
            np.concatenate(edges, axis=1) if any(e.size for e in edges) else np.zeros((2, 0), dtype=np.int64)
        )
        batch = np.concatenate(batch_ids)
        y = cls._stack_labels([g.y for g in graphs])
        return cls(x, edge_index, batch, len(graphs), y=y, graphs=list(graphs))

    @staticmethod
    def _stack_labels(labels: list):
        if any(l is None for l in labels):
            return None
        first = np.asarray(labels[0])
        if first.ndim == 0 and first.dtype.kind in "iu":
            return np.asarray(labels, dtype=np.int64)
        return np.stack([np.asarray(l, dtype=np.float64).reshape(-1) for l in labels])

    @property
    def edge_index(self) -> np.ndarray:
        return self.topology.edge_index

    @property
    def num_nodes(self) -> int:
        return self.x.shape[0]

    @property
    def num_edges(self) -> int:
        return self.topology.num_edges

    @property
    def num_features(self) -> int:
        return self.x.shape[1]

    def nodes_per_graph(self) -> np.ndarray:
        """``(num_graphs,)`` node counts."""
        return np.bincount(self.batch, minlength=self.num_graphs)

    def __repr__(self):
        return (
            f"GraphBatch(graphs={self.num_graphs}, nodes={self.num_nodes}, edges={self.num_edges})"
        )
