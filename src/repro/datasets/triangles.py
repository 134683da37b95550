"""TRIANGLES: count triangles in random graphs under a size shift.

Reproduces the paper's synthetic dataset: random graphs whose label is the
triangle count (1..10, treated as 10-class prediction evaluated by
accuracy), trained on graphs of 4-25 nodes and tested on much larger
graphs.  Node features are one-hot degrees, so both the feature
distribution (degrees grow) and the graph sizes shift at test time —
models that exploit the train-time correlation between graph size and
triangle count fail on large OOD graphs.

Graphs are rejection-sampled from Erdos-Renyi with the edge probability
tuned so the expected triangle count sits mid-range at every size, which
keeps all ten classes reachable for both small and large graphs.
"""

from __future__ import annotations

import numpy as np

from repro.graph.data import Graph
from repro.graph.utils import count_triangles
from repro.datasets.base import DatasetInfo, DatasetSplits
from repro.datasets.transforms import one_hot_degree_features

__all__ = ["make_triangles", "sample_triangle_graph", "TRIANGLES_MAX_DEGREE", "TRIANGLES_INFO"]

TRIANGLES_MAX_DEGREE = 14  # degree one-hot cap shared by train and test
_NUM_CLASSES = 10
_TARGET_TRIANGLES = 5.0  # tune ER density so E[#triangles] sits mid-range

TRIANGLES_INFO = DatasetInfo(
    name="TRIANGLES",
    task_type="multiclass",
    num_tasks=1,
    num_classes=_NUM_CLASSES,
    metric="accuracy",
    split_method="size",
    feature_dim=TRIANGLES_MAX_DEGREE + 1,
)


def _edge_probability(num_nodes: int) -> float:
    """p such that C(n,3) p^3 ~= the target expected triangle count."""
    triples = num_nodes * (num_nodes - 1) * (num_nodes - 2) / 6.0
    if triples <= 0:
        return 0.9
    return float(min(0.9, (_TARGET_TRIANGLES / triples) ** (1.0 / 3.0)))


def sample_triangle_graph(
    num_nodes: int,
    rng: np.random.Generator,
    max_attempts: int = 200,
    target_count: int | None = None,
) -> Graph:
    """One random graph with a triangle count in [1, 10].

    Rejection-samples ER graphs at the tuned density until the count lands
    in range (and equals ``target_count`` when given).  Features are the
    one-hot capped degree.
    """
    p = _edge_probability(num_nodes)
    for _attempt in range(max_attempts):
        mask = rng.random((num_nodes, num_nodes)) < p
        upper = np.triu(mask, k=1)
        src, dst = np.nonzero(upper)
        edge_index = np.concatenate(
            [np.stack([src, dst]), np.stack([dst, src])], axis=1
        ).astype(np.int64)
        count = count_triangles(edge_index, num_nodes)
        if count < 1 or count > _NUM_CLASSES:
            continue
        if target_count is not None and count != target_count:
            continue
        graph = Graph(
            x=np.ones((num_nodes, 1)),
            edge_index=edge_index,
            y=count - 1,  # classes 0..9 for counts 1..10
            meta={"num_triangles": count},
        )
        return one_hot_degree_features(graph, TRIANGLES_MAX_DEGREE)
    raise RuntimeError(
        f"failed to sample a graph with {target_count or '1..10'} triangles "
        f"at n={num_nodes} after {max_attempts} attempts"
    )


def _sample_split(num_graphs: int, node_range: tuple[int, int], rng: np.random.Generator) -> list[Graph]:
    graphs = []
    low, high = node_range
    while len(graphs) < num_graphs:
        n = int(rng.integers(low, high + 1))
        try:
            graphs.append(sample_triangle_graph(n, rng))
        except RuntimeError:
            continue  # some sizes occasionally fail; resample the size
    return graphs


def make_triangles(
    rng: np.random.Generator,
    num_train: int = 300,
    num_valid: int = 60,
    num_test: int = 60,
    train_nodes: tuple[int, int] = (4, 25),
    test_nodes: tuple[int, int] = (26, 100),
) -> DatasetSplits:
    """Build the TRIANGLES dataset with the paper's size shift.

    Paper scale is 3000/500/500 with test sizes 4-100; defaults here are
    scaled down for the numpy substrate (pass larger counts to match).
    Train and validation share the small-graph distribution; the OOD test
    split contains strictly larger graphs.
    """
    train = _sample_split(num_train, train_nodes, rng)
    valid = _sample_split(num_valid, train_nodes, rng)
    test_large = _sample_split(num_test, test_nodes, rng)
    return DatasetSplits(info=TRIANGLES_INFO, train=train, valid=valid, tests={"Test(large)": test_large})
