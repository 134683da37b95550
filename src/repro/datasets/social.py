"""COLLAB / PROTEINS / D&D-like datasets with train-small/test-large splits.

The paper trains on small graphs and tests on much larger ones (Table 3:
COLLAB35, PROTEINS25, D&D200, D&D300).  The TU datasets are not available
offline, so generators matched to their mechanics are used instead:

* **COLLAB-like** — ego-collaboration networks built as unions of "paper"
  cliques; the class (research field) determines the clique-size profile,
  a size-invariant structural signal.  Larger test graphs simply contain
  more papers.
* **PROTEINS / D&D-like** — protein backbones (paths) decorated with
  helix chords and sheet ladders; the positive class plants a dense
  "active site" motif (a 4-clique), which no negative graph contains.

Both embed the paper's *spurious correlation* mechanism explicitly: inside
the training size range the label correlates with graph size (controlled
by ``size_bias``), while the causal signal (clique profile / motif) stays
fully predictive at every size.  Models that shortcut through size-related
statistics degrade on the large OOD test graphs; decorrelated models keep
working.
"""

from __future__ import annotations

import numpy as np

from repro.graph.data import Graph
from repro.graph.utils import undirected_edge_index, degrees
from repro.datasets.base import DatasetInfo, DatasetSplits

__all__ = [
    "make_collab",
    "make_proteins",
    "make_dd",
    "sample_collab_graph",
    "sample_protein_graph",
    "COLLAB_INFO",
    "PROTEINS25_INFO",
    "DD_INFOS",
]

_COLLAB_DEGREE_BINS = 8  # one-hot floor(log2(degree + 1)) capped

COLLAB_INFO = DatasetInfo(
    name="COLLAB35",
    task_type="multiclass",
    num_tasks=1,
    num_classes=3,
    metric="accuracy",
    split_method="size",
    feature_dim=_COLLAB_DEGREE_BINS,
)


def _protein_info(name: str) -> DatasetInfo:
    return DatasetInfo(
        name=name,
        task_type="multiclass",
        num_tasks=1,
        num_classes=2,
        metric="accuracy",
        split_method="size",
        feature_dim=3,
    )


PROTEINS25_INFO = _protein_info("PROTEINS25")
#: D&D variant (largest training graph size) -> its task metadata.
DD_INFOS = {variant: _protein_info(f"D&D{variant}") for variant in (200, 300)}


# ----------------------------------------------------------------------
# COLLAB-like: ego collaboration networks from three "fields"
# ----------------------------------------------------------------------
_FIELD_CLIQUE_SIZES = {
    0: (8, 15),  # High Energy Physics: few, very large collaborations
    1: (4, 6),   # Condensed Matter: mid-sized groups
    2: (2, 3),   # Astro: many small collaborations around a hub
}


def sample_collab_graph(
    field: int,
    num_nodes: int,
    rng: np.random.Generator,
    profile_overlap: float = 0.25,
) -> Graph:
    """One ego-collaboration network of ``field`` with ``num_nodes`` authors.

    Node 0 is the ego and participates in every paper; remaining authors
    are covered by cliques whose size range is the field's signature.
    With probability ``profile_overlap`` a paper's size is drawn from the
    union of all field ranges, so the fields overlap (real collaboration
    profiles do) and the class is not trivially separable from density.
    """
    if field not in _FIELD_CLIQUE_SIZES:
        raise ValueError(f"field must be 0-2, got {field}")
    low, high = _FIELD_CLIQUE_SIZES[field]
    any_low = min(lo for lo, _hi in _FIELD_CLIQUE_SIZES.values())
    any_high = max(hi for _lo, hi in _FIELD_CLIQUE_SIZES.values())
    pairs: set[tuple[int, int]] = set()
    uncovered = set(range(1, num_nodes))
    others = np.arange(1, num_nodes)
    while uncovered:
        if rng.random() < profile_overlap:
            size = int(rng.integers(any_low, any_high + 1))
        else:
            size = int(rng.integers(low, high + 1))
        size = min(size, num_nodes - 1)
        # Bias selection towards uncovered authors so every node joins a paper.
        uncovered_list = list(uncovered)
        take_new = min(len(uncovered_list), max(1, size // 2))
        chosen = list(rng.choice(uncovered_list, size=take_new, replace=False))
        remaining = size - take_new
        if remaining > 0:
            pool = np.setdiff1d(others, chosen)
            if len(pool):
                chosen.extend(rng.choice(pool, size=min(remaining, len(pool)), replace=False))
        members = [0] + [int(c) for c in chosen]
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                pairs.add((min(u, v), max(u, v)))
        uncovered.difference_update(chosen)
    graph = Graph(x=np.ones((num_nodes, 1)), edge_index=undirected_edge_index(sorted(pairs)), y=field)
    return _log_degree_features(graph)


def _log_degree_features(graph: Graph) -> Graph:
    deg = degrees(graph.edge_index, graph.num_nodes)
    bins = np.minimum(np.floor(np.log2(deg + 1)).astype(np.int64), _COLLAB_DEGREE_BINS - 1)
    x = np.zeros((graph.num_nodes, _COLLAB_DEGREE_BINS), dtype=np.float64)
    x[np.arange(graph.num_nodes), bins] = 1.0
    return graph.with_features(x)


def _biased_size(
    label: int,
    num_labels: int,
    node_range: tuple[int, int],
    size_bias: float,
    rng: np.random.Generator,
) -> int:
    """Sample a node count whose distribution depends on the label.

    With probability ``size_bias`` the size is drawn from the label's own
    slice of the range (lower labels -> smaller graphs), otherwise
    uniformly — this plants the spurious size <-> label correlation inside
    the training range.
    """
    low, high = node_range
    if rng.random() >= size_bias or high - low < num_labels:
        return int(rng.integers(low, high + 1))
    span = (high - low + 1) / num_labels
    slice_low = int(low + label * span)
    slice_high = int(min(high, low + (label + 1) * span - 1))
    return int(rng.integers(slice_low, max(slice_low, slice_high) + 1))


def make_collab(
    rng: np.random.Generator,
    num_train: int = 180,
    num_valid: int = 40,
    num_test: int = 80,
    train_nodes: tuple[int, int] = (32, 35),
    test_nodes: tuple[int, int] = (36, 240),
    size_bias: float = 0.8,
) -> DatasetSplits:
    """COLLAB35: train on 32-35 node ego-nets, test on larger ones.

    Paper: 500 train / 4500 test, test sizes up to 492 (capped here for
    the numpy substrate; pass a larger ``test_nodes`` to extend).
    """
    def sample(num: int, node_range, biased: bool) -> list[Graph]:
        graphs = []
        for _ in range(num):
            field = int(rng.integers(0, 3))
            bias = size_bias if biased else 0.0
            n = _biased_size(field, 3, node_range, bias, rng)
            graphs.append(sample_collab_graph(field, n, rng))
        return graphs

    train = sample(num_train, train_nodes, biased=True)
    valid = sample(num_valid, train_nodes, biased=True)
    test = sample(num_test, test_nodes, biased=False)
    return DatasetSplits(info=COLLAB_INFO, train=train, valid=valid, tests={"Test(large)": test})


# ----------------------------------------------------------------------
# PROTEINS / D&D-like: backbone + motifs, positive class plants a 4-clique
# ----------------------------------------------------------------------
def sample_protein_graph(is_enzyme: bool, num_nodes: int, rng: np.random.Generator) -> Graph:
    """Protein-like graph: path backbone, helix chords, sheet ladders.

    Enzymes (positive class) additionally contain one fully-connected
    4-node "active site" on the backbone; the decoration process never
    creates another 4-clique, so the motif is perfectly discriminative.
    """
    if num_nodes < 5:
        raise ValueError(f"protein graphs need >= 5 nodes, got {num_nodes}")
    pairs = {(i, i + 1) for i in range(num_nodes - 1)}  # backbone
    node_type = np.zeros(num_nodes, dtype=np.int64)  # 0 = turn/coil

    # Helices: stretches with (i, i+2) chords.  Chords of span 2 can only
    # create triangles, never a 4-clique (that would need span-3 chords).
    num_helices = max(1, num_nodes // 12)
    for _ in range(num_helices):
        length = int(rng.integers(3, 7))
        start = int(rng.integers(0, max(1, num_nodes - length - 1)))
        for i in range(start, min(start + length, num_nodes - 2)):
            pairs.add((i, i + 2))
            node_type[i : i + 3] = 1  # helix residues

    # Sheets: rung-only ladders between two distant stretches (creates
    # 4-cycles but no 4-cliques because strand-internal chords are absent).
    if num_nodes >= 14:
        num_sheets = max(1, num_nodes // 25)
        for _ in range(num_sheets):
            length = int(rng.integers(2, 5))
            a = int(rng.integers(0, num_nodes - 2 * length - 4))
            b = int(rng.integers(a + length + 3, num_nodes - length))
            for k in range(length):
                pairs.add((a + k, b + k))
                node_type[a + k] = 2
                node_type[b + k] = 2

    if is_enzyme:
        start = int(rng.integers(0, num_nodes - 3))
        site = list(range(start, start + 4))
        for i, u in enumerate(site):
            for v in site[i + 1 :]:
                pairs.add((min(u, v), max(u, v)))

    # Residue-type features with 10% label-free noise.
    noisy_type = node_type.copy()
    flip = rng.random(num_nodes) < 0.1
    noisy_type[flip] = rng.integers(0, 3, size=int(flip.sum()))
    x = np.zeros((num_nodes, 3), dtype=np.float64)
    x[np.arange(num_nodes), noisy_type] = 1.0
    return Graph(
        x=x,
        edge_index=undirected_edge_index(sorted(pairs)),
        y=int(is_enzyme),
        meta={"is_enzyme": bool(is_enzyme)},
    )


def _make_protein_dataset(
    info: DatasetInfo,
    rng: np.random.Generator,
    num_train: int,
    num_valid: int,
    num_test: int,
    train_nodes: tuple[int, int],
    test_nodes: tuple[int, int],
    size_bias: float,
) -> DatasetSplits:
    def sample(num: int, node_range, biased: bool) -> list[Graph]:
        graphs = []
        for _ in range(num):
            label = int(rng.integers(0, 2))
            bias = size_bias if biased else 0.0
            n = _biased_size(label, 2, node_range, bias, rng)
            n = max(n, 5)
            graphs.append(sample_protein_graph(bool(label), n, rng))
        return graphs

    train = sample(num_train, train_nodes, biased=True)
    valid = sample(num_valid, train_nodes, biased=True)
    test = sample(num_test, test_nodes, biased=False)
    return DatasetSplits(info=info, train=train, valid=valid, tests={"Test(large)": test})


def make_proteins(
    rng: np.random.Generator,
    num_train: int = 180,
    num_valid: int = 40,
    num_test: int = 80,
    train_nodes: tuple[int, int] = (5, 25),
    test_nodes: tuple[int, int] = (26, 120),
    size_bias: float = 0.9,
) -> DatasetSplits:
    """PROTEINS25: train on 4-25 node proteins, test on larger (paper: up to 620)."""
    return _make_protein_dataset(
        PROTEINS25_INFO, rng, num_train, num_valid, num_test, train_nodes, test_nodes, size_bias
    )


def make_dd(
    rng: np.random.Generator,
    variant: int = 300,
    num_train: int = 160,
    num_valid: int = 40,
    num_test: int = 80,
    size_bias: float = 0.8,
) -> DatasetSplits:
    """D&D200 / D&D300: larger protein-like graphs, size-split.

    ``variant=200`` trains on 30-200 nodes and tests on 201-600;
    ``variant=300`` trains on 30-300 and tests on 301-600 (paper tests up
    to 5748 nodes; capped for the numpy substrate).
    """
    if variant not in DD_INFOS:
        raise ValueError(f"variant must be 200 or 300, got {variant}")
    train_nodes = (30, variant)
    test_nodes = (variant + 1, 600)
    return _make_protein_dataset(
        DD_INFOS[variant], rng, num_train, num_valid, num_test, train_nodes, test_nodes, size_bias
    )
