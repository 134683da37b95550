"""Random graph generators for tests and benchmarks.

Wraps networkx generators into :class:`~repro.graph.data.Graph` objects and
adds two edge-set constructors.  No dataset calls any of them.  Each
generator imports networkx itself, so importing this module stays cheap.
"""

from __future__ import annotations

import numpy as np

from repro.graph.data import Graph
from repro.graph.utils import from_networkx, undirected_edge_index

__all__ = [
    "erdos_renyi",
    "barabasi_albert",
    "watts_strogatz",
    "stochastic_block",
    "graph_from_edge_set",
    "random_tree_edges",
]


def erdos_renyi(num_nodes: int, p: float, rng: np.random.Generator) -> Graph:
    """G(n, p) random graph."""
    import networkx as nx

    g = nx.gnp_random_graph(num_nodes, p, seed=int(rng.integers(2**31)))
    return from_networkx(g)


def barabasi_albert(num_nodes: int, attachment: int, rng: np.random.Generator) -> Graph:
    """Preferential-attachment graph with ``attachment`` edges per new node."""
    import networkx as nx

    attachment = min(attachment, max(1, num_nodes - 1))
    g = nx.barabasi_albert_graph(num_nodes, attachment, seed=int(rng.integers(2**31)))
    return from_networkx(g)


def watts_strogatz(num_nodes: int, k: int, p: float, rng: np.random.Generator) -> Graph:
    """Small-world ring lattice with rewiring probability ``p``."""
    import networkx as nx

    k = min(k, num_nodes - 1)
    if k % 2:
        k = max(2, k - 1)
    g = nx.watts_strogatz_graph(num_nodes, k, p, seed=int(rng.integers(2**31)))
    return from_networkx(g)


def stochastic_block(sizes: list[int], p_in: float, p_out: float, rng: np.random.Generator) -> Graph:
    """Stochastic block model with uniform intra/inter block densities."""
    import networkx as nx

    probs = [[p_in if i == j else p_out for j in range(len(sizes))] for i in range(len(sizes))]
    g = nx.stochastic_block_model(sizes, probs, seed=int(rng.integers(2**31)))
    return from_networkx(nx.Graph(g))


def graph_from_edge_set(num_nodes: int, pairs: set[tuple[int, int]]) -> Graph:
    """Graph from a set of undirected node pairs with all-ones features."""
    normalised = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    return Graph(x=np.ones((num_nodes, 1)), edge_index=undirected_edge_index(sorted(normalised)))


def random_tree_edges(num_nodes: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Uniform random labelled tree edges (random attachment process)."""
    edges = []
    for v in range(1, num_nodes):
        u = int(rng.integers(0, v))
        edges.append((u, v))
    return edges
