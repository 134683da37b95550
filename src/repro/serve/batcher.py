"""Micro-batch planning: coalesce variable-size graph requests under budgets.

:func:`plan_microbatches` packs a known request list in arrival order under
a :class:`BatchBudget` (``max_graphs`` / ``max_nodes``).  It is the one
packing policy of :class:`~repro.serve.engine.InferenceEngine`: the
synchronous ``predict`` packs its argument list with it, and the queue
front-end packs every request that was queued when its worker came back
for more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BatchBudget", "plan_microbatches", "default_max_nodes", "FLOAT64_MAX_NODES"]

#: Measured cache-residency sweet spot of the packed forward at float64:
#: ``benchmarks/BENCH_inference.json`` shows the unbounded 64x256-node
#: pack *losing* to ~2048-node packs because a 2048-row float64
#: activation set (2048 x 64 hidden = ~1 MiB per live array) is the
#: largest that stays L2/L3-resident across the elementwise chain
#: between GEMMs.
FLOAT64_MAX_NODES = 2048


def default_max_nodes(dtype=np.float64) -> int:
    """Dtype-derived micro-batch node cap (2048 at float64, 4096 at float32).

    The measured wall is *bytes* of packed activation streaming through
    cache, not node count (:data:`FLOAT64_MAX_NODES` records the float64
    measurement; see ``benchmarks/bench_inference.py``'s full-pack
    decomposition), so the cap scales inversely with the element size —
    a float32 forward fits twice the nodes in the same footprint.
    """
    itemsize = np.dtype(dtype).itemsize
    return int(FLOAT64_MAX_NODES * np.dtype(np.float64).itemsize // max(itemsize, 1))


@dataclass(frozen=True)
class BatchBudget:
    """Limits on one packed forward pass.

    ``max_graphs`` bounds the number of requests per batch; ``max_nodes``
    (optional) bounds the packed node count — the quantity that actually
    drives forward cost.  A single request larger than ``max_nodes`` still
    serves (alone in its own batch): budgets shape batches, they never
    reject work.
    """

    max_graphs: int = 64
    max_nodes: int | None = None

    def __post_init__(self):
        if self.max_graphs < 1:
            raise ValueError(f"max_graphs must be >= 1, got {self.max_graphs}")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")

    def admits(self, count: int, nodes: int, extra_nodes: int) -> bool:
        """Whether a batch of ``count`` requests / ``nodes`` packed nodes
        can take one more request of ``extra_nodes`` nodes."""
        if count >= self.max_graphs:
            return False
        if self.max_nodes is not None and count > 0 and nodes + extra_nodes > self.max_nodes:
            return False
        return True


def plan_microbatches(node_counts, budget: BatchBudget) -> list[list[int]]:
    """Partition request indices into batches, preserving arrival order.

    Greedy first-fit in arrival order: a batch closes when adding the next
    request would exceed ``max_graphs`` or ``max_nodes``.  Requests are
    never reordered — latency fairness beats bin-packing optimality for a
    serving queue.
    """
    batches: list[list[int]] = []
    current: list[int] = []
    nodes = 0
    for index, count in enumerate(node_counts):
        if current and not budget.admits(len(current), nodes, int(count)):
            batches.append(current)
            current, nodes = [], 0
        current.append(index)
        nodes += int(count)
    if current:
        batches.append(current)
    return batches
