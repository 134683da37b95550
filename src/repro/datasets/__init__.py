"""Synthetic dataset suite reproducing the paper's 14 benchmarks.

Every dataset ships as a :class:`~repro.datasets.base.DatasetSplits` with a
train split, a validation split drawn from the training distribution, and
one or more *out-of-distribution* test splits.  The distribution-shift
mechanism of each paper dataset is preserved:

* TRIANGLES — train on small random graphs, test on much larger ones.
* MNIST-75SP — superpixel digit graphs; test adds Gaussian / per-channel
  colour noise to node features.
* COLLAB / PROTEINS / D&D — train small, test large (size split).
* OGBG-MOL* (9 datasets) — molecule-like graphs split by scaffold, with
  the scaffold <-> label correlation broken at test time.

Every dataset is generated rather than downloaded: the real ones need
network access, and what the OOD comparison measures is the shift
mechanism, which each generator keeps.
"""

from repro.datasets.base import DatasetInfo, DatasetSplits, dataset_statistics
from repro.datasets.splits import size_split, scaffold_split, random_split
from repro.datasets.triangles import make_triangles
from repro.datasets.mnist75sp import make_mnist75sp
from repro.datasets.social import make_collab, make_proteins, make_dd
from repro.datasets.molecules import MoleculeGenerator, FUNCTIONAL_GROUPS
from repro.datasets.ogb_suite import make_ogb_dataset, OGB_DATASET_NAMES
from repro.datasets.registry import load_dataset, dataset_info, DATASET_NAMES

__all__ = [
    "DatasetInfo",
    "DatasetSplits",
    "dataset_statistics",
    "size_split",
    "scaffold_split",
    "random_split",
    "make_triangles",
    "make_mnist75sp",
    "make_collab",
    "make_proteins",
    "make_dd",
    "MoleculeGenerator",
    "FUNCTIONAL_GROUPS",
    "make_ogb_dataset",
    "OGB_DATASET_NAMES",
    "load_dataset",
    "dataset_info",
    "DATASET_NAMES",
]
