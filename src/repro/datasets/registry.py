"""Dataset registry: build any of the paper's 14 benchmarks by name.

``load_dataset(name, seed, scale)`` is the single entry point used by the
examples and benchmark harnesses.  ``scale`` multiplies the default graph
counts (1.0 = the numpy-substrate defaults; the paper's full counts are
roughly 10x for most datasets).  ``dataset_info(name)`` returns the same
task metadata without generating a single graph.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import DatasetInfo, DatasetSplits
from repro.datasets.triangles import TRIANGLES_INFO, make_triangles
from repro.datasets.mnist75sp import MNIST75SP_INFO, make_mnist75sp
from repro.datasets.social import COLLAB_INFO, DD_INFOS, PROTEINS25_INFO, make_collab, make_dd, make_proteins
from repro.datasets.ogb_suite import OGB_INFOS, make_ogb_dataset, OGB_DATASET_NAMES

__all__ = ["load_dataset", "dataset_info", "DATASET_NAMES"]

# Every maker's info depends only on the dataset name.
_INFOS: dict[str, DatasetInfo] = {
    "triangles": TRIANGLES_INFO,
    "mnist75sp": MNIST75SP_INFO,
    "collab35": COLLAB_INFO,
    "proteins25": PROTEINS25_INFO,
    "dd200": DD_INFOS[200],
    "dd300": DD_INFOS[300],
    **OGB_INFOS,
}

DATASET_NAMES = tuple(_INFOS)


def dataset_info(name: str) -> DatasetInfo:
    """Task metadata of a dataset by (case-insensitive) name.

    Equal to ``load_dataset(name, ...).info`` for every seed and scale,
    but generates no graphs.
    """
    try:
        return _INFOS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown dataset {name!r}; choose from {DATASET_NAMES}") from None


def _scaled(value: int, scale: float, minimum: int = 10) -> int:
    return max(minimum, int(round(value * scale)))


def load_dataset(name: str, seed: int = 0, scale: float = 1.0, **overrides) -> DatasetSplits:
    """Build a dataset by (case-insensitive) name.

    Parameters
    ----------
    name:
        One of :data:`DATASET_NAMES`.
    seed:
        Root seed for the generators (same seed, same dataset).
    scale:
        Multiplier on default split sizes; benches use small defaults.
    overrides:
        Passed through to the dataset constructor (e.g. ``size_bias``,
        ``spurious_strength``, explicit split sizes).
    """
    key = name.lower()
    rng = np.random.default_rng(seed)
    if key == "triangles":
        sizes = {"num_train": _scaled(300, scale), "num_valid": _scaled(60, scale), "num_test": _scaled(60, scale)}
        return make_triangles(rng, **{**sizes, **overrides})
    if key == "mnist75sp":
        sizes = {"num_train": _scaled(300, scale), "num_valid": _scaled(60, scale), "num_test": _scaled(60, scale)}
        return make_mnist75sp(rng, **{**sizes, **overrides})
    if key == "collab35":
        sizes = {"num_train": _scaled(180, scale), "num_valid": _scaled(40, scale), "num_test": _scaled(80, scale)}
        return make_collab(rng, **{**sizes, **overrides})
    if key == "proteins25":
        sizes = {"num_train": _scaled(180, scale), "num_valid": _scaled(40, scale), "num_test": _scaled(80, scale)}
        return make_proteins(rng, **{**sizes, **overrides})
    if key in ("dd200", "dd300"):
        sizes = {"num_train": _scaled(160, scale), "num_valid": _scaled(40, scale), "num_test": _scaled(80, scale)}
        return make_dd(rng, variant=int(key[2:]), **{**sizes, **overrides})
    if key in OGB_DATASET_NAMES:
        if scale != 1.0 and "num_graphs" not in overrides:
            from repro.datasets.ogb_suite import OGB_CONFIGS

            overrides["num_graphs"] = _scaled(OGB_CONFIGS[key]["num_graphs"], scale, minimum=60)
        return make_ogb_dataset(key, rng, **overrides)
    raise ValueError(f"unknown dataset {name!r}; choose from {DATASET_NAMES}")
