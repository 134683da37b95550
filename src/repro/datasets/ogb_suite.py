"""The nine OGBG-MOL* dataset equivalents of Table 4.

Each dataset is a :class:`~repro.datasets.molecules.MoleculeGenerator`
configured to match the paper's Table 1 row — task count, task type,
metric — with a scaffold split.  Graph counts are scaled down from the
paper (the HIV dataset has 41k graphs there) but keep the relative sizes;
pass ``num_graphs`` to override.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import DatasetInfo, DatasetSplits
from repro.datasets.molecules import MoleculeGenerator, MoleculeConfig, FEATURE_DIM
from repro.datasets.splits import scaffold_split

__all__ = ["make_ogb_dataset", "OGB_DATASET_NAMES", "OGB_CONFIGS", "OGB_INFOS"]

# name -> (num_tasks, task_type, metric, default_num_graphs, config overrides)
OGB_CONFIGS: dict[str, dict] = {
    "ogbg-moltox21": {"num_tasks": 12, "task_type": "binary", "metric": "rocauc", "num_graphs": 500,
                      "config": {"task_missing_rate": 0.15, "ring_range": (1, 2)}},
    "ogbg-molbace": {"num_tasks": 1, "task_type": "binary", "metric": "rocauc", "num_graphs": 400,
                     "config": {"ring_range": (2, 4), "groups_per_molecule": 3.0}},
    "ogbg-molbbbp": {"num_tasks": 1, "task_type": "binary", "metric": "rocauc", "num_graphs": 420,
                     "config": {"ring_range": (1, 3)}},
    "ogbg-molclintox": {"num_tasks": 2, "task_type": "binary", "metric": "rocauc", "num_graphs": 400,
                        "config": {"ring_range": (1, 3)}},
    "ogbg-molsider": {"num_tasks": 27, "task_type": "binary", "metric": "rocauc", "num_graphs": 400,
                      "config": {"task_missing_rate": 0.05, "ring_range": (1, 3), "groups_per_molecule": 3.0}},
    "ogbg-moltoxcast": {"num_tasks": 12, "task_type": "binary", "metric": "rocauc", "num_graphs": 500,
                        "config": {"task_missing_rate": 0.25, "ring_range": (1, 2)}},
    "ogbg-molhiv": {"num_tasks": 1, "task_type": "binary", "metric": "rocauc", "num_graphs": 800,
                    "config": {"num_scaffolds": 80, "ring_range": (1, 3)}},
    "ogbg-molesol": {"num_tasks": 1, "task_type": "regression", "metric": "rmse", "num_graphs": 400,
                     "config": {"ring_range": (1, 2), "groups_per_molecule": 2.0}},
    "ogbg-molfreesolv": {"num_tasks": 1, "task_type": "regression", "metric": "rmse", "num_graphs": 300,
                         "config": {"ring_range": (1, 1), "groups_per_molecule": 1.5}},
}

OGB_DATASET_NAMES = tuple(OGB_CONFIGS)

OGB_INFOS = {
    key: DatasetInfo(
        name=key,
        task_type=spec["task_type"],
        num_tasks=spec["num_tasks"],
        metric=spec["metric"],
        split_method="scaffold",
        feature_dim=FEATURE_DIM,
    )
    for key, spec in OGB_CONFIGS.items()
}


def make_ogb_dataset(
    name: str,
    rng: np.random.Generator,
    num_graphs: int | None = None,
    spurious_strength: float | None = None,
) -> DatasetSplits:
    """Generate one OGBG-MOL* equivalent and scaffold-split it 80/10/10.

    The generator seed is derived from ``rng`` so repeated calls with the
    same generator state reproduce the same dataset.
    """
    key = name.lower()
    if key not in OGB_CONFIGS:
        raise ValueError(f"unknown OGB dataset {name!r}; choose from {sorted(OGB_CONFIGS)}")
    spec = OGB_CONFIGS[key]
    overrides = dict(spec.get("config", {}))
    if spurious_strength is not None:
        overrides["spurious_strength"] = spurious_strength
    config = MoleculeConfig(**overrides)
    generator = MoleculeGenerator(
        num_tasks=spec["num_tasks"],
        task_type=spec["task_type"],
        seed=int(rng.integers(2**31)),
        config=config,
    )
    graphs = generator.generate(num_graphs or spec["num_graphs"], rng)
    train, valid, test = scaffold_split(graphs)
    return DatasetSplits(info=OGB_INFOS[key], train=train, valid=valid, tests={"Test(scaffold)": test})
