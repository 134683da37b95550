"""Size extrapolation across the whole baseline zoo (the Table 3 setting).

Trains every baseline plus OOD-GNN on small TRIANGLES graphs (4-25 nodes)
and evaluates on graphs up to 4x larger, reporting accuracy per test-size
bucket.  This is the paper's size-generalisation experiment: methods that
latch onto the train-time coupling between graph size and triangle count
collapse on large graphs, and the per-bucket breakdown shows exactly
where each method gives out.

Run:  python examples/size_extrapolation.py
"""

import numpy as np

from repro.datasets import load_dataset
from repro.training.loop import predict, stack_targets
from repro.training.metrics import accuracy

METHODS = ("gcn", "gin", "pna", "sagpool", "ood-gnn")
BUCKETS = [(26, 45), (46, 70), (71, 100)]


def main() -> None:
    dataset = load_dataset("triangles", seed=0, scale=0.5)
    test = dataset.tests["Test(large)"]

    print(f"train: {len(dataset.train)} graphs of 4-25 nodes; "
          f"test: {len(test)} graphs of 26-100 nodes\n")
    header = f"{'method':10s} {'train':>7s} {'test':>7s}" + "".join(
        f"  n={lo}-{hi}" for lo, hi in BUCKETS
    )
    print(header)
    for method in METHODS:
        # The trainers as a user calls them.  The bench protocol,
        # repro.bench.run_method_multi_seed, hands back its trained models
        # too (MethodResult.models), with its own epochs and seeding.
        info = dataset.info
        model_rng = np.random.default_rng(7919)
        if method == "ood-gnn":
            from repro.core import OODGNN, OODGNNConfig, OODGNNTrainer

            cfg = OODGNNConfig(hidden_dim=32, num_layers=3, epochs=20, batch_size=32)
            model = OODGNN(info.feature_dim, info.model_out_dim, model_rng, config=cfg)
            trainer = OODGNNTrainer(model, info.task_type, np.random.default_rng(11), config=cfg)
            trainer.fit(dataset.train)
        else:
            from repro.encoders import build_model
            from repro.training import Trainer, TrainerConfig

            model = build_model(method, info.feature_dim, info.model_out_dim, model_rng,
                                hidden_dim=32, num_layers=3)
            trainer = Trainer(model, info.task_type,
                              TrainerConfig(epochs=20, batch_size=32),
                              np.random.default_rng(11))
            trainer.fit(dataset.train)

        row = f"{method:10s} {trainer.evaluate(dataset.train):7.3f} {trainer.evaluate(test):7.3f}"
        outputs = predict(model, test)
        targets = stack_targets(test)
        sizes = np.array([g.num_nodes for g in test])
        for lo, hi in BUCKETS:
            mask = (sizes >= lo) & (sizes <= hi)
            acc = accuracy(outputs[mask], targets[mask]) if mask.any() else float("nan")
            row += f"  {acc:7.3f}"
        print(row)


if __name__ == "__main__":
    main()
