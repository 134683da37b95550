"""Minimal neural-network library over :mod:`repro.autograd`.

Provides the module system, layers, initialisers, losses, and optimisers
that the GNN encoders and the OOD-GNN training loop are built from.
"""

from repro.nn.module import Module, Parameter, Sequential, ModuleList
from repro.nn.layers import (
    Linear,
    MLP,
    BatchNorm1d,
    LayerNorm,
    Dropout,
    Embedding,
    Identity,
    ReLU,
    Tanh,
    Sigmoid,
    LeakyReLU,
)
from repro.nn.losses import (
    cross_entropy,
    binary_cross_entropy_with_logits,
    mse_loss,
    weighted_prediction_loss,
)
from repro.nn.optim import SGD, Adam, AdamW, clip_grad_norm
from repro.nn.checkpoint import CHECKPOINT_FORMAT_VERSION, save_state, load_archive
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "ModuleList",
    "Linear",
    "MLP",
    "BatchNorm1d",
    "LayerNorm",
    "Dropout",
    "Embedding",
    "Identity",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "LeakyReLU",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "mse_loss",
    "weighted_prediction_loss",
    "SGD",
    "Adam",
    "AdamW",
    "clip_grad_norm",
    "CHECKPOINT_FORMAT_VERSION",
    "save_state",
    "load_archive",
    "init",
]
