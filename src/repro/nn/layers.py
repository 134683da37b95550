"""Standard layers: Linear, MLP, BatchNorm1d, LayerNorm, Dropout, Embedding.

Weight matrices use the ``(in_features, out_features)`` convention so the
forward pass is ``x @ W + b``.

The ``Seed*`` variants back the batched multi-seed training engine (see
``docs/ARCHITECTURE.md``): each holds the parameters of K independently
initialised copies of a layer stacked along a leading seed axis and
evaluates all K in one vectorised pass over ``(K, n, h)`` activations.
:func:`stack_seed_modules` converts a list of per-seed modules into the
matching stacked module via a type-dispatched registry that other layers
(e.g. the convolutions in :mod:`repro.encoders.conv`) extend.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor, is_grad_enabled
from repro.autograd import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter, Sequential

__all__ = [
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
    "SeedLinear",
    "SeedBatchNorm1d",
    "SeedMLP",
    "register_seed_stacker",
    "stack_seed_modules",
    "try_stack_seed_modules",
    "SeedStackingError",
    "fused_sequential_forward",
]


class SeedStackingError(TypeError):
    """A module roster has no seed-stacked variant (or is heterogeneous).

    Subclasses ``TypeError`` for backwards compatibility; kept distinct so
    :func:`try_stack_seed_modules` downgrades only this signal to a warned
    sequential fallback — an accidental ``TypeError`` raised from inside a
    registered stacker still propagates as the bug it is.
    """

_ACTIVATIONS = {}


class Identity(Module):
    """No-op layer, useful as a placeholder."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class ReLU(Module):
    """Elementwise ReLU activation layer."""
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    """Elementwise tanh activation layer."""
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    """Elementwise sigmoid activation layer."""
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class LeakyReLU(Module):
    """Leaky ReLU activation layer."""
    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


_ACTIVATIONS.update({"relu": ReLU, "tanh": Tanh, "sigmoid": Sigmoid, "leaky_relu": LeakyReLU, "identity": Identity})


def make_activation(name: str) -> Module:
    """Instantiate an activation layer by name (``relu``, ``tanh``, ...)."""
    try:
        return _ACTIVATIONS[name]()
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}") from None


class Linear(Module):
    """Affine map ``y = x @ W + b`` with Glorot-uniform initialisation."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if not is_grad_enabled():
            # Tape-free fast path: same expression on raw arrays (x @ W,
            # then + b), so the result is bitwise equal to the taped chain
            # while skipping two op dispatches and their Tensor wrappers.
            out = x.data @ self.weight.data
            if self.bias is not None:
                out += self.bias.data
            return Tensor._wrap(out)
        return F.linear(x, self.weight, self.bias)

    def __repr__(self):
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(as_tensor(x), self.p, self.training, self.rng)


def _bn_train_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float, axis: int = 0):
    """Training-mode batch-norm forward over the sample axis ``axis``.

    ``gamma``/``beta`` must already broadcast against ``x`` (plain layer:
    ``(h,)`` vs ``(n, h)``; seed-stacked: ``(K, 1, h)`` vs ``(K, n, h)``).
    Returns the output plus the intermediates the analytical backward
    needs; statistics keep their reduced axis so one implementation
    serves both layouts.  The arithmetic matches the op-by-op expression
    ``(x - mean) / sqrt(var + eps) * gamma + beta`` exactly: the output
    is built in place on a ``xhat * gamma`` buffer, each step the same
    elementwise operation as the out-of-place chain, so per-op and
    seed-stacked evaluations agree bitwise.
    """
    mean = x.mean(axis=axis, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=axis, keepdims=True)
    std = np.sqrt(var + eps)
    xhat = centered / std
    out = xhat * gamma
    out += beta
    return out, mean, var, centered, std, xhat


def _bn_backward_x(
    g: np.ndarray, gamma: np.ndarray, centered: np.ndarray, std: np.ndarray, axis: int = 0
) -> np.ndarray:
    """Input gradient of training-mode batch norm (population statistics).

    One buffer shaped like ``g`` carries the whole computation: it holds
    ``g * gamma`` (the gradient of ``xhat``) until ``g_var`` is read off
    it, then is divided by ``std``, accumulates the variance term and
    loses its mean in place.  Each step is the elementwise operation the
    out-of-place expression performs, so results are bitwise the same.
    """
    n = g.shape[axis]
    grad = g * gamma
    g_var = (grad * centered).sum(axis=axis, keepdims=True) * (-0.5) / (std * std * std)
    grad /= std
    grad += centered * ((2.0 / n) * g_var)
    grad -= grad.mean(axis=axis, keepdims=True)
    return grad


class BatchNorm1d(Module):
    """Batch normalisation over the leading axis with running statistics.

    The training-mode forward/backward is a single fused tape node (see
    :func:`_bn_train_forward`): one pass each for the statistics and the
    normalisation instead of the ~10-node op-by-op chain — the batch-norm
    stack was the dominant non-GEMM cost of both the per-seed and the
    batched multi-seed training paths.
    """

    _buffer_names = ("running_mean", "running_var")

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)), name="gamma")
        self.beta = Parameter(init.zeros((num_features,)), name="beta")
        self.running_mean = np.zeros(num_features, dtype=np.float64)
        self.running_var = np.ones(num_features, dtype=np.float64)

    def _eval_normalise(self, data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Eval normalisation of raw ``data`` with the running statistics.

        The centring writes ``out`` (a new array when ``None``) and the
        divide by ``sqrt(var + eps)``, scale and shift run in place on it:
        the eval tensor chain's ufuncs in its order, so bitwise equal.
        """
        out = np.subtract(data, self.running_mean, out=out)
        out /= np.sqrt(self.running_var + self.eps)
        out *= self.gamma.data
        out += self.beta.data
        return out

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if not (self.training and x.shape[0] > 1):
            if not is_grad_enabled():
                return Tensor._wrap(self._eval_normalise(x.data))
            mean = Tensor(self.running_mean)
            var = Tensor(self.running_var)
            normalised = (x - mean) / (var + self.eps).sqrt()
            return normalised * self.gamma + self.beta
        gamma, beta = self.gamma, self.beta
        out_data, mean, var, centered, std, xhat = _bn_train_forward(
            x.data, gamma.data, beta.data, self.eps
        )
        self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean[0]
        self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var[0]
        tracked = [t for t in (x, gamma, beta) if t.requires_grad or t._parents]
        if not (is_grad_enabled() and tracked):
            return Tensor(out_data)
        gamma_data = gamma.data
        return Tensor._make(
            out_data,
            [
                (x, lambda g: _bn_backward_x(g, gamma_data, centered, std)),
                (gamma, lambda g: (g * xhat).sum(axis=0)),
                (beta, lambda g: g.sum(axis=0)),
            ],
        )


class LayerNorm(Module):
    """Layer normalisation over the trailing feature axis."""

    def __init__(self, num_features: int, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)), name="gamma")
        self.beta = Parameter(init.zeros((num_features,)), name="beta")

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normalised = (x - mean) / (var + self.eps).sqrt()
        return normalised * self.gamma + self.beta


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int, rng: np.random.Generator):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), rng, std=0.1), name="weight")

    def forward(self, ids) -> Tensor:
        ids = np.asarray(ids.data if isinstance(ids, Tensor) else ids, dtype=np.int64)
        return self.weight[ids]


def fused_sequential_forward(layers, x) -> Tensor:
    """Tape-free walk over a chain of layers (the serving hot path).

    Every GEMM allocates its output, and the elementwise stages behind it
    (bias add, eval batch norm, ReLU) run in place on that buffer, so a
    ``Linear -> BatchNorm -> ReLU`` block allocates one array instead of
    six.  The walk writes in place only into buffers it allocated itself:
    the first elementwise stage after the input or a non-GEMM layer
    writes a new array.  Layers outside that set (other activations,
    training-mode batch norm, active dropout) run normally, so the walk
    is safe for any roster.  Each stage applies the eager chain's ufunc
    in its order, so outputs are bitwise identical to the taped layers.

    Only call with the tape disabled.
    """
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    owned = False          # whether ``data`` was allocated by this walk
    for layer in layers:
        if isinstance(layer, Linear):
            data = data @ layer.weight.data
            if layer.bias is not None:
                data += layer.bias.data
        elif isinstance(layer, SeedLinear):
            data = np.matmul(data, layer.weight.data)
            if layer.bias is not None:
                data += layer.bias.data[:, None, :]
        elif isinstance(layer, BatchNorm1d) and not (layer.training and _rows(data, 0) > 1):
            data = layer._eval_normalise(data, out=data if owned else None)
        elif isinstance(layer, SeedBatchNorm1d) and not (layer.training and _rows(data, 1) > 1):
            data = layer._eval_normalise(data, out=data if owned else None)
        elif isinstance(layer, ReLU):
            data = np.maximum(data, 0.0, out=data if owned else None)
        elif isinstance(layer, Identity) or (
            isinstance(layer, Dropout) and not (layer.training and layer.p > 0)
        ):
            continue
        else:
            data = layer(Tensor._wrap(data)).data
            owned = False
            continue
        owned = True
    return Tensor._wrap(data)


def _rows(data: np.ndarray, axis: int) -> int:
    return data.shape[axis] if data.ndim > axis else 1


class MLP(Module):
    """Multi-layer perceptron with optional batch norm and dropout.

    Parameters
    ----------
    dims:
        Layer widths including input and output, e.g. ``[64, 64, 10]``.
    activation:
        Name of the hidden activation (the output layer is linear).
    batch_norm:
        Insert :class:`BatchNorm1d` after every hidden linear layer (the
        GIN convention).
    """

    def __init__(
        self,
        dims: list[int],
        rng: np.random.Generator,
        activation: str = "relu",
        batch_norm: bool = False,
        dropout: float = 0.0,
    ):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        layers: list[Module] = []
        for i in range(len(dims) - 1):
            layers.append(Linear(dims[i], dims[i + 1], rng))
            is_hidden = i < len(dims) - 2
            if is_hidden:
                if batch_norm:
                    layers.append(BatchNorm1d(dims[i + 1]))
                layers.append(make_activation(activation))
                if dropout > 0:
                    layers.append(Dropout(dropout, rng))
        self.net = Sequential(*layers)
        self.dims = list(dims)

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            # Serving fast path: GEMM + in-place epilogue per block.
            return fused_sequential_forward(self.net, as_tensor(x))
        return self.net(x)


# ----------------------------------------------------------------------
# Multi-seed stacked layers
# ----------------------------------------------------------------------
#
# The batched multi-seed engine trains K independently initialised models
# at once: every parameter bank gains a leading seed axis and activations
# use the seed-leading layout (K, n, h).  Each seed's slice stays
# contiguous, so every linear map is one batched GEMM (``seed_linear``) and
# every gather or scatter runs K 2-D passes (``seed_gather``,
# ``seed_segment_sum``).  Stacked modules keep the attribute names of their
# per-seed templates, which makes the dotted parameter names line up
# one-to-one and lets a single seed's slice be loaded straight back into a
# per-seed model.

_SEED_STACKERS: dict[type, object] = {}


def register_seed_stacker(cls):
    """Decorator registering a ``list[Module] -> Module`` stacker for ``cls``.

    Dispatch walks the template's MRO, so a stacker registered for a base
    class also covers subclasses with the same structure (e.g. the
    OOD-GNN model reuses the ``GraphClassifier`` stacker).
    """

    def wrap(fn):
        _SEED_STACKERS[cls] = fn
        return fn

    return wrap


def stack_seed_modules(modules: list[Module]) -> Module:
    """Stack K structurally identical per-seed modules into one batched module.

    Raises :class:`SeedStackingError` (a ``TypeError``) when no stacker
    covers the module type.  The registry spans the full encoder roster —
    GIN/GCN, attention (GAT/SAGE), PNA, virtual-node and hierarchical
    pooling assemblies; unregistered architectures (e.g. FactorGCN, whose
    per-edge GEMV scores have no bitwise-safe batched equivalent) fall
    back to sequential multi-seed runs.
    """
    modules = list(modules)
    if not modules:
        raise ValueError("need at least one module to stack")
    template = modules[0]
    for m in modules[1:]:
        if type(m) is not type(template):
            raise SeedStackingError(
                f"cannot stack heterogeneous modules: {type(template).__name__} vs {type(m).__name__}"
            )
    for klass in type(template).__mro__:
        stacker = _SEED_STACKERS.get(klass)
        if stacker is not None:
            return stacker(modules)
    raise SeedStackingError(
        f"no multi-seed stacker registered for {type(template).__name__}; "
        "register one with register_seed_stacker or run this architecture "
        "with batched=False (sequential per-seed)"
    )


_SEQUENTIAL_FALLBACK_WARNED: set[str] = set()


def try_stack_seed_modules(modules: list[Module], context: str = "training") -> Module | None:
    """:func:`stack_seed_modules`, or ``None`` plus a one-time warning.

    The multi-seed trainers (and the serving engine's seed-ensemble path)
    use this to downgrade gracefully: when a roster has no seed-stacked
    variant (an architecture outside the registry, e.g. FactorGCN), they
    fall back to K sequential passes instead of crashing — but never
    silently.  The warning names the unsupported encoder (via the
    registry's :class:`SeedStackingError`) and is emitted once per encoder
    type *and context* per process, so a long sweep logs one line, not one
    per batch.  ``context`` names the caller's workload in the message
    (``"training"`` for the multi-seed trainers, ``"serving"`` for the
    inference engine).  Any other exception — including a plain
    ``TypeError`` from a buggy stacker — propagates.
    """
    modules = list(modules)
    try:
        return stack_seed_modules(modules)
    except SeedStackingError as err:
        template = modules[0] if modules else None
        encoder = getattr(template, "encoder", template)
        key = f"{context}/{type(template).__name__}/{type(encoder).__name__}"
        if key not in _SEQUENTIAL_FALLBACK_WARNED:
            _SEQUENTIAL_FALLBACK_WARNED.add(key)
            warnings.warn(
                f"multi-seed batching unavailable for {type(encoder).__name__} "
                f"({err}); falling back to sequential per-seed {context}",
                RuntimeWarning,
                stacklevel=3,
            )
        return None


class SeedLinear(Module):
    """K stacked affine maps evaluated as one batched matmul.

    ``weight`` is ``(K, in, out)`` and ``bias`` ``(K, out)``; the forward
    accepts shared ``(n, in)`` inputs (broadcast to every seed) or
    per-seed ``(K, n, in)`` activations and returns ``(K, n, out)``.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None = None):
        super().__init__()
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 3:
            raise ValueError(f"expected (K, in, out) weights, got shape {weight.shape}")
        self.num_seeds = weight.shape[0]
        self.in_features = weight.shape[1]
        self.out_features = weight.shape[2]
        self.weight = Parameter(weight, name="weight")
        self.bias = Parameter(np.asarray(bias, dtype=np.float64), name="bias") if bias is not None else None

    @classmethod
    def from_layers(cls, layers: list[Linear]) -> "SeedLinear":
        """Stack per-seed :class:`Linear` layers (bitwise parameter copies)."""
        weight = np.stack([l.weight.data for l in layers])
        has_bias = layers[0].bias is not None
        bias = np.stack([l.bias.data for l in layers]) if has_bias else None
        return cls(weight, bias)

    def forward(self, x: Tensor) -> Tensor:
        return F.seed_linear(as_tensor(x), self.weight, self.bias)

    def __repr__(self):
        return (
            f"SeedLinear(K={self.num_seeds}, {self.in_features}, {self.out_features}, "
            f"bias={self.bias is not None})"
        )


class SeedBatchNorm1d(Module):
    """Per-seed batch normalisation over ``(K, n, h)`` activations.

    Normalises over the sample axis independently for every seed —
    arithmetically identical to K separate :class:`BatchNorm1d` layers
    (same taped operation chain, so the backward adjoint matches too),
    including the running statistics (shape ``(K, h)``).
    """

    _buffer_names = ("running_mean", "running_var")

    def __init__(self, num_seeds: int, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_seeds = num_seeds
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((num_seeds, num_features)), name="gamma")
        self.beta = Parameter(init.zeros((num_seeds, num_features)), name="beta")
        self.running_mean = np.zeros((num_seeds, num_features), dtype=np.float64)
        self.running_var = np.ones((num_seeds, num_features), dtype=np.float64)

    @classmethod
    def from_layers(cls, layers: list[BatchNorm1d]) -> "SeedBatchNorm1d":
        """Stack per-seed :class:`BatchNorm1d` layers with their statistics."""
        template = layers[0]
        out = cls(len(layers), template.num_features, momentum=template.momentum, eps=template.eps)
        out.gamma.data = np.stack([l.gamma.data for l in layers])
        out.beta.data = np.stack([l.beta.data for l in layers])
        out.running_mean = np.stack([l.running_mean for l in layers])
        out.running_var = np.stack([l.running_var for l in layers])
        return out

    def _eval_normalise(self, data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-seed eval normalisation of raw ``data`` (see BatchNorm1d)."""
        out = np.subtract(data, self.running_mean[:, None, :], out=out)
        out /= np.sqrt(self.running_var + self.eps)[:, None, :]
        out *= self.gamma.data[:, None, :]
        out += self.beta.data[:, None, :]
        return out

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if not (self.training and x.shape[1] > 1):
            if not is_grad_enabled():
                return Tensor._wrap(self._eval_normalise(x.data))
            mean = Tensor(self.running_mean)
            var = Tensor(self.running_var)
            normalised = (x - mean.unsqueeze(1)) / (var + self.eps).sqrt().unsqueeze(1)
            return normalised * self.gamma.unsqueeze(1) + self.beta.unsqueeze(1)
        # One fused tape node vectorised over seeds (the shared helpers at
        # axis=1).  Every reduction is a single-axis (sample-axis) reduce,
        # which numpy evaluates with the same per-(seed, feature)
        # accumulation tree as the 2-D kernels of :class:`BatchNorm1d` —
        # bitwise parity with K sequential layers.
        gamma, beta = self.gamma, self.beta
        gamma_bc = gamma.data[:, None, :]
        out_data, mean, var, centered, std, xhat = _bn_train_forward(
            x.data, gamma_bc, beta.data[:, None, :], self.eps, axis=1
        )
        self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean[:, 0, :]
        self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var[:, 0, :]
        tracked = [t for t in (x, gamma, beta) if t.requires_grad or t._parents]
        if not (is_grad_enabled() and tracked):
            return Tensor(out_data)
        return Tensor._make(
            out_data,
            [
                (x, lambda g: _bn_backward_x(g, gamma_bc, centered, std, axis=1)),
                (gamma, lambda g: (g * xhat).sum(axis=1)),
                (beta, lambda g: g.sum(axis=1)),
            ],
        )


class SeedMLP(Module):
    """Stacked multi-layer perceptron; mirrors :class:`MLP`'s layout.

    Built by :meth:`from_layers` so the inner ``net`` Sequential keeps the
    same positions (and therefore dotted parameter names) as the per-seed
    template MLPs.
    """

    def __init__(self, net: Sequential, dims: list[int]):
        super().__init__()
        self.net = net
        self.dims = list(dims)

    @classmethod
    def from_layers(cls, layers: list[MLP]) -> "SeedMLP":
        template = layers[0]
        stacked = [stack_seed_modules([m.net[i] for m in layers]) for i in range(len(template.net))]
        return cls(Sequential(*stacked), template.dims)

    def forward(self, x: Tensor) -> Tensor:
        if not is_grad_enabled():
            # Serving fast path: batched GEMM + in-place epilogue per block.
            return fused_sequential_forward(self.net, as_tensor(x))
        return self.net(x)


def _stack_shared(modules):
    """Stateless modules (activations, Identity, Dropout) are shared as-is."""
    return modules[0]


register_seed_stacker(Linear)(SeedLinear.from_layers)
register_seed_stacker(BatchNorm1d)(SeedBatchNorm1d.from_layers)
register_seed_stacker(MLP)(SeedMLP.from_layers)
register_seed_stacker(Identity)(_stack_shared)
register_seed_stacker(ReLU)(_stack_shared)
register_seed_stacker(Tanh)(_stack_shared)
register_seed_stacker(Sigmoid)(_stack_shared)
register_seed_stacker(LeakyReLU)(_stack_shared)
register_seed_stacker(Dropout)(_stack_shared)
register_seed_stacker(Sequential)(
    lambda modules: Sequential(
        *[stack_seed_modules([m[i] for m in modules]) for i in range(len(modules[0]))]
    )
)
