"""Standard layers: Linear, MLP, BatchNorm1d, LayerNorm, Dropout, Embedding.

Weight matrices use the ``(in_features, out_features)`` convention so the
forward pass is ``x @ W + b``.

The batched multi-seed engine (see ``docs/ARCHITECTURE.md``) runs K
independently initialised copies of a model in one vectorised pass over
``(K, n, h)`` activations.  :func:`stack_seed_modules` turns a list of
per-seed modules into one stacked module through a type-dispatched
registry that other layers (e.g. the convolutions in
:mod:`repro.encoders.conv`) extend, and :func:`sync_seed` loads one seed
of a stack back into its plain model.  Every class here stacks through
:func:`stack_instance`: the stack is an instance of the same class whose
parameters carry a leading seed axis, so one forward serves ``(n, h)``
and ``(K, n, h)`` activations alike.  :class:`Linear` and
:class:`BatchNorm1d` tell the two apart by the rank of their own
parameters, and a stacked :class:`Dropout` draws each seed's mask from
that seed's generator.
"""

from __future__ import annotations

from itertools import zip_longest

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor, is_grad_enabled
from repro.autograd import functional as F
from repro.nn import init
from repro.nn.module import Module, ModuleList, Parameter, Sequential

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
    "register_seed_stacker",
    "stack_instance",
    "stack_seed_modules",
    "sync_seed",
    "SeedStackingError",
    "fused_sequential_forward",
]


class SeedStackingError(TypeError):
    """A module roster cannot be stacked along a seed axis.

    Raised when no stacker is registered for the module type, or when the
    roster mixes types or parameter/buffer layouts.  A ``TypeError``,
    since the roster's types and shapes are what is wrong.
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
    """Affine map ``y = x @ W + b`` with Glorot-uniform initialisation.

    A seed stack holds ``(K, in, out)`` weights and ``(K, out)`` biases and
    maps shared ``(n, in)`` or per-seed ``(K, n, in)`` inputs to
    ``(K, n, out)`` through one batched GEMM
    (:func:`~repro.autograd.functional.seed_linear`).
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng), name="weight")
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if self.weight.data.ndim == 3:
            return F.seed_linear(x, self.weight, self.bias)
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
    """Inverted dropout; active only in training mode.

    A seed stack's ``rng`` is the tuple of its seeds' own generators, and
    seed k draws its ``(n, h)`` mask from the k-th, as its plain layer
    would.
    """

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(as_tensor(x), self.p, self.training, self.rng)


def _bn_train_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float, axis: int):
    """Training-mode batch-norm forward over the sample axis ``axis``.

    ``gamma``/``beta`` must already broadcast against ``x`` (plain layer:
    ``(1, h)`` vs ``(n, h)``; seed-stacked: ``(K, 1, h)`` vs ``(K, n, h)``).
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
    g: np.ndarray, gamma: np.ndarray, centered: np.ndarray, std: np.ndarray, axis: int
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
    """Batch normalisation over the sample axis with running statistics.

    The sample axis is 0 for ``(n, h)`` activations.  A seed stack holds
    ``(K, h)`` parameters and statistics and normalises each seed of
    ``(K, n, h)`` activations over axis 1; the per-feature state reaches
    either layout through ``[..., None, :]``.  Every reduction runs over
    that one axis, so a stack is bitwise equal to K plain layers.

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
        out = np.subtract(data, self.running_mean[..., None, :], out=out)
        out /= np.sqrt(self.running_var + self.eps)[..., None, :]
        out *= self.gamma.data[..., None, :]
        out += self.beta.data[..., None, :]
        return out

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        axis = self.gamma.data.ndim - 1
        if not (self.training and x.shape[axis] > 1):
            if not is_grad_enabled():
                return Tensor._wrap(self._eval_normalise(x.data))
            mean = Tensor(self.running_mean[..., None, :])
            var = Tensor(self.running_var[..., None, :])
            normalised = (x - mean) / (var + self.eps).sqrt()
            return normalised * self.gamma.unsqueeze(-2) + self.beta.unsqueeze(-2)
        gamma, beta = self.gamma, self.beta
        gamma_bc = gamma.data[..., None, :]
        out_data, mean, var, centered, std, xhat = _bn_train_forward(
            x.data, gamma_bc, beta.data[..., None, :], self.eps, axis=axis
        )
        self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean[..., 0, :]
        self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var[..., 0, :]
        tracked = [t for t in (x, gamma, beta) if t.requires_grad or t._parents]
        if not (is_grad_enabled() and tracked):
            return Tensor(out_data)
        return Tensor._make(
            out_data,
            [
                (x, lambda g: _bn_backward_x(g, gamma_bc, centered, std, axis=axis)),
                (gamma, lambda g: (g * xhat).sum(axis=axis)),
                (beta, lambda g: g.sum(axis=axis)),
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
                data += layer.bias.data[..., None, :]
        elif isinstance(layer, BatchNorm1d) and not (
            layer.training and _rows(data, layer.gamma.data.ndim - 1) > 1
        ):
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
# ``seed_segment_sum``).  The layers here, the containers and the
# fixed-weight convs are stacked by :func:`stack_instance` into an
# instance of their own class, whose forward tells a stack from a plain
# model by the rank of its parameters or activations; only the layers
# whose stacked arithmetic differs keep a ``Seed*`` class.  Stacked
# modules keep the attribute names of their per-seed templates, which
# makes the dotted parameter and buffer names line up one-to-one, so
# :func:`sync_seed` loads a single seed's slice straight back into a
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


def _named_modules(module: Module, path: str = ""):
    """Yield ``(dotted path, module)`` for ``module`` and every descendant."""
    yield path, module
    for name, child in module._modules.items():
        yield from _named_modules(child, f"{path}.{name}" if path else name)


def _layout(module: Module) -> list[tuple[str, tuple]]:
    """``(dotted name, shape)`` of every parameter and buffer, in traversal order."""
    params = [(name, p.data.shape) for name, p in module.named_parameters()]
    return params + [(name, np.shape(value)) for name, value in module.named_buffers()]


def _describe(entry) -> str:
    return "nothing there" if entry is None else f"{entry[0]!r} of shape {entry[1]}"


def _check_roster(modules: list[Module]) -> None:
    """Raise :class:`SeedStackingError` at the first difference from ``modules[0]``.

    Submodule types are compared path by path, then the dotted name and
    shape of every parameter and buffer.  A stacker builds from the first
    module's structure, so a seed whose depth or widths differ would
    otherwise stack into a model that is not its own.
    """
    template_types = {path: type(m) for path, m in _named_modules(modules[0])}
    template_layout = _layout(modules[0])
    for k, module in enumerate(modules[1:], start=1):
        for path, child in _named_modules(module):
            kind = type(child)
            ours = template_types.get(path, kind)
            if ours is not kind:
                where = f" at {path!r}" if path else ""
                raise SeedStackingError(
                    f"cannot stack heterogeneous modules: {ours.__name__} vs {kind.__name__}{where}"
                )
        for ours, theirs in zip_longest(template_layout, _layout(module)):
            if ours != theirs:
                raise SeedStackingError(
                    f"cannot stack {type(module).__name__} modules: module 0 has "
                    f"{_describe(ours)}, module {k} has {_describe(theirs)}"
                )


def stack_seed_modules(modules: list[Module]) -> Module:
    """Stack K structurally identical per-seed modules into one batched module.

    Raises :class:`SeedStackingError` (a ``TypeError``) when the modules
    differ in submodule types or in their parameter and buffer names and
    shapes, or when no stacker covers the module type.  The registry spans
    the whole encoder roster.
    """
    modules = list(modules)
    if not modules:
        raise ValueError("need at least one module to stack")
    _check_roster(modules)
    for klass in type(modules[0]).__mro__:
        stacker = _SEED_STACKERS.get(klass)
        if stacker is not None:
            return stacker(modules)
    raise SeedStackingError(
        f"no multi-seed stacker registered for {type(modules[0]).__name__}; "
        "register one with register_seed_stacker"
    )


def stack_instance(modules: list[Module]) -> Module:
    """Stack K modules into a new instance of their own class.

    Each parameter of the template ``modules[0]`` and each array it names
    in ``_buffer_names`` becomes a new array stacked along a leading seed
    axis, each child module is stacked through the registry, a random
    generator becomes the tuple of every seed's own (shared, not copied),
    and every other instance attribute (the plain settings: widths,
    flags, the readout) is the template's; a roster whose settings differ
    raises :class:`SeedStackingError`.  The stack is built, not copied: an
    instance attribute that shadows a method, such as a per-instance
    ``forward`` wrapper, belongs to that one module and is left out.  The
    class's forward must accept ``(K, n, h)`` activations as well as
    ``(n, h)`` ones.
    """
    template = modules[0]
    cls = type(template)
    stack = object.__new__(cls)
    Module.__init__(stack)
    for name, value in vars(template).items():
        if name in vars(stack) or callable(getattr(cls, name, None)):
            continue
        values = [getattr(m, name) for m in modules]
        if isinstance(value, Parameter):
            value = Parameter(np.stack([v.data for v in values]), name=value.name)
        elif isinstance(value, Module):
            value = stack_seed_modules(values)
        elif name in cls._buffer_names:
            value = np.stack(values)
        elif isinstance(value, np.random.Generator):
            value = tuple(values)
        elif any(v != value for v in values[1:]):
            raise SeedStackingError(f"cannot stack {cls.__name__} modules with differing {name!r} settings")
        setattr(stack, name, value)
    return stack


def sync_seed(stack: Module, k: int, model: Module) -> None:
    """Load seed ``k`` of ``stack`` into ``model``, one of its plain seeds.

    Seed ``k``'s slice of every stacked parameter and buffer is copied into
    the model's entry of the same dotted name.  A plain buffer that the
    stack holds as a shared setting instead (``PNAConv.degree_scale``) is
    left as it is.
    """
    model.load_state_dict({name: p.data[k] for name, p in stack.named_parameters()})
    owners = dict(_named_modules(model))
    for name, value in stack.named_buffers():
        path, _, attr = name.rpartition(".")
        setattr(owners[path], attr, value[k].copy())


for _cls in (Linear, BatchNorm1d, Dropout, MLP, Identity, ReLU, Tanh, Sigmoid, LeakyReLU):
    register_seed_stacker(_cls)(stack_instance)


def _stack_items(modules):
    """Stack a container roster position by position."""
    return [stack_seed_modules([m[i] for m in modules]) for i in range(len(modules[0]))]


register_seed_stacker(Sequential)(lambda modules: Sequential(*_stack_items(modules)))
register_seed_stacker(ModuleList)(lambda modules: ModuleList(_stack_items(modules)))
