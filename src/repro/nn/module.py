"""Module system: parameter registration, traversal, train/eval modes.

Mirrors the part of ``torch.nn.Module`` the reproduction needs: automatic
discovery of parameters and submodules via attribute assignment, recursive
``parameters()`` / ``named_parameters()``, ``train()`` / ``eval()`` mode
switching, and state-dict save/load for checkpointing in the harness.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by :class:`Module`."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are discovered automatically for optimisation,
    checkpointing, and mode switching.

    Besides parameters, a module may carry *buffers*: non-trainable numpy
    state that still matters for inference (batch-norm running statistics).
    A subclass declares them by listing attribute names in the class
    attribute ``_buffer_names``; they then travel with checkpoints and
    model artifacts via :meth:`buffer_dict` / :meth:`load_buffer_dict`.
    """

    _buffer_names: tuple = ()

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module and its children."""
        return [p for _name, p in self.named_parameters()]

    def named_parameters(self, prefix: str = ""):
        """Yield ``(dotted_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self):
        """Yield this module and all descendants."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.data.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Modes and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode on this module and every descendant."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Switch to evaluation mode (disables dropout, fixes BN stats)."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    def to_dtype(self, dtype) -> "Module":
        """Cast every float parameter and buffer to ``dtype``, in place.

        The dtype-propagation half of the compute-dtype policy (see
        :func:`repro.autograd.compute_dtype`): once a model's parameters
        and buffers are float32, every GEMM and elementwise op on them
        produces float32 activations.  Non-float buffers (e.g. scalar
        hyper-parameters recorded as buffers) are left untouched.
        Returns ``self`` for chaining.
        """
        from repro.autograd.tensor import as_compute_dtype

        dtype = as_compute_dtype(dtype)
        for p in self.parameters():
            if p.data.dtype.kind == "f" and p.data.dtype != dtype:
                p.data = p.data.astype(dtype)
        for module in self.modules():
            for name in module._buffer_names:
                value = getattr(module, name)
                if isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.dtype != dtype:
                    setattr(module, name, value.astype(dtype))
        return self

    @property
    def param_dtype(self):
        """Dtype of the first parameter (None for parameter-free modules)."""
        for p in self.parameters():
            return p.data.dtype
        return None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def named_buffers(self, prefix: str = ""):
        """Yield ``(dotted_name, array)`` for every declared buffer, recursively."""
        for name in self._buffer_names:
            yield (f"{prefix}{name}", getattr(self, name))
        for name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{name}.")

    def buffer_dict(self) -> dict[str, np.ndarray]:
        """Copy of every buffer keyed by dotted name (see ``_buffer_names``)."""
        return {name: np.asarray(value).copy() for name, value in self.named_buffers()}

    def load_buffer_dict(self, buffers: dict[str, np.ndarray]) -> None:
        """Load buffer values saved by :meth:`buffer_dict` (strict matching)."""
        own: dict[str, tuple[Module, str]] = {}

        def walk(module: "Module", prefix: str) -> None:
            for name in module._buffer_names:
                own[f"{prefix}{name}"] = (module, name)
            for name, child in module._modules.items():
                walk(child, f"{prefix}{name}.")

        walk(self, "")
        missing = set(own) - set(buffers)
        unexpected = set(buffers) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"buffer dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, values in buffers.items():
            module, attr = own[name]
            values = np.asarray(values)
            current = np.asarray(getattr(module, attr))
            if current.shape != values.shape:
                raise ValueError(f"shape mismatch for buffer {name}: {current.shape} vs {values.shape}")
            setattr(module, attr, values.copy())

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values saved by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, values in state.items():
            param = own[name]
            if param.data.shape != values.shape:
                raise ValueError(f"shape mismatch for {name}: {param.data.shape} vs {values.shape}")
            param.data = values.copy()

    # ------------------------------------------------------------------
    # Calling
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        """Compute the module's output; subclasses must override."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self):
        return len(self.layers)

    def __getitem__(self, idx):
        return self.layers[idx]


class ModuleList(Module):
    """List container whose entries are registered as submodules."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        """Register and append a submodule."""
        self._modules[str(len(self._items))] = module
        self._items.append(module)
        return self

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, idx) -> Module:
        return self._items[idx]
