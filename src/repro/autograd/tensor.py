"""The :class:`Tensor` class and its primitive differentiable operations.

The engine is a classic define-by-run tape: every operation on tensors with
``requires_grad=True`` records its parents together with a closure that maps
the output gradient to a gradient contribution for that parent.
:meth:`Tensor.backward` walks the recorded graph in reverse topological
order, accumulates gradients on its leaves and frees the tape as it goes.

Only the operations the reproduction actually needs are implemented; each
one handles numpy broadcasting by summing gradient contributions over the
broadcast axes (see :func:`_unbroadcast`).
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

_state = threading.local()

# ``Tensor._parents`` of a node whose tape ``backward()`` has released.  It
# is truthy, so ops still record the node as taped, and a later backward()
# that reaches it raises instead of treating it as a leaf.
_RELEASED = object()


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd tape."""
    return getattr(_state, "grad_enabled", True)


_SUPPORTED_DTYPES = {"float64": np.float64, "float32": np.float32}


def as_compute_dtype(dtype) -> np.dtype:
    """Normalise a user-facing dtype spec to a supported numpy dtype.

    Accepts ``"float64"``/``"float32"`` strings, numpy dtypes/scalar types
    and ``None`` (the current default).  The compute policy is exactly
    two-valued — float64 is the reference precision, float32 the fast
    serving mode — so anything else is rejected here, once, with a clear
    message instead of failing deep inside a kernel.
    """
    if dtype is None:
        return get_default_dtype()
    resolved = np.dtype(dtype)
    if resolved.name not in _SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported compute dtype {resolved.name!r}; choose float64 or float32"
        )
    return resolved


def get_default_dtype() -> np.dtype:
    """The dtype floating-point tensor data is coerced to (default float64)."""
    return getattr(_state, "default_dtype", None) or np.dtype(np.float64)


def set_default_dtype(dtype) -> None:
    """Set the coercion dtype for this thread (prefer :func:`compute_dtype`)."""
    _state.default_dtype = as_compute_dtype(dtype)


@contextlib.contextmanager
def compute_dtype(dtype):
    """Context manager selecting the float compute precision.

    Inside ``compute_dtype(np.float32)`` every :class:`Tensor` constructed
    from float data (inputs, forward-time constants like normalisation
    coefficients) is stored as float32, so arithmetic between them stays
    in float32 end to end.  Operation *results* always keep the dtype
    numpy derives from their operands — the context only governs the
    coercion boundary.  The serving engine wraps its forwards in this
    context (``InferenceEngine(dtype="float32")``); training defaults to
    float64, the precision the parity suites pin down.
    """
    previous = getattr(_state, "default_dtype", None)
    _state.default_dtype = as_compute_dtype(dtype)
    try:
        yield
    finally:
        _state.default_dtype = previous


@contextlib.contextmanager
def no_grad():
    """Context manager that disables tape recording (like ``torch.no_grad``)."""
    previous = is_grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = previous


@contextlib.contextmanager
def inference_mode():
    """Tape-free forward context — the serving hot path (see ``docs/ARCHITECTURE.md``).

    Inside this context every operation takes its no-tape fast path: results
    are built by :meth:`Tensor._wrap`, which skips tape-node allocation,
    closure creation, ``requires_grad`` bookkeeping, and the dtype coercion
    of the full constructor.  Outputs are arithmetically *and bitwise*
    identical to the taped forward (``tests/test_tape_free.py``); calling
    :meth:`Tensor.backward` on a result raises a clear error.

    Semantically equivalent to :func:`no_grad` (delegates to it, so they
    nest freely and can never drift apart); the separate name marks the
    inference/serving entry points, mirroring ``torch.inference_mode``.
    """
    with no_grad():
        yield


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after a broadcast op.

    Numpy broadcasting may have (a) prepended axes and (b) stretched
    length-1 axes.  The adjoint of broadcasting is summation over exactly
    those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over stretched axes.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _matmul_adjoints(a_data: np.ndarray, b_data: np.ndarray):
    """The ``(grad_a, grad_b)`` closures of ``a @ b``.

    Shared by ``Tensor.__matmul__`` and the single-node
    :func:`repro.autograd.functional.linear`, so both back-propagate
    through the same expressions.
    """

    def grad_a(g):
        if b_data.ndim == 1:
            return np.outer(g, b_data) if a_data.ndim == 2 else g * b_data
        ga = g @ np.swapaxes(b_data, -1, -2)
        return _unbroadcast(ga, a_data.shape)

    def grad_b(g):
        if a_data.ndim == 1:
            return np.outer(a_data, g) if b_data.ndim == 2 else g * a_data
        gb = np.swapaxes(a_data, -1, -2) @ g
        return _unbroadcast(gb, b_data.shape)

    return grad_a, grad_b


def as_tensor(value, requires_grad: bool = False) -> "Tensor":
    """Coerce ``value`` (Tensor, ndarray, scalar, list) to a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


class Tensor:
    """A numpy array plus an optional gradient and autograd history.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.  Floating point data is kept in
        float64 for numerically stable finite-difference checks.
    requires_grad:
        Whether :meth:`backward` should propagate gradients to this
        tensor.  Gradients accumulate into :attr:`grad` on leaves only —
        tensors with no recorded parents, such as parameters and user
        inputs; operation results keep ``grad=None``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, _parents=None, name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind in "fc":
            arr = arr.astype(get_default_dtype(), copy=False)
        elif requires_grad:
            arr = arr.astype(get_default_dtype())
        enabled = is_grad_enabled()
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad) and enabled
        # List of (parent_tensor, grad_fn) pairs; grad_fn: ndarray -> ndarray.
        self._parents = _parents if (_parents and enabled) else []
        self.name = name

    @staticmethod
    def _wrap(data) -> "Tensor":
        """Fast no-tape constructor for operation results.

        Every no-tape branch below returns through here: the operand data is
        already a fresh ndarray produced by a numpy op, so the full
        constructor's coercion (``asarray`` round-trip, dtype-kind check,
        ``astype``) and grad-mode bookkeeping are skipped.  This is the
        tape-free inference hot path — under :func:`inference_mode` a
        forward allocates exactly one slim Tensor per op and nothing else.
        """
        out = Tensor.__new__(Tensor)
        out.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out.name = ""
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        """Array shape."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """Numpy dtype of the underlying array."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transposed view (differentiable)."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy); breaks the tape."""
        return self.data

    def item(self) -> float:
        """The single scalar value of a one-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Deep copy of the data, detached from the tape."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    def _needs_tape(self, *others: "Tensor") -> bool:
        if not is_grad_enabled():
            return False
        return self.requires_grad or any(o.requires_grad for o in others)

    @staticmethod
    def _make(data, parents) -> "Tensor":
        # Slim construction: operation results are fresh ndarrays whose
        # dtype numpy already derived from the operands, so the
        # constructor's coercion to the default dtype is skipped — this is
        # what lets float32 activations flow through taped ops unchanged.
        live = [(p, fn) for p, fn in parents if p.requires_grad or p._parents]
        out = Tensor.__new__(Tensor)
        out.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        out.grad = None
        out.requires_grad = bool(live)
        out._parents = live
        out.name = ""
        return out

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor.

        Gradients accumulate into ``.grad`` on leaves only.  The walk frees
        the tape as it goes: once a node has fed its parents, its
        ``(parent, grad_fn)`` pairs, and the forward arrays their closures
        hold, are released.  So the graph can be backpropagated once, as
        in PyTorch without ``retain_graph``.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to ``1`` which requires this tensor to be a scalar.

        Raises
        ------
        RuntimeError
            When this tensor carries no autograd history — typically
            because the forward ran inside :func:`no_grad` /
            :func:`inference_mode` (the tape-free serving path), or
            because no input required grad.  Also when the walk reaches a
            node an earlier ``backward()`` released; no ``.grad`` is
            touched then.
        """
        if not self._parents and not self.requires_grad:
            raise RuntimeError(
                "backward() called on a tensor with no autograd history: the "
                "forward ran with the tape disabled (no_grad()/inference_mode()) "
                "or none of its inputs had requires_grad=True; re-run the "
                "forward outside the tape-free context to train"
            )
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad_dtype = self.data.dtype if self.data.dtype.kind == "f" else np.float64
            grad = np.asarray(grad, dtype=grad_dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
                )

        # Reverse topological order over the recorded graph.  It is built in
        # full before any gradient flows, so a released node aborts the call
        # with every ``.grad`` untouched.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._parents is _RELEASED:
                raise RuntimeError(
                    "backward() reached a tensor whose tape an earlier backward() "
                    "already freed; trying to backward through the same graph a "
                    "second time: re-run the forward to build a fresh tape"
                )
            visited.add(id(node))
            stack.append((node, True))
            for parent, _fn in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # Popping ``order`` as the walk goes, then releasing each node's
        # ``(parent, grad_fn)`` pairs once it has fed its parents, frees the
        # forward arrays those closures hold while the rest of the walk
        # runs.  Intermediate gradients live only in ``grads``; leaves keep
        # theirs.
        grads: dict[int, np.ndarray] = {id(self): grad}
        while order:
            node = order.pop()
            parents = node._parents
            node_grad = grads.pop(id(node), None)
            if not parents:
                if node_grad is not None and node.requires_grad:
                    node.grad = node_grad.copy() if node.grad is None else node.grad + node_grad
                continue
            node._parents = _RELEASED
            if node_grad is None:
                continue
            for parent, fn in parents:
                contribution = fn(node_grad)
                if contribution is None:
                    continue
                existing = grads.get(id(parent))
                grads[id(parent)] = (
                    contribution if existing is None else existing + contribution
                )

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data
        if not self._needs_tape(other):
            return Tensor._wrap(out_data)
        return self._make(
            out_data,
            [
                (self, lambda g: _unbroadcast(g, self.shape)),
                (other, lambda g: _unbroadcast(g, other.shape)),
            ],
        )

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        if not self._needs_tape():
            return Tensor._wrap(-self.data)
        return self._make(-self.data, [(self, lambda g: -g)])

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data
        if not self._needs_tape(other):
            return Tensor._wrap(out_data)
        a_data, b_data = self.data, other.data
        return self._make(
            out_data,
            [
                (self, lambda g: _unbroadcast(g * b_data, self.shape)),
                (other, lambda g: _unbroadcast(g * a_data, other.shape)),
            ],
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data
        if not self._needs_tape(other):
            return Tensor._wrap(out_data)
        a_data, b_data = self.data, other.data
        return self._make(
            out_data,
            [
                (self, lambda g: _unbroadcast(g / b_data, self.shape)),
                (other, lambda g: _unbroadcast(-g * a_data / (b_data**2), other.shape)),
            ],
        )

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        base = self.data
        return self._make(
            out_data,
            [(self, lambda g: g * exponent * base ** (exponent - 1))],
        )

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data
        if not self._needs_tape(other):
            return Tensor._wrap(out_data)
        grad_a, grad_b = _matmul_adjoints(self.data, other.data)
        return self._make(out_data, [(self, grad_a), (other, grad_b)])

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable, return plain numpy bools)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        return self._make(out_data, [(self, lambda g: g * out_data)])

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        out_data = np.log(self.data)
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        base = self.data
        return self._make(out_data, [(self, lambda g: g / base)])

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        out_data = np.sqrt(self.data)
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        return self._make(out_data, [(self, lambda g: g * 0.5 / out_data)])

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient sign(x))."""
        out_data = np.abs(self.data)
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        sign = np.sign(self.data)
        return self._make(out_data, [(self, lambda g: g * sign)])

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        return self._make(out_data, [(self, lambda g: g * (1.0 - out_data**2))])

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid (input clipped for stability)."""
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        return self._make(out_data, [(self, lambda g: g * out_data * (1.0 - out_data))])

    def relu(self) -> "Tensor":
        """Elementwise max(x, 0)."""
        out_data = np.maximum(self.data, 0.0)
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        mask = self.data > 0
        return self._make(out_data, [(self, lambda g: g * mask)])

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        """Elementwise leaky ReLU with the given negative slope."""
        factor = np.where(self.data > 0, 1.0, negative_slope)
        if self.data.dtype.kind == "f":
            factor = factor.astype(self.data.dtype, copy=False)
        out_data = self.data * factor
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        return self._make(out_data, [(self, lambda g: g * factor)])

    def cos(self) -> "Tensor":
        """Elementwise cosine."""
        out_data = np.cos(self.data)
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        base = self.data
        return self._make(out_data, [(self, lambda g: -g * np.sin(base))])

    def sin(self) -> "Tensor":
        """Elementwise sine."""
        out_data = np.sin(self.data)
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        base = self.data
        return self._make(out_data, [(self, lambda g: g * np.cos(base))])

    def clip(self, low: float | None, high: float | None) -> "Tensor":
        """Clamp values to [low, high]; gradient is zero outside."""
        out_data = np.clip(self.data, low, high)
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        mask = np.ones_like(self.data)
        if low is not None:
            mask = mask * (self.data >= low)
        if high is not None:
            mask = mask * (self.data <= high)
        return self._make(out_data, [(self, lambda g: g * mask)])

    def softplus(self) -> "Tensor":
        """Elementwise log(1 + exp(x)), computed stably."""
        # Numerically stable log(1 + exp(x)).
        out_data = np.logaddexp(0.0, self.data)
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        sig = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        return self._make(out_data, [(self, lambda g: g * sig)])

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when None)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        shape = self.shape

        def grad_fn(g):
            if axis is None:
                return np.broadcast_to(g, shape).copy()
            g_exp = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(g_exp, shape).copy()

        return self._make(out_data, [(self, grad_fn)])

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``."""
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance over ``axis``."""
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def std(self, axis=None, keepdims: bool = False, eps: float = 1e-12) -> "Tensor":
        """Standard deviation over ``axis`` (eps-stabilised)."""
        return (self.var(axis=axis, keepdims=keepdims) + eps).sqrt()

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; ties split the gradient evenly."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        base = self.data

        def grad_fn(g):
            if axis is None:
                mask = base == out_data
                return np.where(mask, 1.0, 0.0) / mask.sum() * g
            expanded = out_data if keepdims else np.expand_dims(out_data, axis)
            mask = base == expanded
            counts = mask.sum(axis=axis, keepdims=True)
            g_exp = g if keepdims else np.expand_dims(g, axis)
            return mask * (g_exp / counts)

        return self._make(out_data, [(self, grad_fn)])

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Minimum over ``axis`` (via ``-max(-x)``)."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """View with a new shape (differentiable)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        original = self.shape
        return self._make(out_data, [(self, lambda g: g.reshape(original))])

    def transpose(self, axes=None) -> "Tensor":
        """Permute axes (defaults to full reversal)."""
        out_data = self.data.transpose(axes)
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        if axes is None:
            inverse = None
        else:
            inverse = tuple(np.argsort(axes))
        return self._make(out_data, [(self, lambda g: g.transpose(inverse))])

    def squeeze(self, axis=None) -> "Tensor":
        """Drop length-1 axes."""
        out_data = self.data.squeeze(axis)
        original = self.shape
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        return self._make(out_data, [(self, lambda g: g.reshape(original))])

    def unsqueeze(self, axis: int) -> "Tensor":
        """Insert a length-1 axis at ``axis``."""
        out_data = np.expand_dims(self.data, axis)
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        return self._make(out_data, [(self, lambda g: np.squeeze(g, axis=axis))])

    def broadcast_to(self, shape) -> "Tensor":
        """Broadcast to ``shape``; the adjoint sums over broadcast axes."""
        out_data = np.broadcast_to(self.data, shape)
        if not self._needs_tape():
            return Tensor._wrap(out_data.copy())
        original = self.shape
        return self._make(out_data.copy(), [(self, lambda g: _unbroadcast(g, original))])

    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data
        if (
            isinstance(index, np.ndarray)
            and index.ndim == 1
            and index.dtype.kind in "iu"
            and index.size
            and not self._needs_tape()
        ):
            # Row-gather fast path (message passing under inference_mode):
            # np.take with mode="clip" skips ufunc buffering, ~4x faster
            # than fancy indexing at packed-batch shapes.  Numpy's indexing
            # semantics (bounds errors, negative wrap) are enforced first,
            # and the copied values are identical to ``self.data[index]``.
            data = self.data
            n = data.shape[0]
            lo, hi = int(index.min()), int(index.max())
            if hi >= n or lo < -n:
                raise IndexError(
                    f"index out of bounds for axis 0 with size {n}: range [{lo}, {hi}]"
                )
            if lo < 0:
                index = np.where(index < 0, index + n, index)
            out_data = np.empty((index.size,) + data.shape[1:], dtype=data.dtype)
            np.take(data, index, axis=0, out=out_data, mode="clip")
            return Tensor._wrap(out_data)
        out_data = self.data[index]
        if not self._needs_tape():
            return Tensor._wrap(out_data)
        shape = self.shape

        def grad_fn(g):
            full = np.zeros(shape, dtype=g.dtype if g.dtype.kind == "f" else np.float64)
            if isinstance(index, np.ndarray) and index.ndim == 1 and index.dtype.kind in "iu":
                # Row gather (the message-passing hot path): route through
                # the sparse-matmul/bincount scatter, much faster than
                # ufunc.at on multi-dimensional gradients.
                from repro.autograd.functional import scatter_add_rows

                scatter_add_rows(full, index, g)
            else:
                np.add.at(full, index, g)
            return full

        return self._make(out_data, [(self, grad_fn)])

    # ------------------------------------------------------------------
    # Scatter / segment primitives (the core of message passing)
    # ------------------------------------------------------------------
    def index_add(self, index: np.ndarray, source: "Tensor") -> "Tensor":
        """Return ``self`` with ``source`` rows scatter-added at ``index``.

        Equivalent to ``out = self.copy(); out[index] += source`` with
        duplicate indices accumulating, differentiable in both operands.
        """
        source = as_tensor(source)
        index = np.asarray(index, dtype=np.int64)
        out_data = self.data.copy()
        np.add.at(out_data, index, source.data)
        if not self._needs_tape(source):
            return Tensor._wrap(out_data)
        return self._make(
            out_data,
            [(self, lambda g: g), (source, lambda g: g[index])],
        )


def concatenate(tensors, axis: int = 0) -> Tensor:
    """Differentiable ``np.concatenate`` over a list of tensors."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    if not any(t.requires_grad or t._parents for t in tensors) or not is_grad_enabled():
        return Tensor._wrap(out_data)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    parents = []
    for i, t in enumerate(tensors):
        start, stop = offsets[i], offsets[i + 1]

        def grad_fn(g, start=start, stop=stop):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(start, stop)
            return g[tuple(slicer)]

        parents.append((t, grad_fn))
    return Tensor._make(out_data, parents)


def stack(tensors, axis: int = 0) -> Tensor:
    """Differentiable ``np.stack``."""
    tensors = [t.unsqueeze(axis) for t in map(as_tensor, tensors)]
    return concatenate(tensors, axis=axis)


def where(condition: np.ndarray, a, b) -> Tensor:
    """Differentiable ``np.where`` with a boolean (non-tensor) condition."""
    condition = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.where(condition, a.data, b.data)
    if not (is_grad_enabled() and (a.requires_grad or a._parents or b.requires_grad or b._parents)):
        return Tensor._wrap(out_data)
    return Tensor._make(
        out_data,
        [
            (a, lambda g: _unbroadcast(np.where(condition, g, 0.0), a.shape)),
            (b, lambda g: _unbroadcast(np.where(condition, 0.0, g), b.shape)),
        ],
    )


def maximum(a, b) -> Tensor:
    """Differentiable elementwise maximum (ties send gradient to ``a``)."""
    a, b = as_tensor(a), as_tensor(b)
    return where(a.data >= b.data, a, b)
