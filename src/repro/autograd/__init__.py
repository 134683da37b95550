"""Reverse-mode automatic differentiation over numpy arrays.

This package is the compute substrate for the whole reproduction: the
original OOD-GNN implementation relies on PyTorch autograd, which is not
available in this environment, so an equivalent engine is built here from
scratch.  The public surface mirrors the small subset of torch that the
paper's training loops need:

* :class:`Tensor` — a numpy array with an optional gradient and a recorded
  computation graph.
* :mod:`repro.autograd.functional` — composite differentiable functions
  (softmax, log-softmax, losses live in :mod:`repro.nn`).
* :func:`repro.autograd.grad_check.check_gradients` — finite-difference
  verification used heavily by the test suite.
"""

from repro.autograd.tensor import (
    Tensor,
    as_tensor,
    no_grad,
    inference_mode,
    is_grad_enabled,
    as_compute_dtype,
    compute_dtype,
    get_default_dtype,
    set_default_dtype,
)
from repro.autograd import functional

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "inference_mode",
    "is_grad_enabled",
    "as_compute_dtype",
    "compute_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "functional",
]
