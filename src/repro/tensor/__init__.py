"""Reverse-mode automatic differentiation on top of numpy.

This subpackage is the neural-network substrate of the reproduction: the
paper trains small GCN encoders and MLP heads with Adam, which in the
original implementation relies on PyTorch.  Here we provide a compact
autodiff engine with exactly the operator set those models run.

The public entry point is :class:`Tensor`.  A tensor wraps a numpy array,
remembers the operation that produced it, and :meth:`Tensor.backward`
propagates gradients through the recorded graph.

Example
-------
>>> from repro.tensor import Tensor
>>> w = Tensor([[1.0, 2.0]], requires_grad=True)
>>> x = Tensor([[3.0], [4.0]])
>>> loss = (w @ x).sum()
>>> loss.backward()
>>> w.grad.tolist()
[[3.0, 4.0]]
"""

from repro.tensor.tensor import (
    Tensor,
    no_grad,
    sigmoid_,
    is_grad_enabled,
    default_dtype,
    float_dtype,
    get_default_dtype,
    set_default_dtype,
    tape_node_count,
)
from repro.tensor import functional
from repro.tensor.functional import spmm

__all__ = [
    "Tensor",
    "no_grad",
    "sigmoid_",
    "is_grad_enabled",
    "default_dtype",
    "float_dtype",
    "get_default_dtype",
    "set_default_dtype",
    "tape_node_count",
    "functional",
    "spmm",
]
