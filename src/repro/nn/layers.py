"""Layers: Linear, MLP and the GCN graph convolution.

The graph convolution follows Kipf & Welling's GCN rule

    H' = act( \\hat{A} H W + b )

where ``\\hat{A}`` is the propagation matrix passed at call time: the
symmetrically normalised adjacency with self loops, or MH-GAE's mix of it
with the GraphSNN weighted adjacency ``Ã`` of Eqn. (4) in the paper.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.nn.init import glorot_uniform, zeros
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor
from repro.tensor.functional import spmm

Activation = Optional[str]
Propagation = Union[np.ndarray, sp.spmatrix]

_ACTIVATIONS: dict = {
    None: lambda x: x,
    "relu": lambda x: x.relu(),
}


def _resolve_activation(name: Activation) -> Callable[[Tensor], Tensor]:
    if name not in _ACTIVATIONS:
        raise ValueError(f"unknown activation '{name}'; choose one of {sorted(k for k in _ACTIVATIONS if k)}")
    return _ACTIVATIONS[name]


class Linear(Module):
    """Dense affine layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(glorot_uniform((in_features, out_features), rng))
        self.bias = Parameter(zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class MLP(Module):
    """Multi-layer perceptron with a configurable hidden activation.

    Used both as the attribute decoder of the GAE family and as the MINE
    statistics network Φ in TPGCL.
    """

    def __init__(
        self,
        dims: Sequence[int],
        rng: np.random.Generator,
        activation: Activation = "relu",
    ) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dimensions")
        self.linears: List[Linear] = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]
        self._activation = _resolve_activation(activation)

    def forward(self, x: Tensor) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        last = len(self.linears) - 1
        for index, linear in enumerate(self.linears):
            x = linear(x)
            if index != last:
                x = self._activation(x)
        return x


class GCNConv(Module):
    """Graph convolution ``act(\\hat{A} X W + b)`` with a precomputed propagation matrix.

    The propagation matrix is passed at call time — either a plain numpy
    array or a ``scipy.sparse`` matrix (it is a constant of the optimisation
    problem), so the same layer works with the normalised adjacency, its
    k-th powers, or the GraphSNN ``Ã``.  Sparse propagation never densifies
    ``\\hat{A}``: forward and backward both run as sparse-dense products.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        activation: Activation = "relu",
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.linear = Linear(in_features, out_features, rng, bias=bias)
        self._activation = _resolve_activation(activation)

    def forward(self, x: Tensor, propagation: Propagation) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        support = self.linear(x)
        if sp.issparse(propagation):
            return self._activation(spmm(propagation, support))
        propagated = Tensor(np.asarray(propagation, dtype=support.data.dtype)) @ support
        return self._activation(propagated)
