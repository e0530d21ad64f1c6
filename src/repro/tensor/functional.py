"""Functional helpers built on top of :class:`repro.tensor.Tensor`.

These free functions mirror the small subset of ``torch.nn.functional``
the models in this repository use: row-wise softmax / log-softmax,
numerically stable binary cross entropy, mean squared error, L2
normalisation, and a sparse-dense matrix product (``spmm``) for GCN
propagation with scipy CSR matrices.

The module also hosts the *fused* training kernels of the fast training
engine (DESIGN.md, "Fast training engine"):

* :func:`gae_reconstruction_loss` — the GAE objective
  ``λ·mean((A−A')²) + (1−λ)·mean((X−X')²)`` as a single tape node.  The
  unfused expression records ten tape nodes and allocates ~7 full ``n×n``
  temporaries per epoch (forward intermediates, the ``ones_like`` seed
  gradient, per-op backward products); the fused kernel keeps two forward
  residuals and writes one backward product per term, while reproducing
  the unfused float64 forward value and gradients *bit for bit* (it
  applies the identical scalar operations in the identical order).

The TPGCL group encoder keeps its fused kernel next to its parameters,
in :meth:`repro.gcl.encoder.GroupEncoder.encode_batch`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.tensor.tensor import Tensor


def spmm(matrix: Union[sp.spmatrix, np.ndarray], x: Tensor) -> Tensor:
    """Product ``matrix @ x`` where ``matrix`` is a constant sparse matrix.

    The matrix (typically a normalised adjacency) is a constant of the
    optimisation problem, so gradients flow only into ``x``:
    ``d(loss)/dx = matrixᵀ @ d(loss)/d(out)``.  Dense inputs fall back to
    the ordinary autodiff matmul.  The matrix is cast to ``x``'s dtype, so
    a float32 graph runs float32 sparse products end to end.
    """
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    if not sp.issparse(matrix):
        return Tensor(np.asarray(matrix, dtype=x_t.data.dtype)) @ x_t
    csr = matrix.tocsr()
    if csr.dtype != x_t.data.dtype:
        csr = csr.astype(x_t.data.dtype)
    data = np.asarray(csr @ x_t.data)

    def backward(grad: np.ndarray) -> None:
        x_t._accumulate(np.asarray(csr.T @ np.asarray(grad)), owned=True)

    return Tensor._make(data, (x_t,), backward, "spmm")


def _workspace_buffer(workspace, key: str, shape, dtype) -> np.ndarray:
    """Fetch (or lazily allocate) a reusable array from a workspace dict."""
    buffer = workspace.get(key)
    if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
        buffer = np.empty(shape, dtype=dtype)
        workspace[key] = buffer
    return buffer


def gae_reconstruction_loss(
    structure_hat: Tensor,
    structure_target: np.ndarray,
    attribute_hat: Tensor,
    attribute_target: np.ndarray,
    structure_weight: float,
    workspace: Optional[dict] = None,
) -> Tensor:
    """Fused GAE objective ``λ·mean((A−A')²) + (1−λ)·mean((X−X')²)``.

    Bit-identical in value and gradients to the unfused autodiff graph

    .. code-block:: python

        ((structure_hat - A) ** 2).mean() * lam \
            + ((attribute_hat - X) ** 2).mean() * (1.0 - lam)

    but recorded as one tape node: the only retained intermediates are the
    two residual matrices, and each backward pass performs exactly one
    full-size multiply per term.  Targets are constants of the problem
    (no gradient flows into them).

    ``workspace`` (an ordinary dict owned by the training loop) makes the
    kernel allocation-free across epochs: residuals and squared residuals
    are written into persistent buffers, and the backward product is formed
    in place over the residual.  The gradient handed to ``structure_hat``
    then *is* the workspace buffer — valid for the current backward pass,
    overwritten by the next forward — which is exactly the lifetime a
    training step needs.  Pass ``None`` (default) for fully independent
    gradient arrays.
    """
    s_hat = structure_hat if isinstance(structure_hat, Tensor) else Tensor(structure_hat)
    a_hat = attribute_hat if isinstance(attribute_hat, Tensor) else Tensor(attribute_hat)
    s_target = np.asarray(structure_target)
    a_target = np.asarray(attribute_target)
    lam = float(structure_weight)

    # Forward: the exact op sequence of the unfused graph (sub, pow 2,
    # sum, * 1/size, * weight, add) so float64 values match bitwise
    # (x ** 2 is computed as x·x by numpy, which the buffered path mirrors).
    if workspace is None:
        s_diff = s_hat.data - s_target
        a_diff = a_hat.data - a_target
        s_sq, a_sq = s_diff ** 2, a_diff ** 2
    else:
        s_diff = np.subtract(
            s_hat.data, s_target,
            out=_workspace_buffer(workspace, "s_diff", s_hat.data.shape, s_hat.data.dtype),
        )
        a_diff = np.subtract(
            a_hat.data, a_target,
            out=_workspace_buffer(workspace, "a_diff", a_hat.data.shape, a_hat.data.dtype),
        )
        s_sq = np.multiply(
            s_diff, s_diff,
            out=_workspace_buffer(workspace, "s_sq", s_diff.shape, s_diff.dtype),
        )
        a_sq = np.multiply(
            a_diff, a_diff,
            out=_workspace_buffer(workspace, "a_sq", a_diff.shape, a_diff.dtype),
        )
    s_mean = s_sq.sum() * (1.0 / s_diff.size)
    a_mean = a_sq.sum() * (1.0 / a_diff.size)
    loss = s_mean * lam + a_mean * (1.0 - lam)

    def backward(grad: np.ndarray) -> None:
        # Mirrors the unfused chain: each residual's upstream coefficient
        # is ((g * weight) * (1/size)) * 2, applied in that order.
        g = np.asarray(grad)
        s_coeff = ((g * lam) * (1.0 / s_diff.size)) * 2
        a_coeff = ((g * (1.0 - lam)) * (1.0 / a_diff.size)) * 2
        if workspace is None:
            s_grad = s_coeff * s_diff
            a_grad = a_coeff * a_diff
        else:
            s_grad = np.multiply(s_diff, s_coeff, out=s_diff)
            a_grad = np.multiply(a_diff, a_coeff, out=a_diff)
        s_hat._accumulate(s_grad, owned=True)
        a_hat._accumulate(a_grad, owned=True)

    return Tensor._make(np.asarray(loss), (s_hat, a_hat), backward, "gae_loss")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log of the softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between ``prediction`` and ``target``."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target.detach()
    return (diff * diff).mean()


def binary_cross_entropy(prediction: Tensor, target: Tensor, eps: float = 1e-7) -> Tensor:
    """Binary cross entropy for probabilities in ``[0, 1]``."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    clipped = prediction.clip(eps, 1.0 - eps)
    loss = -(target_t.detach() * clipped.log() + (1.0 - target_t.detach()) * (1.0 - clipped).log())
    return loss.mean()


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalise rows (or the given axis) of ``x`` to unit L2 norm."""
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps) ** 0.5
    return x / norm


def row_errors(prediction: np.ndarray, target: np.ndarray, ord: int = 2) -> np.ndarray:
    """Per-row reconstruction error (plain numpy helper, no gradients).

    Used by the GAE family to turn reconstructed matrices into per-node
    anomaly scores, cf. Eqn. (1) of the paper.
    """
    diff = np.asarray(prediction, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    if ord == 2:
        return np.sqrt((diff ** 2).sum(axis=1))
    return np.abs(diff).sum(axis=1)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (thin wrapper for discoverability)."""
    return Tensor.concatenate(tensors, axis=axis)
