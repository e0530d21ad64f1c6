"""Functional helpers built on top of :class:`repro.tensor.Tensor`.

The one free function the models use is the sparse-dense matrix
product :func:`spmm` (``torch.sparse.mm``), for GCN propagation with
scipy CSR matrices.

The fused training kernels of the fast training engine (DESIGN.md, "Fast
training engine") live next to the models they serve: the tiled GAE
objective in :class:`repro.gae.autoencoder._ReconstructionLoss`, the TPGCL
group encoder in :meth:`repro.gcl.encoder.GroupEncoder.encode_batch`.
"""

from __future__ import annotations

from typing import Union

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
