"""Adjacency transforms: normalisation, k-hop powers and GraphSNN weights.

These are the reconstruction targets explored by MH-GAE (Sec. V-B and the
Table IV ablation of the paper):

* the plain adjacency ``A`` (vanilla GAE / DOMINANT),
* standardised k-th powers ``A^k`` capturing k-hop reachability mass,
* the GraphSNN weighted adjacency ``Ã`` of Eqn. (4), built from the overlap
  subgraph between the closed neighbourhoods of each edge's endpoints.

Every transform is computed sparse-first: the work happens on CSR matrices
derived from the graph's edge index and is densified only on request
(``sparse=False``, the default).  The GAE models request CSR and keep it:
their reconstruction targets are stored sparse and densified only inside
training.  See DESIGN.md ("Sparse-first engine") for the layering
rationale.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from repro.graph.graph import Graph

Matrix = Union[np.ndarray, sp.spmatrix]


def row_normalize(matrix: Matrix, eps: float = 1e-12) -> Matrix:
    """Scale each row to sum to one (rows of zeros are left untouched).

    Accepts a dense array or any scipy sparse matrix; the result has the
    same layout as the input (dense in / dense out, sparse in / CSR out).
    """
    if sp.issparse(matrix):
        csr = matrix.tocsr().astype(np.float64)
        sums = np.asarray(csr.sum(axis=1)).ravel()
        scale = np.where(sums < eps, 1.0, sums)
        return sp.diags(1.0 / scale) @ csr
    matrix = np.asarray(matrix, dtype=np.float64)
    sums = matrix.sum(axis=1, keepdims=True)
    sums = np.where(sums < eps, 1.0, sums)
    return matrix / sums


def normalized_adjacency(graph: Graph, add_self_loops: bool = True, sparse: bool = False) -> Matrix:
    """Symmetrically normalised adjacency ``D^{-1/2} (A + I) D^{-1/2}``.

    This is the propagation matrix of the Kipf & Welling GCN used as the
    encoder of every model in the paper.  With ``sparse=True`` the result is
    a CSR matrix with the sparsity of ``A + I``, suitable for
    :func:`repro.tensor.functional.spmm`.
    """
    if sparse:
        adjacency = graph.adjacency(sparse=True)
        if add_self_loops:
            adjacency = adjacency + sp.identity(graph.n_nodes, format="csr")
        degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        inv_sqrt = np.zeros_like(degrees)
        positive = degrees > 0
        inv_sqrt[positive] = degrees[positive] ** -0.5
        scaler = sp.diags(inv_sqrt)
        return (scaler @ adjacency @ scaler).tocsr()
    # Dense path: plain numpy arithmetic beats a sparse round-trip for the
    # small graphs that still want a dense propagation matrix.
    adjacency = graph.adjacency(sparse=False)
    if add_self_loops:
        adjacency = adjacency + np.eye(graph.n_nodes)
    degrees = adjacency.sum(axis=1)
    inv_sqrt = np.zeros_like(degrees)
    positive = degrees > 0
    inv_sqrt[positive] = degrees[positive] ** -0.5
    return (adjacency * inv_sqrt[:, None]) * inv_sqrt[None, :]


def k_hop_matrix(graph: Graph, k: int, standardize: bool = True, sparse: bool = False) -> Matrix:
    """Standardised ``A^k``, the naive multi-hop MH-GAE reconstruction target.

    ``A^k[i, j]`` counts walks of length ``k`` between ``i`` and ``j``;
    standardising (max-scaling into ``[0, 1]``) keeps the reconstruction loss
    comparable across different ``k`` as prescribed by Eqn. (3).  The power
    is accumulated by repeated sparse matrix-matrix products and densified
    only at the end (never via ``np.linalg.matrix_power``).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    adjacency = graph.adjacency(sparse=True)
    power = adjacency.copy()
    for _ in range(k - 1):
        power = power @ adjacency
    if standardize:
        maximum = power.max() if power.nnz else 0.0
        if maximum > 0:
            power = power.multiply(1.0 / maximum).tocsr()
    return power.tocsr() if sparse else power.toarray()


def graphsnn_weighted_adjacency(
    graph: Graph, lam: float = 1.0, normalize: bool = True, sparse: bool = False
) -> Matrix:
    """GraphSNN structural-coefficient weighted adjacency ``Ã`` (Eqn. 4).

    For every edge ``(v, u)`` the weight is determined by the overlap
    subgraph ``S_vu = S_v ∩ S_u`` of the closed neighbourhood subgraphs of
    the endpoints:

        Ã_vu = |E_vu| / (|V_vu| * (|V_vu| - 1)) * |V_vu|^lam

    Larger overlaps (dense, well-connected shared neighbourhoods) yield
    larger weights, letting a reconstruction loss see structure beyond
    one-hop adjacency — exactly the long-range-inconsistency signal MH-GAE
    needs.

    The per-edge overlap statistics are computed without any per-edge Python
    loops.  With ``c(u, v)`` the number of common neighbours of an edge's
    endpoints (an entry of ``A @ A`` restricted to edges) the overlap
    counts decompose as::

        |V_uv| = c(u, v) + 2                      # shared neighbours + both endpoints
        |E_uv| = 1 + 2 c(u, v) + t(u, v)          # (u,v) itself, spokes, and edges
                                                  # between common neighbours

    where ``t(u, v)`` counts edges whose two endpoints are both common
    neighbours of ``u`` and ``v``.  Building the ``n × E`` common-neighbour
    indicator ``M[:, e] = A[:, u_e] ⊙ A[:, v_e]`` gives ``c`` as column sums
    and ``t`` as entries of the sparse product ``M Mᵀ`` at edge positions.

    Parameters
    ----------
    graph:
        Input graph.
    lam:
        The ``λ`` exponent of Eqn. (4).
    normalize:
        When True the matrix is max-scaled into ``[0, 1]`` so it can be used
        directly as a sigmoid-decoder reconstruction target.
    sparse:
        When True return a CSR matrix (same sparsity pattern as ``A``).
    """
    n = graph.n_nodes
    heads, tails = graph.edge_index
    if heads.size == 0:
        empty = sp.csr_matrix((n, n), dtype=np.float64)
        return empty if sparse else empty.toarray()

    adjacency = graph.adjacency(sparse=True).tocsc()
    # Column e of ``common`` flags the nodes adjacent to both endpoints of
    # edge e.  Diagonal-free A guarantees the endpoints themselves (and any
    # edge sharing an endpoint with e) contribute nothing downstream.
    common = adjacency[:, heads].multiply(adjacency[:, tails]).tocsr()
    common_counts = np.asarray(common.sum(axis=0)).ravel()
    # (common @ common.T)[x, y] counts edges whose endpoints are both
    # adjacent to x and to y — evaluated at edge positions this is the
    # number of overlap-internal edges between common neighbours (the
    # K4-per-edge triangle mask).
    pair_counts = (common @ common.T).tocsr()
    internal = np.asarray(pair_counts[heads, tails]).ravel()

    overlap_size = common_counts + 2.0
    overlap_edges = 1.0 + 2.0 * common_counts + internal
    weights = overlap_edges / (overlap_size * (overlap_size - 1.0)) * overlap_size ** lam

    weighted = sp.coo_matrix((weights, (heads, tails)), shape=(n, n))
    weighted = (weighted + weighted.T).tocsr()
    if normalize and weighted.nnz:
        maximum = weighted.max()
        if maximum > 0:
            weighted.data /= maximum
    return weighted if sparse else weighted.toarray()

