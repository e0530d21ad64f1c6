"""Parity tests between the sparse-first engine and the seed implementations.

The vectorised adjacency transforms introduced by the sparse-first refactor
must reproduce the original (looped / dense) implementations exactly.  The
seed algorithms are kept *inside this module* as regression oracles so the
production code can evolve freely while parity stays pinned:

* ``normalized_adjacency``   vs dense ``D^{-1/2} (A + I) D^{-1/2}``,
* ``k_hop_matrix``           vs ``np.linalg.matrix_power``,
* ``graphsnn_weighted_adjacency`` vs the per-edge overlap-subgraph loop,

each to ≤ 1e-8 on random graphs, for both the dense and the sparse return
layouts.  The same file checks the CSR-derived ``Graph`` queries and the
``spmm`` autodiff op against their dense counterparts.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import (
    Graph,
    graphsnn_weighted_adjacency,
    k_hop_matrix,
    normalized_adjacency,
    row_normalize,
)
from repro.tensor import Tensor, spmm

TOLERANCE = 1e-8


# ----------------------------------------------------------------------
# Seed implementations (regression oracles — do not "optimise" these)
# ----------------------------------------------------------------------
def seed_normalized_adjacency(graph: Graph, add_self_loops: bool = True) -> np.ndarray:
    adjacency = graph.adjacency(sparse=False)
    if add_self_loops:
        adjacency = adjacency + np.eye(graph.n_nodes)
    degrees = adjacency.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(degrees > 0, degrees ** -0.5, 0.0)
    return (adjacency * inv_sqrt[:, None]) * inv_sqrt[None, :]


def seed_k_hop_matrix(graph: Graph, k: int, standardize: bool = True) -> np.ndarray:
    adjacency = graph.adjacency(sparse=False)
    power = np.linalg.matrix_power(adjacency, k)
    if standardize:
        maximum = power.max()
        if maximum > 0:
            power = power / maximum
    return power


def seed_graphsnn_weighted_adjacency(graph: Graph, lam: float = 1.0, normalize: bool = True) -> np.ndarray:
    # A second copy of this loop lives in benchmarks/test_scaling_sparse.py
    # as the timing baseline; change both or neither.
    n = graph.n_nodes
    weighted = np.zeros((n, n), dtype=np.float64)
    closed_neighborhoods = [set(graph.neighbors(v)) | {v} for v in range(n)]
    edge_lookup = {frozenset(e) for e in graph.edges}
    for u, v in graph.edges:
        overlap_nodes = closed_neighborhoods[u] & closed_neighborhoods[v]
        size = len(overlap_nodes)
        if size < 2:
            weight = 1.0
        else:
            overlap_edges = 0
            overlap_list = sorted(overlap_nodes)
            for i, a in enumerate(overlap_list):
                for b in overlap_list[i + 1 :]:
                    if frozenset((a, b)) in edge_lookup:
                        overlap_edges += 1
            weight = overlap_edges / (size * (size - 1)) * (size ** lam)
            if weight <= 0.0:
                weight = 1.0 / size
        weighted[u, v] = weight
        weighted[v, u] = weight
    if normalize and weighted.max() > 0:
        weighted = weighted / weighted.max()
    return weighted


# ----------------------------------------------------------------------
# Random-graph fixture helpers
# ----------------------------------------------------------------------
def random_graph(seed: int, n_nodes: int = 70, edge_probability: float = 0.08) -> Graph:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n_nodes, n_nodes)) < edge_probability, k=1)
    edges = np.argwhere(upper)
    return Graph(n_nodes, edges, features=rng.normal(size=(n_nodes, 4)), name=f"random-{seed}")


GRAPH_SEEDS = [0, 1, 2]


# ----------------------------------------------------------------------
# Transform parity
# ----------------------------------------------------------------------
class TestTransformParity:
    @pytest.mark.parametrize("seed", GRAPH_SEEDS)
    @pytest.mark.parametrize("add_self_loops", [True, False])
    def test_normalized_adjacency_matches_seed(self, seed, add_self_loops):
        graph = random_graph(seed)
        oracle = seed_normalized_adjacency(graph, add_self_loops)
        dense = normalized_adjacency(graph, add_self_loops)
        assert np.abs(dense - oracle).max() <= TOLERANCE
        csr = normalized_adjacency(graph, add_self_loops, sparse=True)
        assert sp.issparse(csr)
        assert np.abs(csr.toarray() - oracle).max() <= TOLERANCE

    @pytest.mark.parametrize("seed", range(8))
    def test_dense_adjacency_fast_path_matches_csr(self, seed):
        # The dense request on a graph without a CSR cache is filled straight
        # from the edge index; it must equal the densified CSR bit for bit,
        # repeated edge-index columns (summed) and edgeless graphs included.
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(1, 30))
        n_pairs = 0 if seed % 4 == 0 else int(rng.integers(1, 3 * n_nodes + 1))
        canonical = Graph(n_nodes, rng.integers(0, n_nodes, size=(n_pairs, 2))).edge_index
        repeats = rng.integers(1, 3, size=canonical.shape[1])
        edge_index = np.repeat(canonical, repeats, axis=1)

        def build():
            return Graph.from_canonical(n_nodes, edge_index)

        via_csr = build()
        expected = via_csr.adjacency(sparse=True).toarray()
        assert np.array_equal(build().adjacency(), expected)
        assert np.array_equal(via_csr.adjacency(), expected)
        assert np.array_equal(normalized_adjacency(build()), normalized_adjacency(via_csr))

    @pytest.mark.parametrize("seed", GRAPH_SEEDS)
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_k_hop_matrix_matches_seed(self, seed, k):
        graph = random_graph(seed)
        oracle = seed_k_hop_matrix(graph, k)
        assert np.abs(k_hop_matrix(graph, k) - oracle).max() <= TOLERANCE
        csr = k_hop_matrix(graph, k, sparse=True)
        assert sp.issparse(csr)
        assert np.abs(csr.toarray() - oracle).max() <= TOLERANCE

    @pytest.mark.parametrize("seed", GRAPH_SEEDS)
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_graphsnn_matches_seed(self, seed, lam, normalize):
        graph = random_graph(seed)
        oracle = seed_graphsnn_weighted_adjacency(graph, lam=lam, normalize=normalize)
        dense = graphsnn_weighted_adjacency(graph, lam=lam, normalize=normalize)
        assert np.abs(dense - oracle).max() <= TOLERANCE
        csr = graphsnn_weighted_adjacency(graph, lam=lam, normalize=normalize, sparse=True)
        assert sp.issparse(csr)
        assert np.abs(csr.toarray() - oracle).max() <= TOLERANCE

    def test_graphsnn_on_triangle_dense_overlap(self):
        # Fully connected K4: every edge's overlap subgraph is the whole clique.
        graph = Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        oracle = seed_graphsnn_weighted_adjacency(graph, normalize=False)
        dense = graphsnn_weighted_adjacency(graph, normalize=False)
        assert np.abs(dense - oracle).max() <= TOLERANCE

    def test_graphsnn_empty_graph(self):
        graph = Graph(5, [])
        assert graphsnn_weighted_adjacency(graph).sum() == 0.0
        assert graphsnn_weighted_adjacency(graph, sparse=True).nnz == 0

    @pytest.mark.parametrize("seed", GRAPH_SEEDS)
    def test_row_normalize_sparse_matches_dense(self, seed):
        graph = random_graph(seed)
        dense_target = graph.adjacency() + np.eye(graph.n_nodes)
        sparse_target = sp.csr_matrix(dense_target)
        dense = row_normalize(dense_target)
        sparse_result = row_normalize(sparse_target)
        assert sp.issparse(sparse_result)
        assert np.abs(sparse_result.toarray() - dense).max() <= TOLERANCE

    def test_row_normalize_sparse_keeps_zero_rows(self):
        matrix = sp.csr_matrix(np.array([[2.0, 2.0], [0.0, 0.0]]))
        normalized = row_normalize(matrix).toarray()
        assert normalized[0].sum() == pytest.approx(1.0)
        assert normalized[1].sum() == pytest.approx(0.0)


# ----------------------------------------------------------------------
# Graph query parity
# ----------------------------------------------------------------------
class TestGraphQueryParity:
    @pytest.mark.parametrize("seed", GRAPH_SEEDS)
    def test_degree_vector_matches_edge_scan(self, seed):
        graph = random_graph(seed)
        oracle = np.zeros(graph.n_nodes, dtype=np.int64)
        for u, v in graph.edges:
            oracle[u] += 1
            oracle[v] += 1
        assert (np.diff(graph.adjacency(sparse=True).indptr) == oracle).all()
        for node in range(0, graph.n_nodes, 7):
            assert len(graph.neighbors(node)) == oracle[node]

    @pytest.mark.parametrize("seed", GRAPH_SEEDS)
    def test_has_edge_matches_edge_set(self, seed):
        graph = random_graph(seed)
        edge_set = set(graph.edges)
        rng = np.random.default_rng(seed + 100)
        pairs = rng.integers(0, graph.n_nodes, size=(300, 2))
        for u, v in pairs:
            expected = (min(u, v), max(u, v)) in edge_set and u != v
            assert (v in graph.neighbors(u)) == expected

    @pytest.mark.parametrize("seed", GRAPH_SEEDS)
    def test_subgraph_matches_python_scan(self, seed):
        graph = random_graph(seed)
        rng = np.random.default_rng(seed + 200)
        nodes = sorted(rng.choice(graph.n_nodes, size=25, replace=False).tolist())
        index = {node: i for i, node in enumerate(nodes)}
        node_set = set(nodes)
        oracle = sorted(
            (index[u], index[v]) for u, v in graph.edges if u in node_set and v in node_set
        )
        sub = graph.subgraph(nodes)
        assert sub.n_nodes == len(nodes)
        assert list(sub.edges) == oracle
        assert sub.features == pytest.approx(graph.features[nodes])

    def test_subgraph_out_of_range_raises(self):
        graph = random_graph(0)
        with pytest.raises(ValueError):
            graph.subgraph([0, graph.n_nodes + 3])

    @pytest.mark.parametrize("seed", GRAPH_SEEDS)
    def test_edge_index_is_canonical_and_matches_edges(self, seed):
        graph = random_graph(seed)
        u, v = graph.edge_index
        assert (u < v).all()
        assert list(map(tuple, graph.edge_index.T.tolist())) == list(graph.edges)

    def test_edge_index_read_only(self):
        graph = random_graph(0)
        with pytest.raises(ValueError):
            graph.edge_index[0, 0] = 99

    @pytest.mark.parametrize("seed", GRAPH_SEEDS)
    def test_connected_components_match_neighbor_bfs(self, seed):
        graph = random_graph(seed, n_nodes=40, edge_probability=0.04)
        fast = {frozenset(c) for c in graph.connected_components()}
        slow = {frozenset(c) for c in graph.connected_components(range(graph.n_nodes))}
        assert fast == slow


# ----------------------------------------------------------------------
# spmm autodiff parity
# ----------------------------------------------------------------------
class TestSpmmParity:
    def test_forward_matches_dense_matmul(self):
        rng = np.random.default_rng(0)
        matrix = sp.random(30, 30, density=0.2, random_state=0, format="csr")
        x = rng.normal(size=(30, 5))
        out = spmm(matrix, Tensor(x))
        assert out.numpy() == pytest.approx(matrix.toarray() @ x, abs=1e-12)

    def test_backward_matches_dense_matmul(self):
        rng = np.random.default_rng(1)
        dense = rng.normal(size=(20, 20)) * (rng.random((20, 20)) < 0.25)
        matrix = sp.csr_matrix(dense)
        x_data = rng.normal(size=(20, 4))

        x_sparse = Tensor(x_data, requires_grad=True)
        spmm(matrix, x_sparse).sum().backward()

        x_dense = Tensor(x_data, requires_grad=True)
        (Tensor(dense) @ x_dense).sum().backward()

        assert x_sparse.grad == pytest.approx(x_dense.grad, abs=1e-10)

    def test_dense_matrix_falls_back(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(6, 6))
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        out = spmm(matrix, x)
        assert out.numpy() == pytest.approx(matrix @ x.numpy())
        out.sum().backward()
        assert x.grad == pytest.approx(matrix.T @ np.ones((6, 3)))

    def test_gcnconv_sparse_dense_equivalence(self):
        from repro.nn import GCNConv

        graph = random_graph(3, n_nodes=40)
        dense_prop = normalized_adjacency(graph)
        sparse_prop = normalized_adjacency(graph, sparse=True)
        conv_a = GCNConv(4, 8, np.random.default_rng(0))
        conv_b = GCNConv(4, 8, np.random.default_rng(0))
        features = Tensor(graph.features)
        out_dense = conv_a(features, dense_prop).numpy()
        out_sparse = conv_b(features, sparse_prop).numpy()
        assert np.abs(out_dense - out_sparse).max() <= TOLERANCE
