"""Property-based tests (hypothesis) for core invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import Graph, Group, graphsnn_weighted_adjacency, k_hop_matrix, normalized_adjacency
from repro.metrics import completeness_ratio, completeness_score, roc_auc_score
from repro.outlier.base import min_max_normalize
from repro.sampling import CandidateGroupSampler, SamplerConfig
from repro.tensor import Tensor

from sampler_oracle import PerPairSampler


# ----------------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------------
def random_graph_strategy(max_nodes: int = 12):
    """Random small graphs as (n_nodes, edge list) tuples."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_nodes))
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible), unique=True)) if possible else []
        return n, edges

    return build()


node_sets = st.sets(st.integers(min_value=0, max_value=30), min_size=1, max_size=10)


# ----------------------------------------------------------------------------
# Tensor autodiff properties
# ----------------------------------------------------------------------------
class TestTensorProperties:
    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_sum_gradient_is_ones(self, values):
        tensor = Tensor(np.array(values), requires_grad=True)
        tensor.sum().backward()
        assert tensor.grad == pytest.approx(np.ones(len(values)))

    @given(
        st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=6),
        st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_addition_commutes(self, a, b):
        size = min(len(a), len(b))
        x, y = Tensor(np.array(a[:size])), Tensor(np.array(b[:size]))
        assert (x + y).numpy() == pytest.approx((y + x).numpy())

    @given(st.lists(st.floats(min_value=-4, max_value=4), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_sigmoid_output_in_unit_interval(self, values):
        out = Tensor(np.array(values)).sigmoid().numpy()
        assert (out > 0).all() and (out < 1).all()

    @given(st.lists(st.floats(min_value=0.1, max_value=5), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_exp_log_roundtrip(self, values):
        tensor = Tensor(np.array(values))
        assert tensor.log().exp().numpy() == pytest.approx(np.array(values), rel=1e-6)


# ----------------------------------------------------------------------------
# Graph invariants
# ----------------------------------------------------------------------------
class TestGraphProperties:
    @given(random_graph_strategy())
    @settings(max_examples=30, deadline=None)
    def test_graph_construction_invariants(self, spec):
        n, edges = spec
        graph = Graph(n, edges, np.zeros((n, 2)))
        graph.validate()
        assert sum(len(graph.neighbors(node)) for node in range(n)) == 2 * graph.n_edges
        components = graph.connected_components()
        assert sum(len(c) for c in components) == n

    @given(random_graph_strategy())
    @settings(max_examples=25, deadline=None)
    def test_normalized_adjacency_spectrum_bounded(self, spec):
        n, edges = spec
        graph = Graph(n, edges, np.zeros((n, 1)))
        eigenvalues = np.linalg.eigvalsh(normalized_adjacency(graph))
        assert eigenvalues.max() <= 1.0 + 1e-8
        assert eigenvalues.min() >= -1.0 - 1e-8

    @given(random_graph_strategy(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_k_hop_matrix_bounded_and_symmetric(self, spec, k):
        n, edges = spec
        graph = Graph(n, edges, np.zeros((n, 1)))
        matrix = k_hop_matrix(graph, k)
        assert matrix == pytest.approx(matrix.T)
        assert matrix.max() <= 1.0 + 1e-12

    @given(random_graph_strategy())
    @settings(max_examples=20, deadline=None)
    def test_graphsnn_support_matches_adjacency(self, spec):
        n, edges = spec
        graph = Graph(n, edges, np.zeros((n, 1)))
        weighted = graphsnn_weighted_adjacency(graph)
        assert ((weighted > 0) == (graph.adjacency() > 0)).all()

    @given(random_graph_strategy())
    @settings(max_examples=25, deadline=None)
    def test_subgraph_edge_count_never_increases(self, spec):
        n, edges = spec
        graph = Graph(n, edges, np.zeros((n, 1)))
        nodes = list(range(0, n, 2)) or [0]
        sub = graph.subgraph(nodes)
        assert sub.n_edges <= graph.n_edges
        assert sub.n_nodes == len(set(nodes))

    @given(random_graph_strategy(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_subgraph_is_canonical_without_recanonicalizing(self, spec, data):
        n, edges = spec
        graph = Graph(n, edges, np.arange(2 * n, dtype=np.float64).reshape(n, 2))
        # Unsorted, with repeats: the relabelled edge index must still be canonical.
        nodes = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=2 * n))
        sub = graph.subgraph(nodes)
        sub.validate()
        rebuilt = Graph(sub.n_nodes, sub.edge_index.T.tolist(), sub.features)
        assert np.array_equal(sub.edge_index, rebuilt.edge_index)
        assert np.array_equal(sub.features, graph.features[sorted(set(nodes))])

    @given(random_graph_strategy(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_induced_subgraphs_match_subgraph(self, spec, data):
        n, edges = spec
        graph = Graph(n, edges, np.zeros((n, 1)))
        sets = data.draw(
            st.lists(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=2 * n), max_size=6)
        )
        induced = graph.induced_subgraphs(sets)
        assert len(induced) == len(sets)
        for (rows, local_edges), nodes in zip(induced.parts(), sets):
            sub = graph.subgraph(nodes)
            assert np.array_equal(induced.nodes[rows], np.unique(nodes))
            assert np.array_equal(local_edges, sub.edge_index)


# ----------------------------------------------------------------------------
# Metric invariants
# ----------------------------------------------------------------------------
class TestMetricProperties:
    @given(node_sets, st.lists(node_sets, min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_completeness_score_bounds(self, truth_nodes, predictions):
        truth = Group.from_nodes(truth_nodes)
        predicted = [Group.from_nodes(nodes) for nodes in predictions]
        score = completeness_score(truth, predicted)
        assert 0.0 <= score <= 1.0

    @given(st.lists(node_sets, min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_perfect_prediction_gives_cr_one(self, truth_sets):
        truth = [Group.from_nodes(nodes) for nodes in truth_sets]
        assert completeness_ratio(truth, truth) == pytest.approx(1.0)

    @given(st.lists(node_sets, min_size=1, max_size=4), st.lists(node_sets, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_cr_monotone_in_predictions(self, truth_sets, prediction_sets):
        """Adding predictions can never decrease CR."""
        truth = [Group.from_nodes(nodes) for nodes in truth_sets]
        predictions = [Group.from_nodes(nodes) for nodes in prediction_sets]
        partial = completeness_ratio(truth, predictions[:1])
        full = completeness_ratio(truth, predictions)
        assert full >= partial - 1e-12

    @given(st.lists(st.tuples(st.booleans(), st.floats(min_value=0, max_value=1)), min_size=2, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_roc_auc_bounds_and_complement(self, pairs):
        labels = np.array([p[0] for p in pairs])
        scores = np.array([p[1] for p in pairs])
        auc = roc_auc_score(labels, scores)
        assert 0.0 <= auc <= 1.0
        if labels.any() and not labels.all():
            assert roc_auc_score(~labels, scores) == pytest.approx(1.0 - auc, abs=1e-9)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_min_max_normalize_bounds(self, values):
        normalized = min_max_normalize(np.array(values))
        assert (normalized >= 0.0).all() and (normalized <= 1.0 + 1e-12).all()


# ----------------------------------------------------------------------------
# Candidate-group sampler invariants (Algorithm 1)
# ----------------------------------------------------------------------------
def _connected_via_own_edges(group: Group) -> bool:
    """Whether the group's internal edge set connects its node set."""
    if len(group) <= 1:
        return True
    adjacency = {node: set() for node in group.nodes}
    for u, v in group.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    start = next(iter(group.nodes))
    seen = {start}
    frontier = [start]
    while frontier:
        seen.update(adjacency[frontier.pop()] - seen)
        frontier = [n for n in seen if adjacency[n] - seen] if len(seen) < len(group) else []
    return seen == group.nodes


class TestSamplerProperties:
    @given(random_graph_strategy(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_groups_respect_bounds_and_graph_membership(self, spec, seed):
        n, edges = spec
        graph = Graph(n, edges, np.zeros((n, 1)))
        anchors = sorted(set(range(0, n, 2)) | {n - 1})
        config = SamplerConfig(min_group_size=2, max_group_size=8, seed=seed)
        for group in CandidateGroupSampler(config).sample(graph, anchors):
            assert config.min_group_size <= len(group) <= config.max_group_size
            assert all(0 <= node < n for node in group.nodes)

    @given(random_graph_strategy())
    @settings(max_examples=30, deadline=None)
    def test_path_groups_are_connected(self, spec):
        n, edges = spec
        graph = Graph(n, edges, np.zeros((n, 1)))
        anchors = list(range(n))[:8]
        groups = CandidateGroupSampler(SamplerConfig(seed=1)).sample(graph, anchors)
        for group in groups:
            if group.label == "path":
                assert len(group.edges) == len(group) - 1
                assert _connected_via_own_edges(group)
            elif group.label in ("tree", "cycle"):
                assert _connected_via_own_edges(group)

    @given(random_graph_strategy(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_deterministic_under_fixed_seed(self, spec, seed):
        n, edges = spec
        graph = Graph(n, edges, np.zeros((n, 1)))
        anchors = list(range(n))[:7]
        config = SamplerConfig(max_anchor_pairs=8, max_candidates=10, seed=seed)
        first = CandidateGroupSampler(config).sample(graph, anchors)
        second = CandidateGroupSampler(config).sample(graph, anchors)
        assert [g.node_tuple() for g in first] == [g.node_tuple() for g in second]

    @given(random_graph_strategy())
    @settings(max_examples=30, deadline=None)
    def test_no_duplicate_node_sets(self, spec):
        n, edges = spec
        graph = Graph(n, edges, np.zeros((n, 1)))
        groups = CandidateGroupSampler(SamplerConfig(seed=2)).sample(graph, list(range(min(n, 8))))
        node_tuples = [g.node_tuple() for g in groups]
        assert len(node_tuples) == len(set(node_tuples))

    @given(random_graph_strategy(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_vectorized_matches_per_pair(self, spec, seed):
        n, edges = spec
        graph = Graph(n, edges, np.zeros((n, 1)))
        anchors = list(range(n))[:7]
        config = SamplerConfig(max_anchor_pairs=8, max_candidates=10, seed=seed)
        fast = CandidateGroupSampler(config).sample(graph, anchors)
        slow = PerPairSampler(config).sample(graph, anchors)
        assert [g.node_tuple() for g in fast] == [g.node_tuple() for g in slow]


# ----------------------------------------------------------------------------
# Group invariants
# ----------------------------------------------------------------------------
class TestGroupProperties:
    @given(node_sets, node_sets)
    @settings(max_examples=50, deadline=None)
    def test_jaccard_symmetric_and_bounded(self, a_nodes, b_nodes):
        a, b = Group.from_nodes(a_nodes), Group.from_nodes(b_nodes)
        assert a.jaccard(b) == pytest.approx(b.jaccard(a))
        assert 0.0 <= a.jaccard(b) <= 1.0

    @given(node_sets)
    @settings(max_examples=30, deadline=None)
    def test_self_jaccard_is_one(self, nodes):
        group = Group.from_nodes(nodes)
        assert group.jaccard(group) == pytest.approx(1.0)

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=2, max_size=8, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_path_group_edge_count(self, path):
        group = Group.from_path(path)
        assert len(group.edges) == len(path) - 1
