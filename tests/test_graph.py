"""Unit tests for the graph substrate (Graph, Group, adjacency transforms, builders)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (
    Graph,
    Group,
    graph_to_networkx,
    graphsnn_weighted_adjacency,
    k_hop_matrix,
    normalized_adjacency,
    row_normalize,
)
from repro.graph.builders import groups_from_components

from sampler_oracle import bfs_tree, shortest_path


class TestGroup:
    def test_from_nodes(self):
        group = Group.from_nodes([3, 1, 2])
        assert len(group) == 3
        assert 1 in group and 5 not in group
        assert group.node_tuple() == (1, 2, 3)

    def test_from_path_edges(self):
        group = Group.from_path([0, 1, 2])
        assert group.edges == frozenset({(0, 1), (1, 2)})
        assert group.label == "path"

    def test_from_cycle_edges(self):
        group = Group.from_cycle([0, 1, 2, 3])
        assert (0, 3) in group.edges
        assert len(group.edges) == 4

    def test_from_cycle_too_small(self):
        with pytest.raises(ValueError):
            Group.from_cycle([0, 1])

    def test_edge_outside_nodes_raises(self):
        with pytest.raises(ValueError):
            Group(nodes=frozenset({0, 1}), edges=frozenset({(0, 2)}))

    def test_edges_canonicalised(self):
        group = Group(nodes=frozenset({0, 1}), edges=frozenset({(1, 0)}))
        assert group.edges == frozenset({(0, 1)})

    def test_overlap_and_jaccard(self):
        a = Group.from_nodes([0, 1, 2, 3])
        b = Group.from_nodes([2, 3, 4, 5])
        assert a.overlap(b) == 2
        assert a.jaccard(b) == pytest.approx(2 / 6)

    def test_with_score_and_label_do_not_mutate(self):
        group = Group.from_nodes([0, 1])
        scored = group.with_score(0.7)
        assert group.score is None
        assert scored.score == pytest.approx(0.7)
        assert scored.label == group.label

    def test_iteration_sorted(self):
        assert list(Group.from_nodes([5, 2, 9])) == [2, 5, 9]


class TestGraphContainer:
    def test_basic_statistics(self, tiny_graph):
        stats = tiny_graph.statistics()
        assert stats["nodes"] == 6
        assert stats["edges"] == 6
        assert stats["attributes"] == 2
        assert stats["anomaly_groups"] == 0

    def test_self_loops_dropped_and_duplicates_merged(self):
        graph = Graph(3, [(0, 0), (0, 1), (1, 0), (1, 2)])
        assert graph.n_edges == 2

    def test_out_of_range_edge_raises(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 5)])

    def test_feature_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Graph(3, [], features=np.ones((2, 2)))

    def test_group_outside_graph_raises(self):
        with pytest.raises(ValueError):
            Graph(3, [], groups=[Group.from_nodes([7])])

    def test_adjacency_symmetric(self, tiny_graph):
        adjacency = tiny_graph.adjacency()
        assert adjacency == pytest.approx(adjacency.T)
        assert adjacency.sum() == 2 * tiny_graph.n_edges

    def test_adjacency_sparse_matches_dense(self, tiny_graph):
        assert tiny_graph.adjacency(sparse=True).toarray() == pytest.approx(tiny_graph.adjacency())

    def test_neighbors_and_degree(self, tiny_graph):
        assert tiny_graph.neighbors(2) == (0, 1, 3)
        assert 5 not in tiny_graph.neighbors(0)
        degrees = [len(tiny_graph.neighbors(node)) for node in range(tiny_graph.n_nodes)]
        assert sum(degrees) == 2 * tiny_graph.n_edges

    def test_subgraph_relabels_nodes(self, tiny_graph):
        sub = tiny_graph.subgraph([2, 3, 4])
        assert sub.n_nodes == 3
        assert sub.n_edges == 2  # edges (2,3) and (3,4)
        assert sub.features == pytest.approx(tiny_graph.features[[2, 3, 4]])

    def test_subgraph_empty_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.subgraph([])

    def test_group_subgraph(self, labelled_graph):
        sub = labelled_graph.group_subgraph(labelled_graph.groups[0])
        assert sub.n_nodes == 4
        assert sub.n_edges == 3

    def test_with_groups_and_features_copy(self, tiny_graph):
        annotated = tiny_graph.with_groups([Group.from_nodes([0, 1])])
        assert annotated.n_groups == 1 and tiny_graph.n_groups == 0
        replaced = tiny_graph.with_features(np.zeros((6, 4)))
        assert replaced.n_features == 4 and tiny_graph.n_features == 2

    def test_add_nodes_and_edges(self, tiny_graph):
        grown = tiny_graph.add_nodes_and_edges(np.ones((2, 2)), [(5, 6), (6, 7)])
        assert grown.n_nodes == 8
        assert 7 in grown.neighbors(6)
        assert tiny_graph.n_nodes == 6  # original untouched

    def test_add_nodes_feature_dim_mismatch(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.add_nodes_and_edges(np.ones((1, 5)), [])

    def test_anomaly_node_mask(self, labelled_graph):
        mask = labelled_graph.anomaly_node_mask()
        assert mask.sum() == 4
        assert mask[6] and not mask[0]

    def test_average_group_size(self, labelled_graph, tiny_graph):
        assert labelled_graph.average_group_size() == pytest.approx(4.0)
        assert tiny_graph.average_group_size() == 0.0

    def test_connected_components_whole_graph(self, tiny_graph):
        components = tiny_graph.connected_components()
        assert len(components) == 1
        assert components[0] == set(range(6))

    def test_connected_components_subset(self, tiny_graph):
        components = tiny_graph.connected_components([0, 1, 4, 5])
        assert sorted(len(c) for c in components) == [2, 2]

    def test_validate_detects_nan_features(self):
        graph = Graph(2, [(0, 1)], features=np.array([[np.nan], [1.0]]))
        with pytest.raises(ValueError):
            graph.validate()

    def test_validate_passes_on_clean_graph(self, tiny_graph):
        tiny_graph.validate()


class TestAdjacencyTransforms:
    def test_row_normalize_rows_sum_to_one(self):
        matrix = np.array([[1.0, 3.0], [0.0, 0.0]])
        normalized = row_normalize(matrix)
        assert normalized[0].sum() == pytest.approx(1.0)
        assert normalized[1].sum() == pytest.approx(0.0)

    def test_normalized_adjacency_symmetric_and_bounded(self, tiny_graph):
        matrix = normalized_adjacency(tiny_graph)
        assert matrix == pytest.approx(matrix.T)
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues.max() <= 1.0 + 1e-9

    def test_normalized_adjacency_no_self_loops(self, tiny_graph):
        with_loops = normalized_adjacency(tiny_graph, add_self_loops=True)
        without = normalized_adjacency(tiny_graph, add_self_loops=False)
        assert with_loops.trace() > 0
        assert without.trace() == pytest.approx(0.0)

    def test_k_hop_matrix_standardised(self, tiny_graph):
        matrix = k_hop_matrix(tiny_graph, 3)
        assert matrix.max() == pytest.approx(1.0)
        assert (matrix >= 0).all()

    def test_k_hop_one_equals_scaled_adjacency(self, tiny_graph):
        assert k_hop_matrix(tiny_graph, 1) == pytest.approx(tiny_graph.adjacency())

    def test_k_hop_invalid_k(self, tiny_graph):
        with pytest.raises(ValueError):
            k_hop_matrix(tiny_graph, 0)

    def test_graphsnn_symmetric_nonnegative_and_on_edges_only(self, tiny_graph):
        weighted = graphsnn_weighted_adjacency(tiny_graph)
        adjacency = tiny_graph.adjacency()
        assert weighted == pytest.approx(weighted.T)
        assert (weighted >= 0).all()
        assert ((weighted > 0) == (adjacency > 0)).all()

    def test_graphsnn_triangle_edges_weighted_higher_than_bridge(self, tiny_graph):
        # Edge (0,1) belongs to a triangle; edge (3,4) is a bridge on the path.
        weighted = graphsnn_weighted_adjacency(tiny_graph, normalize=False)
        assert weighted[0, 1] > weighted[3, 4]


class TestBuilders:
    def test_networkx_roundtrip(self, tiny_graph):
        nx_graph = graph_to_networkx(tiny_graph)
        features = np.stack([nx_graph.nodes[node]["x"] for node in sorted(nx_graph.nodes)])
        back = Graph(nx_graph.number_of_nodes(), list(nx_graph.edges), features)
        assert back.n_nodes == tiny_graph.n_nodes
        assert set(back.edges) == set(tiny_graph.edges)
        assert back.features == pytest.approx(tiny_graph.features)

    def test_groups_from_components_respects_min_size(self, tiny_graph):
        groups = groups_from_components(tiny_graph, [0, 1, 4], min_size=2)
        assert len(groups) == 1
        assert groups[0].nodes == frozenset({0, 1})

    def test_groups_from_components_includes_internal_edges(self, tiny_graph):
        groups = groups_from_components(tiny_graph, [0, 1, 2], min_size=2)
        assert groups[0].edges == frozenset({(0, 1), (0, 2), (1, 2)})


class TestMultiSourceBFS:
    def test_distances_match_sequential_bfs(self, tiny_graph):
        bfs = tiny_graph.multi_source_bfs(range(tiny_graph.n_nodes))
        for source in range(tiny_graph.n_nodes):
            for target in range(tiny_graph.n_nodes):
                path = shortest_path(tiny_graph, source, target)
                if path is None:
                    assert bfs.dist[source, target] == -1
                else:
                    assert bfs.dist[source, target] == len(path) - 1

    def test_path_reconstruction_matches_shortest_path(self, tiny_graph):
        sources = [0, 3, 5]
        bfs = tiny_graph.multi_source_bfs(sources)
        for row, source in enumerate(sources):
            for target in range(tiny_graph.n_nodes):
                assert bfs.path(row, target) == shortest_path(tiny_graph, source, target)

    def test_depth_bound_limits_exploration(self, tiny_graph):
        bfs = tiny_graph.multi_source_bfs([0], depth=1)
        reached = set(np.flatnonzero(bfs.dist[0] >= 0).tolist())
        assert reached == {0, 1, 2}

    def test_parents_match_bfs_tree(self, tiny_graph):
        bfs = tiny_graph.multi_source_bfs([0, 4], depth=2)
        for row, source in enumerate([0, 4]):
            parents = bfs_tree(tiny_graph, source, 2)
            for node, parent in parents.items():
                assert int(bfs.parent[row, node]) == parent

    def test_discovery_order_is_level_then_parent_then_id(self, tiny_graph):
        bfs = tiny_graph.multi_source_bfs([0])
        order = bfs.order[0]
        dist = bfs.dist[0]
        reached = np.flatnonzero(dist >= 0)
        # Orders are a permutation of 0..k-1 and respect BFS levels.
        assert sorted(order[reached].tolist()) == list(range(reached.size))
        for u in reached:
            for v in reached:
                if dist[u] < dist[v]:
                    assert order[u] < order[v]

    def test_empty_source_list(self, tiny_graph):
        bfs = tiny_graph.multi_source_bfs([])
        assert bfs.dist.shape == (0, tiny_graph.n_nodes)

    def test_source_out_of_range_raises(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.multi_source_bfs([99])

    def test_duplicate_sources_get_identical_rows(self, tiny_graph):
        bfs = tiny_graph.multi_source_bfs([2, 2])
        assert (bfs.dist[0] == bfs.dist[1]).all()
        assert (bfs.parent[0] == bfs.parent[1]).all()
        assert (bfs.order[0] == bfs.order[1]).all()

    def test_depth_bound_masks_parent_and_order(self, tiny_graph):
        bounded = tiny_graph.multi_source_bfs([0], depth=2)
        unbounded = tiny_graph.multi_source_bfs([0])
        beyond = unbounded.dist[0] > 2
        assert (bounded.dist[0][beyond] == -1).all()
        assert (bounded.parent[0][beyond] == -1).all()
        assert (bounded.order[0][beyond] == -1).all()
        within = ~beyond & (unbounded.dist[0] >= 0)
        assert (bounded.dist[0][within] == unbounded.dist[0][within]).all()
        assert (bounded.parent[0][within] == unbounded.parent[0][within]).all()


class TestFingerprint:
    def test_stable_across_equal_graphs(self, tiny_graph):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]
        features = np.arange(12, dtype=float).reshape(6, 2)
        twin = Graph(6, edges, features, name="other-name")
        assert tiny_graph.fingerprint() == twin.fingerprint()

    def test_sensitive_to_topology_and_features(self, tiny_graph):
        extra_edge = Graph(6, list(tiny_graph.edges) + [(0, 5)], tiny_graph.features)
        assert extra_edge.fingerprint() != tiny_graph.fingerprint()
        shifted = tiny_graph.with_features(tiny_graph.features + 1.0)
        assert shifted.fingerprint() != tiny_graph.fingerprint()

    def test_ignores_ground_truth_groups(self, tiny_graph):
        annotated = tiny_graph.with_groups([Group.from_nodes([0, 1, 2])])
        assert annotated.fingerprint() == tiny_graph.fingerprint()

    def test_tracks_inplace_feature_edits(self, tiny_graph):
        graph = tiny_graph.with_features(tiny_graph.features.copy())
        before = graph.fingerprint()
        graph.features[0, 0] += 1.0
        assert graph.fingerprint() != before
        graph.features[0, 0] -= 1.0
        assert graph.fingerprint() == before


class TestJsonWireFormat:
    def test_roundtrip_preserves_fingerprint(self, tiny_graph):
        import json

        payload = json.loads(json.dumps(tiny_graph.to_json_dict()))
        clone = Graph.from_json_dict(payload)
        assert clone.fingerprint() == tiny_graph.fingerprint()
        assert clone.name == tiny_graph.name
        assert clone.n_edges == tiny_graph.n_edges

    def test_groups_are_not_shipped(self, labelled_graph):
        payload = labelled_graph.to_json_dict()
        assert "groups" not in payload
        assert Graph.from_json_dict(payload).n_groups == 0

    def test_minimal_hand_written_payload(self):
        graph = Graph.from_json_dict({"n_nodes": 3, "edges": [[0, 1], [1, 2]]})
        assert graph.n_nodes == 3 and graph.n_edges == 2
        assert graph.features.shape == (3, 1)  # default all-zeros attribute

    def test_missing_n_nodes_rejected(self):
        with pytest.raises(ValueError, match="n_nodes"):
            Graph.from_json_dict({"edges": [[0, 1]]})

    @pytest.mark.parametrize(
        "payload, named",
        [
            pytest.param({"n_nodes": 2.7, "edges": [[0, 1]]}, "n_nodes", id="fractional_n_nodes"),
            pytest.param({"n_nodes": True}, "n_nodes", id="boolean_n_nodes"),
            pytest.param({"n_nodes": 3, "edges": [[0, 1.7]]}, "edge", id="fractional_endpoint"),
            pytest.param({"n_nodes": 3, "edges": [[0, 1], [True, 2]]}, "edge", id="boolean_endpoint"),
            pytest.param({"n_nodes": 3, "edges": [[0, 10**30]]}, "64 bits", id="endpoint_overflow"),
        ],
    )
    def test_non_integer_counts_and_endpoints_rejected(self, payload, named):
        # int() would truncate these into a different graph than the one sent.
        with pytest.raises(ValueError, match=named):
            Graph.from_json_dict(payload)

    def test_integral_floats_accepted(self):
        graph = Graph.from_json_dict({"n_nodes": 3.0, "edges": [[0, 1.0], [1, 2]]})
        assert graph.n_nodes == 3 and graph.edges == ((0, 1), (1, 2))
