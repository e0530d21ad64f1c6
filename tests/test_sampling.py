"""Unit tests for candidate-group sampling (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import Graph
from repro.sampling import CandidateGroupSampler, SamplerConfig
from repro.sampling.sampler import merge_groups

from sampler_oracle import bfs_tree, cycle_search, path_search, shortest_path, tree_search


@pytest.fixture
def ring_graph() -> Graph:
    """An 8-node ring plus a chord, giving paths, trees and cycles to find."""
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)]
    return Graph(8, edges, np.zeros((8, 2)))


class TestOracleBFS:
    def test_bfs_tree_depth_limit(self, tiny_graph):
        parents = bfs_tree(tiny_graph, 0, depth=1)
        assert set(parents) == {0, 1, 2}
        assert parents[0] == 0

    def test_shortest_path(self, tiny_graph):
        assert shortest_path(tiny_graph, 0, 5) == [0, 2, 3, 4, 5]
        assert shortest_path(tiny_graph, 0, 0) == [0]

    def test_shortest_path_cutoff(self, tiny_graph):
        assert shortest_path(tiny_graph, 0, 5, cutoff=2) is None

    def test_shortest_path_disconnected(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        assert shortest_path(graph, 0, 3) is None


class TestPathSearch:
    def test_shortest_path_found(self, ring_graph):
        group = path_search(ring_graph, 0, 3)
        assert group is not None
        assert group.label == "path"
        # The chord (0, 4) makes 0-4-3 the shortest route.
        assert len(group) == 3
        assert {0, 3} <= group.nodes

    def test_uses_chord_shortcut(self, ring_graph):
        group = path_search(ring_graph, 1, 4)
        assert len(group) <= 4

    def test_disconnected_returns_none(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        assert path_search(graph, 0, 3) is None

    def test_max_length_cutoff(self, ring_graph):
        assert path_search(ring_graph, 2, 7, max_length=2) is None

    def test_same_node_returns_none(self, ring_graph):
        assert path_search(ring_graph, 2, 2) is None


class TestTreeSearch:
    def test_tree_contains_root_neighbourhood(self, ring_graph):
        group = tree_search(ring_graph, 0, 2, depth=1)
        assert group is not None
        assert group.label == "tree"
        assert 0 in group and 1 in group and 7 in group

    def test_tree_includes_far_anchor_when_reachable(self, ring_graph):
        group = tree_search(ring_graph, 0, 2, depth=2)
        assert 2 in group

    def test_tree_edges_form_a_tree(self, ring_graph):
        group = tree_search(ring_graph, 0, 5, depth=2, max_nodes=10)
        assert len(group.edges) == len(group) - 1

    def test_max_nodes_bound(self, ring_graph):
        group = tree_search(ring_graph, 0, 4, depth=4, max_nodes=4)
        assert len(group) <= 5  # max_nodes plus possibly the target anchor's chain

    def test_isolated_root_returns_none(self):
        graph = Graph(3, [(1, 2)])
        assert tree_search(graph, 0, 1) is None


class TestCycleSearch:
    def test_finds_ring_cycle(self, ring_graph):
        cycles = cycle_search(ring_graph, 0, max_cycle_length=8, max_cycles=5)
        assert cycles
        assert all(c.label == "cycle" for c in cycles)
        assert any(len(c) == 5 for c in cycles)  # 0-1-2-3-4 via chord

    def test_no_cycle_in_tree(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert cycle_search(graph, 0) == []

    def test_respects_max_cycles(self, ring_graph):
        cycles = cycle_search(ring_graph, 0, max_cycle_length=8, max_cycles=1)
        assert len(cycles) == 1

    def test_respects_max_length(self, ring_graph):
        cycles = cycle_search(ring_graph, 0, max_cycle_length=4, max_cycles=5)
        assert all(len(c) <= 5 for c in cycles)


class TestMergeAndSampler:
    def test_merge_groups_removes_duplicates(self, ring_graph):
        a = path_search(ring_graph, 0, 3)
        b = path_search(ring_graph, 0, 3)
        c = path_search(ring_graph, 0, 2)
        assert len(merge_groups([a, b, c])) == 2

    def test_sampler_returns_groups_within_bounds(self, ring_graph):
        sampler = CandidateGroupSampler(SamplerConfig(max_group_size=6, min_group_size=2))
        groups = sampler.sample(ring_graph, [0, 3, 5])
        assert groups
        assert all(2 <= len(g) <= 6 for g in groups)

    def test_sampler_empty_anchor_list(self, ring_graph):
        assert CandidateGroupSampler().sample(ring_graph, []) == []

    def test_sampler_respects_max_candidates(self, ring_graph):
        sampler = CandidateGroupSampler(SamplerConfig(max_candidates=3))
        groups = sampler.sample(ring_graph, list(range(8)))
        assert len(groups) <= 3

    def test_sampler_deterministic(self, ring_graph):
        sampler_a = CandidateGroupSampler(SamplerConfig(seed=5))
        sampler_b = CandidateGroupSampler(SamplerConfig(seed=5))
        groups_a = sampler_a.sample(ring_graph, [0, 2, 4])
        groups_b = sampler_b.sample(ring_graph, [0, 2, 4])
        assert [g.node_tuple() for g in groups_a] == [g.node_tuple() for g in groups_b]

    def test_repeated_calls_advance_the_rng(self):
        """Repeated ``sample`` calls must not reuse the same subsampled pairs.

        The seed implementation rebuilt ``default_rng(config.seed)`` inside
        every call, so scoring a batch of graphs re-drew identical pair
        indices each time.  The stream now persists across calls: the first
        call is bit-identical to the historical behaviour, later calls draw
        fresh subsamples.
        """
        rng = np.random.default_rng(0)
        graph = Graph(40, rng.integers(0, 40, size=(100, 2)), np.zeros((40, 1)))
        anchors = list(range(20))  # 190 pairs, far above the cap below
        config = SamplerConfig(max_anchor_pairs=25, seed=9)

        sampler = CandidateGroupSampler(config)
        first = [g.node_tuple() for g in sampler.sample(graph, anchors)]
        second = [g.node_tuple() for g in sampler.sample(graph, anchors)]
        fresh = [g.node_tuple() for g in CandidateGroupSampler(config).sample(graph, anchors)]
        assert first == fresh  # first call unchanged vs. a fresh sampler
        assert first != second  # the stream advanced between calls

    def test_explicit_rng_overrides_persistent_stream(self):
        rng = np.random.default_rng(0)
        graph = Graph(40, rng.integers(0, 40, size=(100, 2)), np.zeros((40, 1)))
        anchors = list(range(20))
        config = SamplerConfig(max_anchor_pairs=25, seed=9)

        sampler = CandidateGroupSampler(config)
        baseline = [g.node_tuple() for g in sampler.sample(graph, anchors)]
        # An explicit rng seeded like the config reproduces the first call,
        # regardless of how far the persistent stream has advanced.
        explicit = [
            g.node_tuple()
            for g in sampler.sample(graph, anchors, rng=np.random.default_rng(9))
        ]
        assert explicit == baseline

    def test_sampler_covers_planted_group(self, example_graph):
        """Anchors inside a planted group should produce a candidate covering most of it."""
        target = example_graph.groups[0]
        anchors = sorted(target.nodes)[:3]
        groups = CandidateGroupSampler(SamplerConfig(max_path_length=15)).sample(example_graph, anchors)
        best_overlap = max(len(g.nodes & target.nodes) / len(target.nodes) for g in groups)
        assert best_overlap >= 0.5


class TestSamplerConfigValidation:
    @pytest.mark.parametrize("min_size, max_size", [(10, 5), (0, 5)])
    def test_group_size_bounds_must_be_ordered_and_positive(self, min_size, max_size):
        with pytest.raises(ValueError, match="min_group_size"):
            SamplerConfig(min_group_size=min_size, max_group_size=max_size)
        assert SamplerConfig(min_group_size=5, max_group_size=5).max_group_size == 5

    def test_max_candidates_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_candidates"):
            SamplerConfig(max_candidates=0)

    def test_max_anchor_pairs_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_anchor_pairs"):
            SamplerConfig(max_anchor_pairs=0)
