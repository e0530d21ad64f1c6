"""Unit tests for topology-pattern search and the PPA/PBA/ND/ER/FM augmentations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.augment import (
    EdgeRemoving,
    FeatureMasking,
    NodeDropping,
    PatternBreakingAugmentation,
    PatternPreservingAugmentation,
    classify_group_pattern,
    find_topology_patterns,
    get_augmentation,
)
from repro.augment.patterns import pattern_statistics
from repro.graph import Graph


def path_graph(n: int = 5) -> Graph:
    features = np.arange(n * 2, dtype=float).reshape(n, 2)
    return Graph(n, [(i, i + 1) for i in range(n - 1)], features)


def star_graph(leaves: int = 4) -> Graph:
    features = np.ones((leaves + 1, 3))
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)], features)


def cycle_graph(n: int = 6) -> Graph:
    features = np.ones((n, 2))
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], features)


class TestPatternSearch:
    def test_path_detected(self):
        patterns = find_topology_patterns(path_graph())
        assert patterns.paths and not patterns.cycles and not patterns.trees
        assert len(patterns.paths[0]) == 5

    def test_star_detected_as_tree(self):
        patterns = find_topology_patterns(star_graph())
        assert patterns.trees
        assert patterns.trees[0]["root"] == 0

    def test_cycle_detected(self):
        patterns = find_topology_patterns(cycle_graph())
        assert patterns.cycles
        assert len(patterns.cycles[0]) == 6

    def test_counts_and_empty(self):
        assert find_topology_patterns(path_graph()).counts()["path"] == 1
        lonely = Graph(2, [], np.zeros((2, 1)))
        assert find_topology_patterns(lonely).is_empty

    def test_classify_precedence(self):
        assert classify_group_pattern(cycle_graph()) == "cycle"
        assert classify_group_pattern(star_graph()) == "tree"
        assert classify_group_pattern(path_graph()) == "path"

    def test_pattern_statistics_on_annotated_graph(self, example_graph):
        counts = pattern_statistics(example_graph)
        assert counts["total"] == example_graph.n_groups
        assert counts["path"] + counts["tree"] + counts["cycle"] == counts["total"]


class TestPatternBreaking:
    def test_pba_drops_path_middle(self, rng):
        graph = path_graph(5)
        broken = PatternBreakingAugmentation()(graph, rng)
        assert broken.n_nodes == 4  # the middle node is gone

    def test_pba_drops_tree_root(self, rng):
        graph = star_graph(4)
        broken = PatternBreakingAugmentation()(graph, rng)
        # Removing the hub leaves isolated leaves: no edges remain.
        assert broken.n_edges == 0

    def test_pba_breaks_cycle(self, rng):
        graph = cycle_graph(6)
        broken = PatternBreakingAugmentation()(graph, rng)
        assert 2 <= broken.n_nodes < 6
        assert classify_group_pattern(broken) != "cycle"

    def test_pba_on_patternless_graph_drops_a_node(self, rng):
        graph = Graph(3, [], np.zeros((3, 2)))
        assert PatternBreakingAugmentation()(graph, rng).n_nodes == 2

    def test_pba_never_returns_tiny_graph(self, rng):
        graph = Graph(2, [(0, 1)], np.zeros((2, 2)))
        assert PatternBreakingAugmentation()(graph, rng).n_nodes >= 2


class TestPatternPreserving:
    def test_ppa_extends_path(self, rng):
        graph = path_graph(5)
        extended = PatternPreservingAugmentation()(graph, rng)
        assert extended.n_nodes == 6
        assert classify_group_pattern(extended) == "path"

    def test_ppa_adds_child_to_tree_root(self, rng):
        graph = star_graph(4)
        extended = PatternPreservingAugmentation()(graph, rng)
        # The star contains both a tree pattern (hub + leaves) and a path
        # pattern (leaf-hub-leaf), so PPA may extend both.
        assert extended.n_nodes >= 6
        assert len(extended.neighbors(0)) == 5  # hub gained exactly one child

    def test_ppa_preserves_cycle(self, rng):
        graph = cycle_graph(6)
        extended = PatternPreservingAugmentation()(graph, rng)
        assert extended.n_nodes > 6
        assert classify_group_pattern(extended) == "cycle"

    def test_ppa_new_node_attributes_are_pattern_average(self, rng):
        graph = path_graph(5)
        extended = PatternPreservingAugmentation()(graph, rng)
        assert extended.features[-1] == pytest.approx(graph.features.mean(axis=0))

    def test_ppa_identity_on_patternless_graph(self, rng):
        graph = Graph(2, [], np.zeros((2, 2)))
        assert PatternPreservingAugmentation()(graph, rng).n_nodes == 2


class TestBaselineAugmentations:
    def test_node_dropping_reduces_nodes(self, rng):
        graph = path_graph(6)
        dropped = NodeDropping(rate=0.3)(graph, rng)
        assert dropped.n_nodes < 6

    def test_node_dropping_keeps_minimum(self, rng):
        graph = Graph(2, [(0, 1)], np.zeros((2, 1)))
        assert NodeDropping(rate=0.9)(graph, rng).n_nodes == 2

    def test_edge_removing_reduces_edges_keeps_nodes(self, rng):
        graph = cycle_graph(6)
        removed = EdgeRemoving(rate=0.3)(graph, rng)
        assert removed.n_nodes == 6
        assert removed.n_edges < 6

    def test_feature_masking_zeroes_columns(self, rng):
        graph = path_graph(5)
        masked = FeatureMasking(rate=0.5)(graph, rng)
        zero_columns = (masked.features == 0).all(axis=0)
        assert zero_columns.any()
        assert masked.n_edges == graph.n_edges

    @pytest.mark.parametrize("name", ["PPA", "PBA", "ND", "ER", "FM"])
    def test_registry_resolves(self, name):
        assert get_augmentation(name).name == name

    def test_registry_unknown_raises(self):
        with pytest.raises(KeyError):
            get_augmentation("XYZ")

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_invalid_rates_raise(self, rate):
        with pytest.raises(ValueError):
            NodeDropping(rate=rate)
        with pytest.raises(ValueError):
            EdgeRemoving(rate=rate)
        with pytest.raises(ValueError):
            FeatureMasking(rate=rate)
