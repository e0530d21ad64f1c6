"""The topology-pattern search equals its networkx oracle, list for list.

PBA and PPA consume ``trees``, ``paths`` and ``cycles`` in order (tree
roots, path midpoints, cycle picks), so
:func:`repro.augment.find_topology_patterns` must reproduce
``tests/patterns_oracle.py`` exactly, not just up to order.  Checked on
every candidate subgraph of the golden example fits, on every
ground-truth group of the registry datasets at reduced scale, on a fixed
sweep of sparse random graphs and forests (many components, several of
them under half the graph, whose node order comes from networkx's
subgraph-view set), and on hypothesis graphs, under several
``max_patterns_per_kind`` caps.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.augment import classify_group_pattern, find_topology_patterns
from repro.augment.patterns import pattern_statistics
from repro.datasets import load_dataset, make_example_graph
from repro.datasets.registry import available_datasets
from repro.graph import Graph

import patterns_oracle as oracle

GOLDEN_DIR = Path(__file__).parent / "golden"
CAPS = (0, 1, 2, 4)


def assert_same_patterns(graph: Graph, cap: int = 4) -> None:
    found = find_topology_patterns(graph, max_patterns_per_kind=cap)
    expected = oracle.find_topology_patterns(graph, max_patterns_per_kind=cap)
    assert found.cycles == expected.cycles
    assert found.paths == expected.paths
    assert found.trees == expected.trees
    assert classify_group_pattern(graph) == oracle.classify_group_pattern(graph)


def sparse_graph(rng: random.Random) -> Graph:
    """Up to 40 nodes, mostly sparse: forests, paths, isolated nodes and small cycles."""
    n = rng.randint(1, 40)
    if rng.random() < 0.3:
        edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
    else:
        p = rng.choice([0.02, 0.05, 0.08, 0.12, 0.2])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


@pytest.mark.parametrize("name", ["example_seed7", "example_seed11"])
def test_every_golden_candidate_matches(name):
    graph_seed = int(name.rsplit("seed", 1)[1])
    graph = make_example_graph(seed=graph_seed)
    with open(GOLDEN_DIR / f"{name}.json") as handle:
        candidates = json.load(handle)["candidate_groups"]
    # The subgraphs TPGCL searches: one columnar pass, as in ``TPGCL.fit``.
    induced = graph.induced_subgraphs(candidates)
    assert len(induced) == len(candidates) > 0
    for rows, edges in induced.parts():
        subgraph = Graph.from_canonical(rows.stop - rows.start, edges, graph.features[induced.nodes[rows]])
        for cap in CAPS:
            assert_same_patterns(subgraph, cap)


@pytest.mark.parametrize("name", available_datasets())
def test_registry_groups_and_statistics_match(name):
    graph = load_dataset(name, scale=0.1, seed=0)
    expected = {"path": 0, "tree": 0, "cycle": 0, "total": len(graph.groups)}
    for group in graph.groups:
        subgraph = graph.group_subgraph(group)
        assert_same_patterns(subgraph)
        expected[oracle.classify_group_pattern(subgraph)] += 1
    assert pattern_statistics(graph) == expected


def test_sparse_random_graphs_and_forests_match():
    rng = random.Random(2024)
    small_components = 0
    for _ in range(400):
        graph = sparse_graph(rng)
        for cap in CAPS:
            assert_same_patterns(graph, cap)
        sizes = [len(c) for c in graph.connected_components()]
        small_components += sum(1 for size in sizes if 2 <= size and 2 * size < graph.n_nodes)
    # The sweep must reach the subgraph-view ordering it is meant to pin.
    assert small_components > 100


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=40, unique=True)) if possible else []
    return Graph(n, edges)


@given(graphs(), st.sampled_from(CAPS))
@settings(max_examples=150, deadline=None)
def test_hypothesis_graphs_match(graph, cap):
    assert_same_patterns(graph, cap)
