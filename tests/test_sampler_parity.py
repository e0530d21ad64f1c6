"""Parity: vectorized multi-source search engine vs. the seed searches.

Every graph in the suite (seeded random graphs of varying density plus
structured builder graphs) is checked three ways:

* per-search parity — ``path_group`` / ``tree_group`` / ``cycle_groups``
  against the seed ``path_search`` / ``tree_search`` / ``cycle_search``
  for every anchor pair, comparing node sets *and* edge sets,
* sampler-level parity — ``CandidateGroupSampler`` vs. the per-pair
  oracle ``PerPairSampler`` (``tests/sampler_oracle.py``) returns identical
  deduped candidate lists (including the rng-driven pair/candidate
  subsampling),
* the same under alternate hyperparameters where the cutoffs bind.
"""

from __future__ import annotations

from typing import List, Tuple

import networkx as nx
import numpy as np
import pytest

from repro.datasets import make_example_graph
from repro.graph import Graph
from repro.sampling import CandidateGroupSampler, MultiSourceSearchEngine, SamplerConfig

from sampler_oracle import PerPairSampler, bfs_tree, cycle_search, path_search, shortest_path, tree_search


def _random_graph(seed: int, max_nodes: int = 60, density: float = 2.0) -> Graph:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, max_nodes))
    m = int(rng.integers(1, max(2, int(density * n))))
    edges = rng.integers(0, n, size=(m, 2))
    return Graph(n, edges, np.zeros((n, 1)), name=f"random-{seed}")


def _from_networkx(nx_graph: nx.Graph, name: str) -> Graph:
    """A :class:`Graph` with the edges of a networkx graph whose nodes are ``0 .. n-1``."""
    return Graph(nx_graph.number_of_nodes(), list(nx_graph.edges), name=name)


def _builder_graphs() -> List[Tuple[str, Graph]]:
    ring_plus_chords = Graph(12, [(i, (i + 1) % 12) for i in range(12)] + [(0, 6), (3, 9)])
    return [
        ("ring-chords", ring_plus_chords),
        ("complete-k7", _from_networkx(nx.complete_graph(7), name="k7")),
        ("barbell", _from_networkx(nx.barbell_graph(5, 3), name="barbell")),
        ("balanced-tree", _from_networkx(nx.balanced_tree(2, 3), name="tree")),
        ("grid-4x5", _from_networkx(nx.convert_node_labels_to_integers(nx.grid_2d_graph(4, 5)), name="grid")),
        ("karate", _from_networkx(nx.karate_club_graph(), name="karate")),
        ("petersen", _from_networkx(nx.petersen_graph(), name="petersen")),
        ("disconnected", Graph(10, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (7, 4)])),
        ("example-7", make_example_graph(seed=7)),
        ("example-11", make_example_graph(seed=11)),
    ]


PARITY_GRAPHS: List[Tuple[str, Graph]] = [
    (f"random-{seed}", _random_graph(seed, density=float(1 + seed % 4))) for seed in range(12)
] + _builder_graphs()

assert len(PARITY_GRAPHS) >= 20

CONFIG_VARIANTS = [
    SamplerConfig(),
    SamplerConfig(max_path_length=3, tree_depth=1, max_group_size=6, max_cycle_length=5, max_cycles_per_anchor=2),
]


def _anchors(graph: Graph, count: int = 7) -> List[int]:
    """A deterministic mix of high-degree and spread-out anchor nodes."""
    degrees = np.diff(graph.adjacency(sparse=True).indptr)
    by_degree = np.argsort(-degrees)[: count // 2]
    spread = np.linspace(0, graph.n_nodes - 1, count).astype(int)
    return sorted({int(a) for a in np.concatenate([by_degree, spread])})


def _same_group(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.node_tuple() == b.node_tuple() and a.edges == b.edges and a.label == b.label


@pytest.mark.parametrize("name,graph", PARITY_GRAPHS, ids=[name for name, _ in PARITY_GRAPHS])
@pytest.mark.parametrize("config", CONFIG_VARIANTS, ids=["default", "tight"])
def test_engine_matches_seed_searches(name, graph, config):
    anchors = _anchors(graph)
    depth = max(config.max_path_length, config.tree_depth, config.max_cycle_length)
    engine = MultiSourceSearchEngine(graph, anchors, max_depth=depth)
    for i, u in enumerate(anchors):
        for v in anchors[i + 1:]:
            assert _same_group(
                engine.path_group(u, v, max_length=config.max_path_length),
                path_search(graph, u, v, max_length=config.max_path_length),
            ), f"path parity broke on {name} pair ({u}, {v})"
            assert _same_group(
                engine.tree_group(u, v, depth=config.tree_depth, max_nodes=config.max_group_size),
                tree_search(graph, u, v, depth=config.tree_depth, max_nodes=config.max_group_size),
            ), f"tree parity broke on {name} pair ({u}, {v})"
        engine_cycles = engine.cycle_groups(
            u, max_cycle_length=config.max_cycle_length, max_cycles=config.max_cycles_per_anchor
        )
        seed_cycles = cycle_search(
            graph, u, max_cycle_length=config.max_cycle_length, max_cycles=config.max_cycles_per_anchor
        )
        assert len(engine_cycles) == len(seed_cycles), f"cycle count parity broke on {name} anchor {u}"
        for engine_cycle, seed_cycle in zip(engine_cycles, seed_cycles):
            assert _same_group(engine_cycle, seed_cycle), f"cycle parity broke on {name} anchor {u}"


@pytest.mark.parametrize("name,graph", PARITY_GRAPHS, ids=[name for name, _ in PARITY_GRAPHS])
def test_sampler_matches_seed_sampler(name, graph):
    """Full sampler parity, exercising the rng-driven subsampling paths."""
    anchors = _anchors(graph, count=9)
    config = SamplerConfig(max_anchor_pairs=12, max_candidates=18, seed=3)
    vectorized = CandidateGroupSampler(config).sample(graph, anchors)
    per_pair = PerPairSampler(config).sample(graph, anchors)
    assert [g.node_tuple() for g in vectorized] == [g.node_tuple() for g in per_pair]
    assert [g.edges for g in vectorized] == [g.edges for g in per_pair]
    assert [g.label for g in vectorized] == [g.label for g in per_pair]


def test_path_reconstruction_matches_shortest_path():
    """The BFS forest reproduces the oracle shortest_path tie-breaking exactly."""
    for seed in range(6):
        graph = _random_graph(100 + seed, max_nodes=40, density=3.0)
        sources = _anchors(graph, count=5)
        bfs = graph.multi_source_bfs(sources)
        for row, source in enumerate(sources):
            for target in range(graph.n_nodes):
                assert bfs.path(row, target) == shortest_path(graph, source, target)


def test_bfs_tree_matches_forest_parents():
    """Depth-bounded forest rows agree with the oracle bfs_tree parent maps."""
    for seed in range(6):
        graph = _random_graph(200 + seed, max_nodes=40, density=2.5)
        sources = _anchors(graph, count=5)
        for depth in (1, 2, 4):
            bfs = graph.multi_source_bfs(sources, depth=depth)
            for row, source in enumerate(sources):
                parents = bfs_tree(graph, source, depth)
                reached = {int(n) for n in np.flatnonzero(bfs.dist[row] >= 0)}
                assert reached == set(parents)
                for node, parent in parents.items():
                    assert int(bfs.parent[row, node]) == parent


def test_engine_rejects_non_anchor_queries():
    graph = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    engine = MultiSourceSearchEngine(graph, [0, 2], max_depth=5)
    with pytest.raises(ValueError, match="not one of this engine's anchors"):
        engine.path_group(5, 0)
    with pytest.raises(ValueError, match="not one of this engine's anchors"):
        engine.tree_group(5, 0)
    with pytest.raises(ValueError, match="not one of this engine's anchors"):
        engine.cycle_groups(5)
    # target of a path may be any node — only the source needs a BFS row
    assert engine.path_group(0, 5) is not None
