"""Reference topology-pattern search on networkx (Alg. 2, line 4).

Before :func:`repro.augment.find_topology_patterns` walked plain adjacency
lists, it converted each candidate subgraph to networkx and ran
``cycle_basis``, ``connected_components``, a subgraph view per component,
``minimum_spanning_tree`` and a double BFS.  That search is kept here,
unchanged, as the oracle the library search must match list for list
(``tests/test_patterns_oracle.py``).
"""

from __future__ import annotations

from typing import List

import networkx as nx

from repro.augment import TopologyPatterns
from repro.graph import Graph, graph_to_networkx


def _longest_path_in_tree(component: nx.Graph) -> List[int]:
    """Diameter path of an acyclic component (double-BFS trick)."""
    start = next(iter(component.nodes))
    lengths = nx.single_source_shortest_path_length(component, start)
    far = max(lengths, key=lengths.get)
    paths = nx.single_source_shortest_path(component, far)
    lengths = {node: len(p) for node, p in paths.items()}
    other = max(lengths, key=lengths.get)
    return paths[other]


def find_topology_patterns(group_graph: Graph, max_patterns_per_kind: int = 4) -> TopologyPatterns:
    patterns = TopologyPatterns()
    nx_graph = graph_to_networkx(group_graph)

    for cycle in nx.cycle_basis(nx_graph):
        if len(patterns.cycles) >= max_patterns_per_kind:
            break
        if len(cycle) >= 3:
            patterns.cycles.append([int(n) for n in cycle])

    for component_nodes in nx.connected_components(nx_graph):
        if len(patterns.paths) >= max_patterns_per_kind and len(patterns.trees) >= max_patterns_per_kind:
            break
        component = nx_graph.subgraph(component_nodes)
        n, m = component.number_of_nodes(), component.number_of_edges()
        if n < 2:
            continue

        degrees = dict(component.degree())
        max_degree = max(degrees.values())
        is_acyclic = m == n - 1

        if is_acyclic:
            path = _longest_path_in_tree(component)
        else:
            spanning = nx.minimum_spanning_tree(component)
            path = _longest_path_in_tree(spanning)
        if len(path) >= 3 and len(patterns.paths) < max_patterns_per_kind:
            patterns.paths.append([int(p) for p in path])

        if is_acyclic and max_degree >= 3 and len(patterns.trees) < max_patterns_per_kind:
            root = max(degrees, key=degrees.get)
            patterns.trees.append(
                {
                    "root": int(root),
                    "nodes": [int(v) for v in component.nodes],
                    "children": [int(v) for v in component.neighbors(root)],
                }
            )
    return patterns


def classify_group_pattern(group_graph: Graph) -> str:
    nx_graph = graph_to_networkx(group_graph)
    if nx_graph.number_of_nodes() == 0:
        return "path"
    if nx.cycle_basis(nx_graph):
        return "cycle"
    degrees = [d for _, d in nx_graph.degree()]
    if degrees and max(degrees) >= 3:
        return "tree"
    return "path"
