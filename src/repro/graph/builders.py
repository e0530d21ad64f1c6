"""Conversions between :class:`repro.graph.Graph` and ``networkx`` plus helpers.

networkx is imported inside the two converters only: nothing on the
detection path converts, so detection runs without networkx installed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.graph.graph import Graph
from repro.graph.group import Group

if TYPE_CHECKING:
    import networkx as nx


def graph_from_networkx(nx_graph: "nx.Graph", feature_key: str = "x", name: str = "graph") -> Graph:
    """Convert a ``networkx`` graph into a :class:`Graph`.

    Node labels are relabelled to consecutive integers (sorted order of the
    original labels).  Per-node features are read from the ``feature_key``
    attribute when present; nodes lacking the attribute get zero vectors.
    """
    nodes = sorted(nx_graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in nx_graph.edges()]

    dims = [
        np.atleast_1d(np.asarray(data[feature_key], dtype=np.float64)).shape[0]
        for _, data in nx_graph.nodes(data=True)
        if feature_key in data
    ]
    dim = max(dims) if dims else 1
    features = np.zeros((len(nodes), dim), dtype=np.float64)
    for node, data in nx_graph.nodes(data=True):
        if feature_key in data:
            vector = np.atleast_1d(np.asarray(data[feature_key], dtype=np.float64))
            features[index[node], : vector.shape[0]] = vector
    return Graph(len(nodes), edges, features, name=name)


def graph_to_networkx(graph: Graph, feature_key: str = "x") -> "nx.Graph":
    """Convert a :class:`Graph` into a ``networkx`` graph with feature attributes."""
    import networkx as nx

    nx_graph = nx.Graph()
    for node in range(graph.n_nodes):
        nx_graph.add_node(node, **{feature_key: graph.features[node].copy()})
    nx_graph.add_edges_from(graph.edges)
    return nx_graph


def union_of_groups(groups: Sequence[Group]) -> Set[int]:
    """Union of the node sets of several groups."""
    union: Set[int] = set()
    for group in groups:
        union |= group.nodes
    return union


def groups_from_components(graph: Graph, nodes: Iterable[int], min_size: int = 2, label: Optional[str] = None) -> List[Group]:
    """Turn connected components of an induced node set into groups.

    This is the AS-GAE-style group extraction used to generalise node-level
    detectors to the Gr-GAD task (Sec. VII-A3 of the paper).
    """
    components = graph.connected_components(nodes)
    groups = []
    for component in components:
        if len(component) < min_size:
            continue
        node_set = set(component)
        edges = [(u, v) for u, v in graph.edges if u in node_set and v in node_set]
        groups.append(Group(nodes=frozenset(component), edges=frozenset(edges), label=label))
    return groups
