"""Conversion of a :class:`repro.graph.Graph` to ``networkx`` plus group helpers.

networkx is imported inside the converter only: nothing on the detection
path converts, so detection runs without networkx installed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.graph.graph import Graph
from repro.graph.group import Group

if TYPE_CHECKING:
    import networkx as nx


def graph_to_networkx(graph: Graph, feature_key: str = "x") -> "nx.Graph":
    """Convert a :class:`Graph` into a ``networkx`` graph with feature attributes."""
    import networkx as nx

    nx_graph = nx.Graph()
    for node in range(graph.n_nodes):
        nx_graph.add_node(node, **{feature_key: graph.features[node].copy()})
    nx_graph.add_edges_from(graph.edges)
    return nx_graph


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
