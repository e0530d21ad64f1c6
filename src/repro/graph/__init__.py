"""Graph substrate: containers, adjacency transforms and group utilities.

Everything downstream (datasets, GAE variants, sampling, contrastive
learning, baselines) operates on :class:`repro.graph.Graph`, an attributed
undirected graph with optional ground-truth anomaly groups attached.
"""

from repro.graph.group import Group
from repro.graph.graph import Graph, InducedSubgraphs, MultiSourceBFS, as_edge_array
from repro.graph.adjacency import (
    normalized_adjacency,
    k_hop_matrix,
    graphsnn_weighted_adjacency,
    row_normalize,
)
from repro.graph.builders import graph_to_networkx

__all__ = [
    "Graph",
    "Group",
    "InducedSubgraphs",
    "MultiSourceBFS",
    "as_edge_array",
    "normalized_adjacency",
    "k_hop_matrix",
    "graphsnn_weighted_adjacency",
    "row_normalize",
    "graph_to_networkx",
]
