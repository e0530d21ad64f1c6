"""Baseline augmentations: Node Dropping, Edge Removing, Feature Masking.

These are the three standard GCL perturbations compared against PPA/PBA in
the Fig. 6 ablation.  They perturb *randomly* and therefore may destroy or
preserve the group's topology pattern by accident — exactly the weakness
the paper's augmentations are designed to avoid.
"""

from __future__ import annotations

from typing import Dict, Type

import numpy as np

from repro.augment.topology import Augmentation, PatternBreakingAugmentation, PatternPreservingAugmentation
from repro.graph import Graph


class NodeDropping(Augmentation):
    """ND: remove a random fraction of nodes."""

    name = "ND"

    def __init__(self, rate: float = 0.2) -> None:
        if not 0.0 < rate < 1.0:
            raise ValueError("drop rate must be in (0, 1)")
        self.rate = rate

    def __call__(self, group_graph: Graph, rng: np.random.Generator, patterns=None) -> Graph:
        n = group_graph.n_nodes
        n_drop = max(1, int(round(self.rate * n)))
        if n - n_drop < 2:
            return group_graph
        drop = set(int(i) for i in rng.choice(n, size=n_drop, replace=False))
        return self._safe_subgraph(group_graph, set(range(n)) - drop)


class EdgeRemoving(Augmentation):
    """ER: remove a random fraction of edges."""

    name = "ER"

    def __init__(self, rate: float = 0.2) -> None:
        if not 0.0 < rate < 1.0:
            raise ValueError("removal rate must be in (0, 1)")
        self.rate = rate

    def __call__(self, group_graph: Graph, rng: np.random.Generator, patterns=None) -> Graph:
        edges = list(group_graph.edges)
        if len(edges) <= 1:
            return group_graph
        n_remove = max(1, int(round(self.rate * len(edges))))
        n_remove = min(n_remove, len(edges) - 1)
        removed = set(int(i) for i in rng.choice(len(edges), size=n_remove, replace=False))
        kept = [edge for index, edge in enumerate(edges) if index not in removed]
        return Graph(group_graph.n_nodes, kept, group_graph.features, name=group_graph.name)


class FeatureMasking(Augmentation):
    """FM: zero out a random fraction of feature columns."""

    name = "FM"

    def __init__(self, rate: float = 0.2) -> None:
        if not 0.0 < rate < 1.0:
            raise ValueError("masking rate must be in (0, 1)")
        self.rate = rate

    def __call__(self, group_graph: Graph, rng: np.random.Generator, patterns=None) -> Graph:
        features = group_graph.features.copy()
        n_mask = max(1, int(round(self.rate * group_graph.n_features)))
        columns = rng.choice(group_graph.n_features, size=min(n_mask, group_graph.n_features), replace=False)
        features[:, columns] = 0.0
        return group_graph.with_features(features)


_REGISTRY: Dict[str, Type[Augmentation]] = {
    "PPA": PatternPreservingAugmentation,
    "PBA": PatternBreakingAugmentation,
    "ND": NodeDropping,
    "ER": EdgeRemoving,
    "FM": FeatureMasking,
}


def get_augmentation(name: str) -> Augmentation:
    """Instantiate an augmentation by its short name (PPA, PBA, ND, ER, FM)."""
    key = name.strip().upper()
    if key not in _REGISTRY:
        raise KeyError(f"unknown augmentation '{name}'; available: {sorted(_REGISTRY)}")
    return _REGISTRY[key]()
