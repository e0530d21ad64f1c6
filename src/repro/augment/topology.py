"""Pattern Preserving / Pattern Breaking Augmentations (PPA & PBA, Alg. 2).

Both augmentations first locate the topology patterns inside a candidate
group and then perturb them with a *prescribed* effect:

* **PBA** (negative view) — drop tree roots, drop path middles, drop two
  nodes of each cycle: the intrinsic patterns are destroyed.
* **PPA** (positive view) — add a child to each tree root, extend each path
  at an endpoint, widen each cycle with a chord node: the patterns are
  preserved and expanded.  New node attributes are the average of the
  pattern's existing members, as specified in Alg. 2.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from repro.augment.patterns import TopologyPatterns, find_topology_patterns
from repro.graph import Graph


class Augmentation:
    """Base class: an augmentation maps a group subgraph to a perturbed copy.

    ``patterns`` may carry the subgraph's :func:`find_topology_patterns`
    result so a caller that augments the same subgraph repeatedly searches
    it once; augmentations with ``uses_patterns = False`` ignore it.
    """

    name = "identity"
    uses_patterns = False

    def __call__(
        self,
        group_graph: Graph,
        rng: np.random.Generator,
        patterns: Optional[TopologyPatterns] = None,
    ) -> Graph:
        raise NotImplementedError

    @staticmethod
    def _safe_subgraph(group_graph: Graph, keep: Set[int]) -> Graph:
        """Induced subgraph on ``keep``; falls back to the input when too small."""
        keep = {n for n in keep if 0 <= n < group_graph.n_nodes}
        if len(keep) < 2:
            return group_graph
        return group_graph.subgraph(keep)


class PatternBreakingAugmentation(Augmentation):
    """PBA: generate the negative view by destroying intrinsic patterns."""

    name = "PBA"
    uses_patterns = True

    def __call__(
        self,
        group_graph: Graph,
        rng: np.random.Generator,
        patterns: Optional[TopologyPatterns] = None,
    ) -> Graph:
        if patterns is None:
            patterns = find_topology_patterns(group_graph)
        if patterns.is_empty:
            # Without explicit patterns, fall back to dropping a random node,
            # which is the strongest generic structural perturbation.
            victim = int(rng.integers(0, group_graph.n_nodes))
            keep = set(range(group_graph.n_nodes)) - {victim}
            return self._safe_subgraph(group_graph, keep)

        to_drop: Set[int] = set()
        for tree in patterns.trees:
            to_drop.add(int(tree["root"]))  # Alg. 2 line 7
        for path in patterns.paths:
            to_drop.add(int(path[len(path) // 2]))  # Alg. 2 line 12
        for cycle in patterns.cycles:
            chosen = rng.choice(len(cycle), size=min(2, len(cycle)), replace=False)  # Alg. 2 line 17
            to_drop.update(int(cycle[i]) for i in np.atleast_1d(chosen))

        keep = set(range(group_graph.n_nodes)) - to_drop
        return self._safe_subgraph(group_graph, keep)


class PatternPreservingAugmentation(Augmentation):
    """PPA: generate the positive view by extending intrinsic patterns."""

    name = "PPA"
    uses_patterns = True

    def __call__(
        self,
        group_graph: Graph,
        rng: np.random.Generator,
        patterns: Optional[TopologyPatterns] = None,
    ) -> Graph:
        if patterns is None:
            patterns = find_topology_patterns(group_graph)
        if patterns.is_empty:
            return group_graph

        new_features: List[np.ndarray] = []
        new_edges: List[Tuple[int, int]] = []
        next_id = group_graph.n_nodes
        features = group_graph.features

        for tree in patterns.trees:
            children = tree["children"] or tree["nodes"]
            attribute = features[list(children)].mean(axis=0)  # Alg. 2 line 8
            new_features.append(attribute)
            new_edges.append((int(tree["root"]), next_id))
            next_id += 1

        for path in patterns.paths:
            endpoint = int(path[-1])
            attribute = features[list(path)].mean(axis=0)  # Alg. 2 line 13
            new_features.append(attribute)
            new_edges.append((endpoint, next_id))
            next_id += 1

        for cycle in patterns.cycles:
            pick = rng.choice(len(cycle), size=2, replace=False)
            n1, n2 = int(cycle[pick[0]]), int(cycle[pick[1]])
            attribute = features[list(cycle)].mean(axis=0)  # Alg. 2 line 18
            new_features.append(attribute)
            new_edges.extend([(n1, next_id), (n2, next_id)])
            next_id += 1

        if not new_features:
            return group_graph
        return group_graph.add_nodes_and_edges(np.vstack(new_features), new_edges)
