"""Vectorized multi-source search engine behind Algorithm 1.

The seed implementation answered every anchor pair with its own Python
BFS/DFS (kept as the oracle in ``tests/sampler_oracle.py``).  The engine
instead runs **one batched multi-source BFS** from all anchors over the
CSR adjacency (:meth:`repro.graph.Graph.multi_source_bfs`) and answers
every query from the resulting distance/parent/discovery-order forest:

* :meth:`MultiSourceSearchEngine.path_group` reconstructs the shortest
  path ``u -> v`` by walking parent pointers — tie-breaking is identical
  to the oracle's sequential ``shortest_path`` because the batched BFS
  discovers nodes in the same (level, parent discovery index, node id)
  order.
* :meth:`MultiSourceSearchEngine.tree_group` reads the depth-``t`` BFS
  tree of the root straight from the same forest (``dist <= t`` is the
  depth-``t`` frontier union) and keeps the first ``max_nodes`` nodes in
  discovery order — exactly what the seed ``tree_search`` materialised
  with its per-call ``bfs_tree`` plus ordering walk.
* :meth:`MultiSourceSearchEngine.cycle_groups` runs the seed's canonical
  bounded DFS, but prunes every branch that provably cannot close a short
  cycle using the precomputed anchor distances: a node at distance ``d``
  from the anchor can only lie on a cycle of at least ``len(path) + d``
  nodes, so branches violating the length bound are skipped without
  changing which cycles are found or their enumeration order.

Node-set (and edge-set) parity with the seed searches is pinned by
``tests/test_sampler_parity.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph import Graph, Group


class MultiSourceSearchEngine:
    """Answer path/tree/cycle queries for a fixed anchor set from one BFS.

    Parameters
    ----------
    graph:
        The graph to search.
    anchors:
        Anchor nodes; one BFS forest is grown per (distinct position in
        the) anchor list.  Duplicate anchors are harmless — they map to
        the first matching BFS row.
    max_depth:
        Hop bound for the batched BFS.  Must cover every query the engine
        will serve: at least ``max_path_length`` for paths, ``tree_depth``
        for trees and ``max_cycle_length`` for the cycle pruning bound.
        ``None`` explores exhaustively.
    """

    def __init__(self, graph: Graph, anchors: Sequence[int], max_depth: Optional[int] = None) -> None:
        self.graph = graph
        self.anchors = [int(a) for a in anchors]
        self.max_depth = max_depth
        self._row: Dict[int, int] = {}
        for index, anchor in enumerate(self.anchors):
            self._row.setdefault(anchor, index)
        self.bfs = graph.multi_source_bfs(self.anchors, depth=max_depth)
        # The base BFS tree of a root depends only on (root, depth,
        # max_nodes); anchor pairs share roots, so memoize it per root.
        self._tree_base: Dict[Tuple[int, int, int], Optional[Tuple[Set[int], Group]]] = {}

    def _row_of(self, node: int) -> int:
        """BFS row of an anchor, with a clear error for non-anchors."""
        row = self._row.get(node)
        if row is None:
            raise ValueError(f"node {node} is not one of this engine's anchors")
        return row

    # ------------------------------------------------------------------
    # Path search
    # ------------------------------------------------------------------
    def path_group(self, source: int, target: int, max_length: Optional[int] = None) -> Optional[Group]:
        """Shortest-path candidate group, matching the oracle ``path_search``."""
        source, target = int(source), int(target)
        if source == target:
            return None
        row = self._row_of(source)
        hops = int(self.bfs.dist[row, target])
        if hops < 0 or (max_length is not None and hops > max_length):
            return None
        return Group.from_path(self.bfs.path(row, target))

    # ------------------------------------------------------------------
    # Tree search
    # ------------------------------------------------------------------
    def _tree_edges(self, parent_row: np.ndarray, kept: Set[int]) -> Set[Tuple[int, int]]:
        """BFS-tree edges internal to ``kept``.

        ``kept`` is always closed under BFS parents here (a parent is
        discovered before its child, and the ancestry walk below adds whole
        chains), so every non-root member contributes its parent edge —
        matching the seed's ``parents[n] in kept`` filter.
        """
        return {(int(parent_row[n]), n) for n in kept if int(parent_row[n]) != n}

    def _tree_base_group(self, root: int, depth: int, max_nodes: int) -> Optional[Tuple[Set[int], Group]]:
        """The depth-bounded BFS tree of ``root``, truncated to ``max_nodes``.

        Returns ``(kept node set, base group)`` — the ``tree_search``
        result before the far anchor's ancestry is grafted in — or None
        when fewer than two nodes are reachable.
        """
        key = (root, depth, max_nodes)
        if key not in self._tree_base:
            row = self._row_of(root)
            dist_row = self.bfs.dist[row]
            within = (dist_row >= 0) & (dist_row <= depth)
            nodes = np.flatnonzero(within)
            if nodes.size < 2:
                self._tree_base[key] = None
            else:
                closest_first = nodes[np.argsort(self.bfs.order[row][nodes])]
                kept = {int(n) for n in closest_first[:max_nodes]}
                edges = self._tree_edges(self.bfs.parent[row], kept)
                group = Group(nodes=frozenset(kept), edges=frozenset(edges), label="tree")
                self._tree_base[key] = (kept, group)
        return self._tree_base[key]

    def tree_group(self, root: int, other: int, depth: int = 2, max_nodes: int = 30) -> Optional[Group]:
        """BFS-tree candidate group, matching the oracle ``tree_search``."""
        root, other = int(root), int(other)
        base = self._tree_base_group(root, depth, max_nodes)
        if base is None:
            return None
        base_kept, base_group = base

        row = self._row_of(root)
        other_dist = int(self.bfs.dist[row, other])
        if not (0 <= other_dist <= depth) or other in base_kept:
            # ``other`` is unreachable (no graft) or already kept — and its
            # ancestors are then kept too, since kept is the discovery-order
            # prefix and parents precede children.  Either way: base tree.
            return base_group

        parent_row = self.bfs.parent[row]
        kept = set(base_kept)
        kept.add(other)
        cursor = other
        while int(parent_row[cursor]) != cursor:
            cursor = int(parent_row[cursor])
            kept.add(cursor)
        return Group(
            nodes=frozenset(kept),
            edges=frozenset(self._tree_edges(parent_row, kept)),
            label="tree",
        )

    # ------------------------------------------------------------------
    # Cycle search
    # ------------------------------------------------------------------
    def cycle_groups(self, node: int, max_cycle_length: int = 8, max_cycles: int = 5) -> List[Group]:
        """Cycle candidate groups, matching the oracle ``cycle_search``.

        The DFS explores the same canonical (higher-numbered-nodes-only)
        search tree as the seed in the same neighbour order; the distance
        table merely prunes branches that cannot reach back to ``node``
        within the length bound, which keeps enumeration order intact.
        """
        node = int(node)
        dist_row = self.bfs.dist[self._row_of(node)]
        graph = self.graph
        cycles: List[Group] = []
        found: Set[frozenset] = set()

        def dfs(current: int, path: List[int], visited: Set[int]) -> None:
            if len(cycles) >= max_cycles:
                return
            if len(path) > max_cycle_length:
                return
            length = len(path)
            for neighbor in graph.neighbors(current):
                if neighbor == node and length >= 3:
                    signature = frozenset(path)
                    if signature not in found:
                        found.add(signature)
                        cycles.append(Group.from_cycle(list(path)))
                        if len(cycles) >= max_cycles:
                            return
                elif neighbor not in visited and neighbor > node:
                    # A cycle through the current path and this neighbour
                    # needs >= length + dist(anchor, neighbour) nodes.
                    hops_back = dist_row[neighbor]
                    if hops_back < 0 or length + hops_back > max_cycle_length:
                        continue
                    visited.add(neighbor)
                    path.append(neighbor)
                    dfs(neighbor, path, visited)
                    path.pop()
                    visited.discard(neighbor)

        dfs(node, [node], {node})
        return cycles
