"""Topology-pattern searching inside candidate groups (Alg. 2, line 4).

Given the induced subgraph of a candidate group, :func:`find_topology_patterns`
returns the trees, paths and cycles it contains — the three basic pattern
classes the paper builds on (triangles, diamonds and stars being special
cases of cycles and trees).  :func:`classify_group_pattern` assigns a single
dominant pattern to a group, which is what the Table II statistics report.

The search runs over the subgraph's own edge list with plain adjacency
lists.  PBA and PPA consume the pattern lists in order, so every traversal
below visits nodes in exactly the order networkx 3.x does for the same
graph (``cycle_basis``, ``connected_components``, a subgraph view, a
Kruskal ``minimum_spanning_tree`` and a double BFS); the networkx search
is kept in ``tests/patterns_oracle.py`` as the oracle it must match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, Optional, Union

from repro.graph import Graph


@dataclass
class TopologyPatterns:
    """Patterns discovered inside one candidate group.

    ``trees`` are stored as (root, nodes) pairs, ``paths`` as node sequences
    (endpoint to endpoint), ``cycles`` as node sequences around the loop.
    All node indices are local to the group's induced subgraph.
    """

    trees: List[dict] = field(default_factory=list)
    paths: List[List[int]] = field(default_factory=list)
    cycles: List[List[int]] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not (self.trees or self.paths or self.cycles)

    def counts(self) -> dict:
        return {"tree": len(self.trees), "path": len(self.paths), "cycle": len(self.cycles)}


def _adjacency(graph: Graph) -> List[List[int]]:
    """Neighbour lists in edge-list order, as ``networkx.Graph.add_edges_from`` keeps them."""
    adjacency: List[List[int]] = [[] for _ in range(graph.n_nodes)]
    for u, v in zip(*graph.edge_index.tolist()):
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


def _cycle_basis(adjacency: List[List[int]]) -> Iterator[List[int]]:
    """Fundamental cycles in ``networkx.cycle_basis`` order, lazily.

    Each component is walked depth-first from its highest-numbered node
    (``dict.popitem`` pops the last key), closing a cycle at every non-tree
    edge.  The graph has no self loops, so every cycle has three or more nodes.
    """
    remaining = dict.fromkeys(range(len(adjacency)))
    while remaining:
        root = remaining.popitem()[0]
        stack = [root]
        pred = {root: root}
        used = {root: set()}
        while stack:
            z = stack.pop()
            zused = used[z]
            for nbr in adjacency[z]:
                if nbr not in used:
                    pred[nbr] = z
                    stack.append(nbr)
                    used[nbr] = {z}
                elif nbr not in zused:
                    pn = used[nbr]
                    cycle = [nbr, z]
                    p = pred[z]
                    while p not in pn:
                        cycle.append(p)
                        p = pred[p]
                    cycle.append(p)
                    yield cycle
                    used[nbr].add(z)
        for node in pred:
            remaining.pop(node, None)


def _components(adjacency: List[List[int]]) -> Iterator[List[int]]:
    """Connected components in ``networkx`` order, each as its subgraph view walks it.

    Components come in order of their lowest node.  ``connected_components``
    yields each one as a set grown in BFS order, and ``Graph.subgraph``
    re-collects it as ``set(<generator over that set>)``, whose iteration
    order can differ from a plain copy's.  The view walks that set when the
    component holds under half the graph's nodes, else the graph's own
    (ascending) node order; tree roots, BFS starts and node lists follow it.
    """
    n = len(adjacency)
    seen: set = set()
    for source in range(n):
        if source in seen:
            continue
        component = {source}
        level = [source]
        while level:
            next_level = []
            for v in level:
                for w in adjacency[v]:
                    if w not in component:
                        component.add(w)
                        next_level.append(w)
            level = next_level
        seen.update(component)
        members = set(node for node in component)
        yield list(members) if 2 * len(members) < n else sorted(members)


def _diameter_path(start: int, adjacency: Union[List[List[int]], Dict[int, List[int]]]) -> List[int]:
    """Diameter path of a tree (double BFS), as networkx's shortest-path BFS breaks ties.

    Each BFS keeps the first node it discovers at the largest depth; the
    path runs from the first BFS's far node to the second's.
    """

    def bfs(source: int) -> tuple:
        parent = {source: source}
        frontier, last_level = [source], [source]
        while frontier:
            last_level = frontier
            frontier = []
            for v in last_level:
                for w in adjacency[v]:
                    if w not in parent:
                        parent[w] = v
                        frontier.append(w)
        return last_level[0], parent

    far, _ = bfs(start)
    other, parent = bfs(far)
    path = [other]
    while path[-1] != far:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _spanning_tree(order: List[int], adjacency: List[List[int]]) -> Dict[int, List[int]]:
    """Adjacency of ``networkx.minimum_spanning_tree`` on an unweighted component.

    Kruskal with equal weights keeps the view's edge order (node by node in
    ``order``, each edge once) and takes every edge that joins two trees;
    the tree's neighbour lists grow in that order.
    """
    root = {v: v for v in order}

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    tree: Dict[int, List[int]] = {v: [] for v in order}
    done = set()
    for u in order:
        for v in adjacency[u]:
            if v in done:
                continue
            ru, rv = find(u), find(v)
            if ru != rv:
                root[ru] = rv
                tree[u].append(v)
                tree[v].append(u)
        done.add(u)
    return tree


def find_topology_patterns(group_graph: Graph, max_patterns_per_kind: int = 4) -> TopologyPatterns:
    """Locate tree / path / cycle patterns inside a candidate-group subgraph.

    Parameters
    ----------
    group_graph:
        The induced subgraph of the candidate group (local node indices).
    max_patterns_per_kind:
        Cap on the number of patterns reported per kind, keeping the
        augmentation cost bounded for dense groups.
    """
    patterns = TopologyPatterns()
    adjacency = _adjacency(group_graph)

    # Cycles: cycle basis gives one representative per independent cycle.
    patterns.cycles.extend(islice(_cycle_basis(adjacency), max_patterns_per_kind))

    for order in _components(adjacency):
        if len(patterns.paths) >= max_patterns_per_kind and len(patterns.trees) >= max_patterns_per_kind:
            break
        n = len(order)
        if n < 2:
            continue

        degrees = [len(adjacency[v]) for v in order]
        max_degree = max(degrees)
        is_acyclic = sum(degrees) == 2 * (n - 1)

        # Path pattern: the longest simple chain in the component; for a
        # cyclic component, the diameter path of its spanning tree.
        if is_acyclic:
            path = _diameter_path(order[0], adjacency)
        else:
            path = _diameter_path(order[0], _spanning_tree(order, adjacency))
        if len(path) >= 3 and len(patterns.paths) < max_patterns_per_kind:
            patterns.paths.append(path)

        # Tree pattern: acyclic component with branching (a pure chain is a
        # path, not a tree in the paper's taxonomy).
        if is_acyclic and max_degree >= 3 and len(patterns.trees) < max_patterns_per_kind:
            root = order[degrees.index(max_degree)]
            patterns.trees.append({"root": root, "nodes": order, "children": list(adjacency[root])})
    return patterns


def classify_group_pattern(group_graph: Graph) -> str:
    """Dominant topology pattern of a group: ``"cycle"``, ``"tree"`` or ``"path"``.

    The precedence (cycle > tree > path) matches how the paper tallies
    Table II: any group containing a cycle is cyclic; otherwise branching
    structures are trees; pure chains are paths.
    """
    adjacency = _adjacency(group_graph)
    if next(_cycle_basis(adjacency), None) is not None:
        return "cycle"
    if max(len(neighbours) for neighbours in adjacency) >= 3:
        return "tree"
    return "path"


def pattern_statistics(graph: Graph, groups: Optional[list] = None) -> dict:
    """Count dominant patterns over a dataset's ground-truth groups (Table II)."""
    groups = list(graph.groups if groups is None else groups)
    counts = {"path": 0, "tree": 0, "cycle": 0}
    for group in groups:
        counts[classify_group_pattern(graph.group_subgraph(group))] += 1
    counts["total"] = len(groups)
    return counts
