"""Reference candidate sampler: one seed search per anchor pair.

Before the multi-source search engine, :class:`repro.sampling.CandidateGroupSampler`
ran one :func:`path_search` / :func:`tree_search` per anchor pair and one
:func:`cycle_search` per anchor, each a traversal of its own.  Those
searches and that collection step are kept here as the oracle the engine
must match exactly — node sets, edge sets, labels and order
(``tests/test_sampler_parity.py``, ``tests/test_properties.py``) — and as
the baseline arm of ``benchmarks/test_scaling_sparse.py``.

The paper uses Bellman-Ford for path search, BFS for tree search and the
Birmelé et al. cycle listing algorithm.  On unweighted graphs Bellman-Ford
and BFS return identical shortest paths, so BFS is used for both; cycle
search enumerates cycles through a given node with a depth-bounded DFS,
which matches the bounded listing the paper relies on (financial cycles
of interest are short).

Only :meth:`PerPairSampler.collect` differs from the library sampler, so
pair proposal, filtering, dedup, the candidate cap and the rng stream are
shared.

:func:`shortest_path` and :func:`bfs_tree` are the sequential Python BFS
the searches stand on; they are also the oracle for
:meth:`repro.graph.Graph.multi_source_bfs` (``tests/test_graph.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.graph import Graph, Group
from repro.sampling import CandidateGroupSampler


def bfs_tree(graph: Graph, root: int, depth: int) -> Dict[int, int]:
    """Breadth-first tree from ``root`` to at most ``depth`` hops.

    Returns a mapping ``node -> parent`` (the root maps to itself).
    """
    root = int(root)
    parents = {root: root}
    frontier = [root]
    for _ in range(depth):
        next_frontier = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in parents:
                    parents[neighbor] = node
                    next_frontier.append(neighbor)
        frontier = next_frontier
        if not frontier:
            break
    return parents


def shortest_path(graph: Graph, source: int, target: int, cutoff: Optional[int] = None) -> Optional[List[int]]:
    """Unweighted shortest path between two nodes (BFS), or None if unreachable.

    ``cutoff`` bounds the number of hops explored.
    """
    source, target = int(source), int(target)
    if source == target:
        return [source]
    parents = {source: source}
    frontier = [source]
    hops = 0
    while frontier:
        if cutoff is not None and hops >= cutoff:
            return None
        hops += 1
        next_frontier = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor in parents:
                    continue
                parents[neighbor] = node
                if neighbor == target:
                    path = [target]
                    while path[-1] != source:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                next_frontier.append(neighbor)
        frontier = next_frontier
    return None


def path_search(graph: Graph, source: int, target: int, max_length: Optional[int] = None) -> Optional[Group]:
    """Shortest path between two anchors as a candidate group.

    Returns None when the anchors are disconnected (or further apart than
    ``max_length`` hops) or when the path is trivial (identical anchors or a
    single edge shared by both anchors is still returned as a 2-node group).
    """
    path = shortest_path(graph, source, target, cutoff=max_length)
    if path is None or len(path) < 2:
        return None
    return Group.from_path(path)


def tree_search(graph: Graph, root: int, other: int, depth: int = 2, max_nodes: int = 30) -> Optional[Group]:
    """Bounded-depth BFS tree rooted at ``root``, biased to reach ``other``.

    The tree collects the BFS neighbourhood of ``root`` up to ``depth`` hops
    (capped at ``max_nodes`` nodes).  If ``other`` lies inside the collected
    ball it is guaranteed to be included, which reproduces the paper's
    "hierarchical structures between anchor nodes v and µ".
    """
    parents = bfs_tree(graph, root, depth)
    if len(parents) < 2:
        return None

    # Keep closest nodes first so truncation preserves the tree property.
    ordering: List[int] = []
    frontier = [int(root)]
    seen = {int(root)}
    while frontier and len(ordering) < max_nodes:
        next_frontier = []
        for node in frontier:
            ordering.append(node)
            if len(ordering) >= max_nodes:
                break
            for child, parent in parents.items():
                if parent == node and child not in seen and child != parent:
                    seen.add(child)
                    next_frontier.append(child)
        frontier = next_frontier

    kept = set(ordering)
    if int(other) in parents:
        kept.add(int(other))
        # Walk other's ancestry so the tree stays connected.
        cursor = int(other)
        while cursor != parents[cursor]:
            cursor = parents[cursor]
            kept.add(cursor)

    edges = {(parents[n], n) for n in kept if parents[n] != n and parents[n] in kept}
    if len(kept) < 2:
        return None
    return Group(nodes=frozenset(kept), edges=frozenset(edges), label="tree")


def cycle_search(
    graph: Graph,
    node: int,
    max_cycle_length: int = 8,
    max_cycles: int = 5,
) -> List[Group]:
    """Cycles passing through ``node`` (depth-bounded DFS enumeration).

    Returns up to ``max_cycles`` distinct simple cycles of length at most
    ``max_cycle_length`` containing ``node``.
    """
    node = int(node)
    cycles: List[Group] = []
    found: Set[frozenset] = set()

    def dfs(current: int, path: List[int], visited: Set[int]) -> None:
        if len(cycles) >= max_cycles:
            return
        if len(path) > max_cycle_length:
            return
        for neighbor in graph.neighbors(current):
            if neighbor == node and len(path) >= 3:
                signature = frozenset(path)
                if signature not in found:
                    found.add(signature)
                    cycles.append(Group.from_cycle(list(path)))
                    if len(cycles) >= max_cycles:
                        return
            elif neighbor not in visited and neighbor > node:
                # Only expand through higher-numbered nodes so each cycle is
                # enumerated once (canonical smallest-node representation).
                visited.add(neighbor)
                path.append(neighbor)
                dfs(neighbor, path, visited)
                path.pop()
                visited.discard(neighbor)

    dfs(node, [node], {node})
    return cycles


class PerPairSampler(CandidateGroupSampler):
    """:class:`CandidateGroupSampler` answering every search with the seed searches."""

    def collect(
        self, graph: Graph, anchors: Sequence[int], pairs: Sequence[Tuple[int, int]]
    ) -> List[Group]:
        config = self.config
        candidates: List[Group] = []
        for u, v in pairs:
            path_group = path_search(graph, u, v, max_length=config.max_path_length)
            tree_group = tree_search(graph, u, v, depth=config.tree_depth, max_nodes=config.max_group_size)
            candidates.extend(group for group in (path_group, tree_group) if group is not None)
        for anchor in anchors:
            candidates.extend(
                cycle_search(
                    graph,
                    anchor,
                    max_cycle_length=config.max_cycle_length,
                    max_cycles=config.max_cycles_per_anchor,
                )
            )
        return candidates
