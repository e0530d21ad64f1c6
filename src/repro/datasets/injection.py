"""Anomaly-group injection machinery shared by all dataset builders.

A :class:`GroupSpec` describes one group to plant: its topology pattern
(path / tree / cycle / star), its size, and how strongly its node attributes
deviate from the background distribution.  :func:`inject_groups` grows the
background graph with the new nodes and edges, wires each group into the
background through a small number of attachment edges, and returns the
annotated :class:`~repro.graph.Graph`.

The attribute assignment reproduces the regime the paper targets:

* **boundary members** (nodes at or near the group's attachment points to
  the background) receive *individually* deviant attributes — each node is
  shifted in its own random direction away from its anchor's attributes, so
  it is inconsistent with its one-hop neighbourhood and detectable by
  vanilla GAE methods;
* **deep members** (nodes two or more hops away from every attachment
  point) receive the *average of their within-group neighbours'*
  attributes, so they are locally consistent and exhibit only the
  "long-range inconsistency" that MH-GAE is designed to capture (Sec. V-B,
  Fig. 3 of the paper).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph import Graph, Group

PATTERNS = ("path", "tree", "cycle", "star")


@dataclass(frozen=True)
class GroupSpec:
    """Specification of one anomaly group to inject.

    Parameters
    ----------
    pattern:
        Topology pattern: ``"path"``, ``"tree"``, ``"cycle"`` or ``"star"``
        (a star is a depth-1 tree and is labelled as a tree).
    size:
        Number of nodes in the group (>= 2; cycles need >= 3).
    attribute_shift:
        Magnitude of the per-node attribute deviation of boundary members
        (larger = easier to detect at the node level).
    attribute_noise:
        Standard deviation of the Gaussian noise added to every member's
        attributes.
    n_attachments:
        Number of edges connecting the group to the background graph.
    """

    pattern: str
    size: int
    attribute_shift: float = 0.8
    attribute_noise: float = 0.1
    n_attachments: int = 2

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern '{self.pattern}'; choose one of {PATTERNS}")
        minimum = 3 if self.pattern == "cycle" else 2
        if self.size < minimum:
            raise ValueError(f"pattern '{self.pattern}' needs at least {minimum} nodes")
        if self.n_attachments < 1:
            raise ValueError("groups must attach to the background with at least one edge")


def _pattern_edges(pattern: str, node_ids: Sequence[int], rng: np.random.Generator) -> List[Tuple[int, int]]:
    """Internal edges realising ``pattern`` over ``node_ids``."""
    nodes = list(node_ids)
    if pattern == "path":
        return list(zip(nodes, nodes[1:]))
    if pattern == "cycle":
        return list(zip(nodes, nodes[1:])) + [(nodes[-1], nodes[0])]
    if pattern == "star":
        hub = nodes[0]
        return [(hub, leaf) for leaf in nodes[1:]]
    if pattern == "tree":
        # Random recursive tree: every node after the root attaches to a
        # uniformly chosen earlier node, giving branching hierarchies.
        edges = []
        for index in range(1, len(nodes)):
            parent = nodes[int(rng.integers(0, index))]
            edges.append((parent, nodes[index]))
        return edges
    raise ValueError(f"unknown pattern '{pattern}'")


def _pattern_label(pattern: str) -> str:
    return "tree" if pattern == "star" else pattern


def split_boundary_and_deep(
    node_ids: Sequence[int],
    internal_edges: Sequence[Tuple[int, int]],
    attachment_members: Sequence[int],
    deep_distance: int = 2,
) -> Tuple[Set[int], Set[int]]:
    """Partition group members into boundary and deep sets.

    A member is *deep* when its hop distance (inside the group's internal
    pattern) to every attachment member is at least ``deep_distance``.
    """
    adjacency: Dict[int, Set[int]] = {int(n): set() for n in node_ids}
    for u, v in internal_edges:
        adjacency[int(u)].add(int(v))
        adjacency[int(v)].add(int(u))

    distance = {int(n): np.inf for n in node_ids}
    queue = deque()
    for member in attachment_members:
        distance[int(member)] = 0
        queue.append(int(member))
    while queue:
        current = queue.popleft()
        for neighbor in adjacency[current]:
            if distance[neighbor] > distance[current] + 1:
                distance[neighbor] = distance[current] + 1
                queue.append(neighbor)

    deep = {n for n, d in distance.items() if d >= deep_distance}
    boundary = {int(n) for n in node_ids} - deep
    if not boundary:  # never let a group float without node-level signal
        boundary = {int(attachment_members[0])}
        deep.discard(int(attachment_members[0]))
    return boundary, deep


def assign_group_features(
    node_ids: Sequence[int],
    internal_edges: Sequence[Tuple[int, int]],
    attachment_members: Sequence[int],
    anchor_features: np.ndarray,
    rng: np.random.Generator,
    attribute_shift: float = 0.8,
    attribute_noise: float = 0.1,
) -> np.ndarray:
    """Attribute matrix for one injected group (rows follow ``node_ids`` order).

    Boundary members get individually deviant attributes; deep members get
    the mean of their already-assigned within-group neighbours, falling back
    to the group's boundary mean (see module docstring).
    """
    node_ids = [int(n) for n in node_ids]
    n_features = anchor_features.shape[0]
    features = {node: None for node in node_ids}

    boundary, deep = split_boundary_and_deep(node_ids, internal_edges, attachment_members)
    scale = np.maximum(np.abs(anchor_features), 0.5)
    for node in boundary:
        direction = rng.choice([-1.0, 1.0], size=n_features)
        features[node] = (
            anchor_features
            + attribute_shift * direction * scale
            + rng.normal(scale=attribute_noise, size=n_features)
        )

    adjacency: Dict[int, Set[int]] = {node: set() for node in node_ids}
    for u, v in internal_edges:
        adjacency[int(u)].add(int(v))
        adjacency[int(v)].add(int(u))
    boundary_mean = np.mean([features[node] for node in boundary], axis=0)

    # Assign deep members in BFS order from the boundary so each can average
    # over already-assigned neighbours.
    pending = deque(sorted(deep, key=lambda n: min((1 if m in boundary else 2) for m in adjacency[n]) if adjacency[n] else 3))
    guard = 0
    while pending and guard < 10 * len(node_ids):
        guard += 1
        node = pending.popleft()
        assigned_neighbors = [features[m] for m in adjacency[node] if features[m] is not None]
        if assigned_neighbors:
            features[node] = np.mean(assigned_neighbors, axis=0) + rng.normal(
                scale=attribute_noise, size=n_features
            )
        elif not pending:  # isolated deep node: fall back to the boundary mean
            features[node] = boundary_mean + rng.normal(scale=attribute_noise, size=n_features)
        else:
            pending.append(node)
    for node in node_ids:  # safety net for pathological adjacency
        if features[node] is None:
            features[node] = boundary_mean + rng.normal(scale=attribute_noise, size=n_features)

    return np.vstack([features[node] for node in node_ids])


def inject_groups(
    background: Graph,
    specs: Sequence[GroupSpec],
    rng: np.random.Generator,
    name: Optional[str] = None,
) -> Graph:
    """Inject one anomaly group per spec into ``background``.

    Each group is made of *new* nodes appended to the graph.  Attachment
    points to the background are chosen first so the boundary/deep split of
    the attribute assignment (see module docstring) is well defined.
    """
    n_background = background.n_nodes
    n_features = background.n_features

    new_features: List[np.ndarray] = []
    new_edges: List[Tuple[int, int]] = []
    groups: List[Group] = []
    next_id = n_background

    for spec in specs:
        node_ids = list(range(next_id, next_id + spec.size))
        next_id += spec.size

        internal_edges = _pattern_edges(spec.pattern, node_ids, rng)

        n_attachments = min(spec.n_attachments, spec.size)
        attachment_members = [int(m) for m in rng.choice(node_ids, size=n_attachments, replace=False)]
        attachment_edges = [
            (member, int(rng.integers(0, n_background))) for member in attachment_members
        ]

        anchor = int(rng.integers(0, n_background))
        member_features = assign_group_features(
            node_ids,
            internal_edges,
            attachment_members,
            background.features[anchor],
            rng,
            attribute_shift=spec.attribute_shift,
            attribute_noise=spec.attribute_noise,
        )
        new_features.append(member_features)

        new_edges.extend(internal_edges)
        new_edges.extend(attachment_edges)
        groups.append(
            Group(
                nodes=frozenset(node_ids),
                edges=frozenset(internal_edges),
                label=_pattern_label(spec.pattern),
            )
        )

    features = np.vstack(new_features) if new_features else np.zeros((0, n_features))
    grown = background.add_nodes_and_edges(features, new_edges, name=name or background.name)
    return grown.with_groups(groups)
