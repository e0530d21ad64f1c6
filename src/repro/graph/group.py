"""The :class:`Group` container used for both ground truth and predictions.

A group is the paper's ``c_i = (V_i, E_i)`` — a subset of nodes together
with the edges connecting them — optionally carrying an anomaly score and a
free-form label describing its topology pattern or provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Tuple


def _canonical_edge(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Group:
    """An (induced) group of nodes within a graph.

    Parameters
    ----------
    nodes:
        Node indices belonging to the group.
    edges:
        Undirected edges internal to the group, stored canonically as
        ``(min, max)`` pairs.  May be empty for groups defined purely by a
        node set.
    label:
        Optional free-form tag, e.g. ``"path"``, ``"tree"``, ``"cycle"`` or
        the laundering typology that generated the group.
    score:
        Optional anomaly score attached by a detector.
    """

    nodes: FrozenSet[int]
    edges: FrozenSet[Tuple[int, int]] = field(default_factory=frozenset)
    label: Optional[str] = None
    score: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(int(n) for n in self.nodes))
        canonical = frozenset(_canonical_edge(int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", canonical)
        for u, v in canonical:
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"edge ({u}, {v}) references a node outside the group")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_nodes(cls, nodes: Iterable[int], label: Optional[str] = None, score: Optional[float] = None) -> "Group":
        """Build a group from a node set with no explicit internal edges."""
        return cls(nodes=frozenset(nodes), edges=frozenset(), label=label, score=score)

    @classmethod
    def from_path(cls, path: Iterable[int], label: str = "path") -> "Group":
        """Build a group whose internal edges form the given path."""
        path = [int(n) for n in path]
        edges = {_canonical_edge(a, b) for a, b in zip(path, path[1:])}
        return cls(nodes=frozenset(path), edges=frozenset(edges), label=label)

    @classmethod
    def from_cycle(cls, cycle: Iterable[int], label: str = "cycle") -> "Group":
        """Build a group whose internal edges form the given cycle."""
        cycle = [int(n) for n in cycle]
        if len(cycle) < 3:
            raise ValueError("a cycle needs at least three nodes")
        edges = {_canonical_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])}
        return cls(nodes=frozenset(cycle), edges=frozenset(edges), label=label)

    # ------------------------------------------------------------------
    # Set-like behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: int) -> bool:
        return int(node) in self.nodes

    def __iter__(self):
        return iter(sorted(self.nodes))

    def overlap(self, other: "Group") -> int:
        """Number of nodes shared with ``other``."""
        return len(self.nodes & other.nodes)

    def jaccard(self, other: "Group") -> float:
        """Jaccard similarity of the two node sets."""
        union = len(self.nodes | other.nodes)
        return self.overlap(other) / union if union else 0.0

    def with_score(self, score: float) -> "Group":
        """Return a copy of this group carrying ``score``."""
        return Group(nodes=self.nodes, edges=self.edges, label=self.label, score=float(score))

    def node_tuple(self) -> Tuple[int, ...]:
        """Sorted tuple of member nodes (useful as a dict key)."""
        return tuple(sorted(self.nodes))
