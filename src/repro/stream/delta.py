"""Graph deltas and the :class:`StreamingGraph` that applies them.

The batch pipeline sees a :class:`~repro.graph.Graph` as an immutable
snapshot.  Streaming workloads — transaction feeds, phishing reports —
instead produce a sequence of **deltas**: batches of appended nodes, new
edges and in-place feature updates.  This module provides

* :class:`GraphDelta` — one immutable batch of such events,
* :class:`StreamingGraph` — a snapshot holder that applies deltas with a
  sorted-merge into the canonical edge index (``O(E + E_new log E)``).
  Each snapshot is a plain :class:`Graph`; it builds its CSR adjacency
  lazily and its content hash is :meth:`Graph.fingerprint`.

Replaying any delta sequence yields a graph *identical* — edge index,
features, CSR adjacency and fingerprint — to building the final graph in
one shot with :meth:`Graph.add_nodes_and_edges`; this equivalence is
property-tested in ``tests/test_stream.py``.  Deltas are add-only (nodes
and edges are never removed), matching the append-only ``Graph`` API and
the monotone arrival semantics of transaction logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph import Graph, as_edge_array

_NO_NODES = np.zeros((0, 0), dtype=np.float64)
_NO_EDGES = np.zeros((0, 2), dtype=np.int64)
_NO_IDS = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class GraphDelta:
    """One immutable batch of stream events applied on top of a snapshot.

    Attributes
    ----------
    new_node_features:
        ``(k, d)`` feature rows of appended nodes; they receive ids
        ``n_nodes .. n_nodes + k - 1`` at apply time.
    new_edges:
        ``(m, 2)`` edges among old and freshly appended nodes.  Self loops
        and already-present edges are ignored at apply time, exactly as
        :meth:`Graph.add_nodes_and_edges` would.
    feature_update_nodes / feature_update_values:
        ``(r,)`` node ids and ``(r, d)`` replacement feature rows, applied
        after nodes and edges (so a delta may update a node it just added).

    Use :meth:`make` to build one from loose Python data.
    """

    new_node_features: np.ndarray = field(default_factory=lambda: _NO_NODES)
    new_edges: np.ndarray = field(default_factory=lambda: _NO_EDGES)
    feature_update_nodes: np.ndarray = field(default_factory=lambda: _NO_IDS)
    feature_update_values: np.ndarray = field(default_factory=lambda: _NO_NODES)

    def __post_init__(self) -> None:
        nodes = np.atleast_2d(np.asarray(self.new_node_features, dtype=np.float64))
        edges = as_edge_array(self.new_edges)
        update_nodes = np.asarray(self.feature_update_nodes, dtype=np.int64).reshape(-1)
        update_values = np.atleast_2d(np.asarray(self.feature_update_values, dtype=np.float64))
        if nodes.size == 0:
            nodes = _NO_NODES
        if update_nodes.size == 0:
            update_nodes, update_values = _NO_IDS, _NO_NODES
        if update_nodes.shape[0] != update_values.shape[0]:
            raise ValueError("one feature row per updated node is required")
        if update_nodes.size and np.unique(update_nodes).size != update_nodes.size:
            # The last update per node wins (as numpy fancy assignment
            # would), and deduping makes ``n_feature_updates`` count nodes.
            _, last_pos = np.unique(update_nodes[::-1], return_index=True)
            keep = np.sort(update_nodes.size - 1 - last_pos)
            update_nodes = update_nodes[keep]
            update_values = update_values[keep]
        for name, value, original in (
            ("new_node_features", nodes, self.new_node_features),
            ("new_edges", edges, self.new_edges),
            ("feature_update_nodes", update_nodes, self.feature_update_nodes),
            ("feature_update_values", update_values, self.feature_update_values),
        ):
            if value is original and value.size:
                # The coercion above aliased the caller's array; freezing it
                # in place would poison a buffer the caller may still write
                # (the module-level empty sentinels are exempt).
                value = value.copy()
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    @classmethod
    def make(
        cls,
        edges: Optional[Iterable[Tuple[int, int]]] = None,
        node_features: Optional[np.ndarray] = None,
        feature_updates: Optional[Tuple[Sequence[int], np.ndarray]] = None,
    ) -> "GraphDelta":
        """Convenience constructor from loose event data."""
        update_nodes, update_values = feature_updates if feature_updates else ((), _NO_NODES)
        return cls(
            new_node_features=node_features if node_features is not None else _NO_NODES,
            new_edges=as_edge_array(edges) if edges is not None else _NO_EDGES,
            feature_update_nodes=np.asarray(list(update_nodes), dtype=np.int64),
            feature_update_values=update_values,
        )

    # ------------------------------------------------------------------
    @property
    def n_new_nodes(self) -> int:
        return self.new_node_features.shape[0] if self.new_node_features.size else 0

    @property
    def n_new_edges(self) -> int:
        return self.new_edges.shape[0]

    @property
    def n_feature_updates(self) -> int:
        return self.feature_update_nodes.shape[0]

    def touched_nodes(self, n_nodes_before: int) -> np.ndarray:
        """Node ids this delta *references*, given the pre-apply node count.

        Covers appended nodes, both endpoints of every new edge and every
        feature-updated node; sorted and unique.  Conservative: endpoints
        of edges that turn out to be duplicates still appear here — the
        :class:`DeltaReport` returned by :meth:`StreamingGraph.apply`
        carries the precise post-dedup sets the detector uses.
        """
        parts = [
            np.arange(n_nodes_before, n_nodes_before + self.n_new_nodes, dtype=np.int64),
            self.new_edges.reshape(-1),
            self.feature_update_nodes,
        ]
        return np.unique(np.concatenate(parts))


@dataclass
class DeltaReport:
    """What one :meth:`StreamingGraph.apply` actually changed.

    Both node sets are *post-dedup*: endpoints of edges that were already
    present (or self loops) do not appear, so re-delivered events — common
    under at-least-once feeds — dirty nothing and cannot creep the drift
    budget toward a refit of an unchanged graph.
    """

    version: int
    n_new_nodes: int
    n_new_edges: int            # edges actually inserted (dupes / self loops dropped)
    n_feature_updates: int
    touched_nodes: np.ndarray   # sorted ids that actually changed (any event kind)
    touched_topology: np.ndarray  # sorted ids whose *edges* changed (new nodes + inserted-edge endpoints)


class StreamingGraph:
    """A graph snapshot that grows by :class:`GraphDelta` batches.

    Each :meth:`apply` produces a fresh immutable :class:`Graph` (downstream
    code keeps its value semantics and older snapshots stay valid).  The
    canonical edge index is extended by a **sorted merge** — binary search
    positions for the (deduplicated) new edge keys, one ``np.insert`` —
    instead of re-sorting all ``E`` edges; everything derived from it (CSR
    adjacency, neighbour lists, fingerprint) is built lazily by the
    snapshot :class:`Graph` itself.
    """

    def __init__(self, base: Graph) -> None:
        self._graph = base
        self.version = 0

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The current snapshot."""
        return self._graph

    # ------------------------------------------------------------------
    def apply(self, delta: GraphDelta) -> DeltaReport:
        """Apply one delta; returns a report with the touched node ids."""
        graph = self._graph
        n_old = graph.n_nodes
        n_new_nodes = delta.n_new_nodes
        n_total = n_old + n_new_nodes

        if n_new_nodes and delta.new_node_features.shape[1] != graph.n_features:
            raise ValueError(
                f"delta node features have {delta.new_node_features.shape[1]} columns; "
                f"graph has {graph.n_features}"
            )

        # --- features: append new rows, then apply in-place updates --------
        if n_new_nodes or delta.n_feature_updates:
            features = np.vstack([graph.features, delta.new_node_features]) \
                if n_new_nodes else graph.features.copy()
            update_nodes = delta.feature_update_nodes
            if update_nodes.size:
                if update_nodes.min() < 0 or update_nodes.max() >= n_total:
                    raise ValueError(f"feature update out of range for {n_total} nodes")
                if delta.feature_update_values.shape[1] != graph.n_features:
                    raise ValueError("feature update rows must match the graph feature dimension")
                features[update_nodes] = delta.feature_update_values
        else:
            features = graph.features

        # --- edges: canonicalize the batch, sorted-merge into the index ---
        new_edges = delta.new_edges
        if new_edges.size:
            out_of_range = (new_edges < 0) | (new_edges >= n_total)
            if out_of_range.any():
                u, v = new_edges[out_of_range.any(axis=1)][0]
                raise ValueError(f"delta edge ({u}, {v}) out of range for {n_total} nodes")
        old_index = graph.edge_index
        # Old keys are sorted for free: columns are lexicographic and
        # v < n_total, so u * n_total + v preserves the order.
        old_keys = old_index[0] * np.int64(n_total) + old_index[1]
        if new_edges.size:
            lo = new_edges.min(axis=1)
            hi = new_edges.max(axis=1)
            keep = lo != hi
            batch_keys = np.unique(lo[keep] * np.int64(n_total) + hi[keep])
            positions = np.searchsorted(old_keys, batch_keys)
            hit = np.zeros(batch_keys.shape[0], dtype=bool)
            inside = positions < old_keys.shape[0]
            hit[inside] = old_keys[positions[inside]] == batch_keys[inside]
            fresh_keys = batch_keys[~hit]
            merged_keys = np.insert(old_keys, positions[~hit], fresh_keys)
        else:
            fresh_keys = np.zeros(0, dtype=np.int64)
            merged_keys = old_keys  # fresh array from the key arithmetic above
        edge_index = np.vstack([merged_keys // n_total, merged_keys % n_total])

        self._graph = Graph.from_canonical(
            n_total, edge_index, features, groups=graph.groups, name=graph.name
        )
        self.version += 1
        appended = np.arange(n_old, n_total, dtype=np.int64)
        touched_topology = np.unique(
            np.concatenate([appended, fresh_keys // n_total, fresh_keys % n_total])
        )
        touched_nodes = np.unique(
            np.concatenate([touched_topology, delta.feature_update_nodes])
        )
        return DeltaReport(
            version=self.version,
            n_new_nodes=n_new_nodes,
            n_new_edges=int(fresh_keys.shape[0]),
            n_feature_updates=delta.n_feature_updates,
            touched_nodes=touched_nodes,
            touched_topology=touched_topology,
        )

    def apply_all(self, deltas: Iterable[GraphDelta]) -> List[DeltaReport]:
        """Apply a sequence of deltas, returning one report per delta."""
        return [self.apply(delta) for delta in deltas]
