"""The attributed :class:`Graph` container.

A ``Graph`` is an undirected attributed graph with

* ``n_nodes`` nodes indexed ``0 .. n_nodes - 1``,
* a canonical ``(2, E)`` integer **edge index** (deduplicated, no self
  loops, each column sorted ``u < v`` and columns in lexicographic order),
* a cached CSR adjacency matrix derived from the edge index, from which
  neighbour lists and BFS searches are answered without per-edge Python
  loops,
* a dense feature matrix ``X`` of shape ``(n_nodes, n_features)``,
* optional ground-truth anomaly :class:`~repro.graph.group.Group` objects,
* optional per-node anomaly labels derived from those groups.

The container is deliberately immutable-ish: mutating operations return new
``Graph`` instances so detectors can never corrupt a dataset in place.  The
historical ``graph.edges`` tuple-of-pairs view is kept as a lazily built
property for callers that want to iterate edges in Python; numeric code
should prefer :attr:`edge_index` (see DESIGN.md, "Sparse-first engine").
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order as _csgraph_bfs_order
from scipy.sparse.csgraph import connected_components as _csgraph_components

from repro.graph.group import Group


@dataclass(frozen=True)
class MultiSourceBFS:
    """Result of :meth:`Graph.multi_source_bfs` — one BFS forest per source.

    All arrays have shape ``(n_sources, n_nodes)``:

    * ``dist[s, v]`` — hops from ``sources[s]`` to ``v``; ``-1`` when ``v``
      was not reached (disconnected or beyond the depth bound).
    * ``parent[s, v]`` — BFS-tree parent of ``v`` (a source is its own
      parent, unreached nodes hold ``-1``).
    * ``order[s, v]`` — discovery index of ``v`` within BFS ``s``.  The
      ordering is exactly that of a sequential BFS that scans each frontier
      node's sorted neighbour list: level by level, ties broken first by
      the parent's discovery index, then by node id.  This is what lets the
      vectorized sampler reproduce the per-pair searches bit for bit.
    """

    sources: Tuple[int, ...]
    dist: np.ndarray
    parent: np.ndarray
    order: np.ndarray

    def path(self, row: int, target: int) -> Optional[List[int]]:
        """Shortest path ``sources[row] -> target`` from the parent forest."""
        target = int(target)
        if self.dist[row, target] < 0:
            return None
        path = [target]
        parents = self.parent[row]
        while parents[path[-1]] != path[-1]:
            path.append(int(parents[path[-1]]))
        return list(reversed(path))


@dataclass(frozen=True)
class InducedSubgraphs:
    """Columnar induced subgraphs of several node sets (:meth:`Graph.induced_subgraphs`).

    Set ``i`` owns ``nodes[node_offsets[i]:node_offsets[i + 1]]`` (sorted
    global ids; local id ``j`` is the ``j``-th of them) and the canonical
    local edge index ``edges[:, edge_offsets[i]:edge_offsets[i + 1]]``.
    """

    node_offsets: np.ndarray
    nodes: np.ndarray
    edge_offsets: np.ndarray
    edges: np.ndarray

    def __len__(self) -> int:
        return self.node_offsets.size - 1

    def parts(self) -> Iterator[Tuple[slice, np.ndarray]]:
        """Per set: its slice of :attr:`nodes` and its ``(2, E)`` local edge index."""
        node_offsets, edge_offsets = self.node_offsets.tolist(), self.edge_offsets.tolist()
        for i in range(len(self)):
            yield (
                slice(node_offsets[i], node_offsets[i + 1]),
                self.edges[:, edge_offsets[i] : edge_offsets[i + 1]],
            )


def _offsets(owner: np.ndarray, n_sets: int) -> np.ndarray:
    """CSR offsets of a sorted owner column over ``n_sets`` sets."""
    offsets = np.zeros(n_sets + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n_sets), out=offsets[1:])
    return offsets


def _bfs_forest_row(
    csr: sp.csr_matrix,
    source: int,
    dist_row: np.ndarray,
    parent_row: np.ndarray,
    order_row: np.ndarray,
    depth: Optional[int],
) -> None:
    """Fill one source's BFS dist/parent/order row (views into the forest).

    The traversal itself is ``scipy.sparse.csgraph.breadth_first_order`` —
    a compiled queue BFS that scans each CSR row in (sorted) index order,
    i.e. exactly the discovery semantics of the sequential per-source BFS
    (the ``shortest_path`` / ``bfs_tree`` oracle in
    ``tests/sampler_oracle.py``).  Distances are recovered from the
    discovery order with a searchsorted cascade over the (non-decreasing)
    parent positions, one step per BFS level.
    """
    node_array, predecessors = _csgraph_bfs_order(csr, source, directed=True, return_predecessors=True)
    reached = node_array.size

    order_row[node_array] = np.arange(reached, dtype=order_row.dtype)
    parents = predecessors[node_array]
    parents[0] = source  # scipy marks the root unreachable (-9999)
    parent_row[node_array] = parents

    # Parent discovery positions are non-decreasing along the discovery
    # order (BFS queue property), so each level ends where the parent
    # position first reaches the previous level's end.
    parent_positions = order_row[parents]
    distances = np.empty(reached, dtype=dist_row.dtype)
    level, start, end = 0, 0, 1
    while start < reached:
        distances[start:end] = level
        level += 1
        start, end = end, int(np.searchsorted(parent_positions, end, side="left"))
    dist_row[node_array] = distances

    if depth is not None:
        cutoff = int(np.searchsorted(distances, depth, side="right"))
        if cutoff < reached:
            beyond = node_array[cutoff:]
            dist_row[beyond] = -1
            parent_row[beyond] = -1
            order_row[beyond] = -1


def as_edge_array(edges: Iterable[Tuple[int, int]]) -> np.ndarray:
    """Coerce any iterable of ``(u, v)`` pairs into an ``(E, 2)`` int array."""
    if isinstance(edges, np.ndarray):
        array = edges
    else:
        array = np.asarray(list(edges))
    if array.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs; got an array of shape {array.shape}")
    return array.astype(np.int64, copy=False)


def _integral(value) -> bool:
    """Whether a decoded JSON value is an integral number (``3`` or ``3.0``, not ``true``)."""
    if isinstance(value, bool):
        return False
    return isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())


def _json_edges(edges: Iterable) -> np.ndarray:
    """A wire-format ``edges`` list as an ``(E, 2)`` int array, refusing non-integral endpoints."""
    edges = list(edges)
    try:
        pairs = set(map(len, edges)) <= {2}
    except TypeError:
        pairs = False
    if not pairs:
        raise ValueError("edges must be [u, v] pairs")
    endpoints = list(chain.from_iterable(edges))
    if not set(map(type, endpoints)) <= {int}:
        for index, endpoint in enumerate(endpoints):
            if not _integral(endpoint):
                raise ValueError(f"edge {edges[index // 2]!r} has an endpoint that is not an integer")
    try:
        return np.array(endpoints, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        raise ValueError("an edge endpoint does not fit in 64 bits") from None


class Graph:
    """Undirected attributed graph with optional ground-truth anomaly groups."""

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[Tuple[int, int]],
        features: Optional[np.ndarray] = None,
        groups: Optional[Sequence[Group]] = None,
        name: str = "graph",
    ) -> None:
        edge_index = self._canonicalize(as_edge_array(edges), int(n_nodes))
        self._init_fields(int(n_nodes), edge_index, features, groups, name)

    def _init_fields(
        self,
        n_nodes: int,
        edge_index: np.ndarray,
        features: Optional[np.ndarray],
        groups: Optional[Sequence[Group]],
        name: str,
    ) -> None:
        """Shared tail of ``__init__`` / :meth:`from_canonical`."""
        if n_nodes <= 0:
            raise ValueError("a graph needs at least one node")
        self.n_nodes = int(n_nodes)
        self.name = name

        self._edge_index = edge_index
        self._edge_index.setflags(write=False)

        if features is None:
            features = np.zeros((self.n_nodes, 1), dtype=np.float64)
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != self.n_nodes:
            raise ValueError(
                f"features must have shape (n_nodes, d); got {features.shape} for {self.n_nodes} nodes"
            )
        self.features = features

        self.groups: Tuple[Group, ...] = tuple(groups or ())
        for group in self.groups:
            bad = [n for n in group.nodes if not 0 <= n < self.n_nodes]
            if bad:
                raise ValueError(f"group references nodes outside the graph: {bad}")

        self._adjacency_cache: Optional[sp.csr_matrix] = None
        self._neighbor_cache: Optional[List[Tuple[int, ...]]] = None
        self._edges_cache: Optional[Tuple[Tuple[int, int], ...]] = None

    @classmethod
    def from_canonical(
        cls,
        n_nodes: int,
        edge_index: np.ndarray,
        features: Optional[np.ndarray] = None,
        groups: Optional[Sequence[Group]] = None,
        name: str = "graph",
    ) -> "Graph":
        """Build a graph from an *already canonical* ``(2, E)`` edge index.

        This is the trusted fast path used by the streaming subsystem: a
        :class:`~repro.stream.StreamingGraph` maintains the canonical sorted
        edge index itself (sorted-merge per delta), so re-running the
        ``O(E log E)`` :meth:`_canonicalize` on every tick would throw that
        work away.  :meth:`subgraph` and the subgraphs TPGCL builds from
        :meth:`induced_subgraphs` take it for the same reason.  The caller
        guarantees each column satisfies ``u < v`` with columns in strictly
        increasing lexicographic order — :meth:`validate` checks exactly
        these invariants when in doubt.  Derived state (the CSR adjacency,
        neighbour lists) is built lazily, as for any other graph.
        """
        edge_index = np.ascontiguousarray(np.asarray(edge_index, dtype=np.int64))
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise ValueError(f"edge_index must have shape (2, E); got {edge_index.shape}")
        graph = cls.__new__(cls)
        graph._init_fields(int(n_nodes), edge_index, features, groups, name)
        return graph

    @staticmethod
    def _canonicalize(array: np.ndarray, n_nodes: int) -> np.ndarray:
        """Sort endpoints, drop self loops, dedupe; returns a ``(2, E)`` array."""
        if array.shape[0] == 0:
            return np.zeros((2, 0), dtype=np.int64)
        out_of_range = (array < 0) | (array >= n_nodes)
        if out_of_range.any():
            u, v = array[out_of_range.any(axis=1)][0]
            raise ValueError(f"edge ({u}, {v}) out of range for {n_nodes} nodes")
        lo = array.min(axis=1)
        hi = array.max(axis=1)
        keep = lo != hi  # self loops are dropped; GCN adds them explicitly
        # Encoding (u, v) -> u * n + v dedupes and lexicographically sorts at once.
        keys = np.unique(lo[keep] * np.int64(n_nodes) + hi[keep])
        return np.vstack([keys // n_nodes, keys % n_nodes])

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def edge_index(self) -> np.ndarray:
        """Canonical ``(2, E)`` edge index (read-only; each column ``u < v``)."""
        return self._edge_index

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Edges as a sorted tuple of ``(u, v)`` pairs (built lazily)."""
        if self._edges_cache is None:
            self._edges_cache = tuple(map(tuple, self._edge_index.T.tolist()))
        return self._edges_cache

    @property
    def n_edges(self) -> int:
        return self._edge_index.shape[1]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(name={self.name!r}, nodes={self.n_nodes}, edges={self.n_edges}, "
            f"features={self.n_features}, groups={self.n_groups})"
        )

    # ------------------------------------------------------------------
    # Adjacency / neighbourhood access
    # ------------------------------------------------------------------
    def adjacency(self, sparse: bool = False):
        """Return the symmetric binary adjacency matrix.

        Parameters
        ----------
        sparse:
            When True return the cached ``scipy.sparse.csr_matrix`` (shared,
            treat as read-only); otherwise a dense ``numpy`` array.
        """
        if not sparse and self._adjacency_cache is None:
            # Fill the array straight from the edge index rather than build
            # a CSR only to densify it (group subgraphs hit this on every
            # view); ``np.add.at`` sums repeated entries as the CSR would.
            dense = np.zeros((self.n_nodes, self.n_nodes))
            u, v = self._edge_index
            np.add.at(dense, (u, v), 1.0)
            np.add.at(dense, (v, u), 1.0)
            return dense
        if self._adjacency_cache is None:
            u, v = self._edge_index
            rows = np.concatenate([u, v])
            cols = np.concatenate([v, u])
            vals = np.ones(rows.shape[0], dtype=np.float64)
            cache = sp.csr_matrix((vals, (rows, cols)), shape=(self.n_nodes, self.n_nodes))
            cache.sort_indices()  # neighbors() and the BFS discovery order read rows in id order
            self._adjacency_cache = cache
        return self._adjacency_cache if sparse else self._adjacency_cache.toarray()

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Neighbours of ``node`` (sorted, excluding the node itself)."""
        if self._neighbor_cache is None:
            csr = self.adjacency(sparse=True)
            splits = np.split(csr.indices, csr.indptr[1:-1])
            self._neighbor_cache = [tuple(part.tolist()) for part in splits]
        return self._neighbor_cache[int(node)]

    def fingerprint(self) -> str:
        """Stable content hash of ``(n_nodes, edge_index, features)``.

        Ground-truth groups and the name are excluded: detectors ignore
        both, so two graphs with equal topology and attributes must share a
        fingerprint for the serve batcher's and the job store's dedup to
        match them.  The hash is recomputed on every call — the features
        array is caller-owned and writable, so memoizing here could serve
        stale fingerprints (and silently wrong dedup hits) after an
        in-place feature edit.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(np.int64(self.n_nodes).tobytes())
        digest.update(np.ascontiguousarray(self._edge_index).tobytes())
        digest.update(np.ascontiguousarray(self.features).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # JSON wire format
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict:
        """JSON-serialisable form: ``n_nodes``, edge pairs, features, name.

        This is the wire format of the scoring service (``POST /score``
        bodies carry one of these under ``"graph"``).  Ground-truth groups
        are deliberately excluded — detectors ignore them, and a scoring
        request has no business shipping labels.  Round-trips exactly
        through :meth:`from_json_dict`: same fingerprint, same scores.
        """
        return {
            "n_nodes": int(self.n_nodes),
            "edges": self._edge_index.T.tolist(),
            "features": self.features.tolist(),
            "name": self.name,
        }

    @classmethod
    def from_json_dict(cls, payload: Dict) -> "Graph":
        """Rebuild a graph written by :meth:`to_json_dict`.

        Also accepts hand-written payloads: ``features`` may be omitted
        (defaulting to the usual all-zeros single attribute) and ``name``
        falls back to ``"graph"``.  Non-finite features are rejected here:
        Python's ``json`` parses ``NaN`` and ``Infinity``, and such a graph
        would otherwise fail only after the whole scoring pipeline ran.
        So is an ``n_nodes`` or edge endpoint that is not an integral
        number (``3.0`` is fine): ``int()`` would turn ``2.7`` into 2 and
        ``true`` into 1, and a different graph than the one sent would be
        scored.
        """
        if "n_nodes" not in payload:
            raise ValueError("graph payload must carry 'n_nodes'")
        features = payload.get("features")
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if not np.isfinite(features).all():
                raise ValueError("graph features contain NaN or infinite values")
        n_nodes = payload["n_nodes"]
        if not _integral(n_nodes):
            raise ValueError(f"n_nodes must be an integer; got {n_nodes!r}")
        return cls(
            n_nodes=int(n_nodes),
            edges=_json_edges(payload.get("edges", ())),
            features=features,
            name=str(payload.get("name", "graph")),
        )

    # ------------------------------------------------------------------
    # Ground-truth helpers
    # ------------------------------------------------------------------
    def anomaly_node_mask(self) -> np.ndarray:
        """Boolean mask of nodes belonging to any ground-truth group."""
        mask = np.zeros(self.n_nodes, dtype=bool)
        for group in self.groups:
            mask[list(group.nodes)] = True
        return mask

    def average_group_size(self) -> float:
        """Average number of nodes per ground-truth group (0 when no groups)."""
        if not self.groups:
            return 0.0
        return float(np.mean([len(g) for g in self.groups]))

    def statistics(self) -> Dict[str, float]:
        """Dataset statistics in the format of Table I of the paper."""
        return {
            "nodes": self.n_nodes,
            "edges": self.n_edges,
            "attributes": self.n_features,
            "anomaly_groups": self.n_groups,
            "avg_group_size": round(self.average_group_size(), 2),
        }

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[int], name: Optional[str] = None) -> "Graph":
        """Induced subgraph on ``nodes`` with node indices relabelled to ``0..k-1``.

        Edge filtering is a vectorised boolean mask over the edge index.
        Relabelling through the sorted node array is monotone, so the kept
        columns stay ``u < v`` and lexicographically sorted and the result
        skips :meth:`_canonicalize`.  Group annotations are dropped (a
        subgraph is usually a candidate group, not a labelled dataset).
        """
        node_array = np.unique(np.fromiter((int(n) for n in nodes), dtype=np.int64))
        if node_array.size == 0:
            raise ValueError("cannot build an empty subgraph")
        if node_array[0] < 0 or node_array[-1] >= self.n_nodes:
            raise ValueError(f"subgraph nodes out of range for {self.n_nodes} nodes")
        mapping = np.full(self.n_nodes, -1, dtype=np.int64)
        mapping[node_array] = np.arange(node_array.size)
        local = mapping[self._edge_index]
        return Graph.from_canonical(
            int(node_array.size),
            local[:, (local >= 0).all(axis=0)],
            features=self.features[node_array],
            name=name or f"{self.name}-sub",
        )

    def induced_subgraphs(self, node_sets: Sequence[Collection[int]]) -> InducedSubgraphs:
        """Every node set's induced subgraph from one pass over the edge index.

        The canonical edge index is a CSR of the upper triangle (row ``u``
        holds the sorted ``v > u``).  The members of all sets become sorted
        ``(set, node)`` keys; one gather walks the upper rows of every
        member, and a ``searchsorted`` over the keys keeps the neighbours
        in the same set.  Member order is ascending within a set and each
        row is sorted, so every set's local edges come out canonical — the
        same nodes and edge index as :meth:`subgraph`, without a ``Graph``
        per set.  Duplicate members and unsorted sets are accepted.
        """
        sizes = np.fromiter((len(node_set) for node_set in node_sets), dtype=np.int64, count=len(node_sets))
        if (sizes == 0).any():
            raise ValueError("cannot build an empty subgraph")
        members = np.fromiter(chain.from_iterable(node_sets), dtype=np.int64, count=int(sizes.sum()))
        if members.size and (members.min() < 0 or members.max() >= self.n_nodes):
            raise ValueError(f"subgraph nodes out of range for {self.n_nodes} nodes")
        n = np.int64(self.n_nodes)
        keys = np.sort(np.repeat(np.arange(len(node_sets), dtype=np.int64), sizes) * n + members)
        keys = keys[np.diff(keys, prepend=-1) != 0]  # drop repeated members (np.unique is slower)
        owner, nodes = np.divmod(keys, n)
        node_offsets = _offsets(owner, len(node_sets))

        heads, tails = self._edge_index
        starts = np.searchsorted(heads, nodes, side="left")
        counts = np.searchsorted(heads, nodes, side="right") - starts
        member = np.repeat(np.arange(keys.size), counts)
        positions = np.arange(member.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        queries = owner[member] * n + tails[positions]
        found = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
        hit = keys[found] == queries
        member, found = member[hit], found[hit]
        edge_owner = owner[member]
        base = node_offsets[edge_owner]
        return InducedSubgraphs(
            node_offsets=node_offsets,
            nodes=nodes,
            edge_offsets=_offsets(edge_owner, len(node_sets)),
            edges=np.stack([member - base, found - base]),
        )

    def group_subgraph(self, group: Group) -> "Graph":
        """Induced subgraph of a :class:`Group` (uses graph edges, not group edges)."""
        return self.subgraph(group.nodes, name=f"{self.name}-group")

    def with_groups(self, groups: Sequence[Group]) -> "Graph":
        """Return a copy of this graph annotated with ``groups``."""
        return Graph(self.n_nodes, self._edge_index.T, self.features, groups=groups, name=self.name)

    def with_features(self, features: np.ndarray) -> "Graph":
        """Return a copy of this graph with a replaced feature matrix."""
        return Graph(self.n_nodes, self._edge_index.T, features, groups=self.groups, name=self.name)

    def add_nodes_and_edges(
        self,
        new_node_features: np.ndarray,
        new_edges: Iterable[Tuple[int, int]],
        name: Optional[str] = None,
    ) -> "Graph":
        """Return a grown copy with extra nodes appended and extra edges added.

        ``new_edges`` may reference both old nodes and the freshly appended
        ones (indices ``n_nodes .. n_nodes + k - 1``).
        """
        new_node_features = np.atleast_2d(np.asarray(new_node_features, dtype=np.float64))
        if new_node_features.size and new_node_features.shape[1] != self.n_features:
            raise ValueError("new node features must match the graph feature dimension")
        total = self.n_nodes + new_node_features.shape[0]
        features = (
            np.vstack([self.features, new_node_features]) if new_node_features.size else self.features
        )
        edges = np.vstack([self._edge_index.T, as_edge_array(new_edges)])
        return Graph(total, edges, features, groups=self.groups, name=name or self.name)

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def connected_components(self, nodes: Optional[Iterable[int]] = None) -> List[Set[int]]:
        """Connected components of the whole graph or of an induced node subset."""
        if nodes is None:
            # Whole graph: delegate to the compiled scipy.sparse.csgraph BFS.
            count, labels = _csgraph_components(self.adjacency(sparse=True), directed=False)
            components: List[Set[int]] = [set() for _ in range(count)]
            for node, label in enumerate(labels):
                components[label].add(int(node))
            return components
        candidates = {int(n) for n in nodes}
        seen: Set[int] = set()
        components = []
        for start in sorted(candidates):
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            seen.add(start)
            while frontier:
                current = frontier.pop()
                for neighbor in self.neighbors(current):
                    if neighbor in candidates and neighbor not in seen:
                        seen.add(neighbor)
                        component.add(neighbor)
                        frontier.append(neighbor)
            components.append(component)
        return components

    def multi_source_bfs(self, sources: Sequence[int], depth: Optional[int] = None) -> MultiSourceBFS:
        """Run one BFS per source, batched, over the CSR adjacency.

        This is the engine behind vectorized candidate-group sampling: a
        single call answers every shortest-path / BFS-tree query among the
        sources.  ``depth`` bounds the number of hops kept (``None`` keeps
        each component exhaustively); the arrays of deeper nodes are masked
        to ``-1``.

        Discovery order, parents and tie-breaking match the sequential BFS
        of the ``shortest_path`` / ``bfs_tree`` oracle in
        ``tests/sampler_oracle.py`` exactly (see :class:`MultiSourceBFS`):
        both scan each node's sorted neighbour list in queue order, as does
        the compiled csgraph traversal used here.
        """
        source_array = np.fromiter((int(s) for s in sources), dtype=np.int64)
        if source_array.size and (source_array.min() < 0 or source_array.max() >= self.n_nodes):
            raise ValueError(f"BFS sources out of range for {self.n_nodes} nodes")
        n_sources = int(source_array.size)
        dist = np.full((n_sources, self.n_nodes), -1, dtype=np.int32)
        parent = np.full((n_sources, self.n_nodes), -1, dtype=np.int32)
        order = np.full((n_sources, self.n_nodes), -1, dtype=np.int32)
        csr = self.adjacency(sparse=True) if n_sources else None
        for row, source in enumerate(source_array):
            _bfs_forest_row(csr, int(source), dist[row], parent[row], order[row], depth)
        return MultiSourceBFS(
            sources=tuple(int(s) for s in source_array), dist=dist, parent=parent, order=order
        )

    def k_hop_ball(self, sources: Sequence[int], k: Optional[int]) -> np.ndarray:
        """Union of the ``k``-hop balls around ``sources`` (sorted node ids).

        Equals the union over the per-source forests of
        :meth:`multi_source_bfs` with ``depth=k``, but is computed
        as one joint frontier expansion (``k`` boolean SpMVs over the CSR
        adjacency) instead of one BFS per source, so it stays cheap even
        when a streaming delta touches many nodes at once.  The streaming
        subsystem reports the size of this *dirty ball* around each tick's
        topology changes: a bounded search from an anchor outside it cannot
        see those changes.  ``k=None`` expands exhaustively (the ball
        becomes the union of connected components).
        """
        source_array = np.fromiter((int(s) for s in sources), dtype=np.int64)
        if source_array.size == 0:
            return np.zeros(0, dtype=np.int64)
        if source_array.min() < 0 or source_array.max() >= self.n_nodes:
            raise ValueError(f"ball sources out of range for {self.n_nodes} nodes")
        csr = self.adjacency(sparse=True)
        reached = np.zeros(self.n_nodes, dtype=bool)
        reached[source_array] = True
        frontier = reached.copy()
        hops = 0
        while frontier.any() and (k is None or hops < int(k)):
            hops += 1
            expanded = (csr @ frontier.astype(np.float64)) > 0
            frontier = expanded & ~reached
            reached |= frontier
        return np.flatnonzero(reached)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` if internal invariants are violated."""
        u, v = self._edge_index
        if (u == v).any():
            raise ValueError("self loop found in canonical edge list")
        if (u > v).any():
            raise ValueError("edge list is not canonical")
        keys = u * np.int64(self.n_nodes) + v
        if np.unique(keys).size != keys.size:
            raise ValueError("duplicate edges found")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain NaN or infinite values")
