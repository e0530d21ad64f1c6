"""Event-stream views of the generated datasets.

The paper's workloads arrive as transaction streams: accounts appear when
they first transact and laundering/phishing rings materialise over time.
This module turns any generated dataset with ground-truth groups into a
replayable :class:`EventStream` —

* a **base snapshot** of the normal economy (the background nodes and a
  configurable share of their edges),
* a sequence of :class:`~repro.stream.GraphDelta` ticks carrying the
  remaining background churn and the anomaly groups in arrival order,
* the **final graph** (base ⊕ all deltas) with the ground-truth groups
  re-labelled into stream node ids, and per-group arrival ticks so replay
  harnesses can measure *detection lag*.

Node ids are re-assigned in arrival order (background first, then group
members as their group arrives), so the streamed final graph is the
generated graph up to a node relabelling — same topology, same features,
same groups.

:func:`make_burst_stream` is the lag scenario from the ISSUE: every group
but one arrives early, then a chosen ring is planted in a single
mid-stream tick; the returned ``burst_group``/``burst_tick`` tell the
replay driver what to watch for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.registry import load_dataset
from repro.graph import Graph, Group
from repro.stream.delta import GraphDelta, StreamingGraph


@dataclass
class EventStream:
    """A replayable stream: base snapshot, delta ticks, final truth."""

    name: str
    base: Graph
    deltas: List[GraphDelta]
    final: Graph                      # base ⊕ all deltas, groups in stream ids
    groups: Tuple[Group, ...]         # ground truth, stream ids
    group_arrival_tick: Dict[int, int]  # group index -> tick it fully arrived
    burst_group: Optional[Group] = None
    burst_tick: Optional[int] = None

    @property
    def n_ticks(self) -> int:
        return len(self.deltas)

    def truncated(self, n_ticks: int) -> "EventStream":
        """The first ``n_ticks`` ticks as a standalone stream.

        The final graph is recomputed for the shorter horizon and only
        groups that have fully arrived by then are kept; burst metadata is
        dropped when the burst lies beyond the cut.
        """
        if not 0 < n_ticks <= self.n_ticks:
            raise ValueError(f"cannot truncate a {self.n_ticks}-tick stream to {n_ticks}")
        deltas = list(self.deltas[:n_ticks])
        streamed = StreamingGraph(self.base)
        streamed.apply_all(deltas)
        kept = sorted(i for i, tick in self.group_arrival_tick.items() if tick < n_ticks)
        groups = tuple(self.groups[i] for i in kept)
        burst_inside = self.burst_tick is not None and self.burst_tick < n_ticks
        return EventStream(
            name=f"{self.name}[:{n_ticks}]",
            base=self.base,
            deltas=deltas,
            final=streamed.graph.with_groups(groups),
            groups=groups,
            group_arrival_tick={
                new_index: self.group_arrival_tick[old_index]
                for new_index, old_index in enumerate(kept)
            },
            burst_group=self.burst_group if burst_inside else None,
            burst_tick=self.burst_tick if burst_inside else None,
        )


def _check_ticks(n_ticks: int) -> None:
    # Before any tick is drawn: numpy's error for an empty range names no tick.
    if n_ticks < 1:
        raise ValueError(f"a stream needs at least one tick, got n_ticks={n_ticks}")


def _build_stream(
    graph: Graph,
    n_ticks: int,
    seed: int,
    base_edge_fraction: float,
    group_ticks: np.ndarray,
    name: str,
) -> EventStream:
    """Assemble an :class:`EventStream` from a labelled graph.

    ``group_ticks[i]`` is the tick at which group ``i`` (in ``graph.groups``
    order) arrives; background churn edges are spread uniformly over all
    ticks.
    """
    if not 0.0 < base_edge_fraction <= 1.0:
        raise ValueError("base_edge_fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)

    anomaly_mask = graph.anomaly_node_mask()
    background = np.flatnonzero(~anomaly_mask)
    if background.size == 0:
        raise ValueError("stream construction needs at least one background node")

    # Stream ids: background keeps ascending order; group members get ids at
    # arrival.  ``stream_id[orig] = new id``.
    stream_id = np.full(graph.n_nodes, -1, dtype=np.int64)
    stream_id[background] = np.arange(background.size)

    u, v = graph.edge_index
    background_edge = ~anomaly_mask[u] & ~anomaly_mask[v]
    background_edges = np.flatnonzero(background_edge)
    # Hold out churn edges, but keep the base well-formed even at small sizes.
    n_churn = int(round((1.0 - base_edge_fraction) * background_edges.size))
    churn_pick = rng.choice(background_edges.size, size=n_churn, replace=False)
    churn_mask = np.zeros(background_edges.size, dtype=bool)
    churn_mask[churn_pick] = True
    base_pairs = np.stack(
        [stream_id[u[background_edges[~churn_mask]]], stream_id[v[background_edges[~churn_mask]]]],
        axis=1,
    )
    churn_pairs = np.stack(
        [stream_id[u[background_edges[churn_mask]]], stream_id[v[background_edges[churn_mask]]]],
        axis=1,
    )
    churn_tick = rng.integers(0, n_ticks, size=churn_pairs.shape[0])

    base = Graph(
        n_nodes=int(background.size),
        edges=base_pairs,
        features=graph.features[background],
        name=f"{name}-base",
    )

    # Anomaly edges attached to each group: internal group edges plus any
    # graph edge touching a member (the generators' attachment edges).
    member_group = np.full(graph.n_nodes, -1, dtype=np.int64)
    for index, group in enumerate(graph.groups):
        member_group[list(group.nodes)] = index
    anomaly_edges = np.flatnonzero(~background_edge)
    edge_group = np.maximum(member_group[u[anomaly_edges]], member_group[v[anomaly_edges]])

    next_id = int(background.size)
    deltas: List[GraphDelta] = []
    group_arrival: Dict[int, int] = {}
    stream_groups: List[Optional[Group]] = [None] * len(graph.groups)
    order = np.argsort(group_ticks, kind="stable")

    for tick in range(n_ticks):
        new_features: List[np.ndarray] = []
        new_edges: List[np.ndarray] = []
        churn_now = churn_pairs[churn_tick == tick]
        if churn_now.size:
            new_edges.append(churn_now)
        for group_index in order[group_ticks[order] == tick]:
            group = graph.groups[int(group_index)]
            members = np.asarray(sorted(group.nodes), dtype=np.int64)
            stream_id[members] = np.arange(next_id, next_id + members.size)
            next_id += members.size
            new_features.append(graph.features[members])
            edges_here = anomaly_edges[edge_group == group_index]
            new_edges.append(np.stack([stream_id[u[edges_here]], stream_id[v[edges_here]]], axis=1))
            stream_groups[int(group_index)] = Group(
                nodes=frozenset(int(n) for n in stream_id[members]),
                edges=frozenset(
                    (int(stream_id[a]), int(stream_id[b])) for a, b in group.edges
                ),
                label=group.label,
            )
            group_arrival[int(group_index)] = tick
        deltas.append(
            GraphDelta.make(
                edges=np.vstack(new_edges) if new_edges else None,
                node_features=np.vstack(new_features) if new_features else None,
            )
        )

    streamed = StreamingGraph(base)
    streamed.apply_all(deltas)
    groups = tuple(g for g in stream_groups if g is not None)
    final = streamed.graph.with_groups(groups)
    final.name = name
    return EventStream(
        name=name,
        base=base,
        deltas=deltas,
        final=final,
        groups=groups,
        group_arrival_tick=group_arrival,
    )


def make_event_stream(
    dataset: str = "simml",
    scale: float = 1.0,
    seed: int = 0,
    n_ticks: int = 10,
    base_edge_fraction: float = 0.8,
) -> EventStream:
    """Arrival-ordered stream of a generated dataset.

    Groups arrive at ticks drawn uniformly; a ``1 - base_edge_fraction``
    share of background edges churns in alongside them.
    """
    _check_ticks(n_ticks)
    graph = load_dataset(dataset, scale=scale, seed=seed)
    rng = np.random.default_rng((seed, 1))
    group_ticks = rng.integers(0, n_ticks, size=len(graph.groups))
    return _build_stream(
        graph, n_ticks, seed, base_edge_fraction, group_ticks, name=f"{graph.name}-stream"
    )


def make_burst_stream(
    dataset: str = "simml",
    scale: float = 1.0,
    seed: int = 0,
    n_ticks: int = 10,
    base_edge_fraction: float = 0.8,
    burst_tick: Optional[int] = None,
) -> EventStream:
    """Burst-injection scenario: one ring planted in a single mid-stream tick.

    All other groups arrive in the first third of the stream (so the
    detector has settled); the largest group is planted at ``burst_tick``
    (default: two-thirds in).  The returned stream carries ``burst_group``
    and ``burst_tick`` for detection-lag measurement.
    """
    _check_ticks(n_ticks)
    graph = load_dataset(dataset, scale=scale, seed=seed)
    if not graph.groups:
        raise ValueError(f"dataset '{dataset}' has no ground-truth groups to plant")
    rng = np.random.default_rng((seed, 2))
    burst_tick = int(burst_tick) if burst_tick is not None else max(1, (2 * n_ticks) // 3)
    if not 0 <= burst_tick < n_ticks:
        raise ValueError(f"burst_tick {burst_tick} outside the {n_ticks}-tick stream")
    burst_index = int(np.argmax([len(g) for g in graph.groups]))
    early = max(1, n_ticks // 3)
    group_ticks = rng.integers(0, early, size=len(graph.groups))
    group_ticks[burst_index] = burst_tick
    stream = _build_stream(
        graph, n_ticks, seed, base_edge_fraction, group_ticks, name=f"{graph.name}-burst"
    )
    stream.burst_group = stream.groups[burst_index]
    stream.burst_tick = burst_tick
    return stream
