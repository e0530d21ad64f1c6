"""Streaming subsystem tests: deltas, incremental parity, replay harness.

The two contracts the ISSUE pins down:

* **StreamingGraph equivalence** — any delta sequence replayed through
  :class:`StreamingGraph` yields a graph equal (edge index, features,
  adjacency, fingerprint) to building the final graph in one shot.
* **Incremental parity** — ``refit_policy="always"`` reproduces the batch
  ``fit_detect`` on every tick's snapshot exactly, and ``finalize()`` does
  so for any policy.  The incremental ticks themselves are pinned by the
  golden fixture of ``tests/test_golden_regression.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import json

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_simml
from repro.datasets.stream import make_burst_stream, make_event_stream
from repro.graph import Graph
from repro.sampling import CandidateGroupSampler, SamplerConfig
from repro.stream import (
    GraphDelta,
    IncrementalTPGrGAD,
    StreamConfig,
    StreamingGraph,
    replay_event_stream,
)
from repro.stream.__main__ import main as stream_main
from repro.stream.incremental import MAX_PROVISIONAL_ANCHORS, PROVISIONAL_PAIR_BUDGET
from test_golden_regression import arrivals


# ----------------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------------
N_FEATURES = 3


@st.composite
def delta_sequences(draw):
    """A small base graph plus a random sequence of deltas on top of it."""
    n_base = draw(st.integers(min_value=2, max_value=8))
    possible = [(i, j) for i in range(n_base) for j in range(i + 1, n_base)]
    base_edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible), unique=True)) if possible else []
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    rng = np.random.default_rng(seed)

    deltas = []
    n = n_base
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        k = draw(st.integers(min_value=0, max_value=3))
        total = n + k
        m = draw(st.integers(min_value=0, max_value=6))
        edges = rng.integers(0, total, size=(m, 2)) if m else None
        updates = None
        if draw(st.booleans()):
            count = int(rng.integers(1, min(3, total) + 1))
            ids = rng.choice(total, size=count, replace=False)
            updates = (ids, rng.normal(size=(count, N_FEATURES)))
        deltas.append(
            GraphDelta.make(
                edges=edges,
                node_features=rng.normal(size=(k, N_FEATURES)) if k else None,
                feature_updates=updates,
            )
        )
        n = total
    base = Graph(n_base, base_edges, rng.normal(size=(n_base, N_FEATURES)), name="prop")
    return base, deltas


def one_shot(base: Graph, deltas) -> Graph:
    """Reference construction: concatenate all batches, build once."""
    features = base.features.copy()
    node_batches = [d.new_node_features for d in deltas if d.n_new_nodes]
    if node_batches:
        features = np.vstack([features] + node_batches)
    for delta in deltas:
        if delta.n_feature_updates:
            features[delta.feature_update_nodes] = delta.feature_update_values
    edges = np.vstack([base.edge_index.T] + [d.new_edges for d in deltas])
    return Graph(features.shape[0], edges, features, name=base.name)


# ----------------------------------------------------------------------------
# StreamingGraph equivalence
# ----------------------------------------------------------------------------
class TestStreamingGraph:
    @given(delta_sequences())
    @settings(max_examples=40, deadline=None)
    def test_replay_equals_one_shot(self, case):
        base, deltas = case
        base.adjacency(sparse=True)  # a materialised base CSR must not leak into later snapshots
        streaming = StreamingGraph(base)
        streaming.apply_all(deltas)
        expected = one_shot(base, deltas)

        graph = streaming.graph
        assert np.array_equal(graph.edge_index, expected.edge_index)
        assert np.array_equal(graph.features, expected.features)
        assert graph.fingerprint() == expected.fingerprint()
        assert (graph.adjacency(sparse=True) != expected.adjacency(sparse=True)).nnz == 0
        graph.validate()

    def test_lazy_adjacency_stays_lazy(self):
        base = Graph(4, [(0, 1)], np.zeros((4, 2)))
        streaming = StreamingGraph(base)
        streaming.apply(GraphDelta.make(edges=[(1, 2)]))
        assert streaming.graph._adjacency_cache is None
        # A materialised CSR is not carried forward: the next snapshot
        # builds its own on first use, equal to the one-shot CSR.
        streaming.graph.adjacency(sparse=True)
        streaming.apply(GraphDelta.make(edges=[(2, 3)], node_features=np.ones((1, 2))))
        assert streaming.graph._adjacency_cache is None
        expected = Graph(5, [(0, 1), (1, 2), (2, 3)], np.vstack([np.zeros((4, 2)), np.ones((1, 2))]))
        assert (streaming.graph.adjacency(sparse=True) != expected.adjacency(sparse=True)).nnz == 0
        assert streaming.graph._adjacency_cache is not None

    def test_duplicate_and_self_loop_edges_are_dropped(self):
        base = Graph(3, [(0, 1)], np.zeros((3, 2)))
        streaming = StreamingGraph(base)
        report = streaming.apply(GraphDelta.make(edges=[(0, 1), (1, 1), (1, 0), (1, 2)]))
        assert report.n_new_edges == 1
        assert streaming.graph.n_edges == 2
        # Only the endpoints of the actually-inserted edge count as touched.
        assert report.touched_nodes.tolist() == [1, 2]
        assert report.touched_topology.tolist() == [1, 2]
        # A pure re-delivery dirties nothing at all.
        redelivery = streaming.apply(GraphDelta.make(edges=[(0, 1), (1, 2)]))
        assert redelivery.touched_nodes.size == 0

    def test_redelivered_events_do_not_drift_the_detector(self, stream_graph):
        incremental = IncrementalTPGrGAD(
            stream_graph, TPGrGADConfig.fast(seed=3), StreamConfig(refit_policy="budget")
        )
        duplicate = GraphDelta.make(edges=stream_graph.edge_index.T[:50])
        tick = incremental.update(duplicate)
        assert tick.n_touched == 0
        assert incremental.dirty_fraction == 0.0
        refits = incremental.n_refits
        incremental.finalize()  # nothing changed -> no flush refit
        assert incremental.n_refits == refits

    def test_delta_does_not_freeze_caller_buffers(self):
        buffer = np.array([[0, 1], [1, 2]], dtype=np.int64)
        GraphDelta.make(edges=buffer)
        buffer[0, 0] = 7  # must not raise: the delta froze its own copy

    def test_out_of_range_edges_rejected(self):
        streaming = StreamingGraph(Graph(3, [(0, 1)], np.zeros((3, 2))))
        with pytest.raises(ValueError, match="out of range"):
            streaming.apply(GraphDelta.make(edges=[(0, 7)]))

    def test_feature_dimension_mismatch_rejected(self):
        streaming = StreamingGraph(Graph(3, [(0, 1)], np.zeros((3, 2))))
        with pytest.raises(ValueError, match="feature"):
            streaming.apply(GraphDelta.make(node_features=np.zeros((1, 5))))

    def test_touched_nodes_cover_all_event_kinds(self):
        delta = GraphDelta.make(
            edges=[(0, 4)],
            node_features=np.zeros((1, 2)),
            feature_updates=([2], np.zeros((1, 2))),
        )
        assert delta.touched_nodes(4).tolist() == [0, 2, 4]


class TestKHopBall:
    @given(delta_sequences())
    @settings(max_examples=25, deadline=None)
    def test_ball_equals_union_of_bfs_balls(self, case):
        base, deltas = case
        streaming = StreamingGraph(base)
        streaming.apply_all(deltas)
        graph = streaming.graph
        rng = np.random.default_rng(0)
        sources = rng.choice(graph.n_nodes, size=min(3, graph.n_nodes), replace=False)
        for depth in (0, 1, 2, None):
            ball = graph.k_hop_ball(sources, depth)
            union = np.flatnonzero((graph.multi_source_bfs(sources, depth).dist >= 0).any(axis=0))
            assert np.array_equal(ball, union)


# ----------------------------------------------------------------------------
# Incremental detector parity
# ----------------------------------------------------------------------------
def _growth_deltas(graph: Graph, steps: int, seed: int):
    rng = np.random.default_rng(seed)
    deltas, n = [], graph.n_nodes
    for _ in range(steps):
        k = int(rng.integers(1, 3))
        total = n + k
        m = int(rng.integers(2, 6))
        edges = np.column_stack(
            [rng.integers(0, total, size=m), rng.integers(0, total, size=m)]
        )
        deltas.append(
            GraphDelta.make(edges=edges, node_features=rng.normal(size=(k, graph.n_features)))
        )
        n = total
    return deltas


@pytest.fixture(scope="module")
def stream_graph() -> Graph:
    return make_simml(scale=0.05, seed=1)


class TestIncrementalParity:
    def test_always_policy_matches_batch(self, stream_graph):
        config = TPGrGADConfig.fast(seed=3)
        incremental = IncrementalTPGrGAD(
            stream_graph, config, StreamConfig(refit_policy="always")
        )
        batch = TPGrGAD(TPGrGADConfig.fast(seed=3)).fit_detect(incremental.graph)
        assert np.array_equal(incremental.result.scores, batch.scores)

        for delta in _growth_deltas(stream_graph, steps=3, seed=5):
            tick = incremental.update(delta)
            assert tick.mode == "refit"
            expected = TPGrGAD(TPGrGADConfig.fast(seed=3)).fit_detect(incremental.graph)
            assert [g.node_tuple() for g in tick.result.candidate_groups] == [
                g.node_tuple() for g in expected.candidate_groups
            ]
            assert np.array_equal(tick.result.scores, expected.scores)
            assert tick.result.threshold == expected.threshold
            assert np.array_equal(tick.result.anchor_nodes, expected.anchor_nodes)

    def test_finalize_matches_batch_for_any_policy(self, stream_graph):
        for policy in ("budget", "never"):
            config = TPGrGADConfig.fast(seed=3)
            incremental = IncrementalTPGrGAD(
                stream_graph, config, StreamConfig(refit_policy=policy, drift_budget=0.9)
            )
            for delta in _growth_deltas(stream_graph, steps=3, seed=7):
                incremental.update(delta)
            final = incremental.finalize()
            expected = TPGrGAD(TPGrGADConfig.fast(seed=3)).fit_detect(incremental.graph)
            assert np.array_equal(final.scores, expected.scores)
            assert final.threshold == expected.threshold
            # A second finalize with no new deltas is a no-op.
            refits = incremental.n_refits
            incremental.finalize()
            assert incremental.n_refits == refits

    def test_feature_only_delta_rescores_touched_groups(self, stream_graph):
        config = TPGrGADConfig.fast(seed=3)
        incremental = IncrementalTPGrGAD(
            stream_graph, config, StreamConfig(refit_policy="never")
        )
        target = next(iter(incremental.result.candidate_groups))
        node = next(iter(target.nodes))
        before = incremental.result.scores.copy()
        tick = incremental.update(
            GraphDelta.make(
                feature_updates=([node], 5.0 + np.zeros((1, stream_graph.n_features)))
            )
        )
        assert tick.mode == "incremental"
        assert tick.dirty_ball == 0  # features never touch the topology
        assert tick.embeddings_recomputed >= 1
        assert not np.array_equal(tick.result.scores, before)

    def test_structured_sampler_equals_one_shot_sample(self, stream_graph):
        config = SamplerConfig(max_anchor_pairs=50, max_candidates=60, seed=11)
        anchors = sorted(
            np.random.default_rng(4).choice(stream_graph.n_nodes, size=12, replace=False).tolist()
        )
        one_shot_sampler = CandidateGroupSampler(config)
        expected = one_shot_sampler.sample(stream_graph, anchors)
        staged = CandidateGroupSampler(config)
        pairs = staged.propose_pairs(anchors)
        got = staged.finalize(staged.collect(stream_graph, anchors, pairs))
        assert [g.node_tuple() for g in got] == [g.node_tuple() for g in expected]


class TestProvisionalAnchors:
    """Between refits, new nodes become capped, nearest-paired provisional anchors."""

    @staticmethod
    def _nearest_pairs(incremental: IncrementalTPGrGAD, node: int):
        """The pairs a fresh nearest-anchor choice on the current graph would give."""
        anchors = incremental._anchors
        dist = incremental.graph.multi_source_bfs([node], incremental.config.sampler.search_depth).dist[0]
        reachable = sorted((int(dist[a]), i) for i, a in enumerate(anchors) if dist[a] >= 0)
        return [(node, anchors[i]) for _, i in reachable[:PROVISIONAL_PAIR_BUDGET]]

    def test_cap_keeps_most_recent_and_pairs_nearest_anchors(self, stream_graph):
        assert (MAX_PROVISIONAL_ANCHORS, PROVISIONAL_PAIR_BUDGET) == (16, 8)
        incremental = IncrementalTPGrGAD(
            stream_graph, TPGrGADConfig.fast(seed=3), StreamConfig(refit_policy="never")
        )
        anchors = list(incremental._anchors)
        assert len(anchors) > PROVISIONAL_PAIR_BUDGET
        rng = np.random.default_rng(5)
        base_n = stream_graph.n_nodes
        full_budget = n_dropped = 0
        for _ in range(3):  # 30 arrivals between refits
            previous = dict(incremental._provisional)
            tick = incremental.update(arrivals(incremental.graph, 10, rng))
            assert tick.mode == "incremental"
            n = incremental.graph.n_nodes
            provisional = incremental._provisional
            assert list(provisional) == list(range(max(base_n, n - MAX_PROVISIONAL_ANCHORS), n))
            n_dropped += len(set(previous) - set(provisional))

            # The tick searched exactly the refit's pairs plus the memo's, from
            # the anchors plus the provisional anchors.
            assert tick.pairs_recomputed == len(incremental._pairs) + sum(map(len, provisional.values()))
            assert tick.result.anchor_nodes.tolist() == anchors + list(provisional)
            # Survivors keep their pairs; this tick's arrivals pair with
            # their nearest scored anchors.
            for p, pairs in provisional.items():
                if p in previous:
                    assert pairs == previous[p]
                else:
                    assert p >= n - 10
                    assert pairs == self._nearest_pairs(incremental, p)
                    full_budget += len(pairs) == PROVISIONAL_PAIR_BUDGET
        assert full_budget > 0, "no arrival reached the pair budget; test lost its teeth"
        assert n_dropped == 30 - MAX_PROVISIONAL_ANCHORS
        assert incremental.n_refits == 1

    def test_later_edge_keeps_the_arrival_time_pairs(self, stream_graph):
        incremental = IncrementalTPGrGAD(
            stream_graph, TPGrGADConfig.fast(seed=3), StreamConfig(refit_policy="never")
        )
        incremental.update(arrivals(incremental.graph, 1, np.random.default_rng(5)))
        node = incremental.graph.n_nodes - 1
        at_arrival = list(incremental._provisional[node])
        # A direct edge to an anchor it was not paired with makes that
        # anchor its nearest one.
        far = next(a for a in incremental._anchors if (node, a) not in at_arrival)
        tick = incremental.update(GraphDelta.make(edges=[(node, far)]))
        assert tick.mode == "incremental"
        assert self._nearest_pairs(incremental, node) != at_arrival, "the edge changed no pairing"
        assert incremental._provisional[node] == at_arrival


# ----------------------------------------------------------------------------
# Event streams + replay driver
# ----------------------------------------------------------------------------
class TestEventStreams:
    def test_stream_final_equals_replayed_deltas(self):
        stream = make_event_stream(dataset="simml", scale=0.05, seed=2, n_ticks=5)
        streaming = StreamingGraph(stream.base)
        streaming.apply_all(stream.deltas)
        assert streaming.graph.fingerprint() == stream.final.fingerprint()
        assert stream.final.n_groups == len(stream.groups)

    def test_stream_groups_relabelled_consistently(self):
        stream = make_event_stream(dataset="ethereum-tsgn", scale=0.05, seed=2, n_ticks=4)
        for group in stream.groups:
            for u, v in group.edges:
                assert v in stream.final.neighbors(u)

    def test_burst_stream_places_burst_group(self):
        stream = make_burst_stream(dataset="simml", scale=0.05, seed=2, n_ticks=6, burst_tick=4)
        assert stream.burst_tick == 4
        assert stream.burst_group in stream.groups
        # The burst group's nodes arrive exactly at the burst tick.
        n_before = stream.base.n_nodes + sum(
            d.n_new_nodes for d in stream.deltas[:4]
        )
        burst_delta = stream.deltas[4]
        arrived = set(range(n_before, n_before + burst_delta.n_new_nodes))
        assert set(stream.burst_group.nodes) <= arrived

    def test_truncated_stream_is_consistent(self):
        stream = make_burst_stream(dataset="simml", scale=0.05, seed=2, n_ticks=6, burst_tick=4)
        short = stream.truncated(3)
        assert short.n_ticks == 3
        assert short.burst_group is None  # burst lies beyond the cut
        streaming = StreamingGraph(short.base)
        streaming.apply_all(short.deltas)
        assert streaming.graph.fingerprint() == short.final.fingerprint()
        assert all(tick < 3 for tick in short.group_arrival_tick.values())
        assert len(short.groups) == len(short.group_arrival_tick)

    def test_replay_driver_summary(self):
        stream = make_burst_stream(dataset="simml", scale=0.05, seed=2, n_ticks=5)
        summary = replay_event_stream(
            stream,
            TPGrGADConfig.fast(seed=1),
            StreamConfig(refit_policy="budget", drift_budget=0.5),
        )
        assert summary.n_ticks == stream.n_ticks
        assert summary.n_refits + summary.n_incremental == summary.n_ticks
        assert summary.n_events == stream.n_ticks
        assert summary.p95_latency >= summary.p50_latency >= 0.0
        payload = summary.to_json_dict()
        for key in (
            "events_per_second",
            "incremental_events_per_second",
            "processing_seconds",
            "finalize_seconds",
            "p50_tick_latency_seconds",
            "p95_tick_latency_seconds",
            "p50_incremental_tick_latency_seconds",
            "p95_incremental_tick_latency_seconds",
            "p50_refit_tick_latency_seconds",
            "p95_refit_tick_latency_seconds",
            "n_refits",
            "n_incremental_ticks",
            "detection_lag_ticks",
        ):
            assert key in payload
        # The throughput denominator is processing time (ticks + flush),
        # and the per-mode latency splits partition the tick population.
        assert summary.processing_seconds <= summary.total_seconds + 1e-6
        assert len(summary.incremental_tick_seconds) == summary.n_incremental
        assert len(summary.refit_tick_seconds) == summary.n_refits
        # Final result parity after the flush refit.
        batch = TPGrGAD(TPGrGADConfig.fast(seed=1)).fit_detect(stream.final)
        assert np.array_equal(summary.final_result.scores, batch.scores)


# ----------------------------------------------------------------------------
# python -m repro.stream
# ----------------------------------------------------------------------------
#: The per-replay keys the CI schema guard of BENCH_stream.json requires.
BENCH_STREAM_REPLAY_KEYS = {
    "events_per_second",
    "incremental_events_per_second",
    "processing_seconds",
    "finalize_seconds",
    "p50_tick_latency_seconds",
    "p95_tick_latency_seconds",
    "p50_incremental_tick_latency_seconds",
    "p95_incremental_tick_latency_seconds",
    "p50_refit_tick_latency_seconds",
    "p95_refit_tick_latency_seconds",
}


def test_stream_cli_compare_refit_writes_bench_schema(tmp_path):
    path = tmp_path / "stream.json"
    argv = [
        "--scale", "0.05", "--ticks", "4", "--seed", "2",
        "--mhgae-epochs", "2", "--tpgcl-epochs", "1",
        "--compare-refit", "--json", str(path),
    ]
    assert stream_main(argv) == 0
    payload = json.loads(path.read_text())
    assert payload["incremental_vs_refit_speedup"] > 0
    replays = payload["replays"]
    assert [replay["name"].endswith("-refit-per-tick") for replay in replays] == [False, True]
    for replay in replays:
        assert not BENCH_STREAM_REPLAY_KEYS - set(replay), replay["name"]
        assert replay["n_events"] == replay["n_ticks"] == 4
    assert replays[1]["n_refits"] == 4


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--ticks", "0", "--ticks"),
        ("--scale", "0", "--scale"),
        ("--drift-budget", "0", "drift_budget"),
    ],
)
def test_stream_cli_rejects_bad_flag_before_generating(monkeypatch, capsys, flag, value, message):
    def no_stream(**kwargs):
        raise AssertionError("a stream was generated before the flags were checked")

    monkeypatch.setattr("repro.stream.__main__.make_event_stream", no_stream)
    with pytest.raises(SystemExit) as excinfo:
        stream_main([flag, value])
    assert excinfo.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and message in lines[0], lines
    assert lines[0].startswith("python -m repro.stream: error:"), lines


@pytest.mark.parametrize("maker", [make_event_stream, make_burst_stream])
def test_stream_makers_reject_zero_ticks(maker):
    with pytest.raises(ValueError, match="at least one tick"):
        maker(dataset="simml", scale=0.05, seed=2, n_ticks=0)
