"""Golden end-to-end regression fixtures for ``fit_detect`` / ``fit_detect_many``
and for the incremental ticks of :class:`~repro.stream.IncrementalTPGrGAD`.

Two seeded example graphs are run through the full pipeline with a pinned
fast config; the resulting :class:`GroupDetectionResult` (scores to 1e-8,
candidate and flagged node sets, threshold, anchors) is diffed against
stored JSON oracles in ``tests/golden/``.  Any refactor of the sampler,
the pipeline stages or the batched API that changes end-to-end output
shows up here as an exact diff.

``stream_ticks.json`` pins every tick of one short ``refit_policy="never"``
replay the same way: arrivals that reach the anchors (past the
provisional-anchor cap), a feature-only delta, edges that bring arrivals
nearer to other anchors, and a mixed delta.  A refactor of the stream's
stage-2 / stage-3 reuse that changes any incremental result shows up here.

Regenerate the fixtures after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/test_golden_regression.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import numpy as np

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_example_graph, make_simml
from repro.graph import Graph
from repro.stream import GraphDelta, IncrementalTPGrGAD, StreamConfig

GOLDEN_DIR = Path(__file__).parent / "golden"
SCORE_TOLERANCE = 1e-8

# (fixture name, example-graph seed); the pipeline config is pinned below.
CASES = [("example_seed7", 7), ("example_seed11", 11)]


def _pinned_config() -> TPGrGADConfig:
    return TPGrGADConfig.fast(seed=1)


def _run_case(graph_seed: int) -> dict:
    graph = make_example_graph(seed=graph_seed)
    return TPGrGAD(_pinned_config()).fit_detect(graph).to_json_dict()


def _load_fixture(name: str) -> dict:
    with open(GOLDEN_DIR / f"{name}.json") as handle:
        return json.load(handle)


def _assert_matches_fixture(actual: dict, fixture: dict) -> None:
    assert actual["candidate_groups"] == fixture["candidate_groups"]
    assert actual["anomalous_groups"] == fixture["anomalous_groups"]
    assert actual["anchor_nodes"] == fixture["anchor_nodes"]
    assert actual["threshold"] == pytest.approx(fixture["threshold"], abs=SCORE_TOLERANCE)
    assert len(actual["scores"]) == len(fixture["scores"])
    for actual_score, pinned_score in zip(actual["scores"], fixture["scores"]):
        assert actual_score == pytest.approx(pinned_score, abs=SCORE_TOLERANCE)


@pytest.mark.parametrize("name,graph_seed", CASES)
def test_fit_detect_matches_golden_fixture(name, graph_seed):
    _assert_matches_fixture(_run_case(graph_seed), _load_fixture(name))


def test_fit_detect_many_matches_golden_fixtures():
    """The batched API reproduces the single-graph oracles in one call."""
    graphs = [make_example_graph(seed=graph_seed) for _, graph_seed in CASES]
    results = TPGrGAD(_pinned_config()).fit_detect_many(graphs)
    for (name, _), result in zip(CASES, results):
        _assert_matches_fixture(result.to_json_dict(), _load_fixture(name))


def arrivals(graph: Graph, n_new: int, rng: np.random.Generator) -> GraphDelta:
    """``n_new`` nodes, each linked to two existing nodes (so it reaches the anchors)."""
    new_ids = np.arange(graph.n_nodes, graph.n_nodes + n_new)
    old = rng.integers(0, graph.n_nodes, size=(n_new, 2))
    edges = np.concatenate([np.column_stack([new_ids, old[:, 0]]), np.column_stack([new_ids, old[:, 1]])])
    return GraphDelta.make(edges=edges, node_features=rng.normal(size=(n_new, graph.n_features)))


def _run_stream_ticks() -> dict:
    """Replay the pinned stream; one result dict per (incremental) tick."""
    incremental = IncrementalTPGrGAD(
        make_simml(scale=0.05, seed=1), TPGrGADConfig.fast(seed=3), StreamConfig(refit_policy="never")
    )
    rng = np.random.default_rng(17)
    anchors = [int(a) for a in incremental.result.anchor_nodes]
    ticks = []

    def tick(delta: GraphDelta) -> None:
        report = incremental.update(delta)
        ticks.append(dict(report.result.to_json_dict(), mode=report.mode))

    tick(arrivals(incremental.graph, 10, rng))
    tick(arrivals(incremental.graph, 10, rng))
    # Feature-only: rewrite the members of the first candidate group.
    members = sorted(incremental.result.candidate_groups[0].nodes)
    n_features = incremental.graph.n_features
    tick(GraphDelta.make(feature_updates=(members, rng.normal(size=(len(members), n_features)))))
    tick(arrivals(incremental.graph, 10, rng))  # 30 arrivals: past the provisional cap
    # Link the four newest arrivals straight to the lowest-ranked anchors.
    n = incremental.graph.n_nodes
    tick(GraphDelta.make(edges=[(n - 1 - i, anchors[-1 - i]) for i in range(4)]))
    # Mixed: two arrivals, background edges and a feature rewrite.
    n = incremental.graph.n_nodes
    tick(
        GraphDelta.make(
            edges=np.vstack([[[n, 0], [n + 1, n]], rng.integers(0, n, size=(4, 2))]),
            node_features=rng.normal(size=(2, n_features)),
            feature_updates=([3], rng.normal(size=(1, n_features))),
        )
    )
    return {"ticks": ticks}


def test_stream_ticks_match_golden_fixture():
    actual, fixture = _run_stream_ticks()["ticks"], _load_fixture("stream_ticks")["ticks"]
    assert len(actual) == len(fixture)
    for actual_tick, pinned_tick in zip(actual, fixture):
        assert actual_tick["mode"] == pinned_tick["mode"] == "incremental"
        _assert_matches_fixture(actual_tick, pinned_tick)


def _write(name: str, payload: dict) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, graph_seed in CASES:
        _write(name, _run_case(graph_seed))
    _write("stream_ticks", _run_stream_ticks())


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
