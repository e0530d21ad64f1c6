"""Benchmark S-1 — sparse-first engine scaling on a ~5k-node synthetic graph.

Three claims are pinned here so later scaling PRs have a perf trajectory:

1. Building the GraphSNN weighted adjacency ``Ã`` with the vectorised
   sparse implementation is ≥10× faster than the seed per-edge Python loop
   (and bit-for-bit compatible, cf. ``tests/test_sparse_parity.py``).
2. The end-to-end ``fit_detect`` pipeline runs on a 5 000-node graph in one
   benchmark round; the dense-vs-sparse GCN propagation speedup of the
   anchor-localisation stage is recorded in the benchmark ``extra_info``.
3. The vectorized multi-source candidate-group sampler is ≥10× faster than
   the seed per-pair searches (``PerPairSampler`` from
   ``tests/sampler_oracle.py``) on the same graph, returning
   node-set-identical candidates (cf. ``tests/test_sampler_parity.py``).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.core import TPGrGAD, TPGrGADConfig
from repro.gae import GAEConfig, GraphAutoEncoder, MHGAEConfig
from repro.gcl import TPGCLConfig
from repro.graph import Graph, graphsnn_weighted_adjacency
from repro.sampling import CandidateGroupSampler, SamplerConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from sampler_oracle import PerPairSampler  # noqa: E402

N_NODES = 5000
AVG_DEGREE = 6
N_TRIANGLES = 600


def _synthetic_graph(
    n_nodes: int = N_NODES, avg_degree: int = AVG_DEGREE, n_triangles: int = N_TRIANGLES, seed: int = 0
) -> Graph:
    """Sparse random background plus planted triangles (so Ã has real overlaps)."""
    rng = np.random.default_rng(seed)
    n_edges = n_nodes * avg_degree // 2
    endpoints = rng.integers(0, n_nodes, size=(n_edges, 2))
    triples = rng.choice(n_nodes, size=3 * n_triangles, replace=False).reshape(-1, 3)
    triangles = np.vstack(
        [triples[:, [0, 1]], triples[:, [1, 2]], triples[:, [0, 2]]]
    )
    edges = np.vstack([endpoints, triangles])
    features = rng.normal(size=(n_nodes, 8))
    return Graph(n_nodes, edges, features=features, name="scaling-synthetic")


def _seed_graphsnn(graph: Graph, lam: float = 1.0) -> np.ndarray:
    """The pre-refactor O(E·d²) loop, kept verbatim as the timing baseline.

    A second copy lives in ``tests/test_sparse_parity.py`` as the numeric
    regression oracle; change both or neither.
    """
    n = graph.n_nodes
    weighted = np.zeros((n, n), dtype=np.float64)
    closed_neighborhoods = [set(graph.neighbors(v)) | {v} for v in range(n)]
    edge_lookup = {frozenset(e) for e in graph.edges}
    for u, v in graph.edges:
        overlap_nodes = closed_neighborhoods[u] & closed_neighborhoods[v]
        size = len(overlap_nodes)
        if size < 2:
            weight = 1.0
        else:
            overlap_edges = 0
            overlap_list = sorted(overlap_nodes)
            for i, a in enumerate(overlap_list):
                for b in overlap_list[i + 1 :]:
                    if frozenset((a, b)) in edge_lookup:
                        overlap_edges += 1
            weight = overlap_edges / (size * (size - 1)) * (size ** lam)
            if weight <= 0.0:
                weight = 1.0 / size
        weighted[u, v] = weight
        weighted[v, u] = weight
    if weighted.max() > 0:
        weighted = weighted / weighted.max()
    return weighted


def test_graphsnn_vectorized_at_least_10x_faster(benchmark):
    graph = _synthetic_graph()

    seed_seconds = np.inf
    for _ in range(2):  # best-of-2 so a contended CI runner can't inflate the baseline
        start = time.perf_counter()
        seed_result = _seed_graphsnn(graph)
        seed_seconds = min(seed_seconds, time.perf_counter() - start)

    # Time the engine-native CSR build; the dense layout exists only for the
    # sigmoid-decoder target and costs one extra toarray().
    fast_result = benchmark.pedantic(
        graphsnn_weighted_adjacency, args=(graph,), kwargs={"sparse": True}, rounds=5, iterations=1
    )
    fast_seconds = benchmark.stats.stats.mean

    assert np.abs(fast_result.toarray() - seed_result).max() <= 1e-8
    speedup = seed_seconds / max(fast_seconds, 1e-12)
    benchmark.extra_info["seed_seconds"] = round(seed_seconds, 4)
    benchmark.extra_info["speedup_vs_seed_loop"] = round(speedup, 1)
    print(f"\nGraphSNN Ã on {graph.n_nodes} nodes / {graph.n_edges} edges: "
          f"seed loop {seed_seconds:.3f}s, vectorized {fast_seconds:.4f}s "
          f"({speedup:.0f}x)")
    assert speedup >= 10.0


def test_sampler_vectorized_at_least_10x_faster(benchmark):
    """Old-vs-new candidate sampling on 5k nodes: timings + exact parity.

    Fresh samplers are used for every timed call so both strategies draw
    the identical rng-driven pair subsample (the persistent stream starts
    at ``config.seed``).
    """
    graph = _synthetic_graph()
    anchor_rng = np.random.default_rng(3)
    anchors = sorted(anchor_rng.choice(graph.n_nodes, size=40, replace=False).tolist())
    # All 780 pairs of the default 40-anchor budget: the max_anchor_pairs
    # cap exists to keep the per-pair stage affordable, the engine doesn't
    # need it.
    config = SamplerConfig(seed=3, max_anchor_pairs=1000)

    seed_seconds = np.inf
    for _ in range(2):  # best-of-2 so a contended CI runner can't inflate the baseline
        start = time.perf_counter()
        seed_groups = PerPairSampler(config).sample(graph, anchors)
        seed_seconds = min(seed_seconds, time.perf_counter() - start)

    fast_groups = benchmark.pedantic(
        lambda: CandidateGroupSampler(config).sample(graph, anchors), rounds=3, iterations=1
    )
    fast_seconds = benchmark.stats.stats.mean

    assert [g.node_tuple() for g in fast_groups] == [g.node_tuple() for g in seed_groups]
    speedup = seed_seconds / max(fast_seconds, 1e-12)
    benchmark.extra_info["n_candidates"] = len(fast_groups)
    benchmark.extra_info["seed_sampler_seconds"] = round(seed_seconds, 4)
    benchmark.extra_info["speedup_vs_per_pair_searches"] = round(speedup, 1)
    print(f"\nCandidate sampling on {graph.n_nodes} nodes / {len(anchors)} anchors: "
          f"per-pair {seed_seconds:.3f}s, vectorized {fast_seconds:.4f}s "
          f"({speedup:.0f}x, {len(fast_groups)} candidates)")
    assert speedup >= 10.0


def test_fit_detect_wall_clock_on_5k_graph(benchmark):
    graph = _synthetic_graph()
    config = TPGrGADConfig(
        mhgae=MHGAEConfig(epochs=2, hidden_dim=16, embedding_dim=8),
        sampler=SamplerConfig(max_candidates=20, max_anchor_pairs=25),
        tpgcl=TPGCLConfig(epochs=2, hidden_dim=16, embedding_dim=16, batch_size=8),
        max_anchors=10,
        seed=1,
    )

    result = benchmark.pedantic(
        lambda: TPGrGAD(config).fit_detect(graph), rounds=1, iterations=1
    )
    assert result.n_candidates >= 0
    assert result.node_scores is not None and result.node_scores.shape == (graph.n_nodes,)

    # Record the dense-vs-sparse propagation speedup of the stage-1 GAE so
    # later PRs can track the trajectory (2 epochs each, same seed).
    # Best-of-2, interleaved: a single sample per variant is at the mercy
    # of scheduler/allocator noise from earlier benchmarks in the same
    # process, which flakes the ratio floor on loaded single-core boxes.
    timings = {"sparse": float("inf"), "dense": float("inf")}
    for _ in range(2):
        for label, sparse in (("sparse", True), ("dense", False)):
            gae = GraphAutoEncoder(
                GAEConfig(epochs=2, hidden_dim=16, embedding_dim=8, sparse_propagation=sparse)
            )
            start = time.perf_counter()
            gae.fit(graph)
            timings[label] = min(timings[label], time.perf_counter() - start)
    speedup = timings["dense"] / max(timings["sparse"], 1e-12)
    benchmark.extra_info["gae_fit_dense_seconds"] = round(timings["dense"], 3)
    benchmark.extra_info["gae_fit_sparse_seconds"] = round(timings["sparse"], 3)
    benchmark.extra_info["gae_fit_sparse_speedup"] = round(speedup, 2)
    print(f"\nGAE fit on {graph.n_nodes} nodes: dense {timings['dense']:.2f}s, "
          f"sparse {timings['sparse']:.2f}s ({speedup:.1f}x)")
    # The fit is decoder-dominated (sigmoid(Z Zᵀ) is inherently dense), so
    # the recorded speedup is modest; the floor only guards against sparse
    # propagation regressing the hot path outright.
    assert speedup >= 0.75
