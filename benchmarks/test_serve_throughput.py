"""Benchmark SV-1 — micro-batched serving vs sequential request scoring.

Pins the acceptance claims of the online scoring service:

1. **Parity** — a response served through the micro-batcher carries
   exactly the scores of a direct ``detect_only`` on the same graph +
   artifact (compared at 1e-8; in practice identical JSON).
2. **Throughput** — a closed-loop load of 8 concurrent clients drawing
   requests from a small pool of distinct graphs completes ≥ 2× faster
   against the micro-batching server (``max_batch=16``) than against the
   sequential baseline (``max_batch=1``, every request scored
   individually).  The win is within-batch deduplication — concurrent
   requests for the same snapshot are scored once and fanned out.
3. **Distinct-graph arm** — the same load with every request carrying a
   different graph, so nothing can be deduplicated
   (``dedup_hits_total == 0``).  Every batched response matches the
   direct call; its speedup (``distinct_speedup``) is recorded, not
   bounded — it isolates batching from dedup and has no measured floor
   yet.

Writes ``BENCH_serve.json`` with the host facts of
``benchmarks/hostinfo.py`` (tracked in git, uploaded by the CI serve
job); ``BENCH_OUT_DIR`` picks its directory (see ``conftest.py``).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_example_graph
from repro.gae import MHGAEConfig
from repro.gcl import TPGCLConfig
from repro.graph import Graph
from repro.persist import dump_json
from repro.sampling import SamplerConfig
from repro.serve import ModelRegistry, ScoringClient, ServeConfig, start_server_thread

from hostinfo import host_facts

CONCURRENCY = 8
REQUESTS_PER_CLIENT = 6
GRAPH_POOL_SEEDS = (7, 11)  # 2 distinct graphs → ideal dedup gain ≈ 8/2
DISTINCT_SEED_BASE = 100  # distinct arm: one graph per request, seeds 100..147
REQUIRED_SPEEDUP = 2.0
SCORE_TOLERANCE = 1e-8


def _config() -> TPGrGADConfig:
    """Heavy enough that scoring dominates HTTP overhead (~25ms/score)."""
    return TPGrGADConfig(
        mhgae=MHGAEConfig(epochs=8, hidden_dim=16, embedding_dim=8),
        sampler=SamplerConfig(max_candidates=60, max_anchor_pairs=80),
        tpgcl=TPGCLConfig(epochs=3, hidden_dim=16, embedding_dim=16, batch_size=16),
        max_anchors=15,
        seed=1,
    )


def _closed_loop(port: int, schedule: Sequence[Sequence[Graph]]) -> Tuple[float, List[List[Dict]]]:
    """One client per request sequence; returns elapsed seconds and the responses."""
    barrier = threading.Barrier(len(schedule))

    def worker(requests: Sequence[Graph]) -> List[Dict]:
        with ScoringClient(port=port, timeout=300) as client:
            barrier.wait()
            return [client.score(graph) for graph in requests]

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=len(schedule)) as pool:
        responses = list(pool.map(worker, schedule))
    return time.perf_counter() - start, responses


def _max_score_diff(direct: Dict[str, np.ndarray], graphs: Sequence[Graph], responses: Sequence[Dict]) -> float:
    """Largest |served - direct| score difference over ``responses``."""
    diff = 0.0
    for graph, served in zip(graphs, responses):
        expected = direct[graph.fingerprint()]
        scores = np.asarray(served["result"]["scores"], dtype=np.float64)
        assert scores.shape == expected.shape
        diff = max(diff, float(np.abs(scores - expected).max()))
    return diff


def _arm_summary(metrics: Dict) -> Dict:
    return {
        "scored_total": metrics["scored_total"],
        "mean_batch_size": metrics["mean_batch_size"],
        "batch_size_histogram": metrics["batch_size_histogram"],
        "dedup_hits_total": metrics["dedup_hits_total"],
        "p50_latency_ms": metrics["p50_latency_ms"],
        "p95_latency_ms": metrics["p95_latency_ms"],
        "shed_total": metrics["shed_total"],
    }


def test_micro_batched_serving_speedup(tmp_path, benchmark, bench_json_path):
    graphs = [make_example_graph(seed=seed) for seed in GRAPH_POOL_SEEDS]
    n_requests = CONCURRENCY * REQUESTS_PER_CLIENT
    distinct = [make_example_graph(seed=DISTINCT_SEED_BASE + i) for i in range(n_requests)]
    assert len({graph.fingerprint() for graph in distinct}) == n_requests
    detector = TPGrGAD(_config())
    detector.fit_detect(graphs[0])
    artifact = detector.save(tmp_path / "artifact")

    pooled_schedule = [
        [graphs[(worker + request) % len(graphs)] for request in range(REQUESTS_PER_CLIENT)]
        for worker in range(CONCURRENCY)
    ]
    distinct_schedule = [
        distinct[worker * REQUESTS_PER_CLIENT : (worker + 1) * REQUESTS_PER_CLIENT]
        for worker in range(CONCURRENCY)
    ]

    def run_mode(max_batch: int, max_wait_ms: float, schedule):
        registry = ModelRegistry()
        registry.load("bench", artifact)
        config = ServeConfig(max_batch=max_batch, max_wait_ms=max_wait_ms, queue_size=256)
        with start_server_thread(registry, config) as handle:
            with ScoringClient(port=handle.port) as client:
                warm = [client.score(graph) for graph in graphs]  # warm + parity probe
                elapsed, responses = _closed_loop(handle.port, schedule)
                metrics = client.metrics()
        return warm, elapsed, responses, metrics

    loaded = TPGrGAD.load(artifact)
    direct = {graph.fingerprint(): loaded.detect_only(graph).scores for graph in graphs + distinct}

    # --- claim 1: parity with the direct, unbatched call ------------------
    sequential_warm, sequential_elapsed, _, sequential_metrics = run_mode(1, 0.0, pooled_schedule)
    batched_warm, batched_elapsed, _, batched_metrics = benchmark.pedantic(
        lambda: run_mode(16, 5.0, pooled_schedule), rounds=1, iterations=1
    )
    parity_diff = max(
        _max_score_diff(direct, graphs, sequential_warm), _max_score_diff(direct, graphs, batched_warm)
    )
    assert parity_diff <= SCORE_TOLERANCE

    # --- claim 2: batched serving ≥ 2× sequential request throughput ------
    sequential_rps = n_requests / sequential_elapsed
    batched_rps = n_requests / batched_elapsed
    speedup = batched_rps / sequential_rps
    # The batcher must actually have coalesced (and deduplicated) work —
    # a speedup from noise alone would not show these.
    assert batched_metrics["dedup_hits_total"] > 0
    assert batched_metrics["mean_batch_size"] > 1.5
    assert sequential_metrics["mean_batch_size"] == 1.0
    assert speedup >= REQUIRED_SPEEDUP, (
        f"micro-batched serving only reached {speedup:.2f}x sequential "
        f"({batched_rps:.1f} vs {sequential_rps:.1f} req/s)"
    )

    # --- claim 3: distinct graphs — batching without dedup -----------------
    _, distinct_sequential_elapsed, _, distinct_sequential_metrics = run_mode(1, 0.0, distinct_schedule)
    _, distinct_batched_elapsed, distinct_responses, distinct_batched_metrics = run_mode(
        16, 5.0, distinct_schedule
    )
    distinct_parity_diff = max(
        _max_score_diff(direct, requests, responses)
        for requests, responses in zip(distinct_schedule, distinct_responses)
    )
    assert distinct_parity_diff <= SCORE_TOLERANCE
    assert distinct_batched_metrics["dedup_hits_total"] == 0
    assert distinct_sequential_metrics["mean_batch_size"] == 1.0
    distinct_sequential_rps = n_requests / distinct_sequential_elapsed
    distinct_batched_rps = n_requests / distinct_batched_elapsed
    distinct_speedup = distinct_batched_rps / distinct_sequential_rps

    benchmark.extra_info["sequential_rps"] = round(sequential_rps, 1)
    benchmark.extra_info["batched_rps"] = round(batched_rps, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["distinct_speedup"] = round(distinct_speedup, 2)
    benchmark.extra_info["mean_batch_size"] = batched_metrics["mean_batch_size"]

    dump_json(
        bench_json_path("BENCH_serve.json"),
        {
            "host": host_facts(),
            "concurrency": CONCURRENCY,
            "n_requests": n_requests,
            "graph_pool": len(graphs),
            "sequential_rps": round(sequential_rps, 2),
            "batched_rps": round(batched_rps, 2),
            "speedup": round(speedup, 2),
            "required_speedup": REQUIRED_SPEEDUP,
            "distinct_speedup": round(distinct_speedup, 2),
            "distinct_dedup_hits_total": distinct_batched_metrics["dedup_hits_total"],
            "parity_max_abs_diff": parity_diff,
            "sequential": _arm_summary(sequential_metrics),
            "batched": _arm_summary(batched_metrics),
            "distinct": {
                "graph_pool": n_requests,
                "sequential_rps": round(distinct_sequential_rps, 2),
                "batched_rps": round(distinct_batched_rps, 2),
                "parity_max_abs_diff": distinct_parity_diff,
                "sequential": _arm_summary(distinct_sequential_metrics),
                "batched": _arm_summary(distinct_batched_metrics),
            },
        },
    )
