"""Benchmark J-1 — async job throughput through the durable store.

Pins the acceptance claims of the jobs subsystem:

1. **Throughput** — a burst of jobs submitted over HTTP drains through
   the claim → micro-batch → complete loop at ≥ ``REQUIRED_JOBS_PER_S``
   jobs/s end to end (submit to terminal state), warm ``detect_only``
   on the served artifact.
2. **Dedup** — duplicate submissions inside the burst are answered by
   the existing record: the store holds one row per distinct input and
   ``dedup_hits_total`` counts the collapsed resubmissions.
3. **Parity** — a drained job's stored response is bit-identical to the
   synchronous ``/score`` answer for the same graph on the same server.

Writes ``BENCH_jobs.json`` with the host facts of
``benchmarks/hostinfo.py`` (tracked in git, uploaded by the CI jobs job);
``BENCH_OUT_DIR`` picks its directory (see ``conftest.py``).
"""

from __future__ import annotations

import time

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_example_graph
from repro.gae import MHGAEConfig
from repro.gcl import TPGCLConfig
from repro.jobs import JobStore
from repro.persist import dump_json
from repro.sampling import SamplerConfig
from repro.serve import ModelRegistry, ScoringClient, ServeConfig, start_server_thread

from hostinfo import host_facts

GRAPH_POOL_SEEDS = (7, 11, 13, 17)   # 4 distinct graphs...
RESUBMITS_PER_GRAPH = 3              # ...submitted 3x each = 12 submissions
REQUIRED_JOBS_PER_S = 2.0


def _config() -> TPGrGADConfig:
    return TPGrGADConfig(
        mhgae=MHGAEConfig(epochs=8, hidden_dim=16, embedding_dim=8),
        sampler=SamplerConfig(max_candidates=60, max_anchor_pairs=80),
        tpgcl=TPGCLConfig(epochs=3, hidden_dim=16, embedding_dim=16, batch_size=16),
        max_anchors=15,
        seed=1,
    )


def test_job_burst_throughput_dedup_and_parity(benchmark, tmp_path, bench_json_path):
    graphs = [make_example_graph(seed=seed) for seed in GRAPH_POOL_SEEDS]
    detector = TPGrGAD(_config())
    detector.fit_detect(graphs[0])
    artifact = detector.save(tmp_path / "artifact")

    registry = ModelRegistry()
    registry.load("bench", artifact)
    store_path = str(tmp_path / "jobs.sqlite")
    handle = start_server_thread(
        registry,
        ServeConfig(
            max_batch=16,
            max_wait_ms=2,
            job_store_path=store_path,
            job_poll_interval_s=0.01,
        ),
    )
    client = ScoringClient(port=handle.port, timeout=300)
    try:
        def burst() -> dict:
            start = time.perf_counter()
            job_ids = []
            for _ in range(RESUBMITS_PER_GRAPH):
                for graph in graphs:
                    job_ids.append(client.submit_job(graph)["job_id"])
            submit_seconds = time.perf_counter() - start
            for job_id in dict.fromkeys(job_ids):  # distinct, order kept
                client.wait_job(job_id, timeout=300, poll_interval=0.02)
            return {
                "job_ids": job_ids,
                "submit_seconds": submit_seconds,
                "elapsed_seconds": time.perf_counter() - start,
            }

        run = benchmark.pedantic(burst, rounds=1, iterations=1)
        n_submissions = len(run["job_ids"])
        n_distinct = len(set(run["job_ids"]))
        jobs_per_second = n_submissions / run["elapsed_seconds"]

        # --- dedup: one row per distinct input --------------------------
        assert n_distinct == len(GRAPH_POOL_SEEDS)
        jobs_metrics = client.metrics()["jobs"]
        assert jobs_metrics["deduplicated_total"] == n_submissions - n_distinct
        assert jobs_metrics["queue_depth"]["done"] == n_distinct

        # --- parity: stored result == synchronous /score ----------------
        sync = client.score(graphs[0])
        stored = client.job_result(run["job_ids"][0])["response"]
        assert stored["result"] == sync["result"]
        assert stored["config_hash"] == sync["config_hash"]

        payload = {
            "host": host_facts(),
            "n_submissions": n_submissions,
            "n_distinct_jobs": n_distinct,
            "dedup_hits": n_submissions - n_distinct,
            "submit_seconds": round(run["submit_seconds"], 3),
            "elapsed_seconds": round(run["elapsed_seconds"], 3),
            "jobs_per_second": round(jobs_per_second, 2),
            "required_jobs_per_second": REQUIRED_JOBS_PER_S,
            "wait_p95_ms": jobs_metrics["wait_p95_ms"],
            "run_p95_ms": jobs_metrics["run_p95_ms"],
            "queue_depth_final": jobs_metrics["queue_depth"],
            "parity": "bit-identical",
        }
        benchmark.extra_info.update(
            {key: value for key, value in payload.items() if not isinstance(value, dict)}
        )
        dump_json(bench_json_path("BENCH_jobs.json"), payload)

        print(
            f"\n{n_submissions} submissions ({n_distinct} distinct) drained in "
            f"{run['elapsed_seconds']:.2f}s = {jobs_per_second:.1f} jobs/s "
            f"(wait p95 {jobs_metrics['wait_p95_ms']:.1f}ms, "
            f"run p95 {jobs_metrics['run_p95_ms']:.1f}ms)"
        )
        assert jobs_per_second >= REQUIRED_JOBS_PER_S, (
            f"expected >= {REQUIRED_JOBS_PER_S} jobs/s, got {jobs_per_second:.2f}"
        )
    finally:
        client.close()
        handle.stop(drain=True)

    # The drained store is intact and readable by a fresh connection —
    # what `python -m repro.jobs ls` does after the server exits.
    with JobStore(store_path) as store:
        stats = store.stats()
        assert stats["states"]["done"] == len(GRAPH_POOL_SEEDS)
        assert stats["dedup_hits_total"] == len(GRAPH_POOL_SEEDS) * (RESUBMITS_PER_GRAPH - 1)
