"""Async batch jobs quickstart: durable scoring through ``POST /jobs``.

Trains a small TP-GrGAD pipeline, boots the scoring server with a
sqlite-backed job store, and walks the full async lifecycle: submit a
batch of jobs (with duplicate submissions deduplicated server-side),
poll to completion, fetch stored results that are bit-identical to the
synchronous ``/score`` path, cancel a queued job, and read the job
metrics.  Everything runs headless in one process; against a real
deployment you would start the server with::

    python -m repro.serve --artifact fraud=artifacts/fraud \\
        --job-store jobs.sqlite --port 8000

and inspect the store offline with ``python -m repro.jobs ls --store
jobs.sqlite``.

Run with::

    python examples/batch_jobs.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_example_graph
from repro.jobs import JobStore
from repro.serve import ModelRegistry, ScoringClient, ServeConfig, start_server_thread


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-jobs-"))
    print("Training a model artifact (fast config)...")
    detector = TPGrGAD(TPGrGADConfig.fast(seed=1))
    detector.fit_detect(make_example_graph(seed=7))
    artifact = detector.save(workdir / "fraud")

    registry = ModelRegistry()
    registry.load("fraud", artifact)
    store_path = workdir / "jobs.sqlite"
    config = ServeConfig(
        max_batch=16,
        max_wait_ms=5,
        job_store_path=str(store_path),
        job_poll_interval_s=0.01,
    )
    with start_server_thread(registry, config) as handle:
        print(f"Scoring server listening on http://{handle.host}:{handle.port}\n")
        with ScoringClient(port=handle.port, api_key="analytics-team") as client:
            graphs = [make_example_graph(seed=seed) for seed in (7, 11, 13)]

            # Submit each graph twice: the second submission of identical
            # work returns the existing record instead of queueing again.
            job_ids = []
            for graph in graphs * 2:
                accepted = client.submit_job(graph, model="fraud")
                job_ids.append(accepted["job_id"])
                print(
                    f"POST /jobs -> {accepted['job_id']} state={accepted['state']} "
                    f"deduplicated={accepted['deduplicated']}"
                )
            distinct = list(dict.fromkeys(job_ids))
            print(f"\n{len(job_ids)} submissions -> {len(distinct)} distinct jobs")

            # Poll the first job to completion and compare against the
            # synchronous path: the stored response is bit-identical.
            result = client.wait_job(distinct[0], timeout=120)
            sync = client.score(graphs[0], model="fraud")
            print(
                f"\njob {distinct[0]} done: "
                f"{len(result['response']['result']['scores'])} group scores, "
                f"bit-identical to sync /score: "
                f"{result['response']['result'] == sync['result']}"
            )
            for job_id in distinct[1:]:
                client.wait_job(job_id, timeout=120)

            # A queued job can be withdrawn; terminal jobs are history.
            extra = client.submit_job(make_example_graph(seed=17), model="fraud")
            try:
                cancelled = client.cancel_job(extra["job_id"])
                print(f"cancelled queued job {cancelled['job_id']}")
            except Exception:
                # The job worker may have raced us to it — equally fine.
                client.wait_job(extra["job_id"], timeout=120)
                print(f"job {extra['job_id']} completed before cancel landed")

            listing = client.jobs(tenant="analytics-team")
            print(f"\nGET /jobs?tenant=analytics-team -> {len(listing['jobs'])} jobs, "
                  f"counts={listing['counts']}")
            jobs_metrics = client.metrics()["jobs"]
            print("job metrics:")
            print(f"  submitted/deduplicated: {jobs_metrics['submitted_total']} / "
                  f"{jobs_metrics['deduplicated_total']}")
            print(f"  queue depth:            {jobs_metrics['queue_depth']}")
            print(f"  wait/run p95 ms:        {jobs_metrics['wait_p95_ms']} / "
                  f"{jobs_metrics['run_p95_ms']}")
        handle.stop(drain=True)

    # The store outlives the server: what `python -m repro.jobs ls` reads.
    with JobStore(store_path) as store:
        stats = store.stats()
        print(f"\nstore after shutdown: {stats['states']} "
              f"(dedup hits {stats['dedup_hits_total']})")
    print("server stopped cleanly")


if __name__ == "__main__":
    main()
