"""Benchmark P-1 — sharded ``fit_detect_many`` on a 2-worker 8-graph batch.

Pins the acceptance claims of the parallel executor:

1. **Parity** — sharded results are bit-identical (≤1e-8, in practice
   exact) to the serial order, because every graph's pipeline is seeded
   from its config/batch index and never from worker identity.
2. **Speed** — with 2 workers the 8-graph batch completes ≥1.7× faster
   than the serial path.  The wall-clock assertion only applies where it
   is physically possible: hosts exposing ≥2 usable cores (the CI
   runners).  On a single-core host the benchmark still runs and pins
   parity, and records the measured ratio for the trajectory.

Writes ``BENCH_parallel.json`` with the host facts of
``benchmarks/hostinfo.py`` and each arm's CPU seconds and load average
(``serial_usage`` / ``sharded_usage``, see ``hostinfo.arm_usage``): a
missed ratio with equal CPU and a high load average is host contention,
a sharded arm with more CPU than the serial one did extra work.  The file
is tracked in git and uploaded by the CI parallel job; ``BENCH_OUT_DIR``
picks its directory (see ``conftest.py``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_example_graph
from repro.parallel import ParallelExecutor, default_worker_count
from repro.persist import dump_json

from hostinfo import arm_usage, host_facts

N_GRAPHS = 8
N_WORKERS = 2
REQUIRED_SPEEDUP = 1.7


def _config() -> TPGrGADConfig:
    # Heavier than TPGrGADConfig.fast(): each graph must cost enough that
    # the one-off pool fork/teardown (~0.3s) cannot mask a genuine 2x.
    from repro.gae import MHGAEConfig
    from repro.gcl import TPGCLConfig
    from repro.sampling import SamplerConfig

    return TPGrGADConfig(
        mhgae=MHGAEConfig(epochs=200, hidden_dim=32, embedding_dim=16),
        sampler=SamplerConfig(max_candidates=120, max_anchor_pairs=150),
        tpgcl=TPGCLConfig(epochs=24, hidden_dim=32, embedding_dim=32, batch_size=24),
        max_anchors=25,
        seed=1,
    )


def test_sharded_batch_parity_and_speedup(benchmark, bench_json_path):
    graphs = [make_example_graph(seed=seed) for seed in range(N_GRAPHS)]

    serial_detector = TPGrGAD(_config())
    with arm_usage() as serial_usage:
        serial_start = time.perf_counter()
        serial = serial_detector.fit_detect_many(graphs)
        serial_seconds = time.perf_counter() - serial_start

    executor = ParallelExecutor(_config(), n_workers=N_WORKERS)
    with arm_usage() as sharded_usage:
        sharded_start = time.perf_counter()
        sharded = benchmark.pedantic(
            lambda: executor.fit_detect_many(graphs), rounds=1, iterations=1
        )
        sharded_seconds = time.perf_counter() - sharded_start

    # --- claim 1: bit-identical to the serial order ----------------------
    assert len(sharded) == len(serial)
    parity_max_abs_diff = 0.0
    for serial_result, sharded_result in zip(serial, sharded):
        assert sharded_result.n_candidates == serial_result.n_candidates
        score_diff = float(np.abs(sharded_result.scores - serial_result.scores).max())
        parity_max_abs_diff = max(
            parity_max_abs_diff,
            score_diff,
            abs(sharded_result.threshold - serial_result.threshold),
        )
        assert sharded_result.to_json_dict() == serial_result.to_json_dict()
    assert parity_max_abs_diff <= 1e-8

    # --- claim 2: ≥1.7x wall clock on 2 workers (needs 2 real cores) -----
    speedup = serial_seconds / max(sharded_seconds, 1e-12)
    usable_cores = default_worker_count()

    benchmark.extra_info["n_graphs"] = N_GRAPHS
    benchmark.extra_info["n_workers"] = N_WORKERS
    benchmark.extra_info["usable_cores"] = usable_cores
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 3)
    benchmark.extra_info["sharded_seconds"] = round(sharded_seconds, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    dump_json(
        bench_json_path("BENCH_parallel.json"),
        {
            "host": host_facts(),
            "n_graphs": N_GRAPHS,
            "n_workers": N_WORKERS,
            "usable_cores": usable_cores,
            "serial_seconds": round(serial_seconds, 3),
            "sharded_seconds": round(sharded_seconds, 3),
            "speedup": round(speedup, 2),
            "required_speedup": REQUIRED_SPEEDUP,
            "speedup_enforced": usable_cores >= N_WORKERS,
            "parity_max_abs_diff": parity_max_abs_diff,
            "serial_usage": serial_usage,
            "sharded_usage": sharded_usage,
        },
    )

    print(
        f"\nsharded {N_GRAPHS}-graph batch on {N_WORKERS} workers "
        f"({usable_cores} usable cores): serial {serial_seconds:.1f}s, "
        f"sharded {sharded_seconds:.1f}s ({speedup:.2f}x); CPU serial "
        f"{serial_usage['cpu_seconds']:.1f}s, sharded {sharded_usage['cpu_seconds']:.1f}s; "
        f"1-min load {serial_usage['loadavg_before'][0]} -> {sharded_usage['loadavg_after'][0]}"
    )
    if usable_cores >= N_WORKERS:
        assert speedup >= REQUIRED_SPEEDUP, (
            f"expected >= {REQUIRED_SPEEDUP}x on {usable_cores} cores, got {speedup:.2f}x"
        )

