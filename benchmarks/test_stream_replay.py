"""Benchmark S-2 — streaming replay on a ~5k-node AMLSim transaction stream.

Pins the two acceptance claims of the streaming subsystem:

1. **Parity** — after the final event (and the stream flush), the
   incremental detector's scores match the batch ``fit_detect`` on the
   final snapshot to 1e-8 (they are in fact bit-identical: the flush runs
   the same seeded pipeline on the same graph).
2. **Speed** — an incremental dirty-region tick is ≥5× faster than a
   refit-per-tick (``refit_policy="always"``) tick on the same stream.

The run also writes ``BENCH_stream.json`` (events/sec, p50/p95 tick
latency, incremental-vs-refit speedup, cache counters) with the host facts
of ``benchmarks/hostinfo.py`` — tracked in git and uploaded by the CI
benchmark job; ``BENCH_OUT_DIR`` picks its directory (see ``conftest.py``).
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets.stream import make_burst_stream
from repro.gae import MHGAEConfig
from repro.gcl import TPGCLConfig
from repro.sampling import SamplerConfig
from repro.stream import StreamConfig, replay_event_stream, write_summary_json

from hostinfo import host_facts

# simML at scale 1.8 generates ≈5k accounts (2768 * 1.8 plus ring members).
SCALE = 1.8
N_TICKS = 6


def _config(seed: int = 1) -> TPGrGADConfig:
    """Small-epoch pipeline so a refit stays benchmarkable on 5k nodes."""
    return TPGrGADConfig(
        mhgae=MHGAEConfig(epochs=2, hidden_dim=16, embedding_dim=8),
        sampler=SamplerConfig(max_candidates=60, max_anchor_pairs=80),
        tpgcl=TPGCLConfig(epochs=2, hidden_dim=16, embedding_dim=16, batch_size=8),
        max_anchors=20,
        seed=seed,
    )


def test_stream_replay_parity_and_speedup(benchmark, bench_json_path):
    stream = make_burst_stream(dataset="simml", scale=SCALE, seed=1, n_ticks=N_TICKS)
    assert stream.final.n_nodes >= 4500, "benchmark is specified for a ~5k-node stream"

    incremental_summary = benchmark.pedantic(
        lambda: replay_event_stream(
            stream,
            _config(),
            StreamConfig(refit_policy="budget", drift_budget=0.5),
        ),
        rounds=1,
        iterations=1,
    )
    # The oracle's per-tick cost is a full batch refit — near constant per
    # tick — so two ticks (no flush) pin it without doubling the benchmark.
    refit_summary = replay_event_stream(
        stream.truncated(2), _config(), StreamConfig(refit_policy="always"), finalize=False
    )

    # --- claim 1: parity with the batch pipeline on the final snapshot ----
    batch = TPGrGAD(_config()).fit_detect(stream.final)
    assert incremental_summary.final_result.n_candidates == batch.n_candidates
    assert np.abs(incremental_summary.final_result.scores - batch.scores).max() <= 1e-8
    assert abs(incremental_summary.final_result.threshold - batch.threshold) <= 1e-8

    # --- claim 2: incremental re-scoring ≥5× faster than refit-per-tick ---
    incremental_ticks = [
        t.seconds for t in incremental_summary.ticks if t.mode == "incremental"
    ]
    refit_ticks = [t.seconds for t in refit_summary.ticks]
    assert incremental_ticks, "budget policy never ran an incremental tick"
    speedup = float(np.mean(refit_ticks)) / max(float(np.mean(incremental_ticks)), 1e-12)

    benchmark.extra_info["n_nodes"] = stream.final.n_nodes
    benchmark.extra_info["n_ticks"] = incremental_summary.n_ticks
    benchmark.extra_info["events_per_second"] = round(incremental_summary.events_per_second, 2)
    benchmark.extra_info["p50_tick_ms"] = round(incremental_summary.p50_latency * 1e3, 1)
    benchmark.extra_info["p95_tick_ms"] = round(incremental_summary.p95_latency * 1e3, 1)
    benchmark.extra_info["incremental_vs_refit_speedup"] = round(speedup, 1)
    benchmark.extra_info["pair_cache_hits"] = incremental_summary.pair_hits
    benchmark.extra_info["detection_lag_ticks"] = incremental_summary.detection_lag

    # --- claim 3: the summary schema splits refit vs incremental stats ---
    payload = incremental_summary.to_json_dict()
    for key in (
        "events_per_second",
        "incremental_events_per_second",
        "processing_seconds",
        "finalize_seconds",
        "p50_incremental_tick_latency_seconds",
        "p95_incremental_tick_latency_seconds",
        "p50_refit_tick_latency_seconds",
        "p95_refit_tick_latency_seconds",
    ):
        assert key in payload, f"BENCH_stream.json schema is missing '{key}'"
    # Refit ticks must no longer pollute the incremental percentiles.
    if incremental_summary.n_refits:
        assert (
            incremental_summary.p95_incremental_latency
            < incremental_summary.p50_refit_latency
        )
    # Lock the throughput denominator to processing time (ticks + flush):
    # a revert to the old ambient-wall-clock denominator (total_seconds,
    # which also counts event production) breaks this equality.
    assert incremental_summary.events_per_second == pytest.approx(
        incremental_summary.n_events / incremental_summary.processing_seconds,
        rel=1e-9,
    )

    refit_summary.name = f"{stream.name}-refit-per-tick"
    write_summary_json(
        bench_json_path("BENCH_stream.json"),
        [incremental_summary, refit_summary],
        extra={"host": host_facts(), "incremental_vs_refit_speedup": round(speedup, 2)},
    )

    print(
        f"\nstream replay on {stream.final.n_nodes} nodes / {incremental_summary.n_ticks} ticks: "
        f"incremental tick {np.mean(incremental_ticks) * 1e3:.0f}ms, "
        f"refit tick {np.mean(refit_ticks) * 1e3:.0f}ms ({speedup:.1f}x), "
        f"burst lag {incremental_summary.detection_lag}"
    )
    assert speedup >= 5.0
