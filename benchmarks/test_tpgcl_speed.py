"""Benchmark T-2 — fused TPGCL group-encoder kernel vs the autodiff oracle.

Pins the claim of the fused ``group_encode`` kernel: ``TPGCL.fit`` +
``embed_groups`` on the candidate sets of fit-sized graphs (the 200-600
node simML / AMLPublic range) runs **≥1.5× faster** than with the
per-subgraph autodiff encoder, and produces **bit-identical** float64
embeddings.

Both arms run in the same process on the same candidates:

* ``fused`` — today's encoder: one tape node per view batch, each view's
  propagation matrix and features prepared once per view generation;
* ``oracle`` — :class:`AutodiffGroupEncoder` from ``tests/encoder_oracle.py``
  swapped in for ``GroupEncoder``: about ten tape nodes per subgraph and a
  fresh normalised adjacency per subgraph per epoch.

Everything else (augmentations, MINE, Adam, pattern search) is shared,
so the ratio isolates the encoder path.  Each graph is fitted
``ROUNDS`` times per arm, alternating which arm goes first, and each arm
keeps its fastest time per graph, so host drift and a neighbour's burst
hit both arms alike.  Because the arms interleave, ``fused_usage`` /
``oracle_usage`` hold each arm's CPU seconds summed over all its calls
(every round, not only the fastest) next to the load average around the
whole comparison (see ``hostinfo.arm_usage``).

Writes ``BENCH_tpgcl.json`` (tracked in git, uploaded by the CI train
job); ``BENCH_OUT_DIR`` picks its directory (see ``conftest.py``).
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

import repro.gcl.tpgcl as tpgcl_module
from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_amlpublic, make_simml
from repro.gcl import TPGCL, GroupEncoder
from repro.persist import dump_json

from hostinfo import arm_usage, host_facts

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from encoder_oracle import AutodiffGroupEncoder  # noqa: E402

REQUIRED_SPEEDUP = 1.5
N_GRAPHS = 12
ROUNDS = 2
# Scale ranges giving 200-600 nodes, as in the perfbench ``fit`` workload.
SCALES = {"simml": (0.07, 0.22), "amlpublic": (0.012, 0.035)}


def _graphs():
    makers = {"simml": make_simml, "amlpublic": make_amlpublic}
    graphs = []
    for i in range(N_GRAPHS):
        name = "simml" if i % 2 == 0 else "amlpublic"
        low, high = SCALES[name]
        scale = low + (high - low) * (i // 2) / (N_GRAPHS // 2 - 1)
        graphs.append(makers[name](scale=scale, seed=500 + i))
    return graphs


def _fit_embed(encoder_cls, tpgcl_config, graph, candidates):
    original = tpgcl_module.GroupEncoder
    tpgcl_module.GroupEncoder = encoder_cls
    try:
        with arm_usage() as usage:
            start = time.perf_counter()
            model = TPGCL(tpgcl_config).fit(graph, candidates)
            embeddings = model.embed_groups(graph, candidates)
            seconds = time.perf_counter() - start
    finally:
        tpgcl_module.GroupEncoder = original
    assert type(model.encoder) is encoder_cls
    return embeddings, seconds, usage["cpu_seconds"]


def _compare(config, workload):
    """Per arm: summed fastest seconds per graph, and CPU seconds summed over every call."""
    seconds = {"fused": 0.0, "oracle": 0.0}
    cpu_seconds = {"fused": 0.0, "oracle": 0.0}
    identical = True
    arms = [("fused", GroupEncoder), ("oracle", AutodiffGroupEncoder)]
    for index, (graph, candidates) in enumerate(workload):
        embeddings, fastest = {}, {name: float("inf") for name in seconds}
        for round_index in range(ROUNDS):
            for name, encoder_cls in arms if (index + round_index) % 2 == 0 else arms[::-1]:
                embeddings[name], elapsed, cpu = _fit_embed(encoder_cls, config.tpgcl, graph, candidates)
                fastest[name] = min(fastest[name], elapsed)
                cpu_seconds[name] += cpu
        for name in seconds:
            seconds[name] += fastest[name]
        identical &= bool(np.array_equal(embeddings["fused"], embeddings["oracle"]))
    return seconds, cpu_seconds, identical


def test_fused_encoder_faster_than_autodiff_oracle(benchmark, bench_json_path):
    config = TPGrGADConfig.fast()
    # Candidates do not depend on TPGCL, so sample them with that stage off.
    sampling_only = dataclasses.replace(config, use_tpgcl=False)
    workload = []
    for graph in _graphs():
        candidates = TPGrGAD(sampling_only).fit_detect(graph).candidate_groups
        if len(candidates) >= 2:
            workload.append((graph, candidates))
    assert len(workload) >= N_GRAPHS - 2

    with arm_usage() as comparison:
        seconds, cpu_seconds, identical = benchmark.pedantic(
            lambda: _compare(config, workload), rounds=1, iterations=1
        )
    loadavg = {key: comparison[key] for key in ("loadavg_before", "loadavg_after")}
    speedup = seconds["oracle"] / max(seconds["fused"], 1e-12)
    benchmark.extra_info["speedup"] = round(speedup, 2)

    dump_json(
        bench_json_path("BENCH_tpgcl.json"),
        {
            "host": host_facts(),
            "n_graphs": len(workload),
            "nodes": sorted(graph.n_nodes for graph, _ in workload),
            "n_candidates": sum(len(candidates) for _, candidates in workload),
            "tpgcl_epochs": config.tpgcl.epochs,
            "dtype": config.tpgcl.dtype,
            "rounds": ROUNDS,
            "fused_seconds": round(seconds["fused"], 3),
            "oracle_seconds": round(seconds["oracle"], 3),
            "fused_usage": {"cpu_seconds": round(cpu_seconds["fused"], 3), **loadavg},
            "oracle_usage": {"cpu_seconds": round(cpu_seconds["oracle"], 3), **loadavg},
            "speedup": round(speedup, 2),
            "required_speedup": REQUIRED_SPEEDUP,
            "embeddings_identical": identical,
        },
    )
    print(
        f"\nTPGCL fit+embed on {len(workload)} graphs: fused {seconds['fused']:.2f}s, "
        f"autodiff oracle {seconds['oracle']:.2f}s ({speedup:.2f}x)"
    )
    assert identical, "fused float64 embeddings differ from the autodiff oracle"
    assert speedup >= REQUIRED_SPEEDUP, f"expected >= {REQUIRED_SPEEDUP}x, got {speedup:.2f}x"
