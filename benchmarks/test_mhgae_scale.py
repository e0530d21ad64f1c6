"""Benchmark S-2 — MH-GAE fit and scoring at 5k, 10k and 20k nodes.

MH-GAE training and scoring walk the upper-triangle tiles of ``σ(ZZᵀ)``
(``_TileWalk``), so their memory is flat in ``n`` where the previous
training step (the
dense target plus the autodiff decoder, kept as the oracle in
``tests/gae_oracle.py``) held several ``n × n`` arrays.  Per graph size
this records, each stage in its own subprocess at one BLAS thread:

* ``fit`` — ``MultiHopGAE.fit`` (2 epochs, float64, GraphSNN target);
* ``score`` — ``score_nodes`` on a model bound to the fitted weights with
  ``attach`` (so its peak RSS excludes training);
* ``parent_fit`` — the oracle training loop, at 5k nodes only.  Its peak
  grows with ``n²``; the JSON records the projection that rules out the
  10k and 20k parent arms on the host.

Seconds are the stage's wall time; ``peak_rss_mb`` is the subprocess's
peak RSS, ``baseline_rss_mb`` the same after imports and graph build.
Each arm's ``usage`` holds the subprocess's CPU seconds and the load
average around it (``hostinfo.arm_usage``), so a slow arm shows whether
the host was busy or the arm did more work.
Pinned: every change arm completes, and at 5k nodes the change's fit
peaks under half the parent's.  Writes ``BENCH_scale.json``; ``BENCH_OUT_DIR``
picks its directory (see ``conftest.py``).

Run one arm by hand with ``python benchmarks/test_mhgae_scale.py fit 5000 DIR``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.gae import MHGAEConfig, MultiHopGAE
from repro.persist import dump_json

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from gae_oracle import AutodiffMultiHopGAE  # noqa: E402
from hostinfo import arm_usage, host_facts  # noqa: E402
from test_scaling_sparse import _synthetic_graph  # noqa: E402

SIZES = (5_000, 10_000, 20_000)
PARENT_SIZES = (5_000,)
EPOCHS = 2
ARM_BLAS_THREADS = 1
MAX_PEAK_RATIO = 0.5


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _config() -> MHGAEConfig:
    return MHGAEConfig(epochs=EPOCHS, dtype="float64", seed=0)


def run_arm(stage: str, n_nodes: int, workdir: str) -> dict:
    """One stage on one graph size, in this process; fit arms save the weights."""
    graph = _synthetic_graph(n_nodes)
    state_path = os.path.join(workdir, f"state_{n_nodes}.npz")
    baseline = _peak_rss_mb()
    if stage == "score":
        model = MultiHopGAE(_config()).attach(graph, dict(np.load(state_path)))
        start = time.perf_counter()
        model.score_nodes()
    else:
        model_cls = AutodiffMultiHopGAE if stage == "parent_fit" else MultiHopGAE
        start = time.perf_counter()
        model = model_cls(_config()).fit(graph)
    seconds = time.perf_counter() - start
    if stage == "fit":
        np.savez(state_path, **model.state_dict())
    return {
        "stage": stage,
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "seconds": round(seconds, 3),
        "peak_rss_mb": round(_peak_rss_mb(), 1),
        "baseline_rss_mb": round(baseline, 1),
    }


def _spawn(stage: str, n_nodes: int, workdir: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(ARM_BLAS_THREADS))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with arm_usage() as usage:
        completed = subprocess.run(
            [sys.executable, __file__, stage, str(n_nodes), workdir],
            capture_output=True, text=True, env=env, check=False,
        )
    assert completed.returncode == 0, f"{stage} at {n_nodes} nodes failed:\n{completed.stderr}"
    arm = json.loads(completed.stdout.strip().splitlines()[-1])
    arm["usage"] = usage
    return arm


def _host_memory_gb() -> float:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30


def _run_all() -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        change = {n: {stage: _spawn(stage, n, workdir) for stage in ("fit", "score")} for n in SIZES}
        parent = {n: _spawn("parent_fit", n, workdir) for n in PARENT_SIZES}
    return {"change": change, "parent": parent}


def test_mhgae_fit_memory_is_flat_in_n(benchmark, bench_json_path):
    arms = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    change, parent = arms["change"], arms["parent"]

    # The parent's training memory grows with n²: project its 5k arm.
    reference = parent[PARENT_SIZES[0]]
    dense_mb = reference["peak_rss_mb"] - reference["baseline_rss_mb"]
    host_gb = _host_memory_gb()
    parent_not_attempted = {}
    for n in SIZES:
        if n in parent:
            continue
        projected_gb = (reference["baseline_rss_mb"] + dense_mb * (n / reference["n_nodes"]) ** 2) / 1024
        parent_not_attempted[str(n)] = {
            "projected_peak_rss_gb": round(projected_gb, 1),
            "reason": (
                f"the parent's dense n x n training projects to ~{projected_gb:.1f} GB peak RSS "
                f"on a {host_gb:.0f} GB host, scaled by n² from its measured 5k arm"
            ),
        }

    peak_ratio = change[PARENT_SIZES[0]]["fit"]["peak_rss_mb"] / reference["peak_rss_mb"]
    payload = {
        "host": dict(host_facts(), memory_gb=round(host_gb, 1)),
        "arm_blas_threads": ARM_BLAS_THREADS,
        "mhgae_epochs": EPOCHS,
        "dtype": "float64",
        "target": "graphsnn",
        "change": {str(n): stages for n, stages in change.items()},
        "parent": {str(n): arm for n, arm in parent.items()},
        "parent_not_attempted": parent_not_attempted,
        "fit_peak_rss_ratio_5k": round(peak_ratio, 3),
        "max_peak_rss_ratio_5k": MAX_PEAK_RATIO,
    }
    dump_json(bench_json_path("BENCH_scale.json"), payload)
    benchmark.extra_info["fit_peak_rss_ratio_5k"] = payload["fit_peak_rss_ratio_5k"]

    for n in SIZES:
        fit, score = change[n]["fit"], change[n]["score"]
        print(
            f"\n{n} nodes: fit {fit['seconds']:.2f}s at {fit['peak_rss_mb']:.0f} MB, "
            f"score {score['seconds']:.2f}s at {score['peak_rss_mb']:.0f} MB"
        )
    print(f"parent fit at 5k: {reference['seconds']:.2f}s at {reference['peak_rss_mb']:.0f} MB")
    assert peak_ratio < MAX_PEAK_RATIO, payload


if __name__ == "__main__":
    stage_arg, n_arg, workdir_arg = sys.argv[1:4]
    print(json.dumps(run_arm(stage_arg, int(n_arg), workdir_arg)))
