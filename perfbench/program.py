"""The program's own process for the ``fit`` and ``stream`` workloads.

``python3 perfbench/program.py MODE INPUTS OUT [--trace]``

The runner starts this script in a fresh process so that set-up (importing
``repro``, and for ``stream`` the initial refit) and peak RSS belong to the
program alone.  Inputs arrive as a pickle the runner wrote; results leave
as JSON in OUT.  Modes:

* ``warmup``: import and fit one small graph, then exit (discarded).
* ``fit-setup`` / ``stream-setup``: measure set-up only, then exit.
* ``fit``: cold ``TPGrGAD.fit_detect`` on each graph of the pool, one
  graph per operation, back to back.
* ``stream``: ``IncrementalTPGrGAD.update`` over every tick, then
  ``finalize()``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from repro.core import TPGrGAD, TPGrGADConfig  # noqa: E402
from repro.stream import IncrementalTPGrGAD, StreamConfig, StreamingGraph  # noqa: E402

IMPORT_S = time.perf_counter() - _STARTED

import benchlib  # noqa: E402


def _result_json(result) -> dict:
    return json.loads(json.dumps(result.to_json_dict()))


def _load(path: str) -> dict:
    # Written by the runner in this same checkout, never by a third party.
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _warmup() -> dict:
    from repro.datasets import make_simml

    TPGrGAD(TPGrGADConfig.fast()).fit_detect(make_simml(scale=0.15, seed=0))
    return {}


def _fit(inputs: dict) -> dict:
    config = TPGrGADConfig.fast()
    graphs = inputs["graphs"]
    starts, ends, results = [], [], []
    for graph in graphs:
        starts.append(time.perf_counter())
        result = TPGrGAD(config).fit_detect(graph)
        ends.append(time.perf_counter())
        results.append(_result_json(result))
    # A cold fit is deterministic: refitting the first graph must repeat it.
    again = _result_json(TPGrGAD(config).fit_detect(graphs[0]))
    return {"starts_s": starts, "ends_s": ends, "results": results,
            "repeat_matches": again == results[0]}


def _stream_detector(inputs: dict):
    return IncrementalTPGrGAD(
        inputs["base"], TPGrGADConfig.fast(), StreamConfig(**inputs["stream_config"])
    )


def _stream(detector, inputs: dict, trace: bool) -> dict:
    ticks = []
    start = time.perf_counter()
    for delta in inputs["deltas"]:
        began = time.perf_counter()
        report = detector.update(delta)
        ticks.append({
            "seconds": time.perf_counter() - began,
            "mode": report.mode,
            "dirty_ball": report.dirty_ball,
            "pairs_reused": report.pairs_reused,
            "pairs_recomputed": report.pairs_recomputed,
            "embeddings_reused": report.embeddings_reused,
            "embeddings_recomputed": report.embeddings_recomputed,
        })
    elapsed = time.perf_counter() - start
    final = detector.finalize()
    out = {
        "elapsed_s": elapsed,
        "ticks": ticks,
        "final": _result_json(final),
        "final_scores": [float(s) for s in final.scores],
        "final_threshold": float(final.threshold),
    }
    if trace:
        # Layer timings from outside, on a second copy of the graph state:
        # delta merge (StreamingGraph.apply) and the dirty ball around it.
        streaming = StreamingGraph(inputs["base"])
        depth = detector.config.sampler.search_depth
        apply_s, ball_s = [], []
        for delta in inputs["deltas"]:
            began = time.perf_counter()
            report = streaming.apply(delta)
            apply_s.append(time.perf_counter() - began)
            began = time.perf_counter()
            streaming.graph.k_hop_ball(report.touched_topology, depth)
            ball_s.append(time.perf_counter() - began)
        out["apply_s"] = apply_s
        out["k_hop_ball_s"] = ball_s
    return out


def main(argv) -> int:
    mode, inputs_path, out_path = argv[:3]
    trace = "--trace" in argv
    out = {"import_s": IMPORT_S}
    if mode == "warmup":
        out.update(_warmup())
    elif mode in ("fit", "fit-setup"):
        out["setup_s"] = IMPORT_S
        if mode == "fit":
            out.update(_fit(_load(inputs_path)))
    elif mode in ("stream", "stream-setup"):
        inputs = _load(inputs_path)
        began = time.perf_counter()
        detector = _stream_detector(inputs)
        out["setup_s"] = IMPORT_S + time.perf_counter() - began
        if mode == "stream":
            out.update(_stream(detector, inputs, trace))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["blas_threads"] = benchlib.blas_threads()
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
