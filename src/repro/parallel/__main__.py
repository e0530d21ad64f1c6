"""CLI for sharded runs: ``python -m repro.parallel <command> [options]``.

Two commands:

* ``detect`` — score a batch of generated graphs through the sharded
  ``fit_detect_many`` (optionally warm-started from a saved artifact),
  printing one summary line per graph.
* ``fit`` — train the pipeline on one dataset and save the model
  artifact (``arrays.npz`` + ``manifest.json``) for later ``detect
  --artifact`` / streaming warm starts.

The paper's tables and figures run through ``python -m repro.experiments``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import load_dataset
from repro.gae import MHGAEConfig
from repro.gcl import TPGCLConfig
from repro.obs.logging import get_logger, setup_logging
from repro.obs.tracer import Tracer, use_tracer
from repro.parallel import ParallelExecutor, default_worker_count
from repro.sampling import SamplerConfig

log = get_logger("parallel")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-workers", type=int, default=default_worker_count(),
                        help="worker processes (<=1 runs in-process)")
    parser.add_argument("--dataset", default="simml", help="dataset name (see repro.datasets)")
    parser.add_argument("--scale", type=float, default=0.2, help="dataset scale vs published size")
    parser.add_argument("--seed", type=int, default=0, help="master pipeline seed")
    parser.add_argument("--mhgae-epochs", type=int, default=25)
    parser.add_argument("--tpgcl-epochs", type=int, default=6)
    parser.add_argument("--max-anchors", type=int, default=30)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel",
        description="Sharded TP-GrGAD runs: batched detection and artifact fitting.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    detect = commands.add_parser("detect", help="shard fit_detect_many over a graph batch")
    _add_common(detect)
    detect.add_argument("--batch", type=int, default=4,
                        help="batch size; graph i is the dataset generated with seed (--seed + i)")
    detect.add_argument("--threshold", type=float, default=None, help="explicit score threshold τ")
    detect.add_argument("--artifact", default=None,
                        help="broadcast a saved artifact; workers serve warm detect_only")
    detect.add_argument("--json", metavar="PATH", default=None,
                        help="write per-graph result summaries as JSON")
    detect.add_argument("--trace", metavar="PATH", default=None,
                        help="trace the sharded run (incl. worker spans) and dump JSONL")

    fit = commands.add_parser("fit", help="train on one dataset and save the model artifact")
    _add_common(fit)
    fit.add_argument("--out", required=True, help="artifact directory to write")
    fit.add_argument("--trace", metavar="PATH", default=None,
                        help="trace the fit (pipeline/gae/tpgcl spans) and dump JSONL")
    return parser


def pipeline_config(args: argparse.Namespace) -> TPGrGADConfig:
    return TPGrGADConfig(
        mhgae=MHGAEConfig(epochs=args.mhgae_epochs, hidden_dim=32, embedding_dim=16),
        sampler=SamplerConfig(max_candidates=150, max_anchor_pairs=200),
        tpgcl=TPGCLConfig(epochs=args.tpgcl_epochs, hidden_dim=32, embedding_dim=32, batch_size=24),
        max_anchors=args.max_anchors,
        seed=args.seed,
    )


def _cmd_detect(args: argparse.Namespace) -> int:
    graphs = [
        load_dataset(args.dataset, scale=args.scale, seed=args.seed + i)
        for i in range(args.batch)
    ]
    executor = ParallelExecutor(
        pipeline_config(args),
        n_workers=args.n_workers,
        artifact=args.artifact,
    )
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    if tracer is not None:
        with use_tracer(tracer):
            results = executor.fit_detect_many(graphs, threshold=args.threshold)
    else:
        results = executor.fit_detect_many(graphs, threshold=args.threshold)
    elapsed = time.perf_counter() - start

    for i, (graph, result) in enumerate(zip(graphs, results)):
        print(
            f"graph {i} ({graph.n_nodes} nodes / {graph.n_edges} edges): "
            f"{result.n_candidates} candidates, {result.n_anomalous} flagged, "
            f"threshold {result.threshold:.4f}"
        )
    mode = "warm detect_only" if args.artifact else "fit_detect"
    log.info(
        "%d graphs via %s on %d workers in %.1fs", len(graphs), mode, args.n_workers, elapsed
    )
    if tracer is not None:
        tracer.dump_jsonl(args.trace)
        log.info("wrote %d spans (trace %s) to %s", len(tracer.spans), tracer.trace_id, args.trace)
    if args.json:
        from repro.persist import dump_json

        dump_json(
            args.json,
            {
                "n_workers": args.n_workers,
                "seconds": round(elapsed, 4),
                "results": [result.to_json_dict() for result in results],
            },
        )
        log.info("wrote %s", args.json)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    detector = TPGrGAD(pipeline_config(args))
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    if tracer is not None:
        with use_tracer(tracer):
            result = detector.fit_detect(graph)
    else:
        result = detector.fit_detect(graph)
    path = detector.save(args.out)
    log.info(
        "fitted '%s' (%d nodes) in %.1fs: %d candidates, %d flagged",
        args.dataset, graph.n_nodes, time.perf_counter() - start,
        result.n_candidates, result.n_anomalous,
    )
    log.info("saved artifact to %s", path)
    if tracer is not None:
        tracer.dump_jsonl(args.trace)
        log.info("wrote %d spans (trace %s) to %s", len(tracer.spans), tracer.trace_id, args.trace)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging()
    if args.command == "detect":
        return _cmd_detect(args)
    return _cmd_fit(args)


if __name__ == "__main__":
    sys.exit(main())
