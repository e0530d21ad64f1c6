"""Command-line replay driver: ``python -m repro.stream [options]``.

Replays a generated dataset as a transaction stream through the
incremental detector and prints throughput / latency / cache counters.
``--compare-refit`` additionally replays the same stream with
``refit_policy="always"`` (the batch pipeline every tick) and reports the
incremental-vs-refit speedup; ``--json`` dumps the summaries in the
``BENCH_stream.json`` schema consumed by CI.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from repro.core import TPGrGADConfig
from repro.datasets.stream import make_burst_stream, make_event_stream
from repro.gae import MHGAEConfig
from repro.gcl import TPGCLConfig
from repro.obs.logging import get_logger, setup_logging
from repro.sampling import SamplerConfig
from repro.stream.incremental import StreamConfig
from repro.stream.replay import ReplayDriver, replay_event_stream, write_summary_json

log = get_logger("stream")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.stream",
        description="Replay a dataset as a transaction stream through incremental TP-GrGAD.",
    )
    parser.add_argument("--dataset", default="simml", help="dataset name (see repro.datasets)")
    parser.add_argument("--scale", type=float, default=0.3, help="dataset scale vs published size")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ticks", type=int, default=10, help="number of stream ticks")
    parser.add_argument("--base-fraction", type=float, default=0.8,
                        help="share of background edges already present in the base snapshot")
    parser.add_argument("--burst", action="store_true",
                        help="plant the largest anomaly group mid-stream and measure detection lag")
    parser.add_argument("--policy", choices=["budget", "always", "never"], default="budget")
    parser.add_argument("--drift-budget", type=float, default=0.25)
    parser.add_argument("--mhgae-epochs", type=int, default=25)
    parser.add_argument("--tpgcl-epochs", type=int, default=6)
    parser.add_argument("--no-finalize", action="store_true",
                        help="skip the final flush refit (final result stays incremental)")
    parser.add_argument("--compare-refit", action="store_true",
                        help="also replay with refit_policy=always and report the speedup")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the summaries as JSON (BENCH_stream.json schema)")
    parser.add_argument("--artifact", metavar="PATH", default=None,
                        help="warm-start the detector from a saved pipeline artifact "
                             "(repro.persist) instead of an initial training refit")
    parser.add_argument("--save-artifact", metavar="PATH", default=None,
                        help="save the detector's fitted pipeline as an artifact after the replay")
    return parser


def pipeline_config(args: argparse.Namespace) -> TPGrGADConfig:
    return TPGrGADConfig(
        mhgae=MHGAEConfig(epochs=args.mhgae_epochs, hidden_dim=32, embedding_dim=16),
        sampler=SamplerConfig(max_candidates=150, max_anchor_pairs=200),
        tpgcl=TPGCLConfig(epochs=args.tpgcl_epochs, hidden_dim=32, embedding_dim=32, batch_size=24),
        max_anchors=30,
        seed=args.seed,
    )


def _stream_config(args: argparse.Namespace) -> StreamConfig:
    """Check the flags before any stream is generated (ValueError on a bad one)."""
    if args.ticks < 1:
        raise ValueError(f"--ticks must be at least 1, got {args.ticks}")
    if args.scale <= 0:
        raise ValueError(f"--scale must be positive, got {args.scale}")
    return StreamConfig(refit_policy=args.policy, drift_budget=args.drift_budget)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        stream_config = _stream_config(args)
    except ValueError as error:
        parser.exit(2, f"{parser.prog}: error: {error}\n")
    setup_logging()
    maker = make_burst_stream if args.burst else make_event_stream
    stream = maker(
        dataset=args.dataset,
        scale=args.scale,
        seed=args.seed,
        n_ticks=args.ticks,
        base_edge_fraction=args.base_fraction,
    )
    log.info(
        "stream '%s': base %d nodes / %d edges -> final %d nodes / %d edges over %d ticks",
        stream.name, stream.base.n_nodes, stream.base.n_edges,
        stream.final.n_nodes, stream.final.n_edges, stream.n_ticks,
    )

    config = None if args.artifact else pipeline_config(args)
    if args.artifact:
        log.info(
            "using pipeline config stored in artifact '%s' "
            "(--mhgae-epochs/--tpgcl-epochs and the pipeline seed are taken "
            "from the artifact, not the CLI flags)",
            args.artifact,
        )
    driver = ReplayDriver(stream.base, config, stream_config, artifact=args.artifact)
    summary = driver.run_stream(stream, finalize=not args.no_finalize)
    print(summary.render())
    summaries = [summary]

    if args.save_artifact:
        # After a refit (mid-stream or the flush) the driver's inner
        # pipeline holds the models that scored the final snapshot —
        # persist exactly those.  If no refit ever ran (e.g. --artifact
        # with --no-finalize), save() re-exports the loaded state; say so
        # instead of claiming a fresh fit.
        path = driver.detector.detector.save(args.save_artifact)
        if driver.detector.n_refits > 0:
            log.info("saved fitted pipeline artifact to %s", path)
        else:
            log.info("re-exported loaded artifact state to %s (no refit ran this replay)", path)

    extra = {}
    if args.compare_refit and args.policy != "always":
        oracle = replay_event_stream(
            stream,
            driver.detector.config,  # same config even when loaded from an artifact
            replace(stream_config, refit_policy="always"),
            finalize=not args.no_finalize,
        )
        oracle.name = f"{stream.name}-refit-per-tick"
        print(oracle.render())
        summaries.append(oracle)
        if summary.tick_seconds and oracle.tick_seconds:
            speedup = float(np.mean(oracle.tick_seconds) / max(np.mean(summary.tick_seconds), 1e-12))
            extra["incremental_vs_refit_speedup"] = round(speedup, 2)
            print(f"incremental-vs-refit mean tick speedup: {speedup:.1f}x")

    if args.json:
        write_summary_json(args.json, summaries, extra=extra)
        log.info("wrote %s", args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
