"""Boot the scoring service: ``python -m repro.serve [options]``.

Loads one or more pipeline artifacts into the versioned registry and
serves ``/score``, ``/models``, ``/healthz`` and ``/metrics`` until
interrupted.  Artifacts are given as ``--artifact PATH`` (model name
defaults to the directory's basename; the first one becomes the default
model) or ``--artifact NAME=PATH``.  More models can be loaded — or
existing ones hot-swapped — at runtime via ``POST /models``.

``--job-store PATH`` additionally enables the durable async job API
(``POST /jobs`` + friends) backed by a sqlite store at PATH, drained by
one asyncio worker through the same micro-batcher.

Operational events (model loads, bind address, shutdown) go through
:mod:`repro.obs.logging`, so each line carries the active trace id when
``--trace`` is on.  ``--provenance-log PATH`` appends one provenance
record per scored response; ``python -m repro.obs verify`` replays them.

SIGTERM and SIGINT trigger a *graceful drain*: the listener closes, every
already-admitted request is answered, claimed jobs are released back to
``queued`` for the next boot, and the sqlite store is closed cleanly.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from pathlib import Path
from typing import List, Tuple

from repro.jobs.store import TenantQuota
from repro.obs.logging import get_logger, setup_logging
from repro.obs.tracer import Tracer, set_tracer
from repro.serve.batcher import ServeConfig
from repro.serve.registry import ModelRegistry
from repro.serve.server import ScoringServer

log = get_logger("serve")


def _parse_artifact(spec: str) -> Tuple[str, str]:
    """``NAME=PATH`` or bare ``PATH`` (name = directory basename)."""
    name, sep, path = spec.partition("=")
    if sep:
        return name, path
    return Path(spec).name or "default", spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve TP-GrGAD scoring over HTTP with micro-batching.",
    )
    parser.add_argument(
        "--artifact", action="append", required=True, metavar="[NAME=]PATH",
        help="pipeline artifact directory to load (repeatable; first is the default model)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000, help="0 binds an ephemeral port")
    parser.add_argument("--max-batch", type=int, default=16,
                        help="micro-batch width; 1 disables coalescing")
    parser.add_argument("--max-wait-ms", type=float, default=5.0,
                        help="max time the first request of a batch waits for company")
    parser.add_argument("--queue-size", type=int, default=128,
                        help="admission bound; excess requests are shed with 429")
    parser.add_argument("--timeout-ms", type=float, default=None,
                        help="default per-request deadline budget (none if omitted)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record request/batch/score spans and dump them as JSONL on shutdown")
    parser.add_argument("--provenance-log", metavar="PATH", default=None,
                        help="append one provenance record per scored response (JSONL)")
    parser.add_argument("--provenance-include-graph", action="store_true",
                        help="embed the scored graph in each provenance record "
                             "(self-contained replay via `python -m repro.obs verify`)")
    parser.add_argument("--job-store", metavar="PATH", default=None,
                        help="sqlite path for the durable async job API (enables POST /jobs)")
    parser.add_argument("--job-lease-ttl-s", type=float, default=30.0,
                        help="claim lease TTL; crashed workers' jobs requeue after this")
    parser.add_argument("--job-max-attempts", type=int, default=3,
                        help="attempts before a job is marked failed permanently")
    parser.add_argument("--job-max-queued", type=int, default=64,
                        help="per-tenant queued-job quota (429 above it)")
    parser.add_argument("--job-max-running", type=int, default=8,
                        help="per-tenant running-job cap enforced at claim time")
    parser.add_argument("--log-level", default="INFO",
                        help="stdlib logging level for operational events (default INFO)")
    return parser


def _serve_config(args: argparse.Namespace) -> ServeConfig:
    """The service's settings from the command line; ``ValueError`` names a bad one.

    The job quota is checked here too, so a bad flag fails before any
    artifact loads rather than after.
    """
    config = ServeConfig(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        queue_size=args.queue_size,
        default_timeout_ms=args.timeout_ms,
        provenance_path=args.provenance_log,
        provenance_include_graph=args.provenance_include_graph,
        job_store_path=args.job_store,
        job_lease_ttl_s=args.job_lease_ttl_s,
        job_max_attempts=args.job_max_attempts,
        job_max_queued=args.job_max_queued,
        job_max_running=args.job_max_running,
    )
    TenantQuota(max_queued=config.job_max_queued, max_running=config.job_max_running)
    return config


async def _serve(args: argparse.Namespace, config: ServeConfig) -> int:
    registry = ModelRegistry()
    for spec in args.artifact:
        name, path = _parse_artifact(spec)
        entry = registry.load(name, path)
        log.info(
            "loaded model '%s' v%d from %s (config %s, fitted on %s)",
            entry.name, entry.version, entry.path,
            entry.config_hash[:12], str(entry.state.graph_fingerprint)[:12],
        )

    tracer = None
    if args.trace:
        tracer = Tracer()
        set_tracer(tracer)
        log.info("tracing enabled (trace %s -> %s)", tracer.trace_id, args.trace)
    if args.provenance_log:
        log.info("provenance log: %s (include_graph=%s)",
                 args.provenance_log, args.provenance_include_graph)
    server = ScoringServer(registry, config)
    port = await server.start(args.host, args.port)
    log.info(
        "serving on http://%s:%d (POST /score, GET /models, GET /healthz, GET /metrics%s; "
        "max_batch=%d, max_wait_ms=%s)",
        args.host, port, ", POST /jobs" if args.job_store else "",
        config.max_batch, config.max_wait_ms,
    )

    # Graceful drain on SIGTERM/SIGINT: finish admitted work, release job
    # claims, close sqlite — then fall out of serve_forever.
    stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop_event.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-Unix
            pass

    serve_task = asyncio.ensure_future(server.serve_forever())
    stop_task = asyncio.ensure_future(stop_event.wait())
    try:
        await asyncio.wait({serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED)
        if stop_event.is_set():
            log.info("signal received: draining in-flight work before shutdown")
    except asyncio.CancelledError:  # pragma: no cover - external cancellation
        pass
    finally:
        for task in (serve_task, stop_task):
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        for sig in installed:
            loop.remove_signal_handler(sig)
        await server.stop(drain=True)
        if tracer is not None:
            tracer.dump_jsonl(args.trace)
            log.info("wrote %d spans to %s", len(tracer.spans), args.trace)
        log.info("shutdown complete")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _serve_config(args)
    except ValueError as error:
        parser.exit(2, f"{parser.prog}: error: {error}\n")
    setup_logging(args.log_level)
    try:
        return asyncio.run(_serve(args, config))
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        log.info("shutting down")
        return 0


if __name__ == "__main__":
    sys.exit(main())
