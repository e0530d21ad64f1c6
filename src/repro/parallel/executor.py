"""Process-pool sharded execution of the TP-GrGAD pipeline.

:class:`ParallelExecutor` splits a ``fit_detect_many`` batch into even
contiguous chunks, one per worker of a ``ProcessPoolExecutor``.  Results
are **bit-identical to the serial order** by construction: every graph's
pipeline runs from the config's stage seeds, never from worker identity
or chunk layout.

Every graph is scored independently, so a batch that repeats a graph
trains it once per occurrence, exactly like the serial loop.  A
pre-fitted artifact (see :mod:`repro.persist`) can instead be broadcast
by path: each worker loads it once per chunk and serves warm
``detect_only`` rather than retraining from scratch.

On a single-core host the pool still shards correctly (parity is a
property of the seeds, not of concurrency); wall-clock speedups
obviously need real cores.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, List, Optional, Tuple

from repro.core.config import TPGrGADConfig
from repro.core.pipeline import TPGrGAD
from repro.core.result import GroupDetectionResult
from repro.graph import Graph
from repro.obs.tracer import Tracer, current_span_id, get_tracer, use_tracer


def default_worker_count() -> int:
    """Usable CPUs (cgroup/affinity aware), at least 1."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Worker entry points (module-level: they must pickle by reference)
# ----------------------------------------------------------------------
def _worker_fit_detect(
    config: TPGrGADConfig,
    graphs: List[Graph],
    threshold: Optional[float],
    artifact_path: Optional[str],
    trace: Optional[Tuple[str, str, Optional[str], int]] = None,
) -> List[GroupDetectionResult]:
    """Score one chunk in batch order.

    ``trace`` is ``(shard_dir, trace_id, parent_span_id, chunk_index)``:
    tracer memory cannot cross the process boundary, so a traced parent
    asks each worker to run under a private :class:`Tracer` continuing
    the parent's trace id and to dump its spans to a per-shard JSONL
    file in ``shard_dir``; the parent merges the shards afterwards.
    """
    if trace is not None:
        shard_dir, trace_id, parent_span_id, chunk_index = trace
        tracer = Tracer(trace_id=trace_id, parent_span_id=parent_span_id)
        with use_tracer(tracer):
            with tracer.span("parallel.chunk", chunk=chunk_index, n_graphs=len(graphs)):
                output = _worker_fit_detect(config, graphs, threshold, artifact_path)
        tracer.dump_jsonl(os.path.join(shard_dir, f"shard-{chunk_index:05d}.jsonl"))
        return output

    if artifact_path is not None:
        detector = TPGrGAD.load(artifact_path)
        return [detector.detect_only(graph, threshold=threshold) for graph in graphs]
    return [TPGrGAD(config).fit_detect(graph, threshold=threshold) for graph in graphs]


# ----------------------------------------------------------------------
class ParallelExecutor:
    """Shard ``fit_detect_many`` batches across worker processes.

    Parameters
    ----------
    config:
        Pipeline config shared by every item (ignored when ``artifact``
        is given — the artifact carries its own config).
    n_workers:
        Process count; ``None`` uses the machine's usable CPUs and
        ``<= 1`` runs everything in-process (the serial reference path,
        same code, no pool).  The batch is split evenly over them.
    artifact:
        Path of a saved pipeline artifact to broadcast: every worker
        loads it once and serves warm ``detect_only`` for its whole
        chunk instead of retraining per graph.

    Examples
    --------
    >>> from repro.datasets import make_example_graph
    >>> graphs = [make_example_graph(seed=s) for s in (7, 11)]
    >>> executor = ParallelExecutor(TPGrGADConfig.fast(), n_workers=1)
    >>> len(executor.fit_detect_many(graphs))
    2
    """

    def __init__(
        self,
        config: Optional[TPGrGADConfig] = None,
        n_workers: Optional[int] = None,
        artifact: Optional[str] = None,
    ) -> None:
        self.config = config or TPGrGADConfig()
        self.n_workers = default_worker_count() if n_workers is None else int(n_workers)
        self.artifact = None if artifact is None else str(artifact)

    # ------------------------------------------------------------------
    def _chunks(self, n_items: int) -> List[Tuple[int, int]]:
        """Contiguous ``[start, end)`` chunk bounds covering ``n_items``."""
        if n_items == 0:
            return []
        size = math.ceil(n_items / max(1, self.n_workers))
        return [(start, min(start + size, n_items)) for start in range(0, n_items, size)]

    # ------------------------------------------------------------------
    def fit_detect_many(
        self, graphs: Iterable[Graph], threshold: Optional[float] = None
    ) -> List[GroupDetectionResult]:
        """Sharded ``TPGrGAD.fit_detect_many`` — serial-order results."""
        graphs = list(graphs)
        if not graphs:
            return []

        bounds = self._chunks(len(graphs))
        tracer = get_tracer()
        use_pool = self.n_workers > 1 and len(bounds) > 1
        # The in-process path records into the global tracer directly;
        # process shards hand their spans back as JSONL files.
        shard_dir = tempfile.mkdtemp(prefix="repro-trace-") if tracer.enabled and use_pool else None
        with tracer.span("parallel.fit_detect_many") as span:
            if tracer.enabled:
                span.set("n_graphs", len(graphs))
                span.set("n_workers", self.n_workers)
            parent_span_id = current_span_id()
            tasks = [
                (
                    self.config,
                    graphs[start:end],
                    threshold,
                    self.artifact,
                    (shard_dir, tracer.trace_id, parent_span_id, chunk)
                    if shard_dir is not None
                    else None,
                )
                for chunk, (start, end) in enumerate(bounds)
            ]

            try:
                if not use_pool:
                    shard_outputs = [_worker_fit_detect(*task) for task in tasks]
                else:
                    with ProcessPoolExecutor(max_workers=min(self.n_workers, len(tasks))) as pool:
                        futures = [pool.submit(_worker_fit_detect, *task) for task in tasks]
                        shard_outputs = [future.result() for future in futures]
                if shard_dir is not None:
                    for name in sorted(os.listdir(shard_dir)):
                        tracer.ingest(Tracer.load_jsonl(os.path.join(shard_dir, name)))
            finally:
                if shard_dir is not None:
                    shutil.rmtree(shard_dir, ignore_errors=True)

        return [result for chunk_results in shard_outputs for result in chunk_results]
