"""The micro-batching scheduler of the scoring service.

Concurrent ``/score`` requests are coalesced into micro-batches: the
scheduler takes the first queued request, then waits at most
``max_wait_ms`` for up to ``max_batch - 1`` more before scoring the whole
batch in one executor-thread pass.  Within a batch, requests are grouped
by ``(model, threshold)`` and **deduplicated by graph fingerprint** — ten
dashboards asking for the same snapshot cost one ``detect_only``.  The
scheduler only ever runs warm ``detect_only`` against the registry's
loaded detector; it never trains (training is ``TPGrGAD.save`` or
``python -m repro.parallel fit --out DIR``, then ``POST /models``).

Scoring a request through a batch returns **exactly** the result of
calling ``detect_only`` directly on the same graph and artifact: grouping
keys pin every input of the (deterministic) pipeline, so coalescing can
change latency, never scores.  Pinned by ``tests/test_serve.py`` and
``benchmarks/test_serve_throughput.py``.

Admission control lives at the mouth of the queue: a bounded
``asyncio.Queue`` sheds excess load with :class:`ShedError` (the HTTP
layer turns it into ``429`` + ``Retry-After``), and each request carries
an optional deadline — requests whose deadline expired while queued are
answered with :class:`DeadlineExceededError` (``504``) instead of wasting
scorer time on an answer nobody is waiting for.
"""

from __future__ import annotations

import asyncio
import contextvars
import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.graph import Graph
from repro.obs.provenance import ProvenanceLog, build_record, score_digest
from repro.obs.tracer import get_tracer
from repro.serve.metrics import ServerMetrics
from repro.serve.registry import ModelEntry, ModelRegistry
from repro.tensor import tape_node_count


class ShedError(Exception):
    """Queue full — the request was load-shed at admission."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(f"scoring queue full; retry after {retry_after_s:.1f}s")
        self.retry_after_s = retry_after_s


class DeadlineExceededError(Exception):
    """The request's deadline budget expired while it waited in the queue."""


class RequestError(Exception):
    """A per-request failure with an HTTP status (unknown model, bad graph)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class ServeConfig:
    """All knobs of the scoring service in one place.

    ``max_batch`` / ``max_wait_ms`` tune the micro-batcher: a batch is
    dispatched as soon as it is full or the oldest member has waited
    ``max_wait_ms``.  ``max_batch=1`` disables coalescing (the sequential
    baseline of the throughput benchmark).  ``queue_size`` bounds
    admission; ``default_timeout_ms`` is the per-request deadline budget
    used when a request does not set its own (``None`` = no deadline).
    ``retry_after_s`` is the ``Retry-After`` a shed request is sent, and
    ``max_body_bytes`` the largest request body read.

    ``provenance_path`` turns on the per-response provenance log (see
    :mod:`repro.obs.provenance`): every successful ``/score`` response
    appends one JSONL record tying it to the model version, config hash,
    graph fingerprint and a bit-exact score digest.
    ``provenance_include_graph`` embeds the scored graph in each record,
    making the log self-contained for offline replay verification (at
    the cost of log size).

    ``job_store_path`` turns on the durable async batch API (see
    :mod:`repro.jobs`): ``POST /jobs`` submissions are persisted to a
    WAL-mode sqlite store and drained through this same micro-batcher by
    one lease-holding worker task.  ``job_max_queued`` /
    ``job_max_running`` are the *per-tenant* quotas (tenants are
    identified by the ``X-API-Key`` request header), and
    ``job_lease_ttl_s`` bounds how long a crashed worker can hold a job
    before it is requeued; the idle worker polls the store every
    ``job_poll_interval_s``.

    A value that would break the server is refused with ``ValueError``:
    an infinite or NaN ``max_wait_ms`` (a lone request would wait forever),
    a poll interval that is not a finite positive number (the idle worker
    would spin on the event loop or never poll), a negative or non-finite
    ``retry_after_s``, a non-finite lease and ``max_body_bytes < 1``.
    """

    max_batch: int = 16
    max_wait_ms: float = 5.0
    queue_size: int = 128
    default_timeout_ms: Optional[float] = None
    retry_after_s: float = 1.0
    max_body_bytes: int = 64 * 1024 * 1024
    provenance_path: Optional[str] = None
    provenance_include_graph: bool = False
    job_store_path: Optional[str] = None
    job_lease_ttl_s: float = 30.0
    job_poll_interval_s: float = 0.05
    job_max_attempts: int = 3
    job_max_queued: int = 64
    job_max_running: int = 8

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if not (math.isfinite(self.max_wait_ms) and self.max_wait_ms >= 0):
            raise ValueError("max_wait_ms must be a finite number >= 0")
        if self.queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if self.default_timeout_ms is not None and not self.default_timeout_ms > 0:
            raise ValueError("default_timeout_ms must be > 0 (None for no deadline)")
        if not (math.isfinite(self.retry_after_s) and self.retry_after_s >= 0):
            raise ValueError("retry_after_s must be a finite number >= 0")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if not (math.isfinite(self.job_lease_ttl_s) and self.job_lease_ttl_s > 0):
            raise ValueError("job_lease_ttl_s must be a finite number > 0")
        if not (math.isfinite(self.job_poll_interval_s) and self.job_poll_interval_s > 0):
            raise ValueError("job_poll_interval_s must be a finite number > 0")
        if self.job_max_attempts < 1:
            raise ValueError("job_max_attempts must be >= 1")


#: Queue sentinel: a drain-stop was requested; the scheduler finishes
#: everything admitted before it, then exits cleanly.
_STOP = object()


@dataclass
class _Pending:
    """One admitted ``/score`` request waiting for its batch."""

    graph: Graph
    model: Optional[str]
    threshold: Optional[float]
    deadline: Optional[float]  # monotonic seconds; None = no budget
    enqueued_at: float
    future: "asyncio.Future"


class MicroBatcher:
    """Single-consumer scheduler: admit → coalesce → score → fan out."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: Optional[ServeConfig] = None,
        metrics: Optional[ServerMetrics] = None,
    ) -> None:
        self.registry = registry
        self.config = config or ServeConfig()
        self.metrics = metrics or ServerMetrics()
        self.provenance: Optional[ProvenanceLog] = (
            ProvenanceLog(self.config.provenance_path) if self.config.provenance_path else None
        )
        self._queue: Optional["asyncio.Queue[_Pending]"] = None
        self._task: Optional["asyncio.Task"] = None
        self._stopping = False
        self._drain_seen = False

    # ------------------------------------------------------------------
    # Lifecycle (call from the event loop)
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._queue = asyncio.Queue(maxsize=self.config.queue_size)
        self._stopping = False
        self._drain_seen = False
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self, drain: bool = False, drain_timeout_s: float = 60.0) -> None:
        """Stop the scheduler.

        ``drain=False`` (the default) cancels immediately — in-flight
        futures are abandoned, matching pre-drain behaviour.
        ``drain=True`` is the graceful path: admission is closed (new
        submits shed), every already-admitted request is scored and
        answered, and only then does the scheduler exit.  A wedged batch
        falls back to cancellation after ``drain_timeout_s``.
        """
        if self._task is not None:
            if drain and self._queue is not None:
                self._stopping = True  # sheds new submissions immediately
                await self._queue.put(_STOP)
                try:
                    await asyncio.wait_for(asyncio.shield(self._task), drain_timeout_s)
                except asyncio.TimeoutError:  # pragma: no cover - wedged batch
                    self._task.cancel()
                    try:
                        await self._task
                    except asyncio.CancelledError:
                        pass
            else:
                self._task.cancel()
                try:
                    await self._task
                except asyncio.CancelledError:
                    pass
            self._task = None
        if self.provenance is not None:
            self.provenance.close()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self,
        graph: Graph,
        model: Optional[str] = None,
        threshold: Optional[float] = None,
        timeout_ms: Optional[float] = None,
    ) -> "asyncio.Future":
        """Admit one request; the returned future resolves to the response dict.

        Raises :class:`ShedError` immediately when the queue is full,
        before the request consumes any scheduler capacity.
        """
        if self._queue is None:
            raise RuntimeError("MicroBatcher.start() has not run")
        if self._stopping:
            raise ShedError(self.config.retry_after_s)
        if timeout_ms is None:
            timeout_ms = self.config.default_timeout_ms
        now = time.monotonic()
        pending = _Pending(
            graph=graph,
            model=model,
            threshold=None if threshold is None else float(threshold),
            deadline=None if timeout_ms is None else now + float(timeout_ms) / 1e3,
            enqueued_at=now,
            future=asyncio.get_running_loop().create_future(),
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            raise ShedError(self.config.retry_after_s) from None
        self.metrics.record_admitted()
        return pending.future

    # ------------------------------------------------------------------
    # The scheduler loop
    # ------------------------------------------------------------------
    async def _collect_batch(self) -> List[_Pending]:
        """Block for the first request, then coalesce up to the batch bounds.

        Seeing the drain sentinel sets ``_drain_seen`` and ends the
        collection immediately: the sentinel was enqueued *after* every
        admitted request (FIFO), so once it surfaces nothing admitted
        before the stop can still be waiting.
        """
        assert self._queue is not None
        first = await self._queue.get()
        if first is _STOP:
            self._drain_seen = True
            return []
        batch = [first]
        budget = self.config.max_wait_ms / 1e3
        loop = asyncio.get_running_loop()
        deadline = loop.time() + budget
        while len(batch) < self.config.max_batch:
            remaining = deadline - loop.time()
            if remaining <= 0:
                # Budget spent: still sweep whatever is already queued —
                # leaving ready requests behind would only split batches.
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            else:
                try:
                    item = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
            if item is _STOP:
                self._drain_seen = True
                break
            batch.append(item)
        return batch

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self._collect_batch()
            if not batch and self._drain_seen:
                return
            # Score in a worker thread so /healthz and admission stay
            # responsive during a long batch; the loop itself remains the
            # single consumer, so batches never overlap.  The batch span
            # is opened here on the event loop and the context copied
            # into the executor thread, so the pipeline spans _process
            # opens over there nest under it.
            tracer = get_tracer()
            with tracer.span("serve.batch") as span:
                context = contextvars.copy_context()
                outcomes = await loop.run_in_executor(None, context.run, self._process, batch)
                if tracer.enabled:
                    span.set("n_requests", len(batch))
            now = time.monotonic()
            for pending, outcome in outcomes:
                if pending.future.cancelled():
                    continue
                if isinstance(outcome, Exception):
                    pending.future.set_exception(outcome)
                else:
                    self.metrics.record_scored(now - pending.enqueued_at)
                    pending.future.set_result(outcome)
            if self._drain_seen:
                return

    # ------------------------------------------------------------------
    # Batch scoring (runs in an executor thread)
    # ------------------------------------------------------------------
    def _process(self, batch: List[_Pending]) -> List[Tuple[_Pending, object]]:
        outcomes: List[Tuple[_Pending, object]] = []
        now = time.monotonic()
        groups: "OrderedDict[Tuple[Optional[str], Optional[float]], List[_Pending]]" = OrderedDict()
        for pending in batch:
            if pending.deadline is not None and now > pending.deadline:
                outcomes.append((pending, DeadlineExceededError(
                    f"deadline expired after {(now - pending.enqueued_at) * 1e3:.0f}ms in queue"
                )))
                continue
            groups.setdefault((pending.model, pending.threshold), []).append(pending)

        live = sum(len(members) for members in groups.values())
        n_unique_total = 0
        n_scored = 0
        for (model, threshold), members in groups.items():
            try:
                entry = self.registry.get(model)
            except KeyError as error:
                failure = RequestError(404, str(error))
                outcomes.extend((pending, failure) for pending in members)
                continue
            try:
                scored, n_unique = self._score_group(entry, threshold, members, len(batch))
            except ValueError as error:
                # Graph incompatible with the model (feature dim, bad shape).
                failure = RequestError(400, str(error))
                outcomes.extend((pending, failure) for pending in members)
            except Exception as error:  # noqa: BLE001 - surfaced as HTTP 500
                failure = RequestError(500, f"scoring failed: {error}")
                outcomes.extend((pending, failure) for pending in members)
            else:
                n_unique_total += n_unique
                n_scored += len(members)
                outcomes.extend(scored)
        if live:
            self.metrics.record_batch(live, n_unique_total, n_scored)
        return outcomes

    def _score_group(
        self,
        entry: ModelEntry,
        threshold: Optional[float],
        members: List[_Pending],
        batch_size: int,
    ) -> Tuple[List[Tuple[_Pending, Dict]], int]:
        """Score one ``(model, threshold)`` group, deduplicated."""
        unique: "OrderedDict[str, Graph]" = OrderedDict()
        keys: List[str] = []
        for pending in members:
            key = pending.graph.fingerprint()
            keys.append(key)
            unique.setdefault(key, pending.graph)
        graphs = list(unique.values())

        tracer = get_tracer()
        with tracer.span("serve.score_group", model=entry.name) as span:
            # Tape growth is thread-local and this whole group scores on
            # this executor thread, so the delta attributes any autodiff
            # cost (which must be 0 for warm detect_only) to the entry.
            tape_before = tape_node_count()
            results = [entry.detector.detect_only(graph, threshold=threshold) for graph in graphs]
            tape_delta = tape_node_count() - tape_before
            if tracer.enabled:
                span.add("tape_node_count", tape_delta)
                span.set("n_unique", len(graphs))
                span.set("group_size", len(members))
        entry.record_served(len(members), tape_delta)

        by_key = {key: result.to_json_dict() for key, result in zip(unique, results)}
        trace_id = tracer.trace_id if tracer.enabled else None
        digests: Dict[str, str] = {}
        if self.provenance is not None:
            digests = {key: score_digest(result_json) for key, result_json in by_key.items()}
        scored: List[Tuple[_Pending, Dict]] = []
        for pending, key in zip(members, keys):
            response = {
                **entry.identity(),
                "graph_fingerprint": key,
                "batch": {"size": batch_size, "group_size": len(members), "n_unique": len(graphs)},
                "result": by_key[key],
            }
            if trace_id is not None:
                response["trace_id"] = trace_id
            if self.provenance is not None:
                record = build_record(
                    model=entry.name,
                    version=entry.version,
                    config_hash=entry.config_hash,
                    graph_fingerprint=key,
                    result_json=by_key[key],
                    threshold=threshold,
                    digest=digests[key],
                    graph=unique[key] if self.config.provenance_include_graph else None,
                )
                self.provenance.append(record)
                response["provenance"] = {
                    "record_id": record["record_id"],
                    "score_digest": record["score_digest"],
                }
            scored.append((pending, response))
        return scored, len(graphs)
