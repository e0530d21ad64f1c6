"""Asyncio worker draining the durable job store.

The :class:`JobWorker` task runs the lease protocol against the
:class:`~repro.jobs.store.JobStore`:

1. requeue any expired leases (crash recovery — also run once at start),
2. atomically *claim* up to :data:`CLAIM_BATCH` queued jobs (skipping
   tenants at their ``max_running`` quota),
3. submit every claimed job to the **existing**
   :class:`~repro.serve.batcher.MicroBatcher` — async jobs ride the very
   same micro-batches, fingerprint dedup and provenance log as
   synchronous ``/score`` traffic, which is what makes a stored job
   result **bit-identical** to the synchronous response for the same
   graph + model + config,
4. heartbeat the leases while the batch scores, so a slow batch is
   never mistaken for a dead worker,
5. write each outcome back: ``done`` with the full response payload,
   ``failed`` (retried up to ``max_attempts``), or — on cancellation /
   graceful shutdown — *released* back to ``queued`` with no attempt
   charged.

Because a claimed batch is submitted to the batcher in one sweep, jobs
coalesce exactly like concurrent interactive requests do.  Every job is a
warm ``detect_only``: a job an older store holds with another ``mode`` (a
fit) fails permanently rather than being scored warm.  The server runs
one worker: the batcher has a single consumer, so a second worker would
only overlap a sqlite claim with scoring, and measured no faster.
"""

from __future__ import annotations

import asyncio
import json
import uuid
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.graph import Graph
from repro.jobs.store import JobRecord, JobStore
from repro.obs.logging import get_logger
from repro.obs.tracer import get_tracer

if TYPE_CHECKING:  # pragma: no cover - type-only; runtime import is lazy.
    # serve.server imports this module, so importing repro.serve here
    # would be circular — the batcher types bind inside _execute instead.
    from repro.serve.batcher import MicroBatcher
    from repro.serve.metrics import ServerMetrics

__all__ = ["JobWorker"]

log = get_logger("jobs")

#: Queued jobs leased per claim, all submitted to the batcher in one sweep.
CLAIM_BATCH = 8

#: Where training lives: the server only scores loaded artifacts.
TRAIN_OFFLINE = "train with `python -m repro.parallel fit --out DIR`, then POST /models"


class JobWorker:
    """The claim-score-complete loop."""

    def __init__(
        self,
        store: JobStore,
        batcher: MicroBatcher,
        metrics: Optional[ServerMetrics] = None,
        *,
        lease_ttl_s: float = 30.0,
        poll_interval_s: float = 0.05,
        max_attempts: int = 3,
    ) -> None:
        self.store = store
        self.batcher = batcher
        self.metrics = metrics
        self.owner = f"worker-{uuid.uuid4().hex[:8]}"
        self.lease_ttl_s = float(lease_ttl_s)
        self.poll_interval_s = float(poll_interval_s)
        self.max_attempts = int(max_attempts)
        self._task: Optional["asyncio.Task"] = None

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Cancel the loop; in-flight claims are released back to queued."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        # Crash recovery on boot: leases orphaned by a previous process.
        for record in self.store.requeue_expired():
            log.info("requeued orphaned job %s (attempt %d)", record.job_id, record.attempts)
        next_sweep = asyncio.get_running_loop().time() + self.lease_ttl_s / 2
        while True:
            loop = asyncio.get_running_loop()
            if loop.time() >= next_sweep:
                next_sweep = loop.time() + self.lease_ttl_s / 2
                for record in self.store.requeue_expired():
                    log.warning("requeued expired-lease job %s", record.job_id)
            claimed = self.store.claim(self.owner, limit=CLAIM_BATCH, lease_ttl_s=self.lease_ttl_s)
            if not claimed:
                await asyncio.sleep(self.poll_interval_s)
                continue
            await self._execute(claimed)

    async def _execute(self, claimed: List[JobRecord]) -> None:
        """Score one claimed batch through the micro-batcher."""
        from repro.serve.batcher import ShedError

        tracer = get_tracer()
        submitted: List[Tuple[JobRecord, "asyncio.Future"]] = []
        with tracer.span("jobs.execute", owner=self.owner) as span:
            if tracer.enabled:
                span.set("n_claimed", len(claimed))
            for record in claimed:
                if record.mode != "detect_only":
                    self._fail(record, f"mode {record.mode!r} is not served; {TRAIN_OFFLINE}", retry=False)
                    continue
                try:
                    graph = Graph.from_json_dict(record.graph_payload())
                    future = self.batcher.submit(
                        graph,
                        model=record.model or None,
                        threshold=record.threshold,
                    )
                except ShedError:
                    # The interactive queue is full: hand the job back and
                    # let admission pressure drain before trying again.
                    self.store.release(record.job_id)
                    if self.metrics is not None:
                        self.metrics.record_job_backpressure()
                    continue
                except (ValueError, TypeError, json.JSONDecodeError) as error:
                    self._fail(record, f"submit failed: {error}")
                    continue
                submitted.append((record, future))
            if not submitted:
                await asyncio.sleep(self.poll_interval_s)
                return
            heartbeat = asyncio.get_running_loop().create_task(
                self._heartbeat([record.job_id for record, _ in submitted])
            )
            try:
                outcomes = await asyncio.gather(
                    *(future for _, future in submitted), return_exceptions=True
                )
            except asyncio.CancelledError:
                # Graceful shutdown mid-batch: completed scores are kept,
                # unfinished jobs go back to queued with no attempt charged.
                for record, future in submitted:
                    if future.done() and not future.cancelled() and future.exception() is None:
                        self._complete(record, future.result())
                    else:
                        future.cancel()
                        self.store.release(record.job_id)
                        log.info("released job %s back to queued on shutdown", record.job_id)
                raise
            finally:
                heartbeat.cancel()
            for (record, _), outcome in zip(submitted, outcomes):
                if isinstance(outcome, BaseException):
                    self._fail(record, str(outcome) or type(outcome).__name__)
                else:
                    self._complete(record, outcome)

    async def _heartbeat(self, job_ids: List[str]) -> None:
        interval = max(self.lease_ttl_s / 3.0, 0.01)
        while True:
            await asyncio.sleep(interval)
            self.store.heartbeat(job_ids, self.owner, lease_ttl_s=self.lease_ttl_s)

    # ------------------------------------------------------------------
    def _complete(self, record: JobRecord, response: dict) -> None:
        provenance = response.get("provenance") or {}
        stored = self.store.complete(
            record.job_id,
            response,
            trace_id=response.get("trace_id"),
            score_digest=provenance.get("score_digest"),
        )
        if self.metrics is not None:
            self.metrics.record_job_completed(
                stored.tenant, stored.wait_seconds() or 0.0, stored.run_seconds() or 0.0
            )

    def _fail(self, record: JobRecord, error: str, retry: bool = True) -> None:
        retry = retry and record.attempts < self.max_attempts
        stored = self.store.fail(record.job_id, error, requeue=retry)
        if retry:
            log.warning("job %s attempt %d failed (%s); requeued", record.job_id, record.attempts, error)
            return
        log.error("job %s failed permanently after %d attempts: %s", record.job_id, record.attempts, error)
        if self.metrics is not None:
            self.metrics.record_job_failed(stored.tenant)

