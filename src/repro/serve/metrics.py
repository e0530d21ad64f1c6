"""Operational counters of the scoring service.

One :class:`ServerMetrics` instance is shared by the HTTP layer and the
micro-batcher; everything it exposes comes out of ``GET /metrics`` as one
JSON document (coerced through :func:`repro.persist.to_native`), so a
scrape never needs to reach into the batcher or the registry.

All updates take a lock: handlers run on the event loop, but batch
scoring runs in an executor thread and the latency deque / histogram
must not tear.  The latency window is bounded
(:class:`repro.obs.stats.LatencyWindow` — the same implementation the
stream replay summary uses, so serve and replay report identical
percentile math), so a long-lived server reports recent percentiles
rather than its lifetime average and the memory footprint stays
constant.
"""

from __future__ import annotations

import threading
import time
from typing import Dict

from repro.obs.stats import LatencyWindow


class ServerMetrics:
    """Counters, batch-size histogram and a bounded latency window."""

    def __init__(self, latency_window: int = 2048) -> None:
        if latency_window < 1:
            raise ValueError("latency_window must be positive")
        self._lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self.requests_total = 0  # /score requests admitted to the queue
        self.responses_by_status: Dict[int, int] = {}
        self.scored_total = 0  # 200-responses that carried scores
        self.shed_total = 0  # 429: queue full, request load-shed
        self.deadline_expired_total = 0  # 504: deadline passed while queued
        self.error_total = 0  # 4xx/5xx other than shed/deadline
        self.batches_total = 0
        self.batched_requests_total = 0
        self.dedup_hits_total = 0  # requests answered by an in-batch duplicate
        self.batch_size_histogram: Dict[int, int] = {}
        # (completed_at_monotonic, seconds) pairs; bounded.
        self._latencies = LatencyWindow(maxlen=latency_window)
        # --- async batch jobs (repro.jobs) -----------------------------
        self.jobs_submitted_total = 0  # accepted POST /jobs (incl. dedup hits)
        self.jobs_deduplicated_total = 0  # submissions answered by an existing job
        self.jobs_completed_total = 0
        self.jobs_failed_total = 0  # permanent failures (retries exhausted)
        self.jobs_cancelled_total = 0
        self.jobs_quota_shed_total = 0  # 429: tenant queued-quota hit
        self.jobs_backpressure_total = 0  # claims released: interactive queue full
        # tenant -> counter-name -> count (tenant cardinality is bounded
        # by the quota policy's audience, not request content).
        self._job_tenants: Dict[str, Dict[str, int]] = {}
        self._job_wait = LatencyWindow(maxlen=latency_window)  # queued -> claimed
        self._job_run = LatencyWindow(maxlen=latency_window)  # claimed -> finished

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_admitted(self) -> None:
        with self._lock:
            self.requests_total += 1

    def record_response(self, status: int) -> None:
        with self._lock:
            self.responses_by_status[status] = self.responses_by_status.get(status, 0) + 1
            if status == 429:
                self.shed_total += 1
            elif status == 504:
                self.deadline_expired_total += 1
            elif status >= 400:
                self.error_total += 1

    def record_scored(self, latency_seconds: float) -> None:
        """One successfully scored request, with its queue+score latency."""
        with self._lock:
            self.scored_total += 1
            self._latencies.record(float(latency_seconds), at=time.monotonic())

    def record_batch(self, n_requests: int, n_unique: int, n_scored: int) -> None:
        """One micro-batch handed to the scorer (post deadline-filtering).

        Dedup hits count only *successfully scored* requests in excess of
        the unique graphs scored — requests that failed (unknown model,
        incompatible graph) were not deduplicated into anything.
        """
        with self._lock:
            self.batches_total += 1
            self.batched_requests_total += n_requests
            self.dedup_hits_total += max(0, n_scored - n_unique)
            self.batch_size_histogram[n_requests] = (
                self.batch_size_histogram.get(n_requests, 0) + 1
            )

    # ------------------------------------------------------------------
    # Recording: async batch jobs
    # ------------------------------------------------------------------
    def _tenant_bump(self, tenant: str, key: str, by: int = 1) -> None:
        row = self._job_tenants.setdefault(str(tenant), {})
        row[key] = row.get(key, 0) + by

    def record_job_submitted(self, tenant: str, deduplicated: bool = False) -> None:
        with self._lock:
            self.jobs_submitted_total += 1
            self._tenant_bump(tenant, "submitted_total")
            if deduplicated:
                self.jobs_deduplicated_total += 1
                self._tenant_bump(tenant, "deduplicated_total")

    def record_job_quota_shed(self, tenant: str) -> None:
        with self._lock:
            self.jobs_quota_shed_total += 1
            self._tenant_bump(tenant, "quota_shed_total")

    def record_job_completed(self, tenant: str, wait_seconds: float, run_seconds: float) -> None:
        with self._lock:
            self.jobs_completed_total += 1
            self._tenant_bump(tenant, "completed_total")
            now = time.monotonic()
            self._job_wait.record(float(wait_seconds), at=now)
            self._job_run.record(float(run_seconds), at=now)

    def record_job_failed(self, tenant: str) -> None:
        with self._lock:
            self.jobs_failed_total += 1
            self._tenant_bump(tenant, "failed_total")

    def record_job_cancelled(self, tenant: str) -> None:
        with self._lock:
            self.jobs_cancelled_total += 1
            self._tenant_bump(tenant, "cancelled_total")

    def record_job_backpressure(self) -> None:
        with self._lock:
            self.jobs_backpressure_total += 1

    def job_snapshot(self) -> Dict:
        """The counters/latency half of the ``/metrics`` ``jobs`` section.

        The server layer merges in the store-derived half (queue depth
        per state, per-tenant queued/running gauges) so the JSON and
        Prometheus views always agree on one payload.
        """
        with self._lock:
            wait = {f"wait_{k.split('_', 1)[0]}_ms": v
                    for k, v in self._job_wait.percentiles_ms((50, 95)).items()}
            run = {f"run_{k.split('_', 1)[0]}_ms": v
                   for k, v in self._job_run.percentiles_ms((50, 95)).items()}
            payload: Dict = {
                "submitted_total": self.jobs_submitted_total,
                "deduplicated_total": self.jobs_deduplicated_total,
                "completed_total": self.jobs_completed_total,
                "failed_total": self.jobs_failed_total,
                "cancelled_total": self.jobs_cancelled_total,
                "quota_shed_total": self.jobs_quota_shed_total,
                "backpressure_total": self.jobs_backpressure_total,
                "tenants": {tenant: dict(row) for tenant, row in sorted(self._job_tenants.items())},
            }
            payload.update(wait)
            payload.update(run)
        return payload

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def _latency_percentiles(self) -> Dict[str, float]:
        return self._latencies.percentiles_ms((50, 95))

    def _qps(self, now: float) -> Dict[str, float]:
        uptime = max(now - self._started_monotonic, 1e-9)
        lifetime = self.scored_total / uptime
        window = self._latencies.window_qps(now)
        return {"qps_lifetime": round(lifetime, 3), "qps_window": round(window, 3)}

    def snapshot(self) -> Dict:
        """The ``/metrics`` JSON body (without the per-model section)."""
        with self._lock:
            now = time.monotonic()
            mean_batch = (
                self.batched_requests_total / self.batches_total if self.batches_total else 0.0
            )
            payload = {
                "uptime_seconds": round(now - self._started_monotonic, 3),
                "requests_total": self.requests_total,
                "responses_by_status": dict(self.responses_by_status),
                "scored_total": self.scored_total,
                "shed_total": self.shed_total,
                "deadline_expired_total": self.deadline_expired_total,
                "error_total": self.error_total,
                "batches_total": self.batches_total,
                "batched_requests_total": self.batched_requests_total,
                "dedup_hits_total": self.dedup_hits_total,
                "mean_batch_size": round(mean_batch, 3),
                "batch_size_histogram": dict(sorted(self.batch_size_histogram.items())),
            }
            payload.update(self._qps(now))
            payload.update(self._latency_percentiles())
        return payload
