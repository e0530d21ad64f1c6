"""Durable async batch jobs: sqlite store, lease-based workers, quotas.

The asynchronous counterpart of the ``/score`` endpoint (DESIGN.md,
"Async batch jobs"): :class:`JobStore` is a WAL-mode sqlite log of every
accepted job — deduplicated by the full input identity, quota-bounded
per tenant, and replayable as audit history — and :class:`JobWorker`
drains it through the serving layer's micro-batcher so stored results
are bit-identical to synchronous responses.  ``python -m repro.jobs``
is the operator CLI (``ls`` / ``show`` / ``requeue`` / ``gc``).
"""

from repro.jobs.store import (
    JOB_SCHEMA_VERSION,
    JOB_STATES,
    TERMINAL_STATES,
    JobRecord,
    JobStore,
    QuotaExceededError,
    TenantQuota,
    UnknownJobError,
    dedup_key,
)
from repro.jobs.worker import JobWorker

__all__ = [
    "JOB_SCHEMA_VERSION",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobRecord",
    "JobStore",
    "JobWorker",
    "QuotaExceededError",
    "TenantQuota",
    "UnknownJobError",
    "dedup_key",
]
