"""Durable sqlite-backed job store of the async batch API.

One row per accepted job, in a single ``jobs`` table inside a stdlib
:mod:`sqlite3` database opened in WAL mode — concurrent submitters and
pollers (the HTTP server, worker tasks, the ``python -m repro.jobs``
CLI, external scripts) can all share the file.  The store is the
durable source of truth the serving layer's in-memory queue never was:
a job accepted by ``POST /jobs`` survives a server crash and is picked
up again on restart.

State machine
-------------
``queued → running → done | failed | cancelled``

* ``queued``   — accepted, waiting for a worker.
* ``running``  — claimed under a *lease*: the claiming worker owns the
  job until ``lease_expires_unix``; it must heartbeat to keep the lease
  alive.  A job whose lease expired (worker crashed, process killed) is
  moved back to ``queued`` by :meth:`JobStore.requeue_expired` — no job
  is ever lost to a dead worker.
* ``done``     — the full scoring response (the exact ``/score``-shaped
  payload, provenance fields included) is stored in ``result_json``.
* ``failed``   — ``error`` holds the reason; ``attempts`` counts tries.
* ``cancelled``— a queued job withdrawn via ``DELETE /jobs/{id}``.

Deduplication
-------------
Jobs are content-addressed by
``(graph_fingerprint, config_hash, mode, model, model_version,
threshold)`` — the complete input identity of a deterministic scoring
run.  Submitting an identical job returns the *existing* record (its
``submit_count`` incremented) instead of queueing duplicate work; a
failed or cancelled twin is revived back to ``queued`` so a resubmit is
also the retry verb.

Quotas
------
:class:`TenantQuota` bounds each tenant's footprint: ``max_queued``
caps accepted-but-unscored jobs (checked at submit; violations raise
:class:`QuotaExceededError`, which the HTTP layer maps to ``429`` +
``Retry-After``), and ``max_running`` caps concurrently leased jobs
(enforced by :meth:`JobStore.claim`, which skips tenants at their
limit — one noisy tenant cannot monopolise the worker).

Retention
---------
:meth:`JobStore.gc` prunes *terminal* jobs by age and/or count so the
store cannot grow without bound; queued and running jobs are never
collected.  ``python -m repro.jobs gc`` is the operational wrapper.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.persist.serialize import to_native

__all__ = [
    "JOB_SCHEMA_VERSION",
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobRecord",
    "JobStore",
    "QuotaExceededError",
    "TenantQuota",
    "UnknownJobError",
    "dedup_key",
]

JOB_SCHEMA_VERSION = 1

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id            TEXT PRIMARY KEY,
    dedup_key         TEXT NOT NULL UNIQUE,
    tenant            TEXT NOT NULL,
    model             TEXT NOT NULL,
    model_version     INTEGER NOT NULL,
    config_hash       TEXT NOT NULL,
    mode              TEXT NOT NULL,
    threshold         REAL,
    graph_fingerprint TEXT NOT NULL,
    graph_json        TEXT NOT NULL,
    state             TEXT NOT NULL,
    attempts          INTEGER NOT NULL DEFAULT 0,
    submit_count      INTEGER NOT NULL DEFAULT 1,
    created_unix      REAL NOT NULL,
    updated_unix      REAL NOT NULL,
    started_unix      REAL,
    finished_unix     REAL,
    lease_owner       TEXT,
    lease_expires_unix REAL,
    result_json       TEXT,
    error             TEXT,
    trace_id          TEXT,
    score_digest      TEXT,
    schema_version    INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs (state, created_unix);
CREATE INDEX IF NOT EXISTS idx_jobs_tenant ON jobs (tenant, state);
"""

_COLUMNS = (
    "job_id", "dedup_key", "tenant", "model", "model_version", "config_hash",
    "mode", "threshold", "graph_fingerprint", "graph_json", "state",
    "attempts", "submit_count", "created_unix", "updated_unix",
    "started_unix", "finished_unix", "lease_owner", "lease_expires_unix",
    "result_json", "error", "trace_id", "score_digest", "schema_version",
)


class QuotaExceededError(Exception):
    """A tenant hit its queued-jobs quota; retry after the queue drains."""

    def __init__(self, tenant: str, queued: int, max_queued: int, retry_after_s: float = 1.0) -> None:
        super().__init__(
            f"tenant {tenant!r} has {queued} queued jobs (quota {max_queued}); "
            f"retry after {retry_after_s:.1f}s"
        )
        self.tenant = tenant
        self.queued = queued
        self.max_queued = max_queued
        self.retry_after_s = retry_after_s


class UnknownJobError(KeyError):
    """No job with that id in the store."""

    def __init__(self, job_id: str) -> None:
        super().__init__(job_id)
        self.job_id = job_id

    def __str__(self) -> str:
        return f"unknown job {self.job_id!r}"


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission bounds (shared by every tenant by default)."""

    max_queued: int = 64
    max_running: int = 8

    def __post_init__(self) -> None:
        if self.max_queued < 1 or self.max_running < 1:
            raise ValueError("quota bounds must be >= 1")


def dedup_key(
    graph_fingerprint: str,
    config_hash: str,
    mode: str,
    model: str,
    model_version: int,
    threshold: Optional[float] = None,
) -> str:
    """Content address of one scoring job.

    Covers every input of the (deterministic) pipeline run: the graph's
    fingerprint, the artifact's config hash, the scoring mode (always
    ``"detect_only"`` from the server), the resolved model name +
    version, and the threshold override —
    identical keys are guaranteed identical results, which is what makes
    returning the existing record sound.
    """
    payload = json.dumps(
        [graph_fingerprint, config_hash, mode, model, int(model_version), threshold],
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


@dataclass
class JobRecord:
    """One row of the ``jobs`` table, as plain Python."""

    job_id: str
    dedup_key: str
    tenant: str
    model: str
    model_version: int
    config_hash: str
    mode: str
    threshold: Optional[float]
    graph_fingerprint: str
    graph_json: str
    state: str
    attempts: int
    submit_count: int
    created_unix: float
    updated_unix: float
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    lease_owner: Optional[str] = None
    lease_expires_unix: Optional[float] = None
    result_json: Optional[str] = None
    error: Optional[str] = None
    trace_id: Optional[str] = None
    score_digest: Optional[str] = None
    schema_version: int = JOB_SCHEMA_VERSION

    @classmethod
    def from_row(cls, row: Sequence[Any]) -> "JobRecord":
        return cls(**dict(zip(_COLUMNS, row)))

    @property
    def result(self) -> Optional[Dict[str, Any]]:
        """The stored ``/score``-shaped response payload (``done`` jobs)."""
        return None if self.result_json is None else json.loads(self.result_json)

    def graph_payload(self) -> Dict[str, Any]:
        return json.loads(self.graph_json)

    def wait_seconds(self) -> Optional[float]:
        if self.started_unix is None:
            return None
        return max(0.0, self.started_unix - self.created_unix)

    def run_seconds(self) -> Optional[float]:
        if self.started_unix is None or self.finished_unix is None:
            return None
        return max(0.0, self.finished_unix - self.started_unix)

    def describe(self) -> Dict[str, Any]:
        """The JSON status row (``GET /jobs/{id}``) — everything but the
        graph and result bodies, which have their own endpoints."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "tenant": self.tenant,
            "model": self.model,
            "version": self.model_version,
            "config_hash": self.config_hash,
            "mode": self.mode,
            "threshold": self.threshold,
            "graph_fingerprint": self.graph_fingerprint,
            "attempts": self.attempts,
            "submit_count": self.submit_count,
            "created_unix": self.created_unix,
            "updated_unix": self.updated_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "wait_seconds": self.wait_seconds(),
            "run_seconds": self.run_seconds(),
            "error": self.error,
            "trace_id": self.trace_id,
            "score_digest": self.score_digest,
        }


@dataclass
class SubmitOutcome:
    """What :meth:`JobStore.submit` hands back to the HTTP layer."""

    record: JobRecord
    created: bool  # False = dedup hit (or revival of a failed/cancelled twin)
    revived: bool = False


class JobStore:
    """Thread-safe durable job log over one WAL-mode sqlite database.

    A single connection (``check_same_thread=False``) guarded by an
    ``RLock`` serves every caller in this process; separate processes
    (the CLI, crash-recovery restarts) open their own stores on the same
    path — WAL mode makes concurrent readers/writer safe.  All writes
    are autocommitted per statement (``isolation_level=None`` with
    explicit ``BEGIN IMMEDIATE`` for read-modify-write sections), so a
    crash never leaves a half-applied transition.
    """

    def __init__(
        self,
        path: str,
        quota: Optional[TenantQuota] = None,
        busy_timeout_s: float = 10.0,
    ) -> None:
        self.path = str(path)
        self.quota = quota or TenantQuota()
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, check_same_thread=False, timeout=busy_timeout_s, isolation_level=None
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_s * 1000)}")
        with self._lock:
            self._conn.executescript(_SCHEMA)
        self._closed = False

    # ------------------------------------------------------------------
    # Submission (dedup + quota)
    # ------------------------------------------------------------------
    def submit(
        self,
        *,
        tenant: str,
        model: str,
        model_version: int,
        config_hash: str,
        mode: str,
        graph_fingerprint: str,
        graph_json: str,
        threshold: Optional[float] = None,
    ) -> SubmitOutcome:
        """Accept one job, deduplicated and quota-checked atomically.

        Returns the (new or existing) record.  A dedup hit against a
        live job (queued/running/done) bumps ``submit_count`` and leaves
        the row otherwise untouched; a hit against a failed or cancelled
        job *revives* it back to ``queued``.  Raises
        :class:`QuotaExceededError` when the tenant's queued count is at
        its quota and the submission would create (or revive) a row.
        """
        key = dedup_key(graph_fingerprint, config_hash, mode, model, model_version, threshold)
        now = time.time()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    f"SELECT {', '.join(_COLUMNS)} FROM jobs WHERE dedup_key = ?", (key,)
                ).fetchone()
                if row is not None:
                    record = JobRecord.from_row(row)
                    if record.state in ("failed", "cancelled"):
                        self._check_quota(tenant, now)
                        self._conn.execute(
                            "UPDATE jobs SET state='queued', submit_count=submit_count+1, "
                            "error=NULL, lease_owner=NULL, lease_expires_unix=NULL, "
                            "started_unix=NULL, finished_unix=NULL, updated_unix=? "
                            "WHERE job_id=?",
                            (now, record.job_id),
                        )
                        revived = True
                    else:
                        self._conn.execute(
                            "UPDATE jobs SET submit_count=submit_count+1, updated_unix=? "
                            "WHERE job_id=?",
                            (now, record.job_id),
                        )
                        revived = False
                    out = SubmitOutcome(self._get_locked(record.job_id), created=False, revived=revived)
                else:
                    self._check_quota(tenant, now)
                    job_id = uuid.uuid4().hex[:16]
                    self._conn.execute(
                        "INSERT INTO jobs (job_id, dedup_key, tenant, model, model_version, "
                        "config_hash, mode, threshold, graph_fingerprint, graph_json, state, "
                        "attempts, submit_count, created_unix, updated_unix, schema_version) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 'queued', 0, 1, ?, ?, ?)",
                        (
                            job_id, key, str(tenant), str(model), int(model_version),
                            str(config_hash), str(mode), threshold, str(graph_fingerprint),
                            graph_json, now, now, JOB_SCHEMA_VERSION,
                        ),
                    )
                    out = SubmitOutcome(self._get_locked(job_id), created=True)
                self._conn.execute("COMMIT")
                return out
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def _check_quota(self, tenant: str, now: float) -> None:
        queued = self._conn.execute(
            "SELECT COUNT(*) FROM jobs WHERE tenant=? AND state='queued'", (str(tenant),)
        ).fetchone()[0]
        if queued >= self.quota.max_queued:
            raise QuotaExceededError(tenant, queued, self.quota.max_queued)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _get_locked(self, job_id: str) -> JobRecord:
        row = self._conn.execute(
            f"SELECT {', '.join(_COLUMNS)} FROM jobs WHERE job_id = ?", (str(job_id),)
        ).fetchone()
        if row is None:
            raise UnknownJobError(job_id)
        return JobRecord.from_row(row)

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            return self._get_locked(job_id)

    def list(
        self,
        tenant: Optional[str] = None,
        state: Optional[str] = None,
        limit: int = 100,
    ) -> List[JobRecord]:
        """Most recent jobs first, optionally filtered by tenant/state."""
        if limit < 1:
            # SQLite reads a negative LIMIT as "no limit".
            raise ValueError(f"limit must be >= 1, got {limit}")
        clauses, params = [], []  # type: ignore[var-annotated]
        if tenant is not None:
            clauses.append("tenant=?")
            params.append(str(tenant))
        if state is not None:
            if state not in JOB_STATES:
                raise ValueError(f"unknown state {state!r}; expected one of {JOB_STATES}")
            clauses.append("state=?")
            params.append(state)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        params.append(int(limit))
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {', '.join(_COLUMNS)} FROM jobs {where} "
                "ORDER BY created_unix DESC, job_id DESC LIMIT ?",
                params,
            ).fetchall()
        return [JobRecord.from_row(row) for row in rows]

    def counts(self, tenant: Optional[str] = None) -> Dict[str, int]:
        """``{state: n}`` over all states (zero-filled)."""
        where, params = ("WHERE tenant=?", (str(tenant),)) if tenant is not None else ("", ())
        with self._lock:
            rows = self._conn.execute(
                f"SELECT state, COUNT(*) FROM jobs {where} GROUP BY state", params
            ).fetchall()
        out = {state: 0 for state in JOB_STATES}
        out.update({state: int(n) for state, n in rows})
        return out

    def tenants(self) -> List[str]:
        with self._lock:
            rows = self._conn.execute("SELECT DISTINCT tenant FROM jobs ORDER BY tenant").fetchall()
        return [row[0] for row in rows]

    # ------------------------------------------------------------------
    # Worker protocol: claim / heartbeat / complete / fail / release
    # ------------------------------------------------------------------
    def claim(self, owner: str, limit: int = 1, lease_ttl_s: float = 30.0) -> List[JobRecord]:
        """Atomically lease up to ``limit`` queued jobs to ``owner``.

        Jobs are claimed oldest-first; tenants already at their
        ``max_running`` quota are skipped, so a backlogged tenant cannot
        starve others.  Claimed jobs move to ``running`` with a lease
        expiring ``lease_ttl_s`` from now.
        """
        now = time.time()
        claimed: List[JobRecord] = []
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                running: Dict[str, int] = {}
                for tenant, n in self._conn.execute(
                    "SELECT tenant, COUNT(*) FROM jobs WHERE state='running' GROUP BY tenant"
                ).fetchall():
                    running[tenant] = int(n)
                rows = self._conn.execute(
                    f"SELECT {', '.join(_COLUMNS)} FROM jobs WHERE state='queued' "
                    "ORDER BY created_unix ASC, job_id ASC",
                ).fetchall()
                for row in rows:
                    if len(claimed) >= int(limit):
                        break
                    record = JobRecord.from_row(row)
                    if running.get(record.tenant, 0) >= self.quota.max_running:
                        continue
                    self._conn.execute(
                        "UPDATE jobs SET state='running', attempts=attempts+1, "
                        "lease_owner=?, lease_expires_unix=?, started_unix=?, updated_unix=? "
                        "WHERE job_id=?",
                        (str(owner), now + float(lease_ttl_s), now, now, record.job_id),
                    )
                    running[record.tenant] = running.get(record.tenant, 0) + 1
                    claimed.append(self._get_locked(record.job_id))
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return claimed

    def heartbeat(self, job_ids: Sequence[str], owner: str, lease_ttl_s: float = 30.0) -> int:
        """Extend the leases this owner still holds; returns how many."""
        if not job_ids:
            return 0
        now = time.time()
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET lease_expires_unix=?, updated_unix=? "
                f"WHERE state='running' AND lease_owner=? AND job_id IN ({','.join('?' * len(job_ids))})",
                [now + float(lease_ttl_s), now, str(owner), *[str(j) for j in job_ids]],
            )
        return cursor.rowcount

    def complete(
        self,
        job_id: str,
        result: Dict[str, Any],
        trace_id: Optional[str] = None,
        score_digest: Optional[str] = None,
    ) -> JobRecord:
        """``running → done`` with the full response payload stored."""
        now = time.time()
        result_json = json.dumps(to_native(result), sort_keys=True)
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET state='done', result_json=?, error=NULL, trace_id=?, "
                "score_digest=?, finished_unix=?, updated_unix=?, lease_owner=NULL, "
                "lease_expires_unix=NULL WHERE job_id=? AND state='running'",
                (result_json, trace_id, score_digest, now, now, str(job_id)),
            )
            return self._get_locked(job_id)

    def fail(self, job_id: str, error: str, requeue: bool = False) -> JobRecord:
        """``running → failed`` (or straight back to ``queued`` for a retry)."""
        now = time.time()
        with self._lock:
            if requeue:
                self._conn.execute(
                    "UPDATE jobs SET state='queued', error=?, started_unix=NULL, "
                    "finished_unix=NULL, updated_unix=?, lease_owner=NULL, "
                    "lease_expires_unix=NULL WHERE job_id=? AND state='running'",
                    (str(error)[:2000], now, str(job_id)),
                )
            else:
                self._conn.execute(
                    "UPDATE jobs SET state='failed', error=?, finished_unix=?, updated_unix=?, "
                    "lease_owner=NULL, lease_expires_unix=NULL WHERE job_id=? AND state='running'",
                    (str(error)[:2000], now, now, str(job_id)),
                )
            return self._get_locked(job_id)

    def release(self, job_id: str) -> JobRecord:
        """Hand a claimed-but-unfinished job back: ``running → queued``.

        The graceful-shutdown verb — the attempt is not counted against
        the job (``attempts`` stays, but no error is recorded).
        """
        now = time.time()
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET state='queued', lease_owner=NULL, lease_expires_unix=NULL, "
                "started_unix=NULL, updated_unix=? WHERE job_id=? AND state='running'",
                (now, str(job_id)),
            )
            return self._get_locked(job_id)

    def requeue_expired(self) -> List[JobRecord]:
        """Move every expired-lease ``running`` job back to ``queued``.

        Crash recovery: called by workers on startup and periodically —
        a worker that died mid-job stops heartbeating, its lease lapses,
        and the job is picked up again by whoever is still alive.
        """
        now = time.time()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                rows = self._conn.execute(
                    "SELECT job_id FROM jobs WHERE state='running' AND lease_expires_unix < ?",
                    (now,),
                ).fetchall()
                for (job_id,) in rows:
                    self._conn.execute(
                        "UPDATE jobs SET state='queued', lease_owner=NULL, "
                        "lease_expires_unix=NULL, started_unix=NULL, updated_unix=? "
                        "WHERE job_id=?",
                        (now, job_id),
                    )
                self._conn.execute("COMMIT")
                return [self._get_locked(job_id) for (job_id,) in rows]
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def requeue(self, job_id: str) -> JobRecord:
        """Operator verb: push a failed/cancelled (or expired) job back in."""
        now = time.time()
        with self._lock:
            record = self._get_locked(job_id)
            if record.state == "queued":
                return record
            if record.state == "done":
                raise ValueError(f"job {job_id} is done; nothing to requeue")
            if record.state == "running" and (
                record.lease_expires_unix is None or record.lease_expires_unix >= now
            ):
                raise ValueError(f"job {job_id} is running under a live lease")
            self._conn.execute(
                "UPDATE jobs SET state='queued', error=NULL, lease_owner=NULL, "
                "lease_expires_unix=NULL, started_unix=NULL, finished_unix=NULL, "
                "updated_unix=? WHERE job_id=?",
                (now, str(job_id)),
            )
            return self._get_locked(job_id)

    def cancel(self, job_id: str) -> JobRecord:
        """``queued → cancelled`` (idempotent on already-cancelled jobs).

        Running jobs cannot be cancelled — their worker owns the lease —
        and terminal jobs are immutable history; both raise ValueError.
        """
        now = time.time()
        with self._lock:
            record = self._get_locked(job_id)
            if record.state == "cancelled":
                return record
            if record.state != "queued":
                raise ValueError(f"job {job_id} is {record.state}; only queued jobs can be cancelled")
            self._conn.execute(
                "UPDATE jobs SET state='cancelled', finished_unix=?, updated_unix=? "
                "WHERE job_id=? AND state='queued'",
                (now, now, str(job_id)),
            )
            return self._get_locked(job_id)

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def gc(self, max_age_s: Optional[float] = None, keep: Optional[int] = None) -> int:
        """Prune terminal jobs by age and/or count; returns rows deleted.

        ``max_age_s`` deletes terminal jobs whose last update is older;
        ``keep`` retains only the newest N terminal jobs.  Queued and
        running jobs are never touched.
        """
        deleted = 0
        now = time.time()
        terminal = ",".join(f"'{state}'" for state in TERMINAL_STATES)
        with self._lock:
            if max_age_s is not None:
                cursor = self._conn.execute(
                    f"DELETE FROM jobs WHERE state IN ({terminal}) AND updated_unix < ?",
                    (now - float(max_age_s),),
                )
                deleted += cursor.rowcount
            if keep is not None:
                cursor = self._conn.execute(
                    f"DELETE FROM jobs WHERE state IN ({terminal}) AND job_id NOT IN ("
                    f"  SELECT job_id FROM jobs WHERE state IN ({terminal}) "
                    "   ORDER BY updated_unix DESC, job_id DESC LIMIT ?)",
                    (int(keep),),
                )
                deleted += cursor.rowcount
        return deleted

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Store-level summary: per-state counts, tenants, dedup pressure."""
        with self._lock:
            counts = self.counts()
            total_submits, n_jobs = self._conn.execute(
                "SELECT COALESCE(SUM(submit_count), 0), COUNT(*) FROM jobs"
            ).fetchone()
            per_tenant = {
                tenant: self.counts(tenant) for tenant in self.tenants()
            }
        return {
            "path": self.path,
            "states": counts,
            "n_jobs": int(n_jobs),
            "submit_total": int(total_submits),
            "dedup_hits_total": int(total_submits) - int(n_jobs),
            "tenants": per_tenant,
        }

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._conn.close()
                self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
