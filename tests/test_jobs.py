"""Durable job store (``repro.jobs``): state machine, dedup, quotas,
leases, crash recovery and the operational CLI.

The crash-recovery class is the subsystem's acceptance test: a worker
that dies mid-job (simulated by an expired lease and a re-opened store —
a new process would see exactly this) loses nothing, and the recovered
job's stored result is bit-identical to the synchronous scoring path.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_example_graph
from repro.gae import MHGAEConfig
from repro.gcl import TPGCLConfig
from repro.jobs import (
    JobStore,
    JobWorker,
    QuotaExceededError,
    TenantQuota,
    UnknownJobError,
    dedup_key,
)
from repro.jobs.__main__ import main as jobs_main
from repro.persist import to_native
from repro.sampling import SamplerConfig
from repro.serve import MicroBatcher, ModelRegistry, ServeConfig


def _tiny_config(seed: int = 1) -> TPGrGADConfig:
    return TPGrGADConfig(
        mhgae=MHGAEConfig(epochs=8, hidden_dim=16, embedding_dim=8),
        sampler=SamplerConfig(max_candidates=60, max_anchor_pairs=80),
        tpgcl=TPGCLConfig(epochs=3, hidden_dim=16, embedding_dim=16, batch_size=16),
        max_anchors=15,
        seed=seed,
    )


@pytest.fixture()
def store(tmp_path):
    with JobStore(tmp_path / "jobs.sqlite") as store:
        yield store


def _submit(store, *, tenant="acme", fingerprint="fp-1", mode="detect_only",
            model="alpha", version=1, threshold=None, graph_json="{}"):
    """One store submission with throwaway identity values."""
    return store.submit(
        tenant=tenant,
        model=model,
        model_version=version,
        config_hash="cfg-1",
        mode=mode,
        graph_fingerprint=fingerprint,
        graph_json=graph_json,
        threshold=threshold,
    )


# ----------------------------------------------------------------------
class TestSubmitAndDedup:
    def test_submit_creates_queued_job(self, store):
        outcome = _submit(store)
        assert outcome.created and not outcome.revived
        record = outcome.record
        assert record.state == "queued"
        assert record.attempts == 0 and record.submit_count == 1
        assert store.get(record.job_id).job_id == record.job_id

    def test_duplicate_submission_returns_existing_record(self, store):
        first = _submit(store)
        second = _submit(store)
        assert not second.created
        assert second.record.job_id == first.record.job_id
        assert second.record.submit_count == 2
        stats = store.stats()
        assert stats["n_jobs"] == 1
        assert stats["dedup_hits_total"] == 1

    def test_dedup_key_covers_every_input(self, store):
        base = _submit(store).record
        for kwargs in (
            {"fingerprint": "fp-2"},
            {"mode": "fit_detect"},
            {"model": "beta"},
            {"version": 2},
            {"threshold": 0.5},
        ):
            assert _submit(store, **kwargs).created, kwargs
        assert store.stats()["n_jobs"] == 6
        assert base.dedup_key == dedup_key("fp-1", "cfg-1", "detect_only", "alpha", 1, None)

    def test_resubmit_revives_failed_and_cancelled_jobs(self, store):
        job_id = _submit(store).record.job_id
        store.claim("w", limit=1)
        store.fail(job_id, "boom", requeue=False)
        revived = _submit(store)
        assert not revived.created and revived.revived
        assert revived.record.state == "queued"
        assert revived.record.error is None

        other = _submit(store, fingerprint="fp-2").record
        store.cancel(other.job_id)
        assert _submit(store, fingerprint="fp-2").revived

    def test_queued_quota_enforced_at_submit(self, tmp_path):
        with JobStore(tmp_path / "q.sqlite", quota=TenantQuota(max_queued=2, max_running=8)) as store:
            _submit(store, fingerprint="a")
            existing = _submit(store, fingerprint="b").record
            with pytest.raises(QuotaExceededError) as excinfo:
                _submit(store, fingerprint="c")
            assert excinfo.value.tenant == "acme"
            assert excinfo.value.retry_after_s > 0
            # Dedup hits never create work, so they pass the full queue...
            assert _submit(store, fingerprint="b").record.job_id == existing.job_id
            # ...and other tenants have their own budget.
            assert _submit(store, fingerprint="c", tenant="zen").created


# ----------------------------------------------------------------------
class TestLeaseProtocol:
    def test_claim_moves_oldest_to_running_with_lease(self, store):
        first = _submit(store, fingerprint="a").record
        _submit(store, fingerprint="b")
        claimed = store.claim("worker-1", limit=1, lease_ttl_s=30)
        assert [record.job_id for record in claimed] == [first.job_id]
        record = claimed[0]
        assert record.state == "running"
        assert record.attempts == 1
        assert record.lease_owner == "worker-1"
        assert record.lease_expires_unix > time.time()
        assert record.started_unix is not None

    def test_claim_skips_tenants_at_max_running(self, tmp_path):
        with JobStore(tmp_path / "q.sqlite", quota=TenantQuota(max_queued=64, max_running=1)) as store:
            _submit(store, fingerprint="a", tenant="noisy")
            _submit(store, fingerprint="b", tenant="noisy")
            _submit(store, fingerprint="c", tenant="quiet")
            claimed = store.claim("w", limit=3)
            assert sorted(record.tenant for record in claimed) == ["noisy", "quiet"]
            # The second noisy job stays queued until the first finishes.
            assert store.counts("noisy") == {"queued": 1, "running": 1, "done": 0,
                                            "failed": 0, "cancelled": 0}

    def test_heartbeat_extends_only_the_owners_leases(self, store):
        job_id = _submit(store).record.job_id
        store.claim("worker-1", limit=1, lease_ttl_s=5)
        before = store.get(job_id).lease_expires_unix
        assert store.heartbeat([job_id], "intruder", lease_ttl_s=500) == 0
        assert store.heartbeat([job_id], "worker-1", lease_ttl_s=500) == 1
        assert store.get(job_id).lease_expires_unix > before

    def test_complete_stores_result_and_provenance(self, store):
        job_id = _submit(store).record.job_id
        store.claim("w", limit=1)
        record = store.complete(job_id, {"result": {"scores": [1, 2]}},
                                trace_id="t-1", score_digest="d-1")
        assert record.state == "done"
        assert record.result == {"result": {"scores": [1, 2]}}
        assert (record.trace_id, record.score_digest) == ("t-1", "d-1")
        assert record.lease_owner is None
        assert record.wait_seconds() is not None and record.run_seconds() is not None

    def test_fail_requeues_then_fails_permanently(self, store):
        job_id = _submit(store).record.job_id
        store.claim("w", limit=1)
        retried = store.fail(job_id, "transient", requeue=True)
        assert retried.state == "queued" and retried.attempts == 1
        assert retried.started_unix is None
        store.claim("w", limit=1)
        dead = store.fail(job_id, "fatal", requeue=False)
        assert dead.state == "failed" and dead.error == "fatal"

    def test_release_returns_job_unharmed(self, store):
        job_id = _submit(store).record.job_id
        store.claim("w", limit=1)
        released = store.release(job_id)
        assert released.state == "queued"
        assert released.error is None and released.lease_owner is None

    def test_expired_lease_requeued_for_recovery(self, store):
        job_id = _submit(store).record.job_id
        store.claim("doomed", limit=1, lease_ttl_s=0.01)
        time.sleep(0.05)
        recovered = store.requeue_expired()
        assert [record.job_id for record in recovered] == [job_id]
        assert store.get(job_id).state == "queued"
        # A live lease is never stolen.
        store.claim("alive", limit=1, lease_ttl_s=60)
        assert store.requeue_expired() == []

    def test_operator_requeue_rules(self, store):
        job_id = _submit(store).record.job_id
        store.claim("w", limit=1, lease_ttl_s=60)
        with pytest.raises(ValueError, match="live lease"):
            store.requeue(job_id)
        store.complete(job_id, {"result": {}})
        with pytest.raises(ValueError, match="done"):
            store.requeue(job_id)
        failed = _submit(store, fingerprint="fp-2").record
        store.claim("w", limit=1)
        store.fail(failed.job_id, "boom")
        assert store.requeue(failed.job_id).state == "queued"

    def test_cancel_only_touches_queued_jobs(self, store):
        job_id = _submit(store).record.job_id
        assert store.cancel(job_id).state == "cancelled"
        assert store.cancel(job_id).state == "cancelled"  # idempotent
        running = _submit(store, fingerprint="fp-2").record
        store.claim("w", limit=1)
        with pytest.raises(ValueError, match="running"):
            store.cancel(running.job_id)
        with pytest.raises(UnknownJobError):
            store.cancel("nope")


# ----------------------------------------------------------------------
class TestRetentionAndStats:
    def test_gc_prunes_terminal_jobs_only(self, store):
        done = _submit(store, fingerprint="a").record
        store.claim("w", limit=1)
        store.complete(done.job_id, {"result": {}})
        _submit(store, fingerprint="b")  # queued: must survive any gc
        assert store.gc(max_age_s=3600) == 0
        assert store.gc(max_age_s=0) == 1
        assert store.counts()["queued"] == 1

    def test_gc_keep_retains_newest(self, store):
        for index in range(4):
            record = _submit(store, fingerprint=f"fp-{index}").record
            store.claim("w", limit=1)
            store.complete(record.job_id, {"result": {"index": index}})
            time.sleep(0.01)
        assert store.gc(keep=2) == 2
        kept = store.list(state="done")
        assert [record.result["result"]["index"] for record in kept] == [3, 2]

    def test_wal_mode_survives_concurrent_submit_and_poll(self, tmp_path):
        """A second connection on the same file reads while we write."""
        path = tmp_path / "wal.sqlite"
        writer = JobStore(path)
        reader = JobStore(path)
        errors = []
        stop = threading.Event()

        def poll():
            try:
                while not stop.is_set():
                    reader.counts()
                    reader.list(limit=10)
            except Exception as error:  # noqa: BLE001 - assert below
                errors.append(error)

        poller = threading.Thread(target=poll)
        poller.start()
        try:
            for index in range(50):
                _submit(writer, fingerprint=f"fp-{index}")
        finally:
            stop.set()
            poller.join(10)
        assert errors == []
        assert reader.counts()["queued"] == 50
        assert writer._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        writer.close()
        reader.close()


# ----------------------------------------------------------------------
class TestWorkerAndCrashRecovery:
    @pytest.fixture(scope="class")
    def registry(self, tmp_path_factory):
        graph = make_example_graph(seed=7)
        detector = TPGrGAD(_tiny_config())
        detector.fit_detect(graph)
        path = detector.save(tmp_path_factory.mktemp("jobs-artifact") / "alpha")
        registry = ModelRegistry()
        registry.load("alpha", path)
        return registry

    def _submit_graph(self, store, registry, graph, mode="detect_only"):
        entry = registry.get()
        return store.submit(
            tenant="acme",
            model=entry.name,
            model_version=entry.version,
            config_hash=entry.config_hash,
            mode=mode,
            graph_fingerprint=graph.fingerprint(),
            graph_json=json.dumps(to_native(graph.to_json_dict()), sort_keys=True),
        )

    async def _drain(self, store, registry, job_ids, **worker_kwargs):
        """Run one worker until every job id is terminal."""
        batcher = MicroBatcher(registry, ServeConfig(max_batch=8, max_wait_ms=2))
        await batcher.start()
        worker = JobWorker(store, batcher, poll_interval_s=0.01, **worker_kwargs)
        await worker.start()
        try:
            deadline = time.monotonic() + 60
            while any(store.get(job_id).state not in ("done", "failed", "cancelled")
                      for job_id in job_ids):
                assert time.monotonic() < deadline, "worker did not drain the queue"
                await asyncio.sleep(0.02)
        finally:
            await worker.stop()
            await batcher.stop()

    def test_worker_result_bit_identical_to_sync_path(self, tmp_path, registry):
        graph = make_example_graph(seed=11)

        async def scenario():
            store = JobStore(tmp_path / "jobs.sqlite")
            job_id = self._submit_graph(store, registry, graph).record.job_id
            await self._drain(store, registry, [job_id])

            batcher = MicroBatcher(registry, ServeConfig())
            await batcher.start()
            sync = await batcher.submit(graph)
            await batcher.stop()
            return store.get(job_id), sync

        record, sync = asyncio.run(scenario())
        assert record.state == "done"
        assert record.result["result"] == sync["result"]
        assert record.result["model"] == sync["model"]
        assert record.result["config_hash"] == sync["config_hash"]

    def test_crashed_worker_job_recovered_bit_identically(self, tmp_path, registry):
        """Expired lease + store reopen = worker death + process restart."""
        graph = make_example_graph(seed=13)
        path = tmp_path / "jobs.sqlite"

        async def scenario():
            store = JobStore(path)
            job_id = self._submit_graph(store, registry, graph).record.job_id
            # The "crash": a worker claims the job and dies without
            # heartbeating — its lease lapses with the job mid-"running".
            crashed = store.claim("crashed-worker", limit=1, lease_ttl_s=0.01)
            assert [record.job_id for record in crashed] == [job_id]
            store.close()
            await asyncio.sleep(0.05)

            reopened = JobStore(path)  # the restarted process
            assert reopened.get(job_id).state == "running"  # orphaned
            await self._drain(reopened, registry, [job_id])
            record = reopened.get(job_id)

            batcher = MicroBatcher(registry, ServeConfig())
            await batcher.start()
            sync = await batcher.submit(graph)
            await batcher.stop()
            reopened.close()
            return record, sync

        record, sync = asyncio.run(scenario())
        assert record.state == "done"
        assert record.attempts == 2  # the crashed try + the real one
        assert record.result["result"] == sync["result"]

    def test_worker_retries_bad_jobs_then_fails_permanently(self, tmp_path, registry):
        async def scenario():
            store = JobStore(tmp_path / "jobs.sqlite")
            entry = registry.get()
            job_id = store.submit(
                tenant="acme", model=entry.name, model_version=entry.version,
                config_hash=entry.config_hash, mode="detect_only",
                graph_fingerprint="bogus", graph_json='{"not": "a graph"}',
            ).record.job_id
            await self._drain(store, registry, [job_id], max_attempts=2)
            record = store.get(job_id)
            store.close()
            return record

        record = asyncio.run(scenario())
        assert record.state == "failed"
        assert record.attempts == 2
        assert record.error

    def test_old_store_fit_job_fails_permanently_unscored(self, tmp_path, registry):
        """A ``fit_detect`` job left by a server that still trained is never scored warm."""
        graph = make_example_graph(seed=19)

        async def scenario():
            store = JobStore(tmp_path / "jobs.sqlite")
            job_id = self._submit_graph(store, registry, graph, mode="fit_detect").record.job_id
            served_before = registry.get().requests_served
            await self._drain(store, registry, [job_id], max_attempts=3)
            record = store.get(job_id)
            store.close()
            return record, registry.get().requests_served - served_before

        record, served = asyncio.run(scenario())
        assert record.state == "failed"
        assert record.attempts == 1  # permanent: no retry of a fit the server cannot run
        assert record.result is None
        assert "'fit_detect'" in record.error and "repro.parallel fit" in record.error
        assert served == 0

    def test_worker_stop_releases_unfinished_claims(self, tmp_path, registry):
        graph = make_example_graph(seed=17)

        async def scenario():
            store = JobStore(tmp_path / "jobs.sqlite")
            job_id = self._submit_graph(store, registry, graph).record.job_id
            batcher = MicroBatcher(registry, ServeConfig(max_batch=4, max_wait_ms=2))
            await batcher.start()
            worker = JobWorker(store, batcher, poll_interval_s=0.01, lease_ttl_s=30)
            await worker.start()
            # Stop as soon as the claim lands, before the score can finish.
            deadline = time.monotonic() + 30
            while store.get(job_id).state == "queued" and time.monotonic() < deadline:
                await asyncio.sleep(0.002)
            await worker.stop()
            await batcher.stop()
            record = store.get(job_id)
            store.close()
            return record

        record = asyncio.run(scenario())
        # Either the score raced to completion, or the claim was released
        # with no attempt charged as a failure — never lost, never leased.
        assert record.state in ("queued", "done")
        assert record.lease_owner is None


# ----------------------------------------------------------------------
class TestJobsCli:
    @pytest.fixture()
    def populated(self, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        with JobStore(path) as store:
            done = _submit(store, fingerprint="a").record
            store.claim("w", limit=1)
            store.complete(done.job_id, {"result": {"ok": True}},
                           trace_id="t-1", score_digest="d-1")
            failed = _submit(store, fingerprint="b").record
            store.claim("w", limit=1)
            store.fail(failed.job_id, "boom")
            _submit(store, fingerprint="c")
            return path, done.job_id, failed.job_id

    def test_ls_table_and_json(self, populated, capsys):
        path, done_id, _ = populated
        assert jobs_main(["ls", "--store", path]) == 0
        table = capsys.readouterr().out
        assert done_id in table and "done=1" in table and "failed=1" in table
        assert jobs_main(["ls", "--store", path, "--state", "done", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [job["job_id"] for job in payload["jobs"]] == [done_id]
        assert payload["stats"]["states"]["queued"] == 1

    def test_show_record_and_result(self, populated, capsys):
        path, done_id, failed_id = populated
        assert jobs_main(["show", done_id, "--store", path]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["score_digest"] == "d-1"
        assert jobs_main(["show", done_id, "--store", path, "--result"]) == 0
        assert json.loads(capsys.readouterr().out) == {"result": {"ok": True}}
        # No result for a failed job; unknown ids are a clean error.
        assert jobs_main(["show", failed_id, "--store", path, "--result"]) == 1
        assert jobs_main(["show", "nope", "--store", path]) == 1
        assert "unknown job" in capsys.readouterr().err

    def test_requeue_and_gc(self, populated, capsys):
        path, done_id, failed_id = populated
        assert jobs_main(["requeue", failed_id, "--store", path]) == 0
        assert "queued" in capsys.readouterr().out
        assert jobs_main(["requeue", done_id, "--store", path]) == 1  # done is immutable
        assert jobs_main(["gc", "--store", path, "--max-age-s", "0"]) == 0
        assert "deleted 1" in capsys.readouterr().out  # only the done job was terminal
