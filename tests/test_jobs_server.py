"""HTTP end-to-end tests of the async job API (``/jobs``).

Pins the serving-layer acceptance criteria of the jobs subsystem:

* submit → poll → result over real HTTP, with the stored ``detect_only``
  response **bit-identical** to the synchronous ``/score`` path on the
  same server, and a job asking for a served fit refused with ``400``;
* duplicate submissions return the same job id with a dedup marker;
* per-tenant quotas surface as ``429`` + ``Retry-After`` and tenants are
  keyed by the ``X-API-Key`` header;
* job metrics appear in both the JSON snapshot and the Prometheus
  exposition;
* graceful drain releases claims, and a *new* server booted on the same
  sqlite store finishes the work — durability across restarts.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_example_graph
from repro.gae import MHGAEConfig
from repro.gcl import TPGCLConfig
from repro.jobs import JobStore
from repro.sampling import SamplerConfig
from repro.serve import (
    JobFailedError,
    LoadShedError,
    ModelRegistry,
    ScoringClient,
    ServeConfig,
    ServeError,
    start_server_thread,
)


def _tiny_config(seed: int = 1) -> TPGrGADConfig:
    return TPGrGADConfig(
        mhgae=MHGAEConfig(epochs=8, hidden_dim=16, embedding_dim=8),
        sampler=SamplerConfig(max_candidates=60, max_anchor_pairs=80),
        tpgcl=TPGCLConfig(epochs=3, hidden_dim=16, embedding_dim=16, batch_size=16),
        max_anchors=15,
        seed=seed,
    )


GRAPH = make_example_graph(seed=7)
OTHER = make_example_graph(seed=11)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    detector = TPGrGAD(_tiny_config())
    detector.fit_detect(GRAPH)
    return str(detector.save(tmp_path_factory.mktemp("jobs-serve") / "alpha"))


@pytest.fixture()
def registry(artifact):
    registry = ModelRegistry()
    registry.load("alpha", artifact)
    return registry


def _serve_config(tmp_path, **overrides) -> ServeConfig:
    defaults = dict(
        max_batch=8,
        max_wait_ms=2,
        job_store_path=str(tmp_path / "jobs.sqlite"),
        job_poll_interval_s=0.01,
        provenance_path=str(tmp_path / "provenance.jsonl"),
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


@pytest.fixture()
def running(registry, tmp_path):
    """Fast-draining server: jobs complete within milliseconds."""
    handle = start_server_thread(registry, _serve_config(tmp_path))
    client = ScoringClient(port=handle.port)
    try:
        yield handle, client
    finally:
        client.close()
        handle.stop()


@pytest.fixture()
def idle(registry, tmp_path):
    """Slow-claiming server: jobs stay ``queued`` for ~30s — the window
    the cancel/quota/409 tests need."""
    handle = start_server_thread(
        registry, _serve_config(tmp_path, job_poll_interval_s=30.0)
    )
    client = ScoringClient(port=handle.port)
    time.sleep(0.3)  # let the first (empty) claim pass → workers asleep
    try:
        yield handle, client
    finally:
        client.close()
        handle.stop()


# ----------------------------------------------------------------------
class TestSubmitPollResult:
    def test_roundtrip_bit_identical_to_sync_score(self, running):
        _, client = running
        sync = client.score(GRAPH)

        accepted = client.submit_job(GRAPH)
        assert accepted["deduplicated"] is False
        assert accepted["model"] == "alpha" and accepted["version"] == 1

        result = client.wait_job(accepted["job_id"], timeout=60)
        assert result["state"] == "done"
        response = result["response"]
        assert response["result"] == sync["result"]
        assert response["model"] == sync["model"]
        assert response["config_hash"] == sync["config_hash"]
        # Provenance carried into the stored record itself.
        record = client.job(accepted["job_id"])
        assert record["state"] == "done"
        assert record["score_digest"] == response["provenance"]["score_digest"]
        assert record["wait_seconds"] is not None and record["run_seconds"] is not None

    def test_fit_detect_mode_is_400_and_never_stored(self, running):
        _, client = running
        for mode in ("fit_detect", "training", 1):
            status, _, body = client._request(
                "POST", "/jobs", {"graph": GRAPH.to_json_dict(), "mode": mode}
            )
            assert status == 400, (mode, body)
            assert "python -m repro.parallel fit --out DIR" in body["error"]
            assert "POST /models" in body["error"]
        assert client.jobs()["jobs"] == []
        assert client.metrics()["jobs"]["submitted_total"] == 0

    def test_duplicate_submission_returns_same_job(self, running):
        _, client = running
        first = client.submit_job(GRAPH, threshold=0.25)
        second = client.submit_job(GRAPH, threshold=0.25)
        assert second["job_id"] == first["job_id"]
        assert second["deduplicated"] is True
        assert second["submit_count"] == 2
        # A different threshold is different work.
        third = client.submit_job(GRAPH, threshold=0.75)
        assert third["job_id"] != first["job_id"]
        client.wait_job(first["job_id"], timeout=60)
        metrics = client.metrics()["jobs"]
        assert metrics["deduplicated_total"] >= 1

    def test_validation_errors(self, running):
        _, client = running
        with pytest.raises(ServeError) as excinfo:
            client.submit_job(GRAPH, model="ghost")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client.job("nope")
        assert excinfo.value.status == 404

    def test_non_finite_features_are_400_and_never_stored(self, running):
        _, client = running
        payload = GRAPH.to_json_dict()
        payload["features"][0][0] = float("nan")
        status, _, body = client._request("POST", "/jobs", {"graph": payload})
        assert status == 400, body
        assert "NaN or infinite" in body["error"]
        assert client.jobs()["jobs"] == []
        assert client.metrics()["jobs"]["submitted_total"] == 0


    def test_non_numeric_or_non_finite_threshold_is_400_and_never_stored(self, running):
        _, client = running
        for bad in ("nan", "1e309", True, float("nan"), float("-inf")):
            status, _, body = client._request(
                "POST", "/jobs", {"graph": GRAPH.to_json_dict(), "threshold": bad}
            )
            assert status == 400, (bad, body)
            assert "threshold" in body["error"]
        assert client.jobs()["jobs"] == []
        assert client.metrics()["jobs"]["submitted_total"] == 0

    def test_boolean_edge_endpoint_is_400_and_never_stored(self, running):
        _, client = running
        payload = GRAPH.to_json_dict()
        payload["edges"][0][1] = True
        status, _, body = client._request("POST", "/jobs", {"graph": payload})
        assert status == 400, body
        assert "not an integer" in body["error"]
        assert client.jobs()["jobs"] == []

# ----------------------------------------------------------------------
class TestCancelAndPending:
    def test_cancel_queued_job(self, idle, tmp_path):
        _, client = idle
        accepted = client.submit_job(GRAPH)
        assert accepted["state"] == "queued"
        cancelled = client.cancel_job(accepted["job_id"])
        assert cancelled["state"] == "cancelled"
        # Result endpoint reports 410 Gone; wait_job surfaces it.
        with pytest.raises(ServeError) as excinfo:
            client.job_result(accepted["job_id"])
        assert excinfo.value.status == 410
        with pytest.raises(JobFailedError):
            client.wait_job(accepted["job_id"], timeout=5)
        assert client.metrics()["jobs"]["cancelled_total"] == 1

    def test_pending_result_is_409_with_retry_after(self, idle):
        _, client = idle
        accepted = client.submit_job(OTHER)
        status, headers, body = client._request(
            "GET", f"/jobs/{accepted['job_id']}/result"
        )
        assert status == 409
        assert headers.get("Retry-After") == "1"
        assert body["state"] == "queued"

    def test_queued_quota_is_429_with_retry_after(self, registry, tmp_path):
        handle = start_server_thread(
            registry,
            _serve_config(tmp_path, job_poll_interval_s=30.0, job_max_queued=2),
        )
        client = ScoringClient(port=handle.port)
        time.sleep(0.3)
        try:
            client.submit_job(GRAPH, threshold=0.1)
            client.submit_job(GRAPH, threshold=0.2)
            with pytest.raises(LoadShedError) as excinfo:
                client.submit_job(GRAPH, threshold=0.3)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after_s > 0
            # Dedup resubmission still succeeds at the quota boundary.
            assert client.submit_job(GRAPH, threshold=0.1)["deduplicated"] is True
            assert client.metrics()["jobs"]["quota_shed_total"] == 1
        finally:
            client.close()
            handle.stop()

    def test_jobs_endpoint_disabled_without_store(self, registry):
        handle = start_server_thread(registry, ServeConfig())
        client = ScoringClient(port=handle.port)
        try:
            with pytest.raises(ServeError) as excinfo:
                client.submit_job(GRAPH)
            assert excinfo.value.status == 503
        finally:
            client.close()
            handle.stop()


# ----------------------------------------------------------------------
class TestTenantsAndListing:
    def test_api_key_scopes_tenant_and_listing(self, idle):
        handle, _ = idle
        team_a = ScoringClient(port=handle.port, api_key="team-a")
        team_b = ScoringClient(port=handle.port, api_key="team-b")
        try:
            a_job = team_a.submit_job(GRAPH)
            team_b.submit_job(OTHER)
            assert a_job["tenant"] == "team-a"
            listing = team_a.jobs(tenant="team-a")
            assert [job["job_id"] for job in listing["jobs"]] == [a_job["job_id"]]
            assert listing["counts"]["queued"] == 1
            everything = team_a.jobs()
            assert len(everything["jobs"]) == 2
            queued = team_a.jobs(state="queued", limit=1)
            assert len(queued["jobs"]) == 1
        finally:
            team_a.close()
            team_b.close()

    def test_metrics_json_and_prometheus_cover_jobs(self, running):
        handle, client = running
        client.submit_job(GRAPH)
        client.wait_job(client.submit_job(OTHER)["job_id"], timeout=60)

        jobs = client.metrics()["jobs"]
        assert jobs["submitted_total"] == 2
        assert jobs["completed_total"] >= 1
        assert "queue_depth" in jobs and set(jobs["queue_depth"]) == {
            "queued", "running", "done", "failed", "cancelled"
        }
        assert jobs["quota"] == {"max_queued": 64, "max_running": 8}
        assert "public" in jobs["tenants"]
        assert "wait_p95_ms" in jobs and "run_p95_ms" in jobs

        conn = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=10)
        try:
            conn.request("GET", "/metrics?format=prometheus")
            response = conn.getresponse()
            text = response.read().decode()
        finally:
            conn.close()
        assert response.status == 200
        assert "repro_jobs_submitted_total 2" in text
        assert 'repro_jobs_queue_depth{state="done"}' in text
        assert 'repro_jobs_tenant_submitted_total{tenant="public"}' in text


# ----------------------------------------------------------------------
class TestGracefulDrainAndRestart:
    def test_drain_releases_claims_and_restart_completes(self, registry, tmp_path):
        store_path = str(tmp_path / "jobs.sqlite")
        config = _serve_config(tmp_path, job_poll_interval_s=30.0)

        first = start_server_thread(registry, config)
        client = ScoringClient(port=first.port)
        time.sleep(0.3)
        job_id = client.submit_job(GRAPH)["job_id"]
        client.close()
        first.stop(drain=True)

        # The store was closed cleanly and the job survived, unleased.
        with JobStore(store_path) as store:
            record = store.get(job_id)
            assert record.state == "queued"
            assert record.lease_owner is None

        second = start_server_thread(registry, _serve_config(tmp_path))
        client = ScoringClient(port=second.port)
        try:
            result = client.wait_job(job_id, timeout=60)
            assert result["state"] == "done"
            sync = client.score(GRAPH)
            assert result["response"]["result"] == sync["result"]
        finally:
            client.close()
            second.stop()

    def test_drain_answers_admitted_sync_requests(self, registry, tmp_path):
        handle = start_server_thread(registry, _serve_config(tmp_path))
        client = ScoringClient(port=handle.port)
        try:
            response = client.score(GRAPH)
            assert len(response["result"]["scores"]) > 0
        finally:
            client.close()
        handle.stop(drain=True)
        # Idempotent: a second stop on a drained server is a no-op.
        handle.stop()
