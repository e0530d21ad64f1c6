"""Serve-layer observability tests: metrics edge cases, Prometheus over
HTTP, enriched per-model rows, trace-id plumbing and the end-to-end
provenance acceptance path.

The acceptance criterion pinned here: with provenance logging on, a
``/score`` response's record replays bit-identically through
``detect_only`` via :func:`repro.obs.verify_record` (and the
``python -m repro.obs verify`` CLI).
"""

from __future__ import annotations

import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_example_graph
from repro.gae import MHGAEConfig
from repro.gcl import TPGCLConfig
from repro.obs import Tracer, read_log, score_digest, use_tracer, verify_log, verify_record
from repro.obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.sampling import SamplerConfig
from repro.serve import ModelRegistry, ScoringClient, ServeConfig, start_server_thread
from repro.serve.metrics import ServerMetrics


def _tiny_config(seed: int) -> TPGrGADConfig:
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
    detector = TPGrGAD(_tiny_config(1))
    detector.fit_detect(GRAPH)
    return str(detector.save(tmp_path_factory.mktemp("obs-serve") / "model"))


@pytest.fixture()
def registry(artifact):
    registry = ModelRegistry()
    registry.load("fraud", artifact)
    return registry


def _http_get(port, path, accept=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path, headers={"Accept": accept} if accept else {})
        response = conn.getresponse()
        return response.status, response.getheader("content-type"), response.read().decode()
    finally:
        conn.close()


# ----------------------------------------------------------------------
class TestServerMetricsEdgeCases:
    def test_qps_window_with_fewer_than_two_samples(self):
        metrics = ServerMetrics()
        assert metrics.snapshot()["qps_window"] == 0.0
        metrics.record_scored(0.005)
        assert metrics.snapshot()["qps_window"] == 0.0
        metrics.record_scored(0.005)
        assert metrics.snapshot()["qps_window"] >= 0.0  # defined from 2 samples on

    def test_latency_window_eviction_keeps_most_recent(self):
        metrics = ServerMetrics(latency_window=4)
        for ms in (100.0, 1.0, 2.0, 3.0, 4.0):  # the 100ms outlier must fall out
            metrics.record_scored(ms / 1e3)
        values_ms = [v * 1e3 for v in metrics._latencies.values()]
        assert values_ms == [1.0, 2.0, 3.0, 4.0]
        snap = metrics.snapshot()
        assert snap["p95_latency_ms"] == round(float(np.percentile(values_ms, 95)), 3)

    def test_concurrent_record_and_snapshot_under_threads(self):
        metrics = ServerMetrics(latency_window=256)
        n_threads, per_thread = 8, 200
        errors = []

        def writer(i):
            try:
                for j in range(per_thread):
                    metrics.record_admitted()
                    metrics.record_scored(0.001 * ((i + j) % 7 + 1))
                    metrics.record_response(200)
                    metrics.record_batch(2, 1, 2)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        def reader():
            try:
                for _ in range(100):
                    snap = metrics.snapshot()
                    assert snap["scored_total"] >= 0
                    assert snap["p50_latency_ms"] >= 0.0
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(n_threads)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        snap = metrics.snapshot()
        total = n_threads * per_thread
        assert snap["scored_total"] == total
        assert snap["requests_total"] == total
        assert snap["responses_by_status"][200] == total
        assert snap["dedup_hits_total"] == total  # each batch: 2 scored, 1 unique
        assert len(metrics._latencies) == 256  # bounded despite 1600 records

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            ServerMetrics(latency_window=0)


# ----------------------------------------------------------------------
class TestMetricsOverHTTP:
    @pytest.fixture()
    def running(self, registry):
        handle = start_server_thread(registry, ServeConfig(max_batch=4, max_wait_ms=2))
        client = ScoringClient(port=handle.port)
        try:
            yield handle, client
        finally:
            client.close()
            handle.stop()

    def test_prometheus_via_query_param(self, running):
        handle, client = running
        client.score(GRAPH, model="fraud")
        status, content_type, body = _http_get(handle.port, "/metrics?format=prometheus")
        assert status == 200
        assert content_type == PROMETHEUS_CONTENT_TYPE
        assert "# TYPE repro_scored_total counter" in body
        assert "repro_scored_total 1" in body
        assert 'repro_model_info{model="fraud",version="1"' in body
        assert 'repro_model_requests_served{model="fraud"} 1' in body

    def test_prometheus_via_accept_header(self, running):
        handle, _ = running
        status, content_type, body = _http_get(handle.port, "/metrics", accept="text/plain")
        assert status == 200 and content_type == PROMETHEUS_CONTENT_TYPE
        assert body.startswith("# TYPE")

    def test_default_metrics_stay_json(self, running):
        handle, _ = running
        status, content_type, body = _http_get(handle.port, "/metrics")
        assert status == 200 and content_type == "application/json"
        payload = json.loads(body)
        assert "scored_total" in payload and "models" in payload
        # Explicit JSON accept also negotiates JSON even alongside text/plain.
        _, content_type, _ = _http_get(
            handle.port, "/metrics", accept="text/plain, application/json"
        )
        assert content_type == "application/json"

    def test_per_model_metrics_enrichment(self, running, artifact):
        handle, client = running
        client.score(GRAPH, model="fraud")
        client.score(GRAPH, model="fraud", mode="fit_detect")
        client.load_model("fraud", artifact)  # hot swap bumps version
        row = client.metrics()["models"]["fraud"]
        for key in (
            "version", "swap_count", "config_hash", "loaded_at_unix",
            "requests_served", "tape_nodes_total",
        ):
            assert key in row
        assert row["version"] == 2 and row["swap_count"] == 1
        # Counters belong to the live entry: the swap reset them.
        assert row["requests_served"] == 0
        client.score(OTHER, model="fraud", mode="fit_detect")
        row = client.metrics()["models"]["fraud"]
        assert row["requests_served"] == 1
        assert row["tape_nodes_total"] > 0  # fit mode trains, so the tape grew


# ----------------------------------------------------------------------
class TestServeTracing:
    def test_request_and_score_spans_with_response_trace_id(self, registry):
        tracer = Tracer()
        with use_tracer(tracer):
            handle = start_server_thread(registry, ServeConfig(max_batch=4, max_wait_ms=2))
            client = ScoringClient(port=handle.port)
            try:
                response = client.score(GRAPH, model="fraud")
            finally:
                client.close()
                handle.stop()
        assert response["trace_id"] == tracer.trace_id
        names = {s.name for s in tracer.spans}
        assert {"serve.request", "serve.batch", "serve.score_group"} <= names
        batch = next(s for s in tracer.spans if s.name == "serve.batch")
        score = next(s for s in tracer.spans if s.name == "serve.score_group")
        # The executor thread inherited the batch span via the copied context.
        assert score.parent_id == batch.span_id
        request = next(s for s in tracer.spans if s.name == "serve.request")
        assert request.attrs["path"] == "/score" and request.attrs["status"] == 200

    def test_untraced_response_has_no_trace_id(self, registry):
        handle = start_server_thread(registry, ServeConfig())
        client = ScoringClient(port=handle.port)
        try:
            response = client.score(GRAPH, model="fraud")
        finally:
            client.close()
            handle.stop()
        assert "trace_id" not in response


# ----------------------------------------------------------------------
class TestServeProvenanceAcceptance:
    def test_scored_response_replays_bit_identically(self, registry, artifact, tmp_path):
        """ISSUE acceptance: serve → provenance record → detect_only replay."""
        log_path = str(tmp_path / "provenance.jsonl")
        config = ServeConfig(
            max_batch=4, max_wait_ms=2,
            provenance_path=log_path, provenance_include_graph=True,
        )
        handle = start_server_thread(registry, config)
        client = ScoringClient(port=handle.port)
        try:
            plain = client.score(GRAPH, model="fraud")
            explicit = client.score(OTHER, model="fraud", threshold=1e12)
        finally:
            client.close()
            handle.stop()

        assert plain["provenance"]["score_digest"] == score_digest(plain["result"])
        records = read_log(log_path)
        assert len(records) == 2
        by_id = {r["record_id"]: r for r in records}
        for response in (plain, explicit):
            record = by_id[response["provenance"]["record_id"]]
            assert record["model"] == "fraud" and record["version"] == 1
            assert record["mode"] == "detect_only"
            assert record["graph_fingerprint"] == response["graph_fingerprint"]
            outcome = verify_record(record, artifact)
            assert outcome.ok, outcome.describe()
            assert outcome.replayed_digest == response["provenance"]["score_digest"]
        assert all(outcome.ok for outcome in verify_log(log_path, artifact))

    def test_duplicate_requests_share_one_digest(self, registry, tmp_path):
        log_path = str(tmp_path / "provenance.jsonl")
        config = ServeConfig(
            max_batch=8, max_wait_ms=50,
            provenance_path=log_path, provenance_include_graph=False,
        )
        handle = start_server_thread(registry, config)
        try:
            def call(_):
                with ScoringClient(port=handle.port) as client:
                    return client.score(GRAPH, model="fraud")

            with ThreadPoolExecutor(max_workers=4) as pool:
                responses = list(pool.map(call, range(4)))
        finally:
            handle.stop()
        digests = {r["provenance"]["score_digest"] for r in responses}
        assert len(digests) == 1
        records = read_log(log_path)
        assert len(records) == 4  # one record per response, even when deduped
        assert {r["score_digest"] for r in records} == digests
        # Without include_graph the records need the graph supplied to replay.
        outcome = verify_record(records[0], registry.get("fraud").path)
        assert not outcome.ok and "graph" in outcome.reason
        outcome = verify_record(records[0], registry.get("fraud").path, graph=GRAPH)
        assert outcome.ok, outcome.describe()
