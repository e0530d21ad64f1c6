"""Tests for the online scoring service (``repro.serve``).

Covers the four acceptance surfaces of the subsystem:

* **Registry** — versioned load / hot swap semantics, atomicity on
  failed loads, identity metadata (config hash + fitted fingerprint).
* **Parity** — a response served through the micro-batcher is exactly
  ``detect_only`` on the same graph + artifact, also under concurrent
  mixed-model load (the batch a request rode in can change its latency,
  never its scores).  The server never trains: a request for a served
  fit answers ``400``.
* **Admission control** — bounded-queue shedding (429 + ``Retry-After``)
  and per-request deadline budgets (504).
* **Warm-inference thread safety** — overlapping ``detect_only`` calls
  on one loaded pipeline state from many threads each reproduce their
  serial result (what makes the single-consumer batcher's executor
  thread, health probes and ad-hoc callers safe to coexist).
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_example_graph
from repro.gae import MHGAEConfig
from repro.gcl import TPGCLConfig
from repro.graph import Graph
from repro.sampling import SamplerConfig
from repro.serve import (
    LoadShedError,
    MicroBatcher,
    ModelRegistry,
    ScoringClient,
    ServeConfig,
    ServeError,
    ShedError,
    start_server_thread,
)
from repro.serve.__main__ import main as serve_main


def _tiny_config(seed: int) -> TPGrGADConfig:
    """Featherweight pipeline: serve tests exercise plumbing, not quality."""
    return TPGrGADConfig(
        mhgae=MHGAEConfig(epochs=8, hidden_dim=16, embedding_dim=8),
        sampler=SamplerConfig(max_candidates=60, max_anchor_pairs=80),
        tpgcl=TPGCLConfig(epochs=3, hidden_dim=16, embedding_dim=16, batch_size=16),
        max_anchors=15,
        seed=seed,
    )


GRAPHS = {name: make_example_graph(seed=seed) for name, seed in (("g7", 7), ("g11", 11), ("g13", 13))}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Two fitted artifacts (different seeds → different models)."""
    root = tmp_path_factory.mktemp("serve-artifacts")
    paths = {}
    for name, seed in (("alpha", 1), ("beta", 2)):
        detector = TPGrGAD(_tiny_config(seed))
        detector.fit_detect(GRAPHS["g7"])
        paths[name] = detector.save(root / name)
    return paths


@pytest.fixture()
def registry(artifacts):
    registry = ModelRegistry()
    for name, path in artifacts.items():
        registry.load(name, path)
    return registry


def _reference(path: str, graph: Graph, threshold=None) -> dict:
    """What a direct, unbatched ``detect_only`` on the artifact returns."""
    return TPGrGAD.load(path).detect_only(graph, threshold=threshold).to_json_dict()


# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_load_get_and_default(self, artifacts):
        registry = ModelRegistry()
        entry = registry.load("alpha", artifacts["alpha"])
        assert entry.version == 1
        assert registry.get().name == "alpha"  # first load becomes default
        registry.load("beta", artifacts["beta"])
        assert registry.get().name == "alpha"
        assert registry.get("beta").version == 1
        assert registry.names() == ["alpha", "beta"]

    def test_hot_swap_bumps_version_and_keeps_old_entry_alive(self, artifacts):
        registry = ModelRegistry()
        first = registry.load("model", artifacts["alpha"])
        second = registry.load("model", artifacts["beta"])
        assert (first.version, second.version) == (1, 2)
        assert registry.get("model") is second
        # The captured old entry still serves — in-flight batches that
        # resolved it before the swap finish on the old version.
        result = first.detector.detect_only(GRAPHS["g11"])
        assert result.n_candidates > 0

    def test_failed_load_leaves_previous_version_serving(self, artifacts, tmp_path):
        registry = ModelRegistry()
        registry.load("model", artifacts["alpha"])
        with pytest.raises(FileNotFoundError):
            registry.load("model", tmp_path / "nowhere")
        assert registry.get("model").version == 1
        assert registry.get("model").path == str(artifacts["alpha"])

    def test_unknown_model_raises_with_inventory(self, registry):
        with pytest.raises(KeyError, match="alpha"):
            registry.get("gamma")
        with pytest.raises(KeyError, match="empty"):
            ModelRegistry().get()

    def test_identity_matches_manifest(self, registry, artifacts):
        import json

        entry = registry.get("alpha")
        with open(str(artifacts["alpha"]) + "/manifest.json") as handle:
            manifest = json.load(handle)
        assert entry.config_hash == manifest["config_hash"]
        assert entry.state.graph_fingerprint == manifest["graph_fingerprint"]
        row = registry.describe()["models"][0]
        assert row["name"] == "alpha" and row["config_hash"] == entry.config_hash


# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_shed_when_queue_full(self, registry):
        async def scenario():
            batcher = MicroBatcher(registry, ServeConfig(queue_size=2, retry_after_s=3.0))
            await batcher.start()
            await batcher.stop()  # consumer gone: admissions can only pile up
            batcher.submit(GRAPHS["g7"])
            batcher.submit(GRAPHS["g11"])
            with pytest.raises(ShedError) as excinfo:
                batcher.submit(GRAPHS["g13"])
            assert excinfo.value.retry_after_s == 3.0

        asyncio.run(scenario())

    def test_coalesced_batch_dedupes_and_matches_direct(self, registry, artifacts):
        async def scenario():
            batcher = MicroBatcher(registry, ServeConfig(max_batch=8, max_wait_ms=50))
            await batcher.start()
            graphs = [GRAPHS["g7"], GRAPHS["g11"], GRAPHS["g7"], GRAPHS["g11"], GRAPHS["g7"]]
            futures = [batcher.submit(graph, model="alpha") for graph in graphs]
            responses = await asyncio.gather(*futures)
            await batcher.stop()
            return responses

        responses = asyncio.run(scenario())
        # All five rode one batch with two unique graphs scored once each.
        assert {response["batch"]["size"] for response in responses} == {5}
        assert {response["batch"]["n_unique"] for response in responses} == {2}
        expected = {
            "g7": _reference(artifacts["alpha"], GRAPHS["g7"]),
            "g11": _reference(artifacts["alpha"], GRAPHS["g11"]),
        }
        for response, key in zip(responses, ("g7", "g11", "g7", "g11", "g7")):
            assert response["result"] == expected[key]


# ----------------------------------------------------------------------
class TestScoringServerEndToEnd:
    @pytest.fixture()
    def running(self, registry):
        handle = start_server_thread(registry, ServeConfig(max_batch=8, max_wait_ms=4))
        client = ScoringClient(port=handle.port)
        try:
            yield handle, client
        finally:
            client.close()
            handle.stop()

    def test_health_models_metrics_endpoints(self, running):
        _, client = running
        assert client.healthz() == {"status": "ok", "models": ["alpha", "beta"]}
        described = client.models()
        assert described["default"] == "alpha"
        assert [row["name"] for row in described["models"]] == ["alpha", "beta"]
        metrics = client.metrics()
        for key in (
            "qps_window", "p50_latency_ms", "p95_latency_ms", "batch_size_histogram",
            "shed_total", "dedup_hits_total", "scored_total", "models", "queue",
        ):
            assert key in metrics

    def test_served_response_is_bit_identical_to_direct_call(self, running, artifacts):
        _, client = running
        response = client.score(GRAPHS["g11"], model="alpha")
        assert response["result"] == _reference(artifacts["alpha"], GRAPHS["g11"])
        assert response["model"] == "alpha" and response["version"] == 1
        assert response["graph_fingerprint"] == GRAPHS["g11"].fingerprint()
        assert response["latency_ms"] > 0

    def test_explicit_threshold_is_honoured(self, running, artifacts):
        _, client = running
        response = client.score(GRAPHS["g11"], model="beta", threshold=1e12)
        assert response["result"] == _reference(artifacts["beta"], GRAPHS["g11"], threshold=1e12)
        assert response["result"]["anomalous_groups"] == []

    def test_concurrent_mixed_model_load_parity(self, running, artifacts):
        handle, _ = running
        expected = {
            (model, name): _reference(artifacts[model], GRAPHS[name])
            for model in ("alpha", "beta")
            for name in ("g7", "g11", "g13")
        }
        jobs = [(model, name) for model in ("alpha", "beta") for name in ("g7", "g11", "g13")] * 4

        def worker(job):
            model, name = job
            with ScoringClient(port=handle.port) as client:
                return job, client.score(GRAPHS[name], model=model)

        with ThreadPoolExecutor(max_workers=8) as pool:
            for job, response in pool.map(worker, jobs):
                assert response["result"] == expected[job], f"parity broke for {job}"

    def test_unknown_model_is_404_and_bad_payload_400(self, running):
        _, client = running
        with pytest.raises(ServeError) as excinfo:
            client.score(GRAPHS["g7"], model="gamma")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client.score({"edges": [[0, 1]]})  # missing n_nodes
        assert excinfo.value.status == 400
        wrong_width = Graph(4, [(0, 1)], np.ones((4, 3)))  # artifact wants 12 features
        with pytest.raises(ServeError) as excinfo:
            client.score(wrong_width)
        assert excinfo.value.status == 400
        # The server never trains: an old client asking for a cold fit is
        # refused and pointed at the offline route, not scored warm.
        for mode in ("fit_detect", "training", 1):
            status, _, body = client._request(
                "POST", "/score", {"graph": GRAPHS["g7"].to_json_dict(), "mode": mode}
            )
            assert status == 400, (mode, body)
            assert "python -m repro.parallel fit --out DIR" in body["error"]
            assert "POST /models" in body["error"]
        status, _, body = client._request(
            "POST", "/score", {"graph": GRAPHS["g7"].to_json_dict(), "mode": "detect_only"}
        )
        assert status == 200, body
        assert client.metrics()["scored_total"] == 1

    def test_hot_swap_under_load_never_drops_requests(self, running, artifacts):
        handle, client = running
        expected = {
            1: _reference(artifacts["alpha"], GRAPHS["g11"]),
            2: _reference(artifacts["beta"], GRAPHS["g11"]),
        }
        stop = threading.Event()
        failures = []
        seen_versions = set()

        def hammer():
            try:
                with ScoringClient(port=handle.port) as worker:
                    while not stop.is_set():
                        response = worker.score(GRAPHS["g11"], model="swapped")
                        seen_versions.add(response["version"])
                        if response["result"] != expected[response["version"]]:
                            failures.append(response["version"])
            except Exception as error:  # noqa: BLE001 - surface in the assert
                failures.append(repr(error))

        client.load_model("swapped", artifacts["alpha"])
        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        swap = client.load_model("swapped", artifacts["beta"])
        assert swap["version"] == 2
        time.sleep(0.3)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures, "a response did not match the version that claimed it"
        assert 2 in seen_versions  # the swap actually took effect under load


class TestHttpHardening:
    def test_malformed_content_length_gets_400_not_a_dropped_connection(self, registry):
        import socket

        handle = start_server_thread(registry, ServeConfig())
        try:
            with socket.create_connection(("127.0.0.1", handle.port), timeout=10) as raw:
                raw.sendall(b"POST /score HTTP/1.1\r\nContent-Length: abc\r\n\r\n")
                response = raw.recv(4096)
            assert response.startswith(b"HTTP/1.1 400"), response[:80]
        finally:
            handle.stop()

    def test_non_numeric_threshold_is_400_not_500(self, registry):
        handle = start_server_thread(registry, ServeConfig())
        try:
            with ScoringClient(port=handle.port) as client:
                status, _, body = client._request(
                    "POST", "/score",
                    {"graph": GRAPHS["g7"].to_json_dict(), "threshold": "abc"},
                )
                assert status == 400, body
                status, _, body = client._request(
                    "POST", "/score",
                    {"graph": GRAPHS["g7"].to_json_dict(), "timeout_ms": "soon"},
                )
                assert status == 400, body
        finally:
            handle.stop()

    def test_threshold_and_timeout_must_be_finite_json_numbers(self, registry):
        bad_values = [
            ("threshold", "nan"), ("threshold", "1e309"), ("threshold", True),
            ("threshold", float("nan")), ("threshold", float("inf")), ("threshold", 10 ** 400),
            ("timeout_ms", "100"), ("timeout_ms", False), ("timeout_ms", float("nan")),
            ("timeout_ms", -5), ("timeout_ms", 0),
        ]
        handle = start_server_thread(registry, ServeConfig())
        try:
            with ScoringClient(port=handle.port) as client:
                for key, value in bad_values:
                    # json.dumps writes NaN / Infinity literals, which json.loads accepts.
                    status, _, body = client._request(
                        "POST", "/score", {"graph": GRAPHS["g7"].to_json_dict(), key: value}
                    )
                    assert status == 400, (key, value, body)
                    assert key in body["error"]
                assert client.metrics()["scored_total"] == 0
        finally:
            handle.stop()

    def test_non_finite_features_are_400_before_scoring(self, registry):
        handle = start_server_thread(registry, ServeConfig())
        try:
            with ScoringClient(port=handle.port) as client:
                for bad in (float("nan"), float("inf")):
                    payload = GRAPHS["g7"].to_json_dict()
                    payload["features"][3][0] = bad
                    # json.dumps writes NaN / Infinity, which json.loads accepts.
                    status, _, body = client._request("POST", "/score", {"graph": payload})
                    assert status == 400, body
                    assert "NaN or infinite" in body["error"]
                metrics = client.metrics()
                assert metrics["requests_total"] == 0
                assert metrics["scored_total"] == 0
        finally:
            handle.stop()

    def test_non_integral_node_count_is_400_not_truncated(self, registry):
        handle = start_server_thread(registry, ServeConfig())
        try:
            with ScoringClient(port=handle.port) as client:
                payload = GRAPHS["g7"].to_json_dict()
                payload["n_nodes"] += 0.5
                status, _, body = client._request("POST", "/score", {"graph": payload})
                assert status == 400, body
                assert "n_nodes must be an integer" in body["error"]
                assert client.metrics()["scored_total"] == 0
        finally:
            handle.stop()

    def test_failed_requests_do_not_inflate_dedup_hits(self, registry):
        handle = start_server_thread(registry, ServeConfig())
        try:
            with ScoringClient(port=handle.port) as client:
                with pytest.raises(ServeError):
                    client.score(GRAPHS["g7"], model="gamma")  # unknown model
                assert client.metrics()["dedup_hits_total"] == 0
        finally:
            handle.stop()

    def test_port_conflict_fails_fast_with_cause(self, registry):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        taken_port = blocker.getsockname()[1]
        try:
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="failed to start"):
                start_server_thread(registry, ServeConfig(), port=taken_port)
            assert time.monotonic() - started < 10  # no 30s startup hang
        finally:
            blocker.close()


class TestAdmissionControl:
    def test_shed_returns_429_with_retry_after_and_deadline_504(self, registry, monkeypatch):
        # Hold the scorer on purpose: beta's warm detect_only blocks until
        # the test releases it, so the queue state below is deterministic.
        beta = registry.get("beta").detector
        warm_detect_only = beta.detect_only
        scoring, release = threading.Event(), threading.Event()

        def held_detect_only(graph, threshold=None):
            scoring.set()
            release.wait(timeout=60)
            return warm_detect_only(graph, threshold=threshold)

        monkeypatch.setattr(beta, "detect_only", held_detect_only)
        handle = start_server_thread(
            registry, ServeConfig(max_batch=1, max_wait_ms=0, queue_size=1, retry_after_s=2.0)
        )
        try:
            with ScoringClient(port=handle.port) as client:
                held = {}

                def held_request():
                    with ScoringClient(port=handle.port, timeout=120) as other:
                        held["response"] = other.score(GRAPHS["g7"], model="beta")

                held_thread = threading.Thread(target=held_request)
                held_thread.start()
                assert scoring.wait(timeout=30), "the held request never reached the scorer"

                # This one waits in the 1-slot queue with a 1ms budget — by
                # the time the scorer is released, its deadline is gone: 504.
                doomed = {}

                def doomed_request():
                    with ScoringClient(port=handle.port, timeout=120) as other:
                        try:
                            other.score(GRAPHS["g7"], timeout_ms=1.0)
                        except ServeError as error:
                            doomed["status"] = error.status

                doomed_thread = threading.Thread(target=doomed_request)
                doomed_thread.start()
                deadline = time.monotonic() + 30
                while client.metrics()["requests_total"] < 2:  # admitted = queued
                    assert time.monotonic() < deadline, "the doomed request was never admitted"
                    time.sleep(0.005)

                with pytest.raises(LoadShedError) as excinfo:
                    client.score(GRAPHS["g7"])
                assert excinfo.value.retry_after_s == pytest.approx(2.0)

                release.set()
                held_thread.join(timeout=120)
                doomed_thread.join(timeout=120)
                assert held["response"]["model"] == "beta"
                assert doomed.get("status") == 504

                metrics = client.metrics()
                assert metrics["shed_total"] >= 1
                assert metrics["deadline_expired_total"] >= 1
        finally:
            release.set()
            handle.stop()


class TestServeConfigValidation:
    """A setting that would break every request is refused up front."""

    @pytest.mark.parametrize("timeout_ms", [0.0, -5.0, float("nan")])
    def test_default_timeout_must_be_positive(self, timeout_ms):
        # A non-positive budget put every deadline in the past: 504 for all.
        with pytest.raises(ValueError, match="default_timeout_ms"):
            ServeConfig(default_timeout_ms=timeout_ms)

    def test_job_max_attempts_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="job_max_attempts"):
            ServeConfig(job_max_attempts=0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_max_wait_must_be_finite(self, value):
        # inf left a lone request waiting until its client gave up.
        with pytest.raises(ValueError, match="max_wait_ms"):
            ServeConfig(max_wait_ms=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_job_poll_interval_must_be_finite_and_positive(self, value):
        # <= 0 turned the idle job worker's sleep into a busy loop.
        with pytest.raises(ValueError, match="job_poll_interval_s"):
            ServeConfig(job_poll_interval_s=value)

    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_retry_after_must_be_finite_and_non_negative(self, value):
        # A negative value was sent as "Retry-After: -1".
        with pytest.raises(ValueError, match="retry_after_s"):
            ServeConfig(retry_after_s=value)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_job_lease_ttl_must_be_finite(self, value):
        with pytest.raises(ValueError, match="job_lease_ttl_s"):
            ServeConfig(job_lease_ttl_s=value)

    @pytest.mark.parametrize("value", [0, -5])
    def test_max_body_bytes_must_be_at_least_one(self, value):
        with pytest.raises(ValueError, match="max_body_bytes"):
            ServeConfig(max_body_bytes=value)

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--max-batch", "0", "max_batch"),
            ("--job-max-queued", "0", "quota bounds"),
            ("--job-max-running", "0", "quota bounds"),
            ("--job-max-attempts", "0", "job_max_attempts"),
            ("--timeout-ms", "0", "default_timeout_ms"),
            ("--timeout-ms", "-5", "default_timeout_ms"),
            ("--max-wait-ms", "inf", "max_wait_ms"),
            ("--max-wait-ms", "nan", "max_wait_ms"),
            ("--job-lease-ttl-s", "inf", "job_lease_ttl_s"),
        ],
    )
    def test_cli_rejects_bad_setting_before_loading_artifacts(self, tmp_path, capsys, flag, value, message):
        # The artifact does not exist: had it been loaded first, the error
        # would be a missing-file traceback, not the setting's message.
        missing = str(tmp_path / "no-such-artifact")
        with pytest.raises(SystemExit) as excinfo:
            serve_main(["--artifact", missing, flag, value])
        assert excinfo.value.code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and message in lines[0], lines
        assert lines[0].startswith("python -m repro.serve: error:"), lines


# ----------------------------------------------------------------------
class TestConcurrentWarmInference:
    """Satellite: overlapping ``detect_only`` through one loaded state."""

    def test_threaded_detect_only_matches_serial(self, artifacts):
        detector = TPGrGAD.load(artifacts["alpha"])
        serial = {name: detector.detect_only(graph).to_json_dict() for name, graph in GRAPHS.items()}

        names = list(GRAPHS) * 8  # 24 overlapping calls over 3 graphs
        barrier = threading.Barrier(8)

        def call(name_index):
            name = names[name_index]
            if name_index < 8:
                barrier.wait()  # force a simultaneous first wave
            return name, detector.detect_only(GRAPHS[name]).to_json_dict()

        with ThreadPoolExecutor(max_workers=8) as pool:
            for name, payload in pool.map(call, range(len(names))):
                assert payload == serial[name], f"threaded detect_only diverged on {name}"

    def test_detect_only_still_deterministic_after_thread_storm(self, artifacts):
        detector = TPGrGAD.load(artifacts["alpha"])
        before = detector.detect_only(GRAPHS["g7"]).scores
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda g: detector.detect_only(g), [GRAPHS["g11"]] * 8))
        after = detector.detect_only(GRAPHS["g7"]).scores
        assert np.abs(before - after).max() <= 1e-12
