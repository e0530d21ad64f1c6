"""Tests for the observability subsystem (``repro.obs``).

Covers the guarantees the subsystem advertises:

* **Tracer** — nesting/parenting through :mod:`contextvars`, counters
  and attributes, JSONL round-trips, bounded retention, the reusable
  no-op default, and propagation across threads and worker processes.
* **Bit-identity** — ``fit_detect`` with tracing enabled produces
  exactly the result of the untraced run (instrumentation touches no
  RNG), while emitting the expected span names.
* **Stats parity** — the shared :mod:`repro.obs.stats` helpers compute
  exactly what ``ServerMetrics`` and ``ReplaySummary`` computed before
  the refactor (both surfaces now delegate to them).
* **Prometheus rendering** — counter/gauge typing, label escaping, the
  per-model section.
* **Logging** — trace-id correlation in formatted records.
* **Provenance** — record build/append/read round-trip, bit-for-bit
  replay verification, and tamper / wrong-graph detection.
* **CLI** — ``python -m repro.obs summarize|diff|verify``.
"""

from __future__ import annotations

import contextvars
import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from io import StringIO

import numpy as np
import pytest

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_example_graph
from repro.gae import MHGAEConfig
from repro.gcl import TPGCLConfig
from repro.graph import Graph
from repro.obs import (
    NULL_TRACER,
    LatencyWindow,
    ProvenanceLog,
    Span,
    Tracer,
    build_record,
    canonical_json,
    get_tracer,
    percentile,
    read_log,
    score_digest,
    set_tracer,
    use_tracer,
    verify_log,
    verify_record,
)
from repro.obs.__main__ import diff_summaries, main as obs_main, summarize_spans
from repro.obs.logging import get_logger, setup_logging
from repro.obs.prometheus import render_prometheus
from repro.obs.tracer import current_span_id, current_trace_id
from repro.sampling import SamplerConfig


def _tiny_config(seed: int = 3) -> TPGrGADConfig:
    return TPGrGADConfig(
        mhgae=MHGAEConfig(epochs=6, hidden_dim=16, embedding_dim=8),
        sampler=SamplerConfig(max_candidates=60, max_anchor_pairs=80),
        tpgcl=TPGCLConfig(epochs=2, hidden_dim=16, embedding_dim=16, batch_size=16),
        max_anchors=12,
        seed=seed,
    )


GRAPH = make_example_graph(seed=5)


# ----------------------------------------------------------------------
class TestTracerCore:
    def test_null_tracer_is_the_default_and_free(self):
        tracer = get_tracer()
        assert tracer is NULL_TRACER
        assert not tracer.enabled
        assert current_trace_id() is None
        handle = tracer.span("anything", attr=1)
        # Reusable singleton handle: no allocation on the disabled path.
        assert tracer.span("other") is handle
        with handle as h:
            h.add("counter")
            h.set("key", "value")
        assert tracer.spans == []

    def test_span_nesting_and_parenting(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("outer") as outer:
                assert current_span_id() == outer.span.span_id
                with tracer.span("inner") as inner:
                    assert inner.span.parent_id == outer.span.span_id
                    with tracer.span("leaf") as leaf:
                        assert leaf.span.parent_id == inner.span.span_id
        spans = {s.name: s for s in tracer.spans}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["leaf"].parent_id == spans["inner"].span_id
        assert all(s.trace_id == tracer.trace_id for s in tracer.spans)
        assert all(s.duration_s >= 0.0 for s in tracer.spans)

    def test_counters_attrs_and_tracer_add(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("work", kind="test") as span:
                span.add("items", 3)
                span.add("items", 2)
                # tracer.add targets the innermost open span in-context.
                tracer.add("retries")
                span.set("note", "hello")
        (span,) = tracer.spans
        assert span.counters == {"items": 5, "retries": 1}
        assert span.attrs == {"kind": "test", "note": "hello"}

    def test_exception_marks_error_and_still_records(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(RuntimeError):
                with tracer.span("doomed"):
                    raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.attrs["error"] == "RuntimeError"

    def test_max_spans_bounds_memory(self):
        tracer = Tracer(max_spans=3)
        with use_tracer(tracer):
            for i in range(5):
                with tracer.span(f"s{i}"):
                    pass
        assert len(tracer.spans) == 3
        assert tracer.dropped == 2

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("a", k="v") as span:
                span.add("n", 2)
                with tracer.span("b"):
                    pass
        path = tracer.dump_jsonl(str(tmp_path / "trace.jsonl"))
        loaded = Tracer.load_jsonl(path)
        assert [s.to_json_dict() for s in loaded] == [s.to_json_dict() for s in tracer.spans]

    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
            inner = Tracer()
            with use_tracer(inner):
                assert get_tracer() is inner
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_copied_context_carries_span_into_threads(self):
        """The serve executor pattern: copy_context().run on a thread."""
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("batch") as batch:
                context = contextvars.copy_context()

                def work():
                    with tracer.span("scored"):
                        pass

                with ThreadPoolExecutor(max_workers=1) as pool:
                    pool.submit(context.run, work).result()
        spans = {s.name: s for s in tracer.spans}
        assert spans["scored"].parent_id == batch.span.span_id

    def test_plain_threads_start_fresh_chains(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("main-chain"):
                done = threading.Event()

                def work():
                    with tracer.span("other-thread"):
                        pass
                    done.set()

                thread = threading.Thread(target=work)
                thread.start()
                thread.join()
                assert done.is_set()
        spans = {s.name: s for s in tracer.spans}
        assert spans["other-thread"].parent_id is None

    def test_worker_shard_tracer_parents_under_scheduling_span(self):
        """What executor workers do: child tracer with inherited ids."""
        parent = Tracer()
        with use_tracer(parent):
            with parent.span("parallel.fit_detect_many") as sched:
                child = Tracer(trace_id=parent.trace_id, parent_span_id=sched.span.span_id)
                with use_tracer(child):
                    with child.span("parallel.chunk"):
                        pass
                merged = parent.ingest(child.spans)
        assert merged == 1
        spans = {s.name: s for s in parent.spans}
        chunk = spans["parallel.chunk"]
        assert chunk.trace_id == parent.trace_id
        assert chunk.parent_id == spans["parallel.fit_detect_many"].span_id


# ----------------------------------------------------------------------
class TestPipelineInstrumentation:
    def test_traced_fit_detect_is_bit_identical_and_emits_spans(self):
        baseline = TPGrGAD(_tiny_config()).fit_detect(GRAPH)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = TPGrGAD(_tiny_config()).fit_detect(GRAPH)
        assert canonical_json(traced.to_json_dict()) == canonical_json(baseline.to_json_dict())

        names = {s.name for s in tracer.spans}
        assert {
            "pipeline.fit_detect", "stage.anchors", "stage.sampling", "stage.embed",
            "stage.score", "gae.fit", "gae.epoch", "tpgcl.fit", "tpgcl.epoch",
            "tpgcl.augment",
        } <= names
        fit = next(s for s in tracer.spans if s.name == "pipeline.fit_detect")
        assert fit.attrs["n_nodes"] == GRAPH.n_nodes
        gae = next(s for s in tracer.spans if s.name == "gae.fit")
        assert gae.counters["optimizer_steps"] > 0
        assert gae.counters["tape_node_count"] > 0
        tpgcl = next(s for s in tracer.spans if s.name == "tpgcl.fit")
        assert tpgcl.counters["optimizer_steps"] > 0

    def test_detect_only_spans(self):
        detector = TPGrGAD(_tiny_config())
        detector.fit_detect(GRAPH)
        tracer = Tracer()
        with use_tracer(tracer):
            detector.detect_only(GRAPH)
        names = [s.name for s in tracer.spans]
        assert "pipeline.detect_only" in names
        assert "stage.warm_bind" in names and "stage.warm_embed" in names

    def test_stream_tick_spans(self):
        from repro.datasets.stream import make_event_stream
        from repro.stream import IncrementalTPGrGAD, StreamConfig

        stream = make_event_stream(dataset="example", seed=0, n_ticks=2)
        detector = IncrementalTPGrGAD(
            stream.base, _tiny_config(), StreamConfig(refit_policy="never")
        )
        tracer = Tracer()
        with use_tracer(tracer):
            for delta in stream.deltas:
                detector.update(delta)
        ticks = [s for s in tracer.spans if s.name == "stream.tick"]
        assert len(ticks) == len(stream.deltas)
        assert all("mode" in s.attrs and "dirty_fraction" in s.attrs for s in ticks)
        assert all(s.counters.get("n_touched", 0) >= 0 for s in ticks)

    def test_parallel_workers_merge_shards_into_parent_trace(self):
        from repro.parallel import ParallelExecutor

        graphs = [make_example_graph(seed=s) for s in (5, 6)]
        executor = ParallelExecutor(_tiny_config(), n_workers=2, chunk_size=1)
        tracer = Tracer()
        with use_tracer(tracer):
            results = executor.fit_detect_many(graphs)
        assert len(results) == 2
        spans = tracer.spans
        sched = next(s for s in spans if s.name == "parallel.fit_detect_many")
        chunks = [s for s in spans if s.name == "parallel.chunk"]
        assert len(chunks) == 2
        assert all(c.trace_id == tracer.trace_id for c in chunks)
        assert all(c.parent_id == sched.span_id for c in chunks)
        # Worker pipeline spans came along inside the shard files.
        assert sum(1 for s in spans if s.name == "pipeline.fit_detect") == 2


# ----------------------------------------------------------------------
class TestStatsParity:
    def test_percentile_matches_numpy_and_empty_convention(self):
        rng = np.random.default_rng(0)
        values = rng.exponential(0.05, size=257).tolist()
        for q in (50, 90, 95, 99):
            assert percentile(values, q) == float(np.percentile(values, q))
        assert percentile([], 95) == 0.0

    def test_latency_window_matches_seed_server_metrics_math(self):
        """Byte-for-byte what ServerMetrics computed before the refactor."""
        rng = np.random.default_rng(1)
        window = LatencyWindow(maxlen=64)
        samples = []
        t = 100.0
        for latency in rng.exponential(0.02, size=100):
            t += float(rng.uniform(0.001, 0.05))
            window.record(float(latency), at=t)
            samples.append((t, float(latency)))
        samples = samples[-64:]  # the seed's deque(maxlen=...) behaviour

        values = [s for _, s in samples]
        expected = {
            "p50_latency_ms": round(float(np.percentile(values, 50)) * 1e3, 3),
            "p95_latency_ms": round(float(np.percentile(values, 95)) * 1e3, 3),
        }
        assert window.percentiles_ms((50, 95)) == expected

        now = t + 0.5
        expected_qps = len(samples) / max(now - samples[0][0], 1e-9)
        assert window.window_qps(now) == expected_qps

    def test_window_qps_fewer_than_two_samples_is_zero(self):
        window = LatencyWindow()
        assert window.window_qps(10.0) == 0.0
        window.record(0.01, at=1.0)
        assert window.window_qps(10.0) == 0.0
        window.record(0.01, at=2.0)
        assert window.window_qps(10.0) > 0.0

    def test_replay_summary_percentile_delegates_to_shared_helper(self):
        from repro.stream.replay import ReplaySummary

        values = [0.4, 0.1, 0.25, 0.9, 0.02]
        assert ReplaySummary._percentile(values, 95) == percentile(values, 95)
        assert ReplaySummary._percentile([], 50) == 0.0

    def test_server_metrics_uses_shared_window(self):
        from repro.serve.metrics import ServerMetrics

        metrics = ServerMetrics(latency_window=8)
        assert isinstance(metrics._latencies, LatencyWindow)
        for latency in (0.010, 0.020, 0.030):
            metrics.record_scored(latency)
            metrics.record_admitted()
        snap = metrics.snapshot()
        assert snap["p50_latency_ms"] == round(float(np.percentile([10.0, 20.0, 30.0], 50)), 3)
        assert snap["scored_total"] == 3


# ----------------------------------------------------------------------
class TestPrometheus:
    SNAPSHOT = {
        "uptime_seconds": 12.5,
        "requests_total": 7,
        "scored_total": 6,
        "responses_by_status": {200: 6, 429: 1},
        "batch_size_histogram": {1: 2, 4: 1},
        "p50_latency_ms": 4.2,
        "queue": {"depth": 0, "capacity": 128},
        "models": {
            "fraud": {
                "version": 3,
                "swap_count": 2,
                "config_hash": "abcdef0123456789ffff",
                "requests_served": 5,
                "tape_nodes_total": 123,
            }
        },
    }

    def test_typing_counters_vs_gauges(self):
        text = render_prometheus(self.SNAPSHOT)
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 7" in text
        assert "# TYPE repro_uptime_seconds gauge" in text
        assert "repro_uptime_seconds 12.5" in text

    def test_labelled_families(self):
        text = render_prometheus(self.SNAPSHOT)
        assert 'repro_responses_by_status_total{status="200"} 6' in text
        assert 'repro_responses_by_status_total{status="429"} 1' in text
        assert 'repro_batch_size_count{size="4"} 1' in text
        assert "repro_queue_depth 0" in text

    def test_model_section(self):
        text = render_prometheus(self.SNAPSHOT)
        assert 'repro_model_info{model="fraud",version="3",config_hash="abcdef012345"} 1' in text
        assert 'repro_model_swap_count{model="fraud"} 2' in text
        assert 'repro_model_requests_served{model="fraud"} 5' in text
        assert 'repro_model_tape_nodes_total{model="fraud"} 123' in text

    def test_label_escaping(self):
        text = render_prometheus({"models": {'we"ird\\name\n': {"version": 1}}})
        assert '\\"' in text and "\\\\" in text and "\\n" in text

    def test_each_family_typed_once(self):
        text = render_prometheus(self.SNAPSHOT)
        type_lines = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert len(type_lines) == len(set(type_lines))


# ----------------------------------------------------------------------
class TestLogging:
    def test_trace_id_correlation(self):
        stream = StringIO()
        setup_logging(stream=stream)
        try:
            log = get_logger("test")
            log.info("outside")
            tracer = Tracer()
            with use_tracer(tracer):
                with tracer.span("op"):
                    log.info("inside")
            output = stream.getvalue()
        finally:
            setup_logging()  # restore the default stderr handler
        lines = output.strip().splitlines()
        assert "[trace=-] outside" in lines[0]
        assert f"[trace={tracer.trace_id}] inside" in lines[1]
        assert "repro.test" in lines[1]

    def test_setup_is_idempotent(self):
        logger = setup_logging()
        logger_again = setup_logging()
        assert logger is logger_again
        marked = [h for h in logger.handlers if getattr(h, "_repro_obs_handler", False)]
        assert len(marked) == 1

    def test_get_logger_namespacing(self):
        assert get_logger("serve").name == "repro.serve"
        assert get_logger("repro.parallel").name == "repro.parallel"


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """One fitted artifact plus its detection result on GRAPH."""
    detector = TPGrGAD(_tiny_config())
    result = detector.fit_detect(GRAPH)
    path = detector.save(tmp_path_factory.mktemp("obs-artifact") / "model")
    warm = detector.detect_only(GRAPH)
    return {"path": str(path), "detector": detector, "result": result, "warm": warm}


class TestProvenance:
    def _record(self, fitted, graph=GRAPH, **overrides):
        kwargs = dict(
            model="m",
            version=1,
            config_hash=fitted["detector"].config.content_hash(),
            graph_fingerprint=graph.fingerprint(),
            result_json=fitted["warm"].to_json_dict(),
            graph=graph,
        )
        kwargs.update(overrides)
        return build_record(**kwargs)

    def test_score_digest_is_canonical(self, fitted):
        result_json = fitted["warm"].to_json_dict()
        assert score_digest(result_json) == score_digest(json.loads(canonical_json(result_json)))

    def test_log_append_read_roundtrip(self, fitted, tmp_path):
        path = tmp_path / "prov.jsonl"
        with ProvenanceLog(path) as log:
            first = log.append(self._record(fitted))
            log.append(self._record(fitted))
            assert log.appended == 2
        records = read_log(path)
        assert len(records) == 2
        assert records[0]["record_id"] == first["record_id"]
        assert records[0]["schema"] == 1
        assert records[0]["n_candidates"] == fitted["warm"].n_candidates

    def test_verify_record_replays_bit_for_bit(self, fitted):
        outcome = verify_record(self._record(fitted), fitted["path"])
        assert outcome.ok, outcome.describe()
        assert outcome.replayed_digest == score_digest(fitted["warm"].to_json_dict())

    def test_verify_uses_supplied_graph_when_not_embedded(self, fitted):
        record = self._record(fitted, graph=GRAPH)
        del record["graph"]
        assert not verify_record(record, fitted["path"]).ok  # no graph at all
        assert verify_record(record, fitted["path"], graph=GRAPH).ok

    def test_verify_detects_tampered_scores(self, fitted):
        record = self._record(fitted)
        record["score_digest"] = "0" * 32
        outcome = verify_record(record, fitted["path"])
        assert not outcome.ok and "digest" in outcome.reason

    def test_verify_detects_wrong_graph(self, fitted):
        record = self._record(fitted)
        outcome = verify_record(record, fitted["path"], graph=make_example_graph(seed=99))
        assert not outcome.ok and "fingerprint" in outcome.reason

    def test_verify_detects_wrong_artifact_config(self, fitted, tmp_path):
        other = TPGrGAD(_tiny_config(seed=4))
        other.fit_detect(GRAPH)
        other_path = other.save(tmp_path / "other")
        outcome = verify_record(self._record(fitted), other_path)
        assert not outcome.ok and "config_hash" in outcome.reason

    def test_verify_refuses_a_served_fit_record(self, fitted):
        # An older server logged served cold fits; their digest is the fit's.
        record = self._record(fitted, result_json=fitted["result"].to_json_dict())
        record["mode"] = "fit_detect"
        outcome = verify_record(record, fitted["path"])
        assert not outcome.ok
        assert "served fit" in outcome.reason and "digest" not in outcome.reason
        assert outcome.replayed_digest == ""  # refused before any replay

    def test_verify_log_batches(self, fitted, tmp_path):
        path = tmp_path / "prov.jsonl"
        with ProvenanceLog(path) as log:
            log.append(self._record(fitted))
            bad = self._record(fitted)
            bad["score_digest"] = "f" * 32
            log.append(bad)
        outcomes = verify_log(path, fitted["path"])
        assert [o.ok for o in outcomes] == [True, False]

    def test_records_carry_trace_context(self, fitted):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("serve.score_group") as span:
                record = self._record(fitted)
        assert record["trace_id"] == tracer.trace_id
        assert record["span_id"] == span.span.span_id


# ----------------------------------------------------------------------
class TestCLI:
    def _make_trace(self, path):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("pipeline.fit_detect") as span:
                span.add("retries")
                with tracer.span("gae.fit"):
                    pass
        tracer.dump_jsonl(str(path))
        return tracer

    def test_summarize(self, tmp_path, capsys):
        tracer = self._make_trace(tmp_path / "t.jsonl")
        assert obs_main(["summarize", str(tmp_path / "t.jsonl")]) == 0
        out = capsys.readouterr().out
        assert tracer.trace_id in out
        assert "pipeline.fit_detect" in out and "gae.fit" in out
        assert "retries=1" in out
        assert "2 spans" in out

    def test_diff(self, tmp_path, capsys):
        self._make_trace(tmp_path / "a.jsonl")
        self._make_trace(tmp_path / "b.jsonl")
        assert obs_main(["diff", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "pipeline.fit_detect" in out and "delta" in out.splitlines()[0]

    def test_verify_command_exit_codes(self, fitted, tmp_path, capsys):
        log_path = tmp_path / "prov.jsonl"
        record = build_record(
            model="m", version=1,
            config_hash=fitted["detector"].config.content_hash(),
            graph_fingerprint=GRAPH.fingerprint(),
            result_json=fitted["warm"].to_json_dict(),
            graph=GRAPH,
        )
        with ProvenanceLog(log_path) as log:
            log.append(record)
        assert obs_main(["verify", "--log", str(log_path), "--artifact", fitted["path"]]) == 0
        assert "1/1 records verified" in capsys.readouterr().out

        tampered = dict(record, score_digest="0" * 32)
        with ProvenanceLog(log_path) as log:
            log.append(tampered)
        assert obs_main(["verify", "--log", str(log_path), "--artifact", fitted["path"]]) == 1

    def test_summarize_counts_orphan_roots(self):
        spans = [
            Span("root", "t", "s1", None, 0.0, duration_s=1.0),
            Span("orphan", "t", "s2", "unknown-parent", 0.0, duration_s=1.0),
            Span("child", "t", "s3", "s1", 0.0, duration_s=0.5),
        ]
        rows = {r["name"]: r for r in summarize_spans(spans)}
        # Both the true root and the orphan count toward root wall time.
        assert rows["root"]["share_pct"] == pytest.approx(50.0)
        assert rows["child"]["share_pct"] == pytest.approx(25.0)

    def test_diff_flags_new_and_vanished_stages(self):
        a = summarize_spans([Span("a-only", "t", "s1", None, 0.0, duration_s=1.0)])
        b = summarize_spans([Span("b-only", "t", "s2", None, 0.0, duration_s=2.0)])
        rows = {r["name"]: r for r in diff_summaries(a, b)}
        assert rows["a-only"]["status"] == "only-in-a"
        assert rows["b-only"]["status"] == "only-in-b"
        assert rows["b-only"]["delta_pct"] == float("inf")
