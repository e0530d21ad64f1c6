"""The traced run: a per-layer profile timed from outside the program.

Spans wrap calls to each layer's public functions; nothing inside ``repro``
is instrumented.  The cold pipeline is called stage by stage
(``MultiHopGAE.fit`` / ``score_nodes``, ``select_anchor_nodes``,
``CandidateGroupSampler.sample``, ``TPGCL.fit`` / ``embed_groups``,
``get_detector(...).fit_scores``) and the warm path step by step (decode,
bind, score, sample, embed, outlier, encode); both must reproduce the
untraced public call exactly.  Layers behind a surface the workload does
not drive itself (the server, the job API, the stream) are measured by a
short probe of that surface, so every traced run reports every metric.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import closing, contextmanager
from typing import Dict, List, Tuple

import numpy as np

from benchlib import Span, Spans, median
from workloads import (
    Context, GateError, Request, Server, job_burst, job_plan, post, replay,
    stream_inputs, stream_surface,
)

from repro.core import TPGrGAD, TPGrGADConfig
from repro.core.result import GroupDetectionResult
from repro.datasets import make_simml
from repro.gae import MultiHopGAE, select_anchor_nodes
from repro.gcl import TPGCL
from repro.graph import Graph
from repro.graph.adjacency import graphsnn_weighted_adjacency, normalized_adjacency
from repro.jobs import JobStore
from repro.outlier import get_detector
from repro.persist import PipelineState, to_native
from repro.sampling import CandidateGroupSampler

WARM_GRAPHS = 8
PROBE_STREAM = (0.2, 40)   # (simML scale, ticks) of the stream probe
PER_LAYER = [
    "graph.target_ms", "graph.decode_ms", "graph.k_hop_ball_ms",
    "gae.fit_ms", "gae.epoch_ms", "gae.fit_cpu_ratio", "gae.fit_peak_mb", "gae.score_ms",
    "gae.score_peak_mb", "gae.warm_score_ms", "gae.warm_peak_mb",
    "persist.load_ms", "persist.bind_ms",
    "sampling.sample_ms", "sampling.n_pairs", "sampling.n_candidates",
    "gcl.fit_ms", "gcl.epoch_ms", "gcl.embed_ms", "gcl.warm_embed_ms",
    "outlier.score_ms", "core.detect_only_ms",
    "serve.overhead_ms", "serve.encode_ms", "serve.server_p50_ms", "serve.mean_batch_size",
    "serve.dedup_hits", "serve.shed",
    "jobs.submit_ms", "jobs.wait_p50_ms", "jobs.run_p50_ms", "jobs.mean_batch_size", "jobs.dedup_hits",
    "jobs.store_submit_ms", "jobs.store_claim_ms", "jobs.store_complete_ms",
    "stream.apply_ms", "stream.incremental_tick_ms", "stream.dirty_ball_nodes", "stream.pair_hit_ratio",
    "stream.embed_hit_ratio", "stream.refit_tick_ms", "stream.n_refits",
    "trace.overhead_pct",
]


@contextmanager
def numpy_peak(span: Span):
    """tracemalloc peak (numpy allocations included) of the block, in MB."""
    tracemalloc.start()
    try:
        yield
    finally:
        span.attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()


def _mean_features(graph: Graph, candidates) -> np.ndarray:
    return np.vstack([graph.features[list(group.nodes)].mean(axis=0) for group in candidates])


def _score(spans: Spans, config, candidates, embeddings, anchors, node_scores) -> GroupDetectionResult:
    with spans.span("outlier.score"):
        scores = get_detector(config.detector).fit_scores(embeddings)
    threshold = float(np.quantile(scores, 1.0 - config.contamination))
    return GroupDetectionResult(
        candidate_groups=list(candidates), scores=scores, threshold=threshold,
        anomalous_groups=[g.with_score(float(s)) for g, s in zip(candidates, scores) if s >= threshold],
        anchor_nodes=np.asarray(anchors), embeddings=embeddings, node_scores=node_scores,
    )


def _sample(spans: Spans, config, graph: Graph, anchors):
    with spans.span("sampling.sample") as span:
        candidates = CandidateGroupSampler(config.sampler).sample(graph, anchors)
    k = len(anchors)
    span.attrs["n_pairs"] = min(k * (k - 1) // 2, config.sampler.max_anchor_pairs)
    span.attrs["n_candidates"] = len(candidates)
    if len(candidates) < 2:
        raise GateError(f"{graph.name}: too few candidates to profile the TPGCL stage")
    return candidates


def profile_fit(spans: Spans, graph: Graph) -> Tuple[TPGrGAD, float, float]:
    """Cold fit, untraced through ``fit_detect`` and traced stage by stage."""
    config = TPGrGADConfig.fast()
    detector = TPGrGAD(config)
    began = time.perf_counter()
    reference = detector.fit_detect(graph)
    untraced = time.perf_counter() - began

    with spans.span("graph.target", op="fit"):
        graphsnn_weighted_adjacency(graph, lam=config.mhgae.graphsnn_lambda)
        normalized_adjacency(graph, sparse=config.mhgae.sparse_propagation)
    began = time.perf_counter()
    with spans.span("core.fit", op="fit"):
        with spans.span("gae.fit") as span, numpy_peak(span):
            mhgae = MultiHopGAE(config.mhgae).fit(graph)
        span.attrs["epochs"] = mhgae.training_result.epochs_run
        with spans.span("gae.score") as span, numpy_peak(span):
            node_scores = mhgae.score_nodes()
        anchors = select_anchor_nodes(node_scores, fraction=config.anchor_fraction, maximum=config.max_anchors)
        candidates = _sample(spans, config, graph, anchors)
        with spans.span("gcl.fit") as span:
            tpgcl = TPGCL(config.tpgcl).fit(graph, candidates)
        span.attrs["epochs"] = tpgcl.training_result.epochs_run
        with spans.span("gcl.embed"):
            embeddings = np.hstack([tpgcl.embed_groups(graph, candidates), _mean_features(graph, candidates)])
        result = _score(spans, config, candidates, embeddings, anchors, node_scores)
    traced = time.perf_counter() - began
    if not np.array_equal(result.scores, reference.scores):
        raise GateError(f"stage-by-stage fit of {graph.name} does not reproduce fit_detect")
    return detector, untraced, traced


def _warm_steps(spans: Spans, state: PipelineState, graph: Graph, k: int) -> GroupDetectionResult:
    config = state.config
    with spans.span("core.warm", op=f"warm{k}"):
        with spans.span("persist.bind"):
            mhgae = state.bind_mhgae(graph)
        with spans.span("gae.warm_score") as span, numpy_peak(span):
            node_scores = mhgae.score_nodes()
        anchors = select_anchor_nodes(node_scores, fraction=config.anchor_fraction, maximum=config.max_anchors)
        candidates = _sample(spans, config, graph, anchors)
        with spans.span("gcl.warm_embed"):
            embeddings = np.hstack([state.bind_tpgcl().embed_groups(graph, candidates),
                                    _mean_features(graph, candidates)])
        return _score(spans, config, candidates, embeddings, anchors, node_scores)


def profile_warm(spans: Spans, artifact, graphs: List[Graph]) -> Tuple[List[float], List[float], List[Dict]]:
    """Warm path per graph: untraced ``detect_only`` vs decode → bind → … → encode.

    The two alternate which runs first, so neither always meets warmer caches.
    """
    with spans.span("persist.load", op="load"):
        state = PipelineState.load(artifact)
    detector = TPGrGAD.from_state(state)
    untraced, traced, results = [], [], []
    for k, graph in enumerate(graphs):
        payload = json.loads(json.dumps({"graph": graph.to_json_dict()}))["graph"]
        with spans.span("graph.decode", op=f"warm{k}"):
            decoded = Graph.from_json_dict(payload)
        for untraced_turn in ((True, False) if k % 2 == 0 else (False, True)):
            began = time.perf_counter()
            if untraced_turn:
                expected = detector.detect_only(decoded).to_json_dict()
                untraced.append(time.perf_counter() - began)
            else:
                result = _warm_steps(spans, state, decoded, k)
                traced.append(time.perf_counter() - began)
        with spans.span("serve.encode", op=f"warm{k}"):
            json.dumps(to_native(result.to_json_dict()))
        if result.to_json_dict() != expected:
            raise GateError(f"step-by-step warm scoring of {graph.name} does not reproduce detect_only")
        results.append(expected)
    return untraced, traced, results


def profile_store(spans: Spans, ctx: Context, graphs: List[Graph], results: List[Dict], config_hash: str) -> None:
    """The public ``JobStore`` API on a scratch store with the same payloads."""
    with JobStore(str(ctx.path("profile.sqlite"))) as store:
        for k, graph in enumerate(graphs):
            graph_json = json.dumps(to_native(graph.to_json_dict()), sort_keys=True)
            with spans.span("jobs.store_submit", op="store"):
                store.submit(tenant=f"tenant-{k % 4}", model="bench", model_version=1, config_hash=config_hash,
                             mode="detect_only", graph_fingerprint=graph.fingerprint(), graph_json=graph_json)
        by_fingerprint = {g.fingerprint(): r for g, r in zip(graphs, results)}
        while True:
            with spans.span("jobs.store_claim", op="store") as span:
                claimed = store.claim("perfbench", limit=8)
            if not claimed:
                spans.spans.remove(span)
                break
            for record in claimed:
                with spans.span("jobs.store_complete", op="store"):
                    store.complete(record.job_id, {"result": by_fingerprint[record.graph_fingerprint]})


def probe_server(ctx: Context, artifact, requests: List[Request], detect_only_s: List[float]) -> Dict[str, float]:
    """One server with a job store: each graph scored alone, then a small job burst."""
    server = Server(ctx, artifact, ctx.path("probe.sqlite"))
    try:
        served = []
        with closing(server.connect()) as conn:
            post(conn, "/score", requests[0].body)  # discarded warm-up
            for request in requests:
                began = time.perf_counter()
                status, _ = post(conn, "/score", request.body)
                if status != 200:
                    raise GateError(f"probe /score answered HTTP {status}")
                served.append(time.perf_counter() - began)
        scored = server.get("/metrics")[1]
        plan = job_plan(len(requests))
        _, _, submits = job_burst(server, requests, plan)
        after = server.get("/metrics")[1]
    finally:
        server.stop()
    batches = after["batches_total"] - scored["batches_total"]
    return {
        "serve.overhead_ms": median([s - d for s, d in zip(served, detect_only_s)]) * 1e3,
        "serve.server_p50_ms": scored["p50_latency_ms"],
        "serve.mean_batch_size": scored["mean_batch_size"],
        "serve.dedup_hits": scored["dedup_hits_total"],
        "serve.shed": scored["shed_total"],
        "jobs.submit_ms": median([answered - sent for _, sent, answered, _, _ in submits]) * 1e3,
        "jobs.wait_p50_ms": after["jobs"]["wait_p50_ms"],
        "jobs.run_p50_ms": after["jobs"]["run_p50_ms"],
        "jobs.mean_batch_size": (after["batched_requests_total"] - scored["batched_requests_total"]) / max(1, batches),
        "jobs.dedup_hits": after["jobs"]["deduplicated_total"],
    }


def profile(ctx: Context, workload: str, run: Dict) -> Tuple[Dict[str, float], Spans]:
    """Every per-layer metric, on this workload's own inputs."""
    spans = Spans()
    TPGrGAD(TPGrGADConfig.fast()).fit_detect(make_simml(scale=0.1, seed=ctx.seed))  # discarded warm-up
    if workload == "fit":
        by_size = sorted(run["graphs"], key=lambda g: g.n_nodes)
        fit_graph = by_size[len(by_size) // 2]
        warm = [g for g in run["graphs"] if g is not fit_graph
                and g.n_features == fit_graph.n_features][:WARM_GRAPHS]
    elif workload == "stream":
        fit_graph, warm = run["stream"].base, [run["stream"].base, run["stream"].final]
    else:
        fit_graph, warm = run["train_graph"], [r.graph for r in run["requests"][:WARM_GRAPHS]]
    detector, fit_untraced, fit_traced = profile_fit(spans, fit_graph)
    artifact = run.get("artifact")
    if artifact is None:
        artifact = ctx.path("artifact")
        detector.save(artifact)
    warm_untraced, warm_traced, results = profile_warm(spans, artifact, warm)
    profile_store(spans, ctx, warm, results, detector.config.content_hash())

    metrics: Dict[str, float] = {}
    for name in ("graph.target", "graph.decode", "gae.fit", "gae.score", "gae.warm_score", "persist.load",
                 "persist.bind", "sampling.sample", "gcl.fit", "gcl.embed", "gcl.warm_embed", "outlier.score",
                 "serve.encode", "jobs.store_submit", "jobs.store_claim", "jobs.store_complete"):
        metrics[f"{name}_ms"] = spans.median_ms(name)
    by_name = {s.name: s for s in spans.spans}  # the last span of each name
    gae_fit, gcl_fit = by_name["gae.fit"], by_name["gcl.fit"]
    metrics["gae.epoch_ms"] = gae_fit.seconds / gae_fit.attrs["epochs"] * 1e3
    metrics["gae.fit_cpu_ratio"] = gae_fit.cpu_s / gae_fit.seconds
    metrics["gae.fit_peak_mb"] = gae_fit.attrs["peak_mb"]
    metrics["gae.score_peak_mb"] = by_name["gae.score"].attrs["peak_mb"]
    metrics["gae.warm_peak_mb"] = max(s.attrs["peak_mb"] for s in spans.spans if s.name == "gae.warm_score")
    metrics["gcl.epoch_ms"] = gcl_fit.seconds / gcl_fit.attrs["epochs"] * 1e3
    sampled = [s for s in spans.spans if s.name == "sampling.sample"]
    metrics["sampling.n_pairs"] = median([s.attrs["n_pairs"] for s in sampled])
    metrics["sampling.n_candidates"] = median([s.attrs["n_candidates"] for s in sampled])
    metrics["core.detect_only_ms"] = median(warm_untraced) * 1e3

    requests = run.get("requests") or [
        Request(g, json.dumps({"graph": g.to_json_dict()}).encode()) for g in warm]
    metrics.update(probe_server(ctx, artifact, requests[:len(warm)], warm_untraced))
    if workload != "stream":
        out = replay(ctx, stream_inputs(ctx.seed, *PROBE_STREAM), trace=True, setups=False)
        metrics.update(stream_surface(out)[0])
    metrics.update(run.get("surface", {}))  # the workload's own surface measurements win

    if workload in ("fit", "stream"):
        untraced, traced = fit_untraced, fit_traced
    else:
        untraced, traced = sum(warm_untraced), sum(warm_traced)
    metrics["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise GateError(f"traced run did not measure {sorted(missing)}")
    return {name: float(metrics[name]) for name in PER_LAYER}, spans
