"""The four workloads: inputs made from the seed, the timed phases, and the
correctness gates.

Every workload drives ``repro`` through a public surface only:
``TPGrGAD.fit_detect`` (``fit``), ``python -m repro.serve`` over HTTP
(``serve``, ``jobs``) and ``IncrementalTPGrGAD.update`` (``stream``).  The
program runs in its own process so set-up time and peak RSS are its own;
this process generates inputs, drives load and checks outputs.
"""

from __future__ import annotations

import http.client
import json
import pickle
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import benchlib
from benchlib import OpLog, median

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_amlpublic, make_burst_stream, make_simml
from repro.graph import Graph, Group
from repro.metrics import evaluate_detection

HERE = Path(__file__).resolve().parent

# Boot polling interval: coarse enough to leave the CPUs to the booting server.
BOOT_POLL_S = 0.01
# Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5
STREAM_SETUP_REPEATS = 3      # each stream set-up includes a ~3 s refit

# fit: one cold fit per distinct graph, simML and AMLPublic alternating,
# sizes spread evenly over ~200-600 nodes.  One fit takes 0.45-1.0 s on a
# 2-vCPU host with one BLAS thread, so 1.1 graphs per second of the run
# keep the timed phase a little under --seconds.  Throughput is the median
# over windows of FIT_WINDOW consecutive fits, each spanning the size range.
FIT_GRAPHS_PER_SECOND = 1.1
FIT_WINDOW = 4
FIT_SCALES = {"simml": (0.07, 0.22), "amlpublic": (0.012, 0.035)}

# serve / jobs: simML graphs of 24 sizes from 225 to 1660 nodes (0.1-0.8 MB
# bodies), every one generated with its own seed.
REQUEST_SCALES = [0.08 + 0.52 * i / 23 for i in range(24)]
# serve: a closed loop on one connection, in windows of one pass over the
# bases.  ~10 req/s on a 2-vCPU host, so 8 per second of the run keep the
# timed phase a little under --seconds.
SERVE_WINDOW = len(REQUEST_SCALES)
SERVE_REQUESTS_PER_SECOND = 8.0
# A run whose generator took this long between a response and its next send is invalid.
MAX_GENERATOR_GAP_S = 0.05
JOB_CONNECTIONS = 2           # one submits, one polls
JOB_TENANTS = 4
JOB_BURSTS = 6                # each drains before the next; latencies are pooled
JOBS_PER_SECOND_OF_RUN = 48 / 15.0   # distinct jobs; plus one resubmit per three
JOB_POLL_S = 0.02

# stream: one simML graph (~1.7k nodes growing to ~1.9k) replayed as a burst
# stream; the seed places the burst ring.  Detection quality of a single
# generated graph varies ~35% across generator seeds, which would swamp
# group_f1, so the graph itself is fixed.
STREAM_SCALE = 0.7
STREAM_DATASET_SEED = 1
STREAM_TICKS_PER_SECOND = 200 / 15.0
STREAM_DRIFT_BUDGET = 0.2
STREAM_PARITY_TOL = 1e-8


class GateError(RuntimeError):
    """A correctness gate failed: the run reports failure, not numbers."""


@dataclass
class Context:
    tmp: Path
    seed: int
    seconds: float
    trace: bool
    env: Dict[str, str]
    info: Dict = field(default_factory=dict)
    _count: int = 0

    def path(self, stem: str) -> Path:
        self._count += 1
        return self.tmp / f"{self._count:03d}-{stem}"


def group_f1(result_json: Dict, truth: List[Group]) -> float:
    """Group-level F1 of the flagged groups against the injected truth."""
    candidates = [Group.from_nodes(nodes) for nodes in result_json["candidate_groups"]]
    flagged = [Group.from_nodes(nodes) for nodes in result_json["anomalous_groups"]]
    return evaluate_detection(
        candidates, np.asarray(result_json["scores"], dtype=float), truth, anomalous_groups=flagged
    ).f1


def as_json(value) -> Dict:
    """The JSON round trip every HTTP response goes through."""
    return json.loads(json.dumps(value))


def stratified(sizes: List[int]) -> List[int]:
    """Indices ordered so that every prefix spans the size range (bit-reversed ranks)."""
    by_size = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))
    bits = max(1, (len(sizes) - 1).bit_length())
    ranks = [int(format(k, f"0{bits}b")[::-1], 2) for k in range(1 << bits)]
    return [by_size[r] for r in ranks if r < len(sizes)]


# ----------------------------------------------------------------------
# The program's process (fit, stream)
# ----------------------------------------------------------------------
def run_program(ctx: Context, mode: str, inputs: Optional[Path], trace: bool = False,
                timeout: float = 170.0) -> Dict:
    out = ctx.path(f"{mode}.json")
    cmd = [sys.executable, str(HERE / "program.py"), mode, str(inputs or "-"), str(out)]
    if trace:
        cmd.append("--trace")
    subprocess.run(cmd, env=ctx.env, check=True, timeout=timeout, stdout=subprocess.DEVNULL)
    with open(out) as fh:
        return json.load(fh)


def warm_up(ctx: Context) -> None:
    """Discarded warm-up before anything is timed: the first sizeable process
    after an idle spell pays extra set-up.  Also records the program's BLAS
    thread count, which every program process inherits from this environment."""
    ctx.info["host"]["blas_threads_program"] = run_program(ctx, "warmup", None)["blas_threads"]


def dump_inputs(ctx: Context, stem: str, payload: Dict) -> Path:
    path = ctx.path(f"{stem}.pkl")
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)
    return path


# ----------------------------------------------------------------------
# fit
# ----------------------------------------------------------------------
def fit_inputs(seed: int, seconds: float) -> List[Graph]:
    """The pool, in an order where every prefix spans the size range."""
    makers = {"simml": make_simml, "amlpublic": make_amlpublic}
    count = FIT_WINDOW * max(3, int(round(FIT_GRAPHS_PER_SECOND * seconds / FIT_WINDOW)))
    graphs = []
    for i in range(count):
        name = "simml" if i % 2 == 0 else "amlpublic"
        low, high = FIT_SCALES[name]
        scale = low + (high - low) * (i // 2) / max(1, (count - 1) // 2)
        graphs.append(makers[name](scale=scale, seed=seed * 1000 + i))
    return [graphs[i] for i in stratified([g.n_nodes for g in graphs])]


def run_fit(ctx: Context) -> Dict:
    graphs = fit_inputs(ctx.seed, ctx.seconds)
    inputs = dump_inputs(ctx, "fit", {"graphs": graphs})
    warm_up(ctx)
    setups = [run_program(ctx, "fit-setup", inputs)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
    out = run_program(ctx, "fit", inputs)
    setups.append(out["setup_s"])
    if not out["repeat_matches"]:
        raise GateError("a repeated cold fit_detect differed from the first")
    log = OpLog()
    for start, end in zip(out["starts_s"], out["ends_s"]):
        log.ok(end - start)
    f1s = [group_f1(result, list(graph.groups)) for result, graph in zip(out["results"], graphs)]
    ctx.info["fit"] = {"graphs": len(graphs), "window": FIT_WINDOW, "nodes": sorted(g.n_nodes for g in graphs)}
    return {
        "log": log,
        "throughput_per_s": benchlib.windowed_rate(out["starts_s"], out["ends_s"], FIT_WINDOW),
        "setups": setups,
        "peak_rss_mb": out["peak_rss_mb"],
        "group_f1": float(np.mean(f1s)),
        "graphs": graphs,
    }


# ----------------------------------------------------------------------
# Request bodies (serve, jobs)
# ----------------------------------------------------------------------
@dataclass
class Request:
    graph: Graph
    body: bytes


def request_pool(seed: int, count: int, salt: int = 0) -> List[Request]:
    """``count`` distinct simML graphs with their encoded ``/score`` bodies.

    Sizes cycle through ``REQUEST_SCALES`` in an order where each prefix of
    a cycle spans the size range, so every ``SERVE_WINDOW`` consecutive
    requests hold one graph of each size.  Every graph has a generator seed
    of its own: per-graph cost varies with the generated structure, and
    averaging over many independent graphs keeps that variation out of the
    medians.  No two bodies share a fingerprint, so server-side dedup cannot
    change batches.
    """
    order = stratified(REQUEST_SCALES)
    pool, seen = [], set()
    for k in range(count):
        scale = REQUEST_SCALES[order[k % len(order)]]
        graph = make_simml(scale=scale, seed=seed * 100_000 + salt * 10_000 + k)
        fingerprint = graph.fingerprint()
        if fingerprint in seen:
            raise RuntimeError(f"request pool repeats graph {k}: dedup would change the workload")
        seen.add(fingerprint)
        body = '{"graph": {"n_nodes": %d, "edges": %s, "features": %s, "name": %s}}' % (
            graph.n_nodes, json.dumps(graph.to_json_dict()["edges"]), json.dumps(graph.features.tolist()),
            json.dumps(graph.name))
        pool.append(Request(graph, body.encode()))
    return pool


def build_artifact(ctx: Context) -> Tuple[Path, Graph]:
    """The served model: fast config fitted on one more simML graph (benchmark's work)."""
    graph = make_simml(scale=0.3, seed=ctx.seed * 1000 + 999)
    detector = TPGrGAD(TPGrGADConfig.fast())
    detector.fit_detect(graph)
    path = ctx.path("artifact")
    detector.save(path)
    return path, graph


# ----------------------------------------------------------------------
# The server process (serve, jobs)
# ----------------------------------------------------------------------
class Server:
    """``python -m repro.serve`` in its own process; ``setup_s`` runs from
    the spawn to the first healthy ``/healthz``."""

    def __init__(self, ctx: Context, artifact: Path, job_store: Optional[Path] = None) -> None:
        self.log_path = ctx.path("server.log")
        cmd = [sys.executable, "-m", "repro.serve", "--artifact", f"bench={artifact}", "--port", "0"]
        if job_store is not None:
            cmd += ["--job-store", str(job_store)]
        started = time.perf_counter()
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(cmd, env=ctx.env, stdout=self._log, stderr=subprocess.STDOUT)
        try:
            self.port = self._wait_port(started + 120)
            self._wait_healthy(started + 120)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_port(self, deadline: float) -> int:
        pattern = re.compile(r"serving on http://[^:\s]+:(\d+)")
        while time.perf_counter() < deadline:
            match = pattern.search(self.log_path.read_text())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited: {self.log_path.read_text()[-2000:]}")
            time.sleep(BOOT_POLL_S)
        raise TimeoutError("server never reported its port")

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                if self.get("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(BOOT_POLL_S)
        raise TimeoutError("server never became healthy")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def get(self, path: str, conn: Optional[http.client.HTTPConnection] = None) -> Tuple[int, Dict]:
        own = conn is None
        conn = conn or self.connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            if own:
                conn.close()

    def peak_rss_mb(self) -> float:
        return benchlib.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def post(conn: http.client.HTTPConnection, path: str, body: bytes,
         headers: Optional[Dict[str, str]] = None) -> Tuple[int, bytes]:
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json", **(headers or {})})
    response = conn.getresponse()
    return response.status, response.read()


def boot(ctx: Context, artifact: Path, jobs: bool) -> Tuple[Server, List[float]]:
    """A discarded warm-up boot, then ``SETUP_REPEATS`` timed boots; the last one stays up."""
    store = (lambda: ctx.path("jobs.sqlite")) if jobs else (lambda: None)
    warm_up(ctx)
    Server(ctx, artifact, store()).stop()
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        server = Server(ctx, artifact, store())
        setups.append(server.setup_s)
        server.stop()
    server = Server(ctx, artifact, store())
    setups.append(server.setup_s)
    return server, setups


def check_served(artifact: Path, requests: List[Request], responses: List[Dict]) -> None:
    """Gate: served ``/score`` results equal in-process ``detect_only`` JSON."""
    detector = TPGrGAD.load(artifact)
    for request, response in zip(requests, responses):
        if response["result"] != as_json(detector.detect_only(request.graph).to_json_dict()):
            raise GateError(f"served result differs from detect_only on {request.graph.name}")


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _handle(status: int, data: bytes, log: OpLog, seconds: float, responses: Dict, index: int) -> None:
    if status == 200:
        log.ok(seconds)
        responses[index] = data
    elif status == 429:
        log.shed_one()
    else:
        log.fail()


def closed_loop(server: Server, requests: List[Request]):
    """One connection; each request is sent as soon as the last one returns."""
    log, starts, ends, responses = OpLog(), [], [], {}
    conn = server.connect()
    try:
        for index, request in enumerate(requests):
            starts.append(time.perf_counter())
            try:
                status, data = post(conn, "/score", request.body)
            except (OSError, http.client.HTTPException):
                conn.close()
                conn = server.connect()
                status, data = 0, b""
            ends.append(time.perf_counter())
            _handle(status, data, log, ends[-1] - starts[-1], responses, index)
    finally:
        conn.close()
    return log, starts, ends, responses


def run_serve(ctx: Context) -> Dict:
    windows = max(3, int(round(SERVE_REQUESTS_PER_SECOND * ctx.seconds / SERVE_WINDOW)))
    requests = request_pool(ctx.seed, windows * SERVE_WINDOW + 4)
    warm, measured = requests[-4:], requests[:-4]
    artifact, train_graph = build_artifact(ctx)
    server, setups = boot(ctx, artifact, jobs=False)
    try:
        with closing(server.connect()) as conn:
            for request in warm:  # discarded warm-up
                post(conn, "/score", request.body)
        log, starts, ends, responses = closed_loop(server, measured)
        metrics = server.get("/metrics")[1]
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    gaps = benchlib.generator_gaps(starts, ends)
    if max(gaps) > MAX_GENERATOR_GAP_S:
        raise GateError(f"generator took {max(gaps) * 1e3:.1f} ms to send a request: run invalid")
    served = {i: as_json(json.loads(data)) for i, data in responses.items()}
    gate = sorted(served)[:: max(1, len(served) // 6)]
    check_served(artifact, [measured[i] for i in gate], [served[i] for i in gate])
    f1s = [group_f1(served[i]["result"], list(measured[i].graph.groups)) for i in sorted(served)]
    ctx.info["serve"] = {
        "requests": len(measured), "window": SERVE_WINDOW, "connections": 1,
        "generator_blas_threads": benchlib.blas_threads(),
        "generator_gap_p50_ms": median(gaps) * 1e3,
        "generator_gap_max_ms": max(gaps) * 1e3,
    }
    return {
        "log": log,
        "throughput_per_s": benchlib.windowed_rate(starts, ends, SERVE_WINDOW),
        "setups": setups,
        "peak_rss_mb": rss,
        "group_f1": float(np.mean(f1s)),
        "artifact": artifact,
        "train_graph": train_graph,
        "requests": measured,
        "surface": {
            "serve.server_p50_ms": metrics["p50_latency_ms"],
            "serve.mean_batch_size": metrics["mean_batch_size"],
            "serve.dedup_hits": metrics["dedup_hits_total"],
            "serve.shed": metrics["shed_total"],
        },
    }


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
def job_plan(n_distinct: int) -> List[int]:
    """Submission order as indices into the distinct pool: every fourth
    submission resubmits the graph sent two slots before it."""
    plan: List[int] = []
    fresh = iter(range(n_distinct))
    while True:
        if len(plan) % 4 == 3:
            plan.append(plan[-2])
            continue
        index = next(fresh, None)
        if index is None:
            return plan
        plan.append(index)


def job_burst(server: Server, requests: List[Request], plan: List[int]):
    """Submit ``plan`` on one connection while another polls for ``done``.

    One operation is one submission, from its send until the client first
    sees its job ``done``.
    """
    submits: List[Tuple[int, float, float, str, str]] = []  # (status, sent, answered, job_id, state)
    finished = threading.Event()

    def submitter() -> None:
        conn = server.connect()
        try:
            for k, index in enumerate(plan):
                sent = time.perf_counter()
                status, data = post(conn, "/jobs", requests[index].body,
                                    {"X-API-Key": f"tenant-{k % JOB_TENANTS}"})
                record = json.loads(data) if status in (200, 202) else {}
                submits.append((status, sent, time.perf_counter(), record.get("job_id", ""),
                                record.get("state", "")))
        finally:
            conn.close()
            finished.set()

    thread = threading.Thread(target=submitter)
    thread.start()
    seen: Dict[str, Tuple[str, float]] = {}
    poller = server.connect()
    deadline = time.perf_counter() + 150
    try:
        while time.perf_counter() < deadline:
            time.sleep(JOB_POLL_S)
            status, listing = server.get(f"/jobs?limit={4 * len(plan)}", poller)
            now = time.perf_counter()
            for record in listing.get("jobs", []):
                if record["state"] in ("done", "failed", "cancelled") and record["job_id"] not in seen:
                    seen[record["job_id"]] = (record["state"], now)
            ids = {s[3] for s in submits if s[3]}
            if finished.is_set() and len(submits) == len(plan) and ids <= set(seen):
                break
    finally:
        poller.close()
        thread.join()
    log = OpLog()
    ends = []
    for status, sent, answered, job_id, state in submits:
        if status == 429:
            log.shed_one()
        elif status not in (200, 202) or job_id not in seen or seen[job_id][0] != "done":
            log.fail()
        else:
            end = answered if state == "done" else max(answered, seen[job_id][1])
            log.ok(end - sent)
            ends.append(end)
    first = submits[0][1] if submits else time.perf_counter()
    return log, (max(ends) - first if ends else 0.0), submits


def jobs_gate(server: Server, requests: List[Request], plan: List[int], submits) -> List[Dict]:
    """Gate: a stored job result equals ``/score`` for the same graph; returns stored responses."""
    stored: Dict[int, Dict] = {}
    with closing(server.connect()) as conn:
        for (status, _, _, job_id, _), index in zip(submits, plan):
            if index not in stored:
                code, record = server.get(f"/jobs/{job_id}/result", conn)
                if code != 200:
                    raise GateError(f"job {job_id} has no stored result (HTTP {code})")
                stored[index] = record["response"]
        for index in sorted(stored)[:2]:
            code, data = post(conn, "/score", requests[index].body)
            if code != 200 or as_json(json.loads(data))["result"] != stored[index]["result"]:
                raise GateError(f"stored job result differs from /score on {requests[index].graph.name}")
    return [stored[i] for i in sorted(stored)]


def run_jobs(ctx: Context) -> Dict:
    per_burst = max(4, int(round(JOBS_PER_SECOND_OF_RUN * ctx.seconds / JOB_BURSTS)))
    n_distinct = per_burst * JOB_BURSTS
    requests = request_pool(ctx.seed, n_distinct + 2, salt=1)
    warm, measured = requests[-2:], requests[:-2]
    # Bursts draw from interleaved slices, so each spans the size range.
    bursts = [list(range(b, n_distinct, JOB_BURSTS)) for b in range(JOB_BURSTS)]
    artifact, train_graph = build_artifact(ctx)
    server, setups = boot(ctx, artifact, jobs=True)
    try:
        job_burst(server, warm, [0, 1])  # discarded warm-up
        before = server.get("/metrics")[1]
        log, busy_s, plan, submits = OpLog(), 0.0, [], []
        for indices in bursts:
            burst_plan = [indices[i] for i in job_plan(len(indices))]
            burst_log, elapsed, burst_submits = job_burst(server, measured, burst_plan)
            log.extend(burst_log)
            busy_s += elapsed
            plan += burst_plan
            submits += burst_submits
        throughput = len(log.latencies_s) / busy_s
        after = server.get("/metrics")[1]
        rss = server.peak_rss_mb()
        stored = jobs_gate(server, measured, plan, submits)
    finally:
        server.stop()
    dedup = after["jobs"]["deduplicated_total"] - before["jobs"]["deduplicated_total"]
    if dedup != len(plan) - n_distinct:
        raise GateError(f"expected {len(plan) - n_distinct} dedup hits, server counted {dedup}")
    f1s = [group_f1(response["result"], list(measured[i].graph.groups)) for i, response in enumerate(stored)]
    batches = after["batches_total"] - before["batches_total"]
    ctx.info["jobs"] = {"bursts": JOB_BURSTS, "submissions": len(plan), "distinct": n_distinct,
                        "tenants": JOB_TENANTS,
                        "connections": JOB_CONNECTIONS, "generator_blas_threads": benchlib.blas_threads(),
                        "poll_s": JOB_POLL_S}
    return {
        "log": log,
        "throughput_per_s": throughput,
        "setups": setups,
        "peak_rss_mb": rss,
        "group_f1": float(np.mean(f1s)),
        "artifact": artifact,
        "train_graph": train_graph,
        "requests": measured,
        "surface": {
            "jobs.submit_ms": median([answered - sent for _, sent, answered, _, _ in submits]) * 1e3,
            "jobs.wait_p50_ms": after["jobs"]["wait_p50_ms"],
            "jobs.run_p50_ms": after["jobs"]["run_p50_ms"],
            "jobs.mean_batch_size": (after["batched_requests_total"] - before["batched_requests_total"])
            / max(1, batches),
            "jobs.dedup_hits": dedup,
        },
    }


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------
def stream_inputs(seed: int, scale: float, n_ticks: int):
    burst_tick = n_ticks // 3 + seed % (n_ticks // 2)
    return make_burst_stream(dataset="simml", scale=scale, seed=STREAM_DATASET_SEED, n_ticks=n_ticks,
                             burst_tick=burst_tick)


def replay(ctx: Context, stream, trace: bool, setups: bool) -> Dict:
    inputs = dump_inputs(ctx, "stream", {
        "base": stream.base, "deltas": stream.deltas,
        "stream_config": {"refit_policy": "budget", "drift_budget": STREAM_DRIFT_BUDGET},
    })
    repeats = STREAM_SETUP_REPEATS - 1 if setups else 0
    samples = [run_program(ctx, "stream-setup", inputs)["setup_s"] for _ in range(repeats)]
    out = run_program(ctx, "stream", inputs, trace=trace)
    out["setups"] = samples + [out["setup_s"]]
    # Gate: the flushed stream equals batch fit_detect on the final snapshot.
    batch = TPGrGAD(TPGrGADConfig.fast()).fit_detect(stream.final)
    scores = np.asarray(out["final_scores"])
    if (len(scores) != batch.n_candidates
            or (len(scores) and np.abs(scores - batch.scores).max() > STREAM_PARITY_TOL)
            or abs(out["final_threshold"] - batch.threshold) > STREAM_PARITY_TOL):
        raise GateError("stream finalize() differs from batch fit_detect on the final snapshot")
    return out


def stream_surface(out: Dict) -> Tuple[Dict[str, float], Dict[str, int]]:
    ticks = out["ticks"]
    incremental = [t for t in ticks if t["mode"] == "incremental"]
    refits = [t["seconds"] for t in ticks if t["mode"] == "refit"]
    pairs = sum(t["pairs_reused"] + t["pairs_recomputed"] for t in incremental)
    embeds = sum(t["embeddings_reused"] + t["embeddings_recomputed"] for t in incremental)
    return {
        "stream.apply_ms": median(out["apply_s"]) * 1e3,
        "graph.k_hop_ball_ms": median(out["k_hop_ball_s"]) * 1e3,
        "stream.incremental_tick_ms": median([t["seconds"] for t in incremental]) * 1e3,
        "stream.dirty_ball_nodes": float(np.mean([t["dirty_ball"] for t in incremental])),
        "stream.pair_hit_ratio": sum(t["pairs_reused"] for t in incremental) / max(1, pairs),
        "stream.embed_hit_ratio": sum(t["embeddings_reused"] for t in incremental) / max(1, embeds),
        "stream.refit_tick_ms": median(refits) * 1e3 if refits else 0.0,
        "stream.n_refits": len(refits),
    }, {"pairs_total": pairs, "embeddings_total": embeds, "incremental_ticks": len(incremental)}


def run_stream(ctx: Context) -> Dict:
    n_ticks = max(30, int(round(STREAM_TICKS_PER_SECOND * ctx.seconds)))
    stream = stream_inputs(ctx.seed, STREAM_SCALE, n_ticks)
    warm_up(ctx)
    out = replay(ctx, stream, ctx.trace, setups=True)
    log = OpLog()
    for tick in out["ticks"]:
        log.ok(tick["seconds"])
    ctx.info["stream"] = {"ticks": n_ticks, "base_nodes": stream.base.n_nodes,
                          "final_nodes": stream.final.n_nodes, "drift_budget": STREAM_DRIFT_BUDGET,
                          "refits": sum(t["mode"] == "refit" for t in out["ticks"])}
    result = {
        "log": log,
        "elapsed_s": out["elapsed_s"],
        "setups": out["setups"],
        "peak_rss_mb": out["peak_rss_mb"],
        "group_f1": group_f1(out["final"], list(stream.groups)),
        "stream": stream,
    }
    if ctx.trace:
        result["surface"], ctx.info["stream_ratio_bases"] = stream_surface(out)
    return result


WORKLOADS = {"fit": run_fit, "serve": run_serve, "jobs": run_jobs, "stream": run_stream}
