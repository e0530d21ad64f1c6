"""Stdlib-only asyncio HTTP front end of the scoring service.

A deliberately small HTTP/1.1 implementation over ``asyncio.start_server``
(keep-alive, ``Content-Length`` bodies, JSON in/out) — no third-party web
framework, matching the project's numpy/scipy-only dependency policy.

Endpoints
---------
``POST /score``
    Body: ``{"graph": <Graph.to_json_dict()>, "model": name?,
    "threshold": float?, "mode": "detect_only"|"fit_detect"?,
    "timeout_ms": float?}``.  The request rides a micro-batch (see
    :mod:`repro.serve.batcher`); the response carries the result JSON
    plus model attribution and batch/latency metadata.  ``429`` +
    ``Retry-After`` under load shedding, ``504`` on an expired deadline,
    ``404`` for unknown models, ``400`` for malformed payloads (a
    ``threshold`` / ``timeout_ms`` must be a finite JSON number, and
    ``timeout_ms`` must be positive).
``GET /models`` / ``POST /models``
    List loaded models, or load/hot-swap one from an artifact directory
    (body ``{"name": ..., "path": ..., "default": bool?}``).
``GET /healthz``
    Liveness + the loaded model names (cheap: never touches the scorer).
``GET /metrics``
    JSON counters: qps, batch-size histogram, latency percentiles, shed
    count, plus each model's identity and serving counters (and, with a job
    store configured, the ``jobs`` section: queue depth, per-tenant
    counters, wait/run latency percentiles).
``POST /jobs`` / ``GET /jobs`` / ``GET /jobs/{id}`` /
``GET /jobs/{id}/result`` / ``DELETE /jobs/{id}``
    The durable async batch API (requires ``ServeConfig.job_store_path``;
    see :mod:`repro.jobs`).  Submissions are deduplicated by full input
    identity and quota-bounded per tenant — the tenant is the
    ``X-API-Key`` request header (fallback: a ``tenant`` body field,
    then ``"public"``).  ``POST`` answers ``202`` for a newly queued job
    and ``200`` when deduplicated onto an existing one; quota violations
    get the same ``429`` + ``Retry-After`` treatment as load shedding.
    Stored results are the exact ``/score`` response payload, so
    ``python -m repro.obs verify`` replays them bit-for-bit.

Every response body is JSON serialised through
:func:`repro.persist.to_native`, so numpy scalars from any layer can
never corrupt the wire format.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import urllib.parse
from typing import Dict, Optional, Tuple

from repro.graph import Graph
from repro.jobs.store import JobStore, QuotaExceededError, TenantQuota, UnknownJobError
from repro.jobs.worker import JobWorker
from repro.obs.prometheus import CONTENT_TYPE as _PROMETHEUS_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.obs.tracer import get_tracer
from repro.persist import to_native
from repro.serve.batcher import (
    MODES,
    DeadlineExceededError,
    MicroBatcher,
    RequestError,
    ServeConfig,
    ShedError,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.registry import ModelRegistry

_STATUS_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _HttpError(Exception):
    def __init__(self, status: int, message: str, headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class ScoringServer:
    """The long-running detector: registry + micro-batcher + HTTP front end."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: Optional[ServeConfig] = None,
        metrics: Optional[ServerMetrics] = None,
    ) -> None:
        self.registry = registry
        self.config = config or ServeConfig()
        self.metrics = metrics or ServerMetrics()
        self.batcher = MicroBatcher(registry, self.config, self.metrics)
        self.job_store: Optional[JobStore] = (
            JobStore(
                self.config.job_store_path,
                quota=TenantQuota(
                    max_queued=self.config.job_max_queued,
                    max_running=self.config.job_max_running,
                ),
            )
            if self.config.job_store_path
            else None
        )
        self.job_worker: Optional[JobWorker] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the listener and start the batcher; returns the bound port.

        The listener binds *before* the batcher task starts, so a bind
        failure (port in use) leaves nothing running to clean up.
        """
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        await self.batcher.start()
        if self.job_store is not None:
            self.job_worker = JobWorker(
                self.job_store,
                self.batcher,
                self.metrics,
                lease_ttl_s=self.config.job_lease_ttl_s,
                poll_interval_s=self.config.job_poll_interval_s,
                max_attempts=self.config.job_max_attempts,
            )
            await self.job_worker.start()
        self.host = host
        self.port = int(self._server.sockets[0].getsockname()[1])
        return self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, drain: bool = False) -> None:
        """Tear the service down; ``drain=True`` is the graceful path.

        Graceful order: stop accepting connections, stop the job worker
        (claimed-but-unscored jobs go back to ``queued`` — the lease
        release), drain the micro-batcher so every admitted request is
        answered, then close the sqlite store cleanly.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.job_worker is not None:
            await self.job_worker.stop()
            self.job_worker = None
        # Idle keep-alive connections block on readline forever; cancel
        # them so shutdown never hangs on a client that forgot to close.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        await self.batcher.stop(drain=drain)
        if self.job_store is not None:
            self.job_store.close()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    # Unparseable request: answer once, then drop the
                    # connection (framing is no longer trustworthy).
                    self.metrics.record_response(error.status)
                    writer.write(self._encode_response(error.status, {"error": str(error)}, error.headers))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, query, headers, body = request
                loop = asyncio.get_running_loop()
                started = loop.time()
                tracer = get_tracer()
                with tracer.span("serve.request", method=method, path=path) as span:
                    try:
                        status, payload, extra = await self._dispatch(
                            method, path, body, query=query, headers=headers
                        )
                    except _HttpError as error:
                        status, payload, extra = error.status, {"error": str(error)}, error.headers
                    except Exception as error:  # noqa: BLE001 - last-resort 500
                        status, payload, extra = 500, {"error": f"internal error: {error}"}, {}
                    if tracer.enabled:
                        span.set("status", status)
                if path == "/score" and status == 200:
                    payload["latency_ms"] = round((loop.time() - started) * 1e3, 3)
                self.metrics.record_response(status)
                writer.write(self._encode_response(status, payload, extra))
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass
        except asyncio.CancelledError:  # server shutdown
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, str, Dict[str, str], bytes]]:
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line {request_line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or 0)
        except ValueError:
            raise _HttpError(400, f"malformed Content-Length {headers['content-length']!r}") from None
        if length < 0:
            raise _HttpError(400, f"malformed Content-Length {length}")
        if length > self.config.max_body_bytes:
            raise _HttpError(413, f"body of {length} bytes exceeds the {self.config.max_body_bytes} limit")
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return method, path, query, headers, body

    @staticmethod
    def _encode_response(status: int, payload, extra_headers: Dict[str, str]) -> bytes:
        # A str payload is pre-rendered text (the Prometheus exposition);
        # anything else is serialised as JSON through to_native.
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = _PROMETHEUS_CONTENT_TYPE
        else:
            body = json.dumps(to_native(payload)).encode()
            content_type = "application/json"
        reason = _STATUS_REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
        return ("\r\n".join(lines) + "\r\n\r\n").encode() + body

    @staticmethod
    def _parse_json(body: bytes) -> Dict:
        if not body:
            raise _HttpError(400, "request body must be a JSON object")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as error:
            raise _HttpError(400, f"invalid JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: bytes, query: str = "", headers: Optional[Dict[str, str]] = None
    ) -> Tuple[int, Dict, Dict[str, str]]:
        headers = headers or {}
        if path == "/healthz" and method == "GET":
            return 200, {"status": "ok", "models": self.registry.names()}, {}
        if path == "/metrics" and method == "GET":
            payload = self._metrics_payload()
            if self._wants_prometheus(query, headers.get("accept", "")):
                return 200, render_prometheus(payload), {}
            return 200, payload, {}
        if path == "/models":
            if method == "GET":
                return 200, self.registry.describe(), {}
            if method == "POST":
                return 200, await self._load_model(self._parse_json(body)), {}
            raise _HttpError(405, f"{method} not allowed on /models")
        if path == "/score":
            if method != "POST":
                raise _HttpError(405, f"{method} not allowed on /score")
            return 200, await self._score(self._parse_json(body)), {}
        if path == "/jobs":
            if method == "POST":
                return self._submit_job(self._parse_json(body), headers)
            if method == "GET":
                return 200, self._list_jobs(query), {}
            raise _HttpError(405, f"{method} not allowed on /jobs")
        if path.startswith("/jobs/"):
            return self._job_route(method, path)
        raise _HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _wants_prometheus(query: str, accept: str) -> bool:
        """Content negotiation for ``/metrics``: JSON unless asked otherwise.

        ``?format=prometheus`` always wins; an ``Accept`` header
        preferring ``text/plain`` (no JSON mentioned) also selects the
        exposition format, which is how Prometheus itself scrapes.
        """
        if "format=prometheus" in query.split("&"):
            return True
        accept = accept.lower()
        return ("text/plain" in accept or "openmetrics" in accept) and "json" not in accept

    def _metrics_payload(self) -> Dict:
        payload = self.metrics.snapshot()
        payload["models"] = {
            row["name"]: {
                "version": row["version"],
                "swap_count": row["swap_count"],
                "config_hash": row["config_hash"],
                "loaded_at_unix": row["loaded_at_unix"],
                "requests_served": row["requests_served"],
                "tape_nodes_total": row["tape_nodes_total"],
            }
            for row in self.registry.describe()["models"]
        }
        payload["queue"] = {
            "capacity": self.config.queue_size,
            "max_batch": self.config.max_batch,
            "max_wait_ms": self.config.max_wait_ms,
        }
        if self.job_store is not None:
            jobs = self.metrics.job_snapshot()
            jobs["queue_depth"] = self.job_store.counts()
            tenants = jobs.get("tenants", {})
            for tenant in self.job_store.tenants():
                depth = self.job_store.counts(tenant)
                row = tenants.setdefault(tenant, {})
                row["queued"] = depth["queued"]
                row["running"] = depth["running"]
            jobs["quota"] = {
                "max_queued": self.config.job_max_queued,
                "max_running": self.config.job_max_running,
            }
            payload["jobs"] = jobs
        return payload

    async def _load_model(self, payload: Dict) -> Dict:
        name, path = payload.get("name"), payload.get("path")
        if not name or not path:
            raise _HttpError(400, "POST /models requires 'name' and 'path'")
        try:
            # Reading arrays.npz for a large model can take a while; keep
            # the event loop (health probes, admission) responsive by
            # loading in a worker thread — the registry locks internally
            # and swaps atomically, so concurrent loads are safe.
            entry = await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: self.registry.load(name, path, default=bool(payload.get("default", False))),
            )
        except FileNotFoundError as error:
            raise _HttpError(404, str(error)) from None
        except ValueError as error:
            raise _HttpError(400, str(error)) from None
        return entry.describe()

    @staticmethod
    def _parse_graph(payload: Dict, endpoint: str) -> Graph:
        graph_payload = payload.get("graph")
        if not isinstance(graph_payload, dict):
            raise _HttpError(400, f"POST {endpoint} requires a 'graph' object (Graph.to_json_dict())")
        try:
            return Graph.from_json_dict(graph_payload)
        except (ValueError, TypeError) as error:
            raise _HttpError(400, f"invalid graph payload: {error}") from None

    @staticmethod
    def _parse_number(payload: Dict, key: str, positive: bool = False) -> Optional[float]:
        """An optional finite JSON number; strings, booleans, NaN and ±inf answer 400."""
        value = payload.get(key)
        if value is None:
            return None
        message = f"'{key}' must be a finite JSON number"
        # ``type`` rather than ``isinstance``: JSON true/false decode to bool, an int subclass.
        if type(value) not in (int, float):
            raise _HttpError(400, message)
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond float range
            raise _HttpError(400, message) from None
        if not math.isfinite(number):
            raise _HttpError(400, message)
        if positive and number <= 0:
            raise _HttpError(400, f"'{key}' must be > 0")
        return number

    async def _score(self, payload: Dict) -> Dict:
        graph = self._parse_graph(payload, "/score")
        threshold = self._parse_number(payload, "threshold")
        timeout_ms = self._parse_number(payload, "timeout_ms", positive=True)
        try:
            future = self.batcher.submit(
                graph,
                model=payload.get("model"),
                threshold=threshold,
                mode=payload.get("mode", "detect_only"),
                timeout_ms=timeout_ms,
            )
            return await future
        except ShedError as error:
            raise _HttpError(
                429, str(error), headers={"Retry-After": f"{error.retry_after_s:.0f}"}
            ) from None
        except DeadlineExceededError as error:
            raise _HttpError(504, str(error)) from None
        except RequestError as error:
            raise _HttpError(error.status, str(error)) from None

    # ------------------------------------------------------------------
    # Async batch jobs (requires ServeConfig.job_store_path)
    # ------------------------------------------------------------------
    def _jobs_store(self) -> JobStore:
        if self.job_store is None:
            raise _HttpError(503, "no job store configured; start the server with --job-store PATH")
        return self.job_store

    @staticmethod
    def _tenant_of(payload: Dict, headers: Dict[str, str]) -> str:
        return headers.get("x-api-key") or str(payload.get("tenant") or "public")

    def _submit_job(self, payload: Dict, headers: Dict[str, str]) -> Tuple[int, Dict, Dict[str, str]]:
        store = self._jobs_store()
        tenant = self._tenant_of(payload, headers)
        mode = payload.get("mode", "detect_only")
        if mode not in MODES:
            raise _HttpError(400, f"unknown mode {mode!r}; expected one of {MODES}")
        graph = self._parse_graph(payload, "/jobs")
        threshold = self._parse_number(payload, "threshold")
        try:
            entry = self.registry.get(payload.get("model"))
        except KeyError as error:
            raise _HttpError(404, str(error)) from None
        try:
            outcome = store.submit(
                tenant=tenant,
                model=entry.name,
                model_version=entry.version,
                config_hash=entry.config_hash,
                mode=mode,
                threshold=threshold,
                graph_fingerprint=graph.fingerprint(),
                graph_json=json.dumps(to_native(graph.to_json_dict()), sort_keys=True),
            )
        except QuotaExceededError as error:
            self.metrics.record_job_quota_shed(tenant)
            raise _HttpError(
                429, str(error), headers={"Retry-After": f"{error.retry_after_s:.0f}"}
            ) from None
        self.metrics.record_job_submitted(tenant, deduplicated=not outcome.created)
        body = outcome.record.describe()
        body["deduplicated"] = not outcome.created
        body["revived"] = outcome.revived
        return (202 if outcome.created else 200), body, {}

    def _get_job(self, job_id: str):
        try:
            return self._jobs_store().get(job_id)
        except UnknownJobError as error:
            raise _HttpError(404, str(error)) from None

    def _job_route(self, method: str, path: str) -> Tuple[int, Dict, Dict[str, str]]:
        rest = path[len("/jobs/"):]
        job_id, slash, tail = rest.partition("/")
        if not job_id:
            raise _HttpError(404, f"no route for {method} {path}")
        if slash:
            if tail != "result":
                raise _HttpError(404, f"no route for {method} {path}")
            if method != "GET":
                raise _HttpError(405, f"{method} not allowed on /jobs/{{id}}/result")
            return self._job_result(job_id)
        if method == "GET":
            return 200, self._get_job(job_id).describe(), {}
        if method == "DELETE":
            return self._cancel_job(job_id)
        raise _HttpError(405, f"{method} not allowed on /jobs/{{id}}")

    def _job_result(self, job_id: str) -> Tuple[int, Dict, Dict[str, str]]:
        record = self._get_job(job_id)
        if record.state == "done":
            return 200, {"job_id": record.job_id, "state": "done", "response": record.result}, {}
        if record.state == "failed":
            return 500, {
                "job_id": record.job_id, "state": "failed",
                "error": record.error, "attempts": record.attempts,
            }, {}
        if record.state == "cancelled":
            return 410, {"job_id": record.job_id, "state": "cancelled"}, {}
        # queued / running: not an error, just not done yet — poll again.
        return 409, {"job_id": record.job_id, "state": record.state}, {"Retry-After": "1"}

    def _cancel_job(self, job_id: str) -> Tuple[int, Dict, Dict[str, str]]:
        store = self._jobs_store()
        try:
            record = store.cancel(job_id)
        except UnknownJobError as error:
            raise _HttpError(404, str(error)) from None
        except ValueError as error:
            raise _HttpError(409, str(error)) from None
        self.metrics.record_job_cancelled(record.tenant)
        return 200, record.describe(), {}

    def _list_jobs(self, query: str) -> Dict:
        store = self._jobs_store()
        params = urllib.parse.parse_qs(query)
        tenant = params.get("tenant", [None])[0]
        state = params.get("state", [None])[0]
        try:
            limit = int(params.get("limit", ["100"])[0])
        except ValueError:
            raise _HttpError(400, "'limit' must be an integer") from None
        try:
            records = store.list(tenant=tenant, state=state, limit=limit)
        except ValueError as error:
            raise _HttpError(400, str(error)) from None
        return {
            "jobs": [record.describe() for record in records],
            "counts": store.counts(tenant),
        }


# ----------------------------------------------------------------------
# Threaded harness (tests, benchmarks, the example client)
# ----------------------------------------------------------------------
class ServerHandle:
    """A running :class:`ScoringServer` on a background event-loop thread."""

    def __init__(self, server: ScoringServer, loop: asyncio.AbstractEventLoop, thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host or "127.0.0.1"

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    def stop(self, timeout: float = 10.0, drain: bool = False) -> None:
        """Stop the server and join the loop thread (idempotent).

        ``drain=True`` runs the graceful path: admitted requests are
        answered and claimed jobs released before the loop exits.
        """
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(self.server.stop(drain=drain), self._loop).result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_server_thread(
    registry: ModelRegistry,
    config: Optional[ServeConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ServerHandle:
    """Run a :class:`ScoringServer` on a daemon thread; returns its handle.

    ``port=0`` binds an ephemeral port (read it from ``handle.port``).
    The in-process equivalent of ``python -m repro.serve`` used by the
    test suite, the throughput benchmark and ``examples/serving_client.py``.
    """
    started = threading.Event()
    box: Dict[str, object] = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = ScoringServer(registry, config)
        try:
            loop.run_until_complete(server.start(host, port))
        except Exception as error:  # noqa: BLE001 - re-raised in the caller
            box["error"] = error
            loop.run_until_complete(server.stop())  # tear down anything half-started
            started.set()
            loop.close()
            return
        box["server"], box["loop"] = server, loop
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=30):  # pragma: no cover - startup hang
        raise RuntimeError("scoring server failed to start within 30s")
    if "error" in box:
        raise RuntimeError(f"scoring server failed to start: {box['error']}") from box["error"]
    return ServerHandle(box["server"], box["loop"], thread)  # type: ignore[arg-type]
