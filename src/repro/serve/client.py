"""Blocking stdlib HTTP client for the scoring service.

:class:`ScoringClient` wraps one keep-alive ``http.client`` connection —
exactly what a closed-loop load-generator worker or a monitoring script
needs.  It is **not** thread-safe (HTTP/1.1 pipelining is not attempted);
give each thread its own client, as the throughput benchmark does.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.parse
from typing import Dict, Optional, Tuple, Union

from repro.graph import Graph


class ServeError(RuntimeError):
    """A non-2xx response from the scoring service."""

    def __init__(self, status: int, payload: Dict) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class JobFailedError(ServeError):
    """An async job finished in a terminal non-``done`` state."""


class LoadShedError(ServeError):
    """429 — the server shed the request; honour ``retry_after_s``."""

    def __init__(self, status: int, payload: Dict, retry_after_s: float) -> None:
        super().__init__(status, payload)
        self.retry_after_s = retry_after_s


class DeadlineError(ServeError):
    """504 — the request's deadline budget expired while queued."""


class ScoringClient:
    """Talk to a running :class:`~repro.serve.ScoringServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        timeout: float = 60.0,
        api_key: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.api_key = api_key
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, payload: Optional[Dict] = None) -> Tuple[int, Dict[str, str], Dict]:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        if self.api_key is not None:
            headers["X-API-Key"] = self.api_key
        for attempt in (0, 1):
            if self._conn is None:
                self._conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
            try:
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                raw = response.read()
                return response.status, dict(response.getheaders()), json.loads(raw) if raw else {}
            except (http.client.HTTPException, ConnectionError, BrokenPipeError):
                # A keep-alive connection the server already closed; retry
                # once on a fresh one, then let the error surface.
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def _checked(self, method: str, path: str, payload: Optional[Dict] = None) -> Dict:
        status, headers, body = self._request(method, path, payload)
        if status == 429:
            retry_after = float(
                headers.get("Retry-After", headers.get("retry-after", "1")) or 1
            )
            raise LoadShedError(status, body, retry_after)
        if status == 504:
            raise DeadlineError(status, body)
        if status >= 400:
            raise ServeError(status, body)
        return body

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> Dict:
        return self._checked("GET", "/healthz")

    def metrics(self) -> Dict:
        return self._checked("GET", "/metrics")

    def models(self) -> Dict:
        return self._checked("GET", "/models")

    def load_model(self, name: str, path: str, default: bool = False) -> Dict:
        """Load (or atomically hot-swap) a model from an artifact directory."""
        return self._checked("POST", "/models", {"name": name, "path": str(path), "default": default})

    def score(
        self,
        graph: Union[Graph, Dict],
        model: Optional[str] = None,
        threshold: Optional[float] = None,
        timeout_ms: Optional[float] = None,
    ) -> Dict:
        """Score one graph; returns the full response payload.

        ``payload["result"]`` is bit-identical to
        ``detector.detect_only(graph).to_json_dict()`` on the served
        artifact — micro-batching on the server changes latency, never
        scores.
        """
        body: Dict = {"graph": graph.to_json_dict() if isinstance(graph, Graph) else graph}
        if model is not None:
            body["model"] = model
        if threshold is not None:
            body["threshold"] = float(threshold)
        if timeout_ms is not None:
            body["timeout_ms"] = float(timeout_ms)
        return self._checked("POST", "/score", body)

    # ------------------------------------------------------------------
    # Async batch jobs
    # ------------------------------------------------------------------
    def submit_job(
        self,
        graph: Union[Graph, Dict],
        model: Optional[str] = None,
        threshold: Optional[float] = None,
    ) -> Dict:
        """Enqueue a durable job; returns the job record (202 new, 200 dedup).

        Resubmitting an identical ``(graph, config, model, version,
        threshold)`` returns the *existing* record with
        ``deduplicated=True`` instead of queueing duplicate work.
        """
        body: Dict = {"graph": graph.to_json_dict() if isinstance(graph, Graph) else graph}
        if model is not None:
            body["model"] = model
        if threshold is not None:
            body["threshold"] = float(threshold)
        return self._checked("POST", "/jobs", body)

    def job(self, job_id: str) -> Dict:
        """The current record for one job (state, attempts, timings)."""
        return self._checked("GET", f"/jobs/{job_id}")

    def job_result(self, job_id: str) -> Dict:
        """The stored response of a ``done`` job.

        Raises :class:`ServeError` with status 409 while the job is still
        queued or running (``Retry-After`` tells you when to poll again),
        500 if it failed, 410 if it was cancelled.
        """
        return self._checked("GET", f"/jobs/{job_id}/result")

    def cancel_job(self, job_id: str) -> Dict:
        """Cancel a queued job (idempotent once cancelled)."""
        return self._checked("DELETE", f"/jobs/{job_id}")

    def jobs(
        self,
        tenant: Optional[str] = None,
        state: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Dict:
        """List job records, newest first, optionally filtered."""
        params = {}
        if tenant is not None:
            params["tenant"] = tenant
        if state is not None:
            params["state"] = state
        if limit is not None:
            params["limit"] = str(int(limit))
        path = "/jobs"
        if params:
            path += "?" + urllib.parse.urlencode(params)
        return self._checked("GET", path)

    def wait_job(self, job_id: str, timeout: float = 60.0, poll_interval: float = 0.05) -> Dict:
        """Poll until the job reaches a terminal state, then fetch its result.

        Returns the ``/jobs/{id}/result`` body for a ``done`` job.  Raises
        :class:`JobFailedError` if the job failed or was cancelled, and
        :class:`TimeoutError` if it is still pending after ``timeout``.
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record.get("state") in ("done", "failed", "cancelled"):
                break
            if time.monotonic() >= deadline:
                raise TimeoutError(f"job {job_id} still {record.get('state')!r} after {timeout}s")
            time.sleep(poll_interval)
        status, _, body = self._request("GET", f"/jobs/{job_id}/result")
        if status >= 400:
            raise JobFailedError(status, body)
        return body

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ScoringClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
