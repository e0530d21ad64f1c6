"""Append-only provenance log for served detections, plus a replay verifier.

Every record ties one response to the exact inputs that produced it:

* ``model`` / ``version`` — which registry entry scored it,
* ``config_hash`` — :meth:`TPGrGADConfig.content_hash` of that entry,
* ``graph_fingerprint`` — :meth:`Graph.fingerprint` of the scored graph,
* ``score_digest`` — blake2b over the canonical JSON of
  ``result.to_json_dict()``.

Because ``detect_only`` is deterministic given (artifact, graph), a
logged response can be *replayed*: :func:`verify_record` re-runs the
detection against the artifact and checks the digest bit-for-bit.  With
``include_graph`` the graph itself is embedded in the record, making the
log self-contained; otherwise the verifier needs the graph supplied (or
looked up by fingerprint via :func:`verify_log`'s ``graphs`` mapping).
A ``mode="fit_detect"`` record, left by a server that still trained on
request, names no artifact that scored it and fails verification.

Records are JSON lines; :class:`ProvenanceLog` only ever appends, under
a lock, flushing per record so a crash loses at most the in-flight line.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.tracer import current_span_id, current_trace_id
from repro.persist.serialize import to_native

__all__ = [
    "PROVENANCE_SCHEMA_VERSION",
    "ProvenanceLog",
    "VerificationResult",
    "build_record",
    "canonical_json",
    "read_log",
    "score_digest",
    "verify_log",
    "verify_record",
]

PROVENANCE_SCHEMA_VERSION = 1


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: native types, sorted keys, no whitespace."""
    return json.dumps(to_native(payload), sort_keys=True, separators=(",", ":"))


def score_digest(result_json: Dict[str, Any]) -> str:
    """blake2b-16 over the canonical JSON of a result's wire form."""
    return hashlib.blake2b(canonical_json(result_json).encode("utf-8"), digest_size=16).hexdigest()


def build_record(
    *,
    model: str,
    version: int,
    config_hash: str,
    graph_fingerprint: str,
    result_json: Dict[str, Any],
    threshold: Optional[float] = None,
    digest: Optional[str] = None,
    graph: Optional[Any] = None,
) -> Dict[str, Any]:
    """Assemble one provenance record for a served response.

    ``digest`` lets batch callers that scored one graph for several
    duplicate requests hash the result once; ``graph`` (a
    :class:`repro.graph.Graph`) embeds the full graph for self-contained
    replay.
    """
    record: Dict[str, Any] = {
        "schema": PROVENANCE_SCHEMA_VERSION,
        "record_id": uuid.uuid4().hex[:16],
        "unix_time": time.time(),
        "trace_id": current_trace_id(),
        "span_id": current_span_id(),
        "model": model,
        "version": int(version),
        "config_hash": config_hash,
        "graph_fingerprint": graph_fingerprint,
        "mode": "detect_only",
        "threshold": threshold,
        "n_candidates": len(result_json.get("scores", [])),
        "n_anomalous": len(result_json.get("anomalous_groups", [])),
        "score_digest": digest if digest is not None else score_digest(result_json),
    }
    if graph is not None:
        record["graph"] = graph.to_json_dict()
    return record


class ProvenanceLog:
    """Thread-safe append-only JSONL writer."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")
        self._appended = 0

    def append(self, record: Dict[str, Any]) -> Dict[str, Any]:
        line = json.dumps(to_native(record), sort_keys=True)
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()
            self._appended += 1
        return record

    @property
    def appended(self) -> int:
        with self._lock:
            return self._appended

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "ProvenanceLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def read_log(path: str) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


@dataclass
class VerificationResult:
    """Outcome of replaying one provenance record."""

    record_id: str
    ok: bool
    reason: str = ""
    replayed_digest: str = ""

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        suffix = f" ({self.reason})" if self.reason else ""
        return f"{self.record_id}: {status}{suffix}"


def _fail(record: Dict[str, Any], reason: str) -> VerificationResult:
    return VerificationResult(record_id=record.get("record_id", "?"), ok=False, reason=reason)


def verify_record(
    record: Dict[str, Any],
    artifact_path: str,
    graph: Optional[Any] = None,
    detector: Optional[Any] = None,
) -> VerificationResult:
    """Replay one record against a saved artifact and compare digests.

    The graph comes from ``graph=`` or, failing that, the record's own
    embedded copy.  ``detector`` lets :func:`verify_log` amortize the
    artifact load across records; when given it must be the detector
    loaded from ``artifact_path``.
    """
    from repro.core import TPGrGAD
    from repro.graph import Graph

    mode = record.get("mode", "detect_only")
    if mode != "detect_only":
        # Served fits were trained on the fly, so no artifact commits to
        # what scored them: nothing can replay such a record.
        return _fail(record, f"mode {mode!r} was a served fit with no artifact to replay")
    if graph is None:
        if "graph" not in record:
            return _fail(record, "no embedded graph; pass graph= or log with include_graph")
        graph = Graph.from_json_dict(record["graph"])
    if graph.fingerprint() != record["graph_fingerprint"]:
        return _fail(record, "graph fingerprint mismatch")

    if detector is None:
        detector = TPGrGAD.load(artifact_path)
    if detector.config.content_hash() != record["config_hash"]:
        return _fail(record, "artifact config_hash mismatch")

    result = detector.detect_only(graph, threshold=record.get("threshold"))
    replayed = score_digest(result.to_json_dict())
    if replayed != record["score_digest"]:
        return VerificationResult(
            record_id=record.get("record_id", "?"),
            ok=False,
            reason="score digest mismatch",
            replayed_digest=replayed,
        )
    return VerificationResult(record_id=record.get("record_id", "?"), ok=True, replayed_digest=replayed)


def verify_log(
    log_path: str,
    artifact_path: str,
    graphs: Optional[Dict[str, Any]] = None,
    records: Optional[Iterable[Dict[str, Any]]] = None,
) -> List[VerificationResult]:
    """Replay every record in a log (``graphs`` keyed by fingerprint)."""
    from repro.core import TPGrGAD

    detector = TPGrGAD.load(artifact_path)
    results: List[VerificationResult] = []
    for record in records if records is not None else read_log(log_path):
        graph = (graphs or {}).get(record.get("graph_fingerprint"))
        results.append(verify_record(record, artifact_path, graph=graph, detector=detector))
    return results
