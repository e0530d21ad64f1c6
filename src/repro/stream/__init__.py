"""Streaming detection subsystem: online TP-GrGAD over graph deltas.

Layers (bottom up):

* :mod:`repro.stream.delta` — :class:`GraphDelta` batches and the
  :class:`StreamingGraph` that applies them with sorted-merge edge-index
  updates; each snapshot is a plain :class:`~repro.graph.Graph`.
* :mod:`repro.stream.incremental` — :class:`IncrementalTPGrGAD`, the
  detector that re-samples and re-scores every tick between drift-budget
  refits.
* :mod:`repro.stream.replay` — the replay driver (one detector tick per
  delta), latency/throughput counters and the ``python -m repro.stream``
  CLI.

Event-stream views of the generated datasets live in
:mod:`repro.datasets.stream`.
"""

from repro.stream.delta import DeltaReport, GraphDelta, StreamingGraph
from repro.stream.incremental import IncrementalTPGrGAD, StreamConfig, TickReport
from repro.stream.replay import (
    ReplayDriver,
    ReplaySummary,
    group_detected,
    replay_event_stream,
    write_summary_json,
)

__all__ = [
    "DeltaReport",
    "GraphDelta",
    "StreamingGraph",
    "IncrementalTPGrGAD",
    "StreamConfig",
    "TickReport",
    "ReplayDriver",
    "ReplaySummary",
    "group_detected",
    "replay_event_stream",
    "write_summary_json",
]
