"""Event-stream replay: driver and counters.

:class:`ReplayDriver` feeds an event stream (any iterable of
:class:`GraphDelta`) through an :class:`IncrementalTPGrGAD`, one detector
*tick* per delta, so tick indices are the stream's own tick grid.  Per
tick the driver records latency, dirty statistics and embedding-cache
counters; :meth:`ReplayDriver.run` returns a :class:`ReplaySummary` with
throughput (events/sec), p50/p95 tick latency, refit/incremental split
and (when the stream declares a burst group) the detection lag in ticks.

``python -m repro.stream`` is the CLI front end; the pinned performance
numbers live in ``benchmarks/test_stream_replay.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.config import TPGrGADConfig
from repro.core.result import GroupDetectionResult
from repro.graph import Graph, Group
from repro.stream.delta import GraphDelta
from repro.stream.incremental import IncrementalTPGrGAD, StreamConfig, TickReport


@dataclass
class ReplaySummary:
    """Counters and latencies of one replay run.

    Latency statistics are reported **per tick mode**: refit ticks run the
    full training pipeline and sit orders of magnitude above incremental
    ticks, so mixing both into one percentile makes neither number
    meaningful (a single refit in six ticks drags p95 from milliseconds
    to seconds).  Throughput is measured over *processing* time — the
    seconds actually spent inside tick handling plus the flush — never
    over ambient wall clock that includes producing the events.

    Tick counts and seconds, overall and per mode, are read off ``ticks``
    (one :class:`TickReport` per tick), never stored twice.
    """

    name: str
    total_seconds: float
    embed_hits: int
    embed_misses: int
    detection_tick: Optional[int] = None
    burst_tick: Optional[int] = None
    final_result: Optional[GroupDetectionResult] = None
    ticks: List[TickReport] = field(default_factory=list)
    finalize_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Per-tick views
    # ------------------------------------------------------------------
    @property
    def n_ticks(self) -> int:
        return len(self.ticks)

    @property
    def tick_seconds(self) -> List[float]:
        return [t.seconds for t in self.ticks]

    def _mode_seconds(self, mode: str) -> List[float]:
        return [t.seconds for t in self.ticks if t.mode == mode]

    @property
    def incremental_tick_seconds(self) -> List[float]:
        return self._mode_seconds("incremental")

    @property
    def refit_tick_seconds(self) -> List[float]:
        return self._mode_seconds("refit")

    @property
    def n_refits(self) -> int:
        return len(self.refit_tick_seconds)

    @property
    def n_incremental(self) -> int:
        return len(self.incremental_tick_seconds)

    @property
    def refit_seconds(self) -> float:
        return sum(self.refit_tick_seconds)

    @property
    def incremental_seconds(self) -> float:
        return sum(self.incremental_tick_seconds)

    # ------------------------------------------------------------------
    # Throughput
    # ------------------------------------------------------------------
    @property
    def n_events(self) -> int:
        """Events replayed: the driver runs one tick per event."""
        return self.n_ticks

    @property
    def processing_seconds(self) -> float:
        """Seconds spent handling events: all ticks plus the flush refit."""
        return float(sum(self.tick_seconds)) + self.finalize_seconds

    @property
    def events_per_second(self) -> float:
        """End-to-end throughput over processing time (refits included)."""
        seconds = self.processing_seconds
        return self.n_events / seconds if seconds > 0 else float("inf")

    @property
    def incremental_events_per_second(self) -> float:
        """Steady-state throughput: events absorbed by incremental ticks
        divided by incremental processing time (0.0 when no incremental
        tick ran)."""
        if self.incremental_seconds <= 0:
            return 0.0
        return self.n_incremental / self.incremental_seconds

    # ------------------------------------------------------------------
    # Per-mode latency splits
    # ------------------------------------------------------------------
    @staticmethod
    def _percentile(values: List[float], q: float) -> float:
        # Shared with ServerMetrics so replay and serve report identical
        # percentile math (guarded by tests/test_obs.py).
        from repro.obs.stats import percentile

        return percentile(values, q)

    @property
    def p50_latency(self) -> float:
        """All-ticks p50 (kept for continuity; prefer the per-mode splits)."""
        return self._percentile(self.tick_seconds, 50)

    @property
    def p95_latency(self) -> float:
        """All-ticks p95 (kept for continuity; prefer the per-mode splits)."""
        return self._percentile(self.tick_seconds, 95)

    @property
    def p50_incremental_latency(self) -> float:
        return self._percentile(self.incremental_tick_seconds, 50)

    @property
    def p95_incremental_latency(self) -> float:
        return self._percentile(self.incremental_tick_seconds, 95)

    @property
    def p50_refit_latency(self) -> float:
        return self._percentile(self.refit_tick_seconds, 50)

    @property
    def p95_refit_latency(self) -> float:
        return self._percentile(self.refit_tick_seconds, 95)

    @property
    def detection_lag(self) -> Optional[int]:
        """Ticks between the burst and its first detection (None: not seen)."""
        if self.detection_tick is None or self.burst_tick is None:
            return None
        return self.detection_tick - self.burst_tick

    def to_json_dict(self) -> Dict:
        """JSON-serialisable summary (the ``BENCH_stream.json`` schema)."""
        from repro.persist import to_native

        return to_native(
            {
                "name": self.name,
                "n_events": self.n_events,
                "n_ticks": self.n_ticks,
                "total_seconds": round(self.total_seconds, 4),
                "processing_seconds": round(self.processing_seconds, 4),
                "finalize_seconds": round(self.finalize_seconds, 4),
                "events_per_second": round(self.events_per_second, 2),
                "incremental_events_per_second": round(self.incremental_events_per_second, 2),
                "p50_tick_latency_seconds": round(self.p50_latency, 4),
                "p95_tick_latency_seconds": round(self.p95_latency, 4),
                "p50_incremental_tick_latency_seconds": round(self.p50_incremental_latency, 4),
                "p95_incremental_tick_latency_seconds": round(self.p95_incremental_latency, 4),
                "p50_refit_tick_latency_seconds": round(self.p50_refit_latency, 4),
                "p95_refit_tick_latency_seconds": round(self.p95_refit_latency, 4),
                "n_refits": self.n_refits,
                "n_incremental_ticks": self.n_incremental,
                "refit_seconds": round(self.refit_seconds, 4),
                "incremental_seconds": round(self.incremental_seconds, 4),
                "embedding_cache_hits": self.embed_hits,
                "embedding_cache_misses": self.embed_misses,
                "burst_tick": self.burst_tick,
                "detection_tick": self.detection_tick,
                "detection_lag_ticks": self.detection_lag,
            }
        )

    def render(self) -> str:
        """Human-readable one-screen summary."""
        lines = [
            f"replay '{self.name}': {self.n_events} events in {self.n_ticks} ticks "
            f"({self.processing_seconds:.2f}s processing, {self.events_per_second:.1f} events/s "
            f"overall, {self.incremental_events_per_second:.1f} events/s incremental)",
            f"  incremental tick latency: p50 {self.p50_incremental_latency * 1e3:.1f}ms  "
            f"p95 {self.p95_incremental_latency * 1e3:.1f}ms",
            f"  refit tick latency:       p50 {self.p50_refit_latency * 1e3:.1f}ms  "
            f"p95 {self.p95_refit_latency * 1e3:.1f}ms",
            f"  ticks: {self.n_incremental} incremental ({self.incremental_seconds:.2f}s) "
            f"+ {self.n_refits} refits ({self.refit_seconds:.2f}s) "
            f"+ flush ({self.finalize_seconds:.2f}s)",
            f"  embedding cache: {self.embed_hits} hits / {self.embed_misses} misses",
        ]
        if self.burst_tick is not None:
            if self.detection_tick is not None:
                lines.append(
                    f"  burst at tick {self.burst_tick}: detected at tick "
                    f"{self.detection_tick} (lag {self.detection_lag})"
                )
            else:
                lines.append(f"  burst at tick {self.burst_tick}: NOT detected")
        return "\n".join(lines)


def group_detected(result: GroupDetectionResult, target: Group, min_jaccard: float = 0.3) -> bool:
    """Whether any flagged group overlaps ``target`` by at least ``min_jaccard``."""
    return any(target.jaccard(group) >= min_jaccard for group in result.anomalous_groups)


class ReplayDriver:
    """Drive an incremental detector over an event stream, one tick per delta."""

    def __init__(
        self,
        base_graph: Graph,
        config: Optional[TPGrGADConfig] = None,
        stream_config: Optional[StreamConfig] = None,
        artifact: Optional[str] = None,
    ) -> None:
        self.detector = IncrementalTPGrGAD(base_graph, config, stream_config, artifact=artifact)

    def run_stream(self, stream, finalize: bool = True) -> ReplaySummary:
        """Replay an ``EventStream``'s deltas with its burst metadata wired in."""
        return self.run(
            stream.deltas,
            watch_group=stream.burst_group,
            burst_tick=stream.burst_tick,
            finalize=finalize,
            name=stream.name,
        )

    def run(
        self,
        events: Iterable[GraphDelta],
        watch_group: Optional[Group] = None,
        burst_tick: Optional[int] = None,
        min_jaccard: float = 0.3,
        finalize: bool = True,
        name: str = "stream",
    ) -> ReplaySummary:
        """Replay ``events`` through the detector and summarise the run.

        ``watch_group`` (stream node ids) turns on detection-lag tracking:
        the summary records the first tick whose flagged groups overlap it
        by ``min_jaccard``.  ``finalize=True`` flushes the stream with a
        final refit so the last result exactly matches the batch pipeline
        on the final snapshot.
        """
        detector = self.detector
        ticks: List[TickReport] = []
        detection_tick: Optional[int] = None
        start = time.perf_counter()
        for delta in events:
            # Empty deltas are still driven through the detector so tick
            # indices stay aligned with the event stream's own tick grid
            # (detection lag is reported in those units).
            report = detector.update(delta)
            ticks.append(report)
            if (
                watch_group is not None
                and detection_tick is None
                and group_detected(report.result, watch_group, min_jaccard)
            ):
                detection_tick = len(ticks) - 1

        finalize_start = time.perf_counter()
        final_result = detector.finalize() if finalize else detector.result
        finalize_seconds = time.perf_counter() - finalize_start
        if (
            watch_group is not None
            and detection_tick is None
            and finalize
            and group_detected(final_result, watch_group, min_jaccard)
        ):
            detection_tick = len(ticks)  # only the flush refit saw it
        total = time.perf_counter() - start

        reuse = detector.reuse_info()
        return ReplaySummary(
            name=name,
            total_seconds=total,
            embed_hits=reuse["embed_hits"],
            embed_misses=reuse["embed_misses"],
            detection_tick=detection_tick,
            burst_tick=burst_tick,
            final_result=final_result,
            ticks=ticks,
            finalize_seconds=finalize_seconds,
        )


def replay_event_stream(
    stream,
    config: Optional[TPGrGADConfig] = None,
    stream_config: Optional[StreamConfig] = None,
    finalize: bool = True,
    artifact: Optional[str] = None,
) -> ReplaySummary:
    """Convenience wrapper: replay a :class:`repro.datasets.stream.EventStream`.

    One tick per stream delta, so detection lag is reported in
    stream-tick units.  ``artifact`` warm-starts the detector from a saved
    pipeline instead of an initial training refit.
    """
    driver = ReplayDriver(stream.base, config, stream_config, artifact=artifact)
    return driver.run_stream(stream, finalize=finalize)


def write_summary_json(path: str, summaries: Sequence[ReplaySummary], extra: Optional[Dict] = None) -> None:
    """Write replay summaries (plus optional extra metrics) as JSON.

    Everything passes through :func:`repro.persist.to_native` (via
    :func:`repro.persist.dump_json`), so numpy scalars (a ``np.float64``
    speedup, say) serialize as native numbers instead of crashing
    ``json.dump``.
    """
    from repro.persist import dump_json

    payload: Dict = {"replays": [s.to_json_dict() for s in summaries]}
    if extra:
        payload.update(extra)
    dump_json(path, payload)
