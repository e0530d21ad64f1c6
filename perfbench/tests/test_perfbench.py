"""Self-tests of the benchmark's own measurement helpers.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import benchlib  # noqa: E402
from benchlib import OpLog, Spans  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (10, None), (11, 9), (20, 50), (45, 77), (64, 84), (100, 90), (200, 95), (1000, 99)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert benchlib.tail_percentile(n) == expected


@pytest.mark.parametrize("n", range(11, 400, 7))
def test_tail_percentile_is_the_highest_with_ten_beyond(n):
    pct = benchlib.tail_percentile(n)
    values = list(range(n))
    beyond = sum(v > benchlib.percentile(values, pct) for v in values)
    assert beyond >= benchlib.TAIL_SAMPLES
    if pct < 99:
        higher = benchlib.percentile(values, pct + 1)
        assert sum(v > higher for v in values) < benchlib.TAIL_SAMPLES


def test_percentile_nearest_rank_and_median():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert benchlib.percentile(values, 50) == 3.0
    assert benchlib.percentile(values, 100) == 5.0
    assert benchlib.percentile(values, 1) == 1.0
    assert benchlib.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_windowed_rate_is_the_median_window_and_ignores_a_stall():
    # Ten back-to-back 0.1 s operations, then one stalled for 2 s, then nine more.
    durations = [0.1] * 10 + [2.0] + [0.1] * 9
    starts, ends, now = [], [], 0.0
    for seconds in durations:
        starts.append(now)
        now += seconds
        ends.append(now)
    # Windows of 5: three run at 10 ops/s, the stalled one at 5 / 2.4 s.
    assert benchlib.windowed_rate(starts, ends, 5) == pytest.approx(10.0)
    # The count-over-elapsed rate would charge the stall to the whole run.
    assert len(durations) / ends[-1] == pytest.approx(20 / 3.9)
    # A trailing partial window is dropped; no whole window is an error.
    assert benchlib.windowed_rate(starts[:7], ends[:7], 5) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        benchlib.windowed_rate(starts[:4], ends[:4], 5)


def test_windowed_rate_counts_gaps_between_operations():
    # Two 0.1 s operations with 0.3 s idle between them: 2 ops in 0.5 s.
    assert benchlib.windowed_rate([0.0, 0.4], [0.1, 0.5], 2) == pytest.approx(4.0)


def test_generator_gaps_run_from_each_response_to_the_next_send():
    starts, ends = [0.0, 0.12, 0.5], [0.1, 0.45, 0.6]
    assert benchlib.generator_gaps(starts, ends) == pytest.approx([0.02, 0.05])


def test_failed_and_shed_operations_count_and_miss_the_limit():
    log = OpLog()
    for seconds in (0.01, 0.02, 0.03):
        log.ok(seconds)
    log.fail()
    log.shed_one()
    assert (log.attempted, log.failed, log.shed) == (5, 1, 1)
    summary = log.summary()
    # Five samples, two of them infinite: the median is the largest success.
    assert summary["latency_p50_ms"] == pytest.approx(30.0)
    assert "latency_tail_ms" not in summary  # five samples leave no tail

    for seconds in range(20):
        log.ok(0.001 * seconds)
    summary = log.summary()
    assert summary["n_samples"] == 25
    assert summary["tail_percentile"] == 60
    # Mostly failures: the median lands on an infinite sample, never a number.
    failing = OpLog(latencies_s=[0.01], failed=2)
    assert math.isinf(failing.summary()["latency_p50_ms"])


def test_spans_record_parent_self_time_and_cpu():
    spans = Spans()
    with spans.span("outer", op="op1"):
        with spans.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    outer, inner = spans.spans
    assert inner.parent == 0 and inner.op == "op1"
    assert outer.seconds >= inner.seconds >= 0.02
    assert spans.self_seconds(0) == pytest.approx(outer.seconds - inner.seconds)
    assert inner.cpu_s < inner.seconds  # sleeping burns no CPU


def test_metric_names_pattern():
    assert benchlib.METRIC_NAME.fullmatch("gae.fit_peak_mb")
    assert not benchlib.METRIC_NAME.fullmatch("gae fit")
