"""Measurement helpers of the benchmark: percentiles, operation logs,
windowed rates, spans and host facts.

Nothing here imports ``repro``: these helpers are the benchmark's own code,
so a change to the program under test can never change how it is measured.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Samples a tail percentile must leave beyond it to mean anything.
TAIL_SAMPLES = 10


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_percentile(n_samples: int) -> Optional[int]:
    """The highest whole percentile that leaves at least ``TAIL_SAMPLES`` samples beyond it.

    With nearest rank, percentile ``p`` of ``n`` samples sits at rank
    ``ceil(p * n / 100)``, so ``n - rank`` samples lie beyond it.  ``None``
    when there are too few samples for any tail (``n <= TAIL_SAMPLES``).
    """
    if n_samples <= TAIL_SAMPLES:
        return None
    for pct in range(99, 0, -1):
        if n_samples - math.ceil(pct * n_samples / 100.0) >= TAIL_SAMPLES:
            return pct
    return None


@dataclass
class OpLog:
    """Operations of one timed phase: latencies of the ones that completed,
    and counts of the ones that failed or were shed.

    A failed or shed operation misses any latency limit, so it enters the
    latency distribution as ``inf``; a percentile that lands on one is
    reported as a failed run, never as a number.
    """

    latencies_s: List[float] = field(default_factory=list)
    failed: int = 0
    shed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies_s) + self.failed + self.shed

    def ok(self, seconds: float) -> None:
        self.latencies_s.append(float(seconds))

    def fail(self) -> None:
        self.failed += 1

    def shed_one(self) -> None:
        self.shed += 1

    def extend(self, other: "OpLog") -> None:
        self.latencies_s.extend(other.latencies_s)
        self.failed += other.failed
        self.shed += other.shed

    def summary(self) -> Dict[str, float]:
        """p50 and tail in ms over every attempted operation, with the tail's rank."""
        samples = self.latencies_s + [math.inf] * (self.failed + self.shed)
        if not samples:
            raise ValueError("no operations were attempted")
        out = {"latency_p50_ms": median(samples) * 1e3, "n_samples": len(samples)}
        pct = tail_percentile(len(samples))
        if pct is not None:
            out["latency_tail_ms"] = percentile(samples, pct) * 1e3
            out["tail_percentile"] = pct
        return out


def windowed_rate(starts_s: List[float], ends_s: List[float], window: int) -> float:
    """Median operations per second over consecutive whole windows of
    ``window`` back-to-back operations (a trailing partial window is dropped).

    Each window runs from its first operation's start to its last one's end,
    so gaps between operations count.  A median over windows that each hold
    the same mix of work shrugs off a stall that a total-count rate would
    spread over the whole run.
    """
    n_windows = len(starts_s) // window
    if n_windows == 0:
        raise ValueError(f"{len(starts_s)} operations fill no window of {window}")
    return median([window / (ends_s[(k + 1) * window - 1] - starts_s[k * window]) for k in range(n_windows)])


def generator_gaps(starts_s: List[float], ends_s: List[float]) -> List[float]:
    """A closed-loop generator's own delay: from each response to the next send."""
    return [start - end for start, end in zip(starts_s[1:], ends_s[:-1])]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    op: str
    start: float
    end: float = 0.0
    cpu_s: float = 0.0
    parent: Optional[int] = None
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Spans:
    """In-memory spans recorded around calls into the program's layers.

    Each span has a name, the operation it belongs to (spans of one
    operation share ``op``), wall start/end, process CPU seconds and its
    parent.  They are written out once, when the run ends.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: str = "") -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name=name, op=op or (self.spans[parent].op if parent is not None else ""),
                      start=time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        cpu = time.process_time()
        try:
            yield record
        finally:
            record.cpu_s = time.process_time() - cpu
            record.end = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str) -> List[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def median_ms(self, name: str) -> float:
        return median(self.seconds(name)) * 1e3

    def self_seconds(self, index: int) -> float:
        """A span's duration minus the part its direct children cover."""
        children = sum(s.seconds for s in self.spans if s.parent == index)
        return self.spans[index].seconds - children

    def dump_jsonl(self, path: str) -> None:
        import json

        with open(path, "w") as fh:
            for index, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": s.name, "op": s.op, "parent": s.parent,
                    "start": s.start, "end": s.end, "cpu_s": s.cpu_s,
                    "self_s": self.self_seconds(index), **s.attrs,
                }) + "\n")


# ----------------------------------------------------------------------
# Host facts and BLAS threads
# ----------------------------------------------------------------------
def _openblas_symbol(suffix: str):
    """The loaded OpenBLAS ``*openblas_<suffix>`` function, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for name in (f"openblas_{suffix}", f"openblas_{suffix}64_", f"scipy_openblas_{suffix}64_",
                     f"scipy_openblas_{suffix}"):
            func = getattr(lib, name, None)
            if func is not None:
                return func
    return None


def blas_threads() -> Optional[int]:
    func = _openblas_symbol("get_num_threads")
    if func is None:
        return None
    func.restype = ctypes.c_int
    func.argtypes = []
    return int(func())


def host_facts() -> Dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_program": None,  # filled by the runner from the program's process
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb(pid: int) -> float:
    """High-water RSS of a live process (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
