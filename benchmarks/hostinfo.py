"""Host facts recorded next to every timing a benchmark writes.

A speed-up read from a ``BENCH_*.json`` only means something together with
the host it was measured on: how many cores the process may use, which
BLAS numpy links and how many threads that BLAS runs.  :func:`arm_usage`
adds what one arm of a wall-clock ratio cost in CPU and how loaded the
host was meanwhile, so a missed ratio shows whether the arm did extra
work or shared the cores with someone else.
"""

from __future__ import annotations

import ctypes
import os
import resource
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

import numpy as np


def _openblas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS loaded in this process, if any."""
    try:
        with open("/proc/self/maps") as maps:
            libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libraries:
        library = ctypes.CDLL(path)
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                getter = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
                if getter is not None:
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                    return int(getter())
    return None


def host_facts() -> Dict:
    blas: Dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy prints instead of returning
        pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _openblas_threads(),
        "numpy": np.__version__,
    }


def _cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@contextmanager
def arm_usage() -> Iterator[Dict]:
    """CPU seconds and load average around one benchmark arm.

    The yielded dict is filled on exit: ``cpu_seconds`` is the
    ``RUSAGE_SELF`` + ``RUSAGE_CHILDREN`` delta (all threads of this
    process, plus child processes reaped during the arm, such as a
    process pool's workers once it shuts down), and ``loadavg_before`` /
    ``loadavg_after`` are ``os.getloadavg()`` at the arm's edges.
    """
    usage: Dict = {}
    load_before = os.getloadavg()
    cpu_before = _cpu_seconds()
    yield usage
    usage["cpu_seconds"] = round(_cpu_seconds() - cpu_before, 3)
    usage["loadavg_before"] = [round(load, 2) for load in load_before]
    usage["loadavg_after"] = [round(load, 2) for load in os.getloadavg()]
