"""Host facts recorded next to every timing a benchmark writes.

A speed-up read from a ``BENCH_*.json`` only means something together with
the host it was measured on: how many cores the process may use, which
BLAS numpy links and how many threads that BLAS runs.
"""

from __future__ import annotations

import ctypes
import os
from typing import Dict, Optional

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
