"""Parallel sharded execution of pipeline batches.

See :mod:`repro.parallel.executor` for the sharding/parity design and
``python -m repro.parallel --help`` for the CLI front end.
"""

from repro.parallel.executor import ParallelExecutor, default_worker_count

__all__ = ["ParallelExecutor", "default_worker_count"]
