"""Shared settings for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at a reduced
dataset scale (see DESIGN.md for the substitution rationale) and asserts
the corresponding *shape* claim — who wins, which variant is best — rather
than absolute numbers.  Run with::

    pytest benchmarks/ --benchmark-only

The benchmarks that record a measurement write it as ``BENCH_*.json``
through :func:`bench_json_path`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable

import pytest

from repro.experiments import ExperimentSettings


@pytest.fixture(scope="session")
def quick_settings() -> ExperimentSettings:
    """Small-scale settings shared by all benchmark modules."""
    return ExperimentSettings.quick()


@pytest.fixture(scope="session")
def full_dataset_settings() -> ExperimentSettings:
    """Settings covering all five datasets (used by the cheap table benches)."""
    return ExperimentSettings(scale=0.1, seeds=(0,))


@pytest.fixture(scope="session")
def bench_json_path(tmp_path_factory) -> Callable[[str], Path]:
    """Where a benchmark writes its ``BENCH_*.json``: ``name`` → path.

    ``$BENCH_OUT_DIR/<name>`` when ``BENCH_OUT_DIR`` is set (the CI jobs
    that guard and upload the files set it to ``.``), else a pytest temp
    path.  The tier-1 suite collects this directory, so writing into the
    checkout by default would overwrite the committed, host-stamped
    measurements on every run.
    """
    out_dir = os.environ.get("BENCH_OUT_DIR")
    root = Path(out_dir) if out_dir else tmp_path_factory.mktemp("bench-json")
    return lambda name: root / name
