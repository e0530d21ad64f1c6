"""The detection path loads neither networkx nor scipy.stats nor scipy.spatial.

The pipeline (MH-GAE anchors, Algorithm-1 sampling, TPGCL, ECOD) needs
only numpy and ``scipy.sparse``; the three heavy packages cost a fresh
process most of its start-up.  A fresh interpreter imports
``repro.core``, ``repro.stream`` and the entry points of the serve,
parallel, jobs and obs CLIs, runs a cold ``fit_detect``, saves the
artifact and runs a warm ``detect_only`` from it, then reports which of
the three packages it loaded: none may be.  This file imports nothing
beyond the standard library and ``repro``, so it also runs where networkx
is not installed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

HEAVY = ("networkx", "scipy.stats", "scipy.spatial")

SCRIPT = """
import json, sys, tempfile
import repro.core, repro.stream
import repro.serve.__main__, repro.parallel.__main__, repro.jobs.__main__, repro.obs.__main__
from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_example_graph

detector = TPGrGAD(TPGrGADConfig.fast(seed=1))
cold = detector.fit_detect(make_example_graph(seed=7))
with tempfile.TemporaryDirectory() as directory:
    detector.save(directory)
    warm = TPGrGAD.load(directory).detect_only(make_example_graph(seed=11))
assert cold.candidate_groups and warm.candidate_groups
print(json.dumps(sorted(name for name in HEAVY if name in sys.modules)))
"""


def test_detection_path_loads_no_heavy_package():
    source = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(source), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", f"HEAVY = {HEAVY!r}\n{SCRIPT}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    loaded = json.loads(completed.stdout.strip().splitlines()[-1])
    assert loaded == [], f"the detection path imported {loaded}"
