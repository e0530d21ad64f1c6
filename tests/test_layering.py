"""Layering: no surface outside ``repro.core`` touches a detector's privates.

Serve, stream, parallel and persist consume the pipeline through its
public surface (``TPGrGAD.state``, the stage functions of
``repro.core.pipeline``, ``fit_detect`` / ``detect_only`` / ``save`` /
``load``).  This scan fails on any ``_``-prefixed attribute read or
written off a ``detector`` expression (a name or attribute ending in
``detector``) in a module outside ``repro/core/``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def _is_detector(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id.endswith("detector")
    if isinstance(node, ast.Attribute):
        return node.attr.endswith("detector")
    return False


def private_detector_accesses(source: str, filename: str) -> List[str]:
    """``file:line: expr`` for every ``<detector>._name`` access in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and _is_detector(node.value)
        ):
            found.append(f"{filename}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_scan_flags_private_reads_and_writes():
    source = "detector._graph = g\nx = self.detector._warm_state\ny = detector.state\n"
    assert private_detector_accesses(source, "m.py") == [
        "m.py:1: detector._graph",
        "m.py:2: self.detector._warm_state",
    ]


def test_no_surface_reaches_into_detector_privates():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        if relative.parts[0] == "core":
            continue
        offenders += private_detector_accesses(path.read_text(), str(relative))
    assert not offenders, "\n".join(offenders)
