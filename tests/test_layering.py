"""Layering and dead-code scans over the ``repro`` source tree.

Serve, stream, parallel and persist consume the pipeline through its
public surface (``TPGrGAD.state``, the stage functions of
``repro.core.pipeline``, ``fit_detect`` / ``detect_only`` / ``save`` /
``load``).  The first scan fails on any ``_``-prefixed attribute read or
written off a ``detector`` expression (a name or attribute ending in
``detector``) in a module outside ``repro/core/``.

The second scan fails on any module under ``repro/core/`` that imports
a surface built on top of it (``repro.parallel``, ``repro.serve``,
``repro.jobs`` or ``repro.stream``), at module level or inside a function.

The third scan fails on any module under ``src/repro`` that imports a
``_``-prefixed name from a ``repro`` package other than its own
(``from repro.graph.graph import _helper`` in ``repro/stream/``): a
helper two packages share is public and exported as such.

The fourth scan fails on any function, method or class defined under
``src/repro`` that no code outside ``tests/`` uses: a definition needs a
caller.  It parses the sources, so a docstring, a comment, an
``__all__`` entry or a re-export does not keep a definition alive.

The fifth scan fails on any call to ``fit``, ``fit_detect`` or
``fit_detect_many`` in a module under ``repro/serve/`` or ``repro/jobs/``:
the serving surfaces score loaded artifacts and never train.

The sixth scan fails on any module under ``src/repro`` that imports
networkx, except the ``repro.graph.builders`` converters and the COMGA
baseline: detection runs without it (``tests/test_import_budget.py``
checks that the converters import it lazily).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

import repro

PACKAGE = Path(repro.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent
#: The trees whose code counts as a caller of code under ``src/repro``.
#: Tests are not callers: a definition only a test uses is dead code with a test.
CALLER_TREES = ("src", "benchmarks", "perfbench", "examples")


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


#: Packages layered on top of ``repro.core``; core must not import them.
SURFACES = ("repro.parallel", "repro.serve", "repro.jobs", "repro.stream")


def _from_module(node: ast.ImportFrom, package: List[str]) -> str:
    """The absolute module a ``from ... import`` reads, ``package`` anchoring relative ones."""
    base = package[: len(package) - node.level + 1] if node.level else []
    return ".".join(base + ([node.module] if node.module else []))


def surface_imports(source: str, filename: str) -> List[str]:
    """``file:line: module`` for every import of a :data:`SURFACES` package in ``source``.

    ``filename`` is the module's path relative to the ``repro`` package
    (``core/pipeline.py``); it anchors relative imports.
    """
    package = ["repro", *Path(filename).parent.parts]
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = _from_module(node, package)
            modules = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            if any(module == surface or module.startswith(surface + ".") for surface in SURFACES):
                found.append((node.lineno, f"{filename}:{node.lineno}: {module}"))
                break
    return [entry for _, entry in sorted(found)]


def test_surface_import_scan_flags_absolute_relative_and_local_imports():
    source = (
        "import repro.serve.batcher\n"
        "from repro.graph import Graph\n"
        "from .. import stream\n"
        "def f():\n"
        "    from repro.parallel import ParallelExecutor\n"
        "from repro.jobs.store import JobStore\n"
        "from . import config\n"
    )
    assert surface_imports(source, "core/pipeline.py") == [
        "core/pipeline.py:1: repro.serve.batcher",
        "core/pipeline.py:3: repro.stream",
        "core/pipeline.py:5: repro.parallel",
        "core/pipeline.py:6: repro.jobs.store",
    ]


def test_core_imports_no_surface():
    offenders = []
    for path in sorted((PACKAGE / "core").rglob("*.py")):
        relative = str(path.relative_to(PACKAGE))
        offenders += surface_imports(path.read_text(), relative)
    assert not offenders, "\n".join(offenders)


def private_cross_package_imports(source: str, filename: str) -> List[str]:
    """``file:line: module.name`` for every ``_name`` imported from another ``repro`` package.

    ``filename`` is the module's path relative to the ``repro`` package;
    its first directory is the module's own package, whose private names
    it may import.  Dunder names are exempt.
    """
    package = ["repro", *Path(filename).parent.parts]
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = _from_module(node, package)
        parts = module.split(".")
        if parts[0] != "repro" or len(parts) < 2 or parts[:2] == package[:2]:
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append((node.lineno, f"{filename}:{node.lineno}: {module}.{alias.name}"))
    return [entry for _, entry in sorted(found)]


def test_private_import_scan_flags_only_other_packages_privates():
    source = (
        "from repro.graph.graph import _as_edge_array, Graph\n"
        "from repro.stream.incremental import _own_helper\n"
        "from .incremental import _relative_own_helper\n"
        "def f():\n"
        "    from ..core import pipeline, _hidden\n"
        "from repro.graph import __all__, as_edge_array\n"
        "import repro.persist._io\n"
    )
    assert private_cross_package_imports(source, "stream/delta.py") == [
        "stream/delta.py:1: repro.graph.graph._as_edge_array",
        "stream/delta.py:5: repro.core._hidden",
    ]
    assert private_cross_package_imports("from repro.graph import _x\n", "seeding.py") == [
        "seeding.py:1: repro.graph._x",
    ]


def test_no_private_imports_across_packages():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = str(path.relative_to(PACKAGE))
        offenders += private_cross_package_imports(path.read_text(), relative)
    assert not offenders, "\n".join(offenders)


def referenced_names(tree: ast.AST) -> Iterator[str]:
    """Every name ``tree`` uses: a ``Name``, an ``Attribute``, a keyword argument or an identifier string.

    An identifier string (``getattr(layer, "relu")``) counts, because
    dispatch by name is a use.  Docstrings and other bare string
    statements do not, nor do the entries of an ``__all__`` assignment;
    import aliases and comments never appear as such nodes.
    """
    ignored: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            ignored.add(id(node.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                ignored.update(id(entry) for entry in ast.walk(node.value))
    for node in ast.walk(tree):
        if id(node) in ignored:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def unreferenced_definitions(sources: Dict[str, str], package_prefix: str) -> List[str]:
    """``file:line: name`` for every definition under ``package_prefix`` that no caller uses.

    ``sources`` maps a repository-relative path to its text.  A
    definition is a function, method or class (dunders are exempt: Python
    calls them implicitly).  It is used when its name is among the
    :func:`referenced_names` of a file under :data:`CALLER_TREES`.
    """
    used: Set[str] = set()
    candidates = []
    for path, text in sources.items():
        tree = ast.parse(text, filename=path)
        if path.startswith(package_prefix):
            candidates += [
                (path, node.lineno, node.name)
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))
            ]
        if path.split("/")[0] in CALLER_TREES:
            used.update(referenced_names(tree))
    return [f"{path}:{line}: {name}" for path, line, name in sorted(candidates) if name not in used]


def test_dead_code_scan_flags_only_def_only_names():
    sources = {
        "src/repro/m.py": "def used():\n    pass\n\ndef orphan():\n    pass\n\n"
        "class A:\n    def __len__(self):\n        return 0\n",
        "src/repro/n.py": "from repro.m import A, used\n\nused()\nA()\n",
    }
    assert unreferenced_definitions(sources, "src/repro/") == ["src/repro/m.py:4: orphan"]


def test_dead_code_scan_does_not_count_tests_as_callers():
    sources = {
        "src/repro/m.py": "def tested_only():\n    pass\n",
        "tests/test_m.py": "from repro.m import tested_only\n\n"
        "def test_it():\n    tested_only()\n",
    }
    assert unreferenced_definitions(sources, "src/repro/") == ["src/repro/m.py:1: tested_only"]


def test_dead_code_scan_ignores_docstrings_all_entries_and_reexports():
    sources = {
        "src/repro/m.py": "def documented():\n    pass\n\ndef exported():\n    pass\n\n"
        "def reexported():\n    pass\n\nclass Unused:\n    pass\n",
        "src/repro/__init__.py": '"""Call documented() first."""\n\n'
        "from repro.m import reexported as reexported  # Unused stays out\n\n"
        '__all__ = ["exported", "reexported"]\n__all__ += ["Unused"]\n',
    }
    assert unreferenced_definitions(sources, "src/repro/") == [
        "src/repro/m.py:1: documented",
        "src/repro/m.py:4: exported",
        "src/repro/m.py:7: reexported",
        "src/repro/m.py:10: Unused",
    ]


def test_dead_code_scan_counts_name_dispatch_and_every_caller_tree():
    sources = {
        "src/repro/m.py": "def dispatched():\n    pass\n\ndef benched():\n    pass\n\n"
        "def demoed():\n    pass\n\nclass Layer:\n    pass\n",
        "src/repro/n.py": 'step = getattr(m, "dispatched")\n',
        "benchmarks/test_speed.py": "from repro.m import benched\n\nbenched()\n",
        "examples/demo.py": "import repro.m\n\nrepro.m.demoed()\nlayer: repro.m.Layer\n",
    }
    assert unreferenced_definitions(sources, "src/repro/") == []


def test_no_unreferenced_functions_in_src():
    sources = {
        str(path.relative_to(REPO)): path.read_text()
        for tree in CALLER_TREES
        for path in sorted((REPO / tree).rglob("*.py"))
    }
    offenders = unreferenced_definitions(sources, "src/repro/")
    assert not offenders, "definitions with no caller outside tests/ (delete them):\n" + "\n".join(offenders)


#: Calls that train; the serving surfaces must make none of them.
TRAINING_CALLS = ("fit", "fit_detect", "fit_detect_many")


def training_calls(source: str, filename: str) -> List[str]:
    """``file:line: call`` for every :data:`TRAINING_CALLS` call in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in TRAINING_CALLS:
            found.append((node.lineno, f"{filename}:{node.lineno}: {ast.unparse(func)}"))
    return [entry for _, entry in sorted(found)]


def test_training_call_scan_flags_fits_only():
    source = (
        "results = TPGrGAD(entry.state.config).fit_detect_many(graphs)\n"
        "result = entry.detector.detect_only(graph)\n"
        "self.detector.fit(graph)\n"
        "fit_detect(graph)\n"
        "model.fitted = detector.fit_stages\n"
    )
    assert training_calls(source, "serve/batcher.py") == [
        "serve/batcher.py:1: TPGrGAD(entry.state.config).fit_detect_many",
        "serve/batcher.py:3: self.detector.fit",
        "serve/batcher.py:4: fit_detect",
    ]


def test_serving_surfaces_never_train():
    offenders = []
    for package in ("serve", "jobs"):
        for path in sorted((PACKAGE / package).rglob("*.py")):
            offenders += training_calls(path.read_text(), str(path.relative_to(PACKAGE)))
    assert not offenders, "\n".join(offenders)


#: The only modules that may import networkx.
NETWORKX_USERS = ("graph/builders.py", "baselines/comga.py")


def networkx_imports(source: str, filename: str) -> List[str]:
    """``file:line`` for every import of networkx (or a submodule of it) in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        else:
            continue
        if any(module.split(".")[0] == "networkx" for module in modules):
            found.append((node.lineno, f"{filename}:{node.lineno}"))
    return [entry for _, entry in sorted(found)]


def test_networkx_import_scan_flags_every_form():
    source = (
        "import networkx as nx\n"
        "import numpy\n"
        "def f():\n"
        "    from networkx.algorithms import cycle_basis\n"
        "from repro.graph import networkx_free\n"
    )
    assert networkx_imports(source, "augment/patterns.py") == [
        "augment/patterns.py:1",
        "augment/patterns.py:4",
    ]


def test_networkx_only_in_converters_and_comga():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = str(path.relative_to(PACKAGE))
        if relative not in NETWORKX_USERS:
            offenders += networkx_imports(path.read_text(), relative)
    assert not offenders, "\n".join(offenders)
