"""JSON coercion: numpy scalars/arrays to native Python, recursively.

Every JSON boundary of the project — ``GroupDetectionResult.to_json_dict``,
the stream CLI's ``--json`` / ``BENCH_stream.json`` writer, and the
artifact manifests — funnels through :func:`to_native`, so a stray
``np.float32`` score or ``np.int64`` node id can never crash ``json.dump``
(or, worse, serialize as a lossy repr) no matter which code path produced
it.
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: Exact types returned unchanged; checked first because result JSON is
#: mostly such leaves and a response passes through here once more.
_NATIVE_LEAVES = frozenset({int, float, str, bool, type(None)})


def to_native(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serialisable native Python.

    * numpy scalars (``np.float32``, ``np.int64``, ``np.bool_``, …) become
      the matching Python ``float`` / ``int`` / ``bool``,
    * numpy arrays become (nested) lists of native scalars,
    * dict keys that are numpy scalars are unwrapped too (``json.dump``
      rejects them even where it would accept the Python equivalent),
    * tuples and sets become lists (sets are sorted for determinism),
    * everything else is returned unchanged.
    """
    if type(obj) in _NATIVE_LEAVES:
        return obj
    if isinstance(obj, np.ndarray):
        # tolist() is fully native for every ndim — including 0-d arrays,
        # where it returns a bare scalar rather than a list.
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        return {_native_key(key): to_native(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [value if type(value) in _NATIVE_LEAVES else to_native(value) for value in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(to_native(value) for value in obj)
    return obj


def _native_key(key: Any) -> Any:
    return key.item() if isinstance(key, np.generic) else key


def dump_json(path, payload: Any, **kwargs) -> None:
    """``json.dump`` with :func:`to_native` coercion and a trailing newline."""
    import json

    kwargs.setdefault("indent", 2)
    kwargs.setdefault("sort_keys", True)
    with open(path, "w") as handle:
        json.dump(to_native(payload), handle, **kwargs)
        handle.write("\n")
