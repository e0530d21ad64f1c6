"""Weight initialisation schemes.

All initialisers take an explicit :class:`numpy.random.Generator` so model
construction is fully reproducible from a single seed.  Random draws always
happen in float64 — a float32 model casts the float64 draw afterwards, so a
fast-mode model starts from (the rounded image of) exactly the same weights
as its float64 reference and the RNG stream is dtype-independent.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.tensor.tensor import get_default_dtype


def _resolve(dtype: Optional[np.dtype]) -> np.dtype:
    return get_default_dtype() if dtype is None else np.dtype(dtype)


def glorot_uniform(
    shape: Tuple[int, ...], rng: np.random.Generator, dtype: Optional[np.dtype] = None
) -> np.ndarray:
    """Glorot/Xavier uniform initialisation, the scheme used by GCN."""
    if len(shape) < 2:
        fan_in = fan_out = shape[0]
    else:
        fan_in, fan_out = shape[0], shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(_resolve(dtype), copy=False)


def zeros(shape: Tuple[int, ...], dtype: Optional[np.dtype] = None) -> np.ndarray:
    """All-zeros initialisation (used for biases)."""
    return np.zeros(shape, dtype=_resolve(dtype))
