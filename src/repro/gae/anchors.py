"""Anchor-node selection from per-node anomaly scores."""

from __future__ import annotations

import numpy as np


def select_anchor_nodes(
    scores: np.ndarray,
    fraction: float = 0.1,
    minimum: int = 3,
    maximum: int | None = None,
) -> np.ndarray:
    """Select the highest-scoring nodes as anchors.

    Parameters
    ----------
    scores:
        Per-node anomaly scores (larger = more anomalous).
    fraction:
        Fraction of nodes to keep; the paper uses the top 10%.
    minimum:
        Lower bound on the number of anchors (sampling needs at least a few
        seeds even on tiny graphs).
    maximum:
        Optional non-negative hard cap, useful to bound the O(m²) pair
        enumeration of the group-sampling stage on large graphs.

    Returns
    -------
    numpy.ndarray
        Anchor node indices sorted by decreasing score.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError("scores must be a 1-D array")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if maximum is not None and maximum < 0:
        raise ValueError(f"maximum must be >= 0, got {maximum}")
    count = max(int(minimum), int(round(fraction * scores.shape[0])))
    count = min(count, scores.shape[0])
    if maximum is not None:
        count = min(count, int(maximum))
    order = np.argsort(-scores, kind="stable")
    return order[:count]
