"""Common interface and helpers for unsupervised outlier detectors."""

from __future__ import annotations

from typing import Optional

import numpy as np


class OutlierDetector:
    """Base class: fit on a sample, score new points (larger = more anomalous)."""

    def fit(self, X: np.ndarray) -> "OutlierDetector":
        raise NotImplementedError

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fit_scores(self, X: np.ndarray) -> np.ndarray:
        """Convenience: fit on ``X`` and score the same sample."""
        return self.fit(X).decision_scores(X)

    @staticmethod
    def _validate(X: np.ndarray, fitted_dim: Optional[int] = None) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("detector input must be a 2-D array (n_samples, n_features)")
        if X.shape[0] == 0:
            raise ValueError("detector input is empty")
        if fitted_dim is not None and X.shape[1] != fitted_dim:
            raise ValueError(f"expected {fitted_dim} features, got {X.shape[1]}")
        if not np.isfinite(X).all():
            raise ValueError("detector input contains NaN or infinite values")
        return X


def min_max_normalize(scores: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Scale scores into [0, 1]; constant score vectors map to all zeros."""
    scores = np.asarray(scores, dtype=np.float64)
    low, high = scores.min(), scores.max()
    if high - low < eps:
        return np.zeros_like(scores)
    return (scores - low) / (high - low)
