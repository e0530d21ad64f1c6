"""ECOD: unsupervised outlier detection using empirical cumulative distributions.

Re-implementation of Li et al. (TKDE 2022), the detector the paper uses on
TPGCL embeddings.  For every dimension the left and right empirical tail
probabilities of each point are computed; the outlier score aggregates the
negative log tail probabilities, automatically choosing the heavier tail
per dimension based on skewness.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.outlier.base import OutlierDetector


def _skewness(X: np.ndarray) -> np.ndarray:
    """Per-column sample skewness m3 / m2**1.5, NaN for a constant column.

    The same operations, in the same order, as ``scipy.stats.skew(X, axis=0,
    bias=True)``, so the result is bitwise equal to it without importing
    ``scipy.stats``.
    """
    mean = X.mean(axis=0)
    centred = X - mean
    m2 = (centred**2).mean(axis=0)
    m3 = (centred**2 * centred).mean(axis=0)
    with np.errstate(all="ignore"):
        constant = m2 <= (np.finfo(m2.dtype).eps * mean) ** 2
        return np.where(constant, np.nan, m3 / m2**1.5)


class ECOD(OutlierDetector):
    """Empirical-Cumulative-distribution-based Outlier Detection."""

    def __init__(self) -> None:
        self._train: Optional[np.ndarray] = None
        self._skew: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray) -> "ECOD":
        X = self._validate(X)
        self._train = X.copy()
        self._skew = _skewness(X)
        return self

    def _tail_probabilities(self, X: np.ndarray) -> tuple:
        """Left and right empirical tail probabilities of X against the training sample."""
        n = self._train.shape[0]
        left = np.empty_like(X)
        right = np.empty_like(X)
        for dim in range(X.shape[1]):
            sorted_column = np.sort(self._train[:, dim])
            # P(train <= x) and P(train >= x), with the +1 smoothing ECOD uses.
            left[:, dim] = (np.searchsorted(sorted_column, X[:, dim], side="right") + 1) / (n + 1)
            right[:, dim] = (n - np.searchsorted(sorted_column, X[:, dim], side="left") + 1) / (n + 1)
        return left, right

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        if self._train is None:
            raise RuntimeError("call fit() before scoring")
        X = self._validate(X, fitted_dim=self._train.shape[1])
        left, right = self._tail_probabilities(X)
        log_left = -np.log(left)
        log_right = -np.log(right)
        # Skewness-corrected aggregation: use the tail matching the skew sign.
        skew_corrected = np.where(self._skew[None, :] < 0, log_left, log_right)
        aggregated = np.maximum(np.maximum(log_left.sum(axis=1), log_right.sum(axis=1)), skew_corrected.sum(axis=1))
        return aggregated
