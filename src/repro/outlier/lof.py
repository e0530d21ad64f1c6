"""Local Outlier Factor (Breunig et al., 2000) on dense embeddings."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.outlier.base import OutlierDetector


class LocalOutlierFactor(OutlierDetector):
    """Classic LOF: ratio of the local density of a point to that of its neighbours."""

    def __init__(self, n_neighbors: int = 10) -> None:
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        self.n_neighbors = n_neighbors
        self._train: Optional[np.ndarray] = None
        self._train_lrd: Optional[np.ndarray] = None
        self._train_k_distance: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _k(self, n_samples: int) -> int:
        return max(1, min(self.n_neighbors, n_samples - 1))

    def fit(self, X: np.ndarray) -> "LocalOutlierFactor":
        from scipy.spatial.distance import cdist  # off the default ECOD path

        X = self._validate(X)
        self._train = X.copy()
        k = self._k(X.shape[0])

        distances = cdist(X, X)
        np.fill_diagonal(distances, np.inf)
        neighbor_indices = np.argsort(distances, axis=1)[:, :k]
        neighbor_distances = np.take_along_axis(distances, neighbor_indices, axis=1)
        self._train_k_distance = neighbor_distances[:, -1]

        reach = np.maximum(neighbor_distances, self._train_k_distance[neighbor_indices])
        self._train_lrd = 1.0 / (reach.mean(axis=1) + 1e-12)
        return self

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        from scipy.spatial.distance import cdist  # off the default ECOD path

        if self._train is None:
            raise RuntimeError("call fit() before scoring")
        X = self._validate(X, fitted_dim=self._train.shape[1])
        k = self._k(self._train.shape[0])

        distances = cdist(X, self._train)
        # When scoring the training sample itself, ignore self-distances.
        if X.shape == self._train.shape and np.allclose(X, self._train):
            np.fill_diagonal(distances, np.inf)
        neighbor_indices = np.argsort(distances, axis=1)[:, :k]
        neighbor_distances = np.take_along_axis(distances, neighbor_indices, axis=1)

        reach = np.maximum(neighbor_distances, self._train_k_distance[neighbor_indices])
        lrd = 1.0 / (reach.mean(axis=1) + 1e-12)
        lof = (self._train_lrd[neighbor_indices].mean(axis=1)) / (lrd + 1e-12)
        return lof
