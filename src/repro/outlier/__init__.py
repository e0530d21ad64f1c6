"""Unsupervised outlier detectors used to score group embeddings.

The paper feeds TPGCL embeddings into ECOD (and mentions SUOD as an
alternative).  All detectors here follow the same minimal interface:
``fit(X)`` and ``decision_scores(X)`` (larger = more anomalous); the
pipeline thresholds those scores itself.
"""

from repro.outlier.base import OutlierDetector
from repro.outlier.ecod import ECOD
from repro.outlier.lof import LocalOutlierFactor
from repro.outlier.iforest import IsolationForest
from repro.outlier.mahalanobis import MahalanobisDetector
from repro.outlier.ensemble import SUODEnsemble
from repro.outlier.registry import get_detector, available_detectors

__all__ = [
    "OutlierDetector",
    "ECOD",
    "LocalOutlierFactor",
    "IsolationForest",
    "MahalanobisDetector",
    "SUODEnsemble",
    "get_detector",
    "available_detectors",
]
