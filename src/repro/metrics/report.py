"""Bundled evaluation of a group-detection result against ground truth."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.graph import Group
from repro.metrics.classification import average_group_size, group_auc, group_detection_f1
from repro.metrics.completeness import completeness_ratio


@dataclass
class EvaluationReport:
    """CR / F1 / AUC plus descriptive statistics for one detection run."""

    cr: float
    f1: float
    auc: float
    n_predicted: int
    avg_predicted_size: float
    avg_truth_size: float


def evaluate_detection(
    predicted_groups: Sequence[Group],
    scores: np.ndarray,
    truth_groups: Sequence[Group],
    anomalous_groups: Optional[Sequence[Group]] = None,
    threshold: Optional[float] = None,
    contamination: float = 0.15,
) -> EvaluationReport:
    """Evaluate a detection run.

    Parameters
    ----------
    predicted_groups:
        All scored candidate groups (the ranking population for AUC/F1).
    scores:
        Anomaly score of each candidate group (larger = more anomalous).
    truth_groups:
        Ground-truth anomaly groups of the dataset.
    anomalous_groups:
        The groups the detector actually flags as anomalous (above its
        threshold); used for CR and size statistics.  Defaults to the
        thresholded candidates when omitted.
    """
    predicted_groups = list(predicted_groups)
    scores = np.asarray(scores, dtype=np.float64)
    truth_groups = list(truth_groups)

    if anomalous_groups is None:
        if len(predicted_groups):
            if threshold is not None:
                mask = scores > threshold
            else:
                cut = np.quantile(scores, 1.0 - contamination)
                mask = scores >= cut
            anomalous_groups = [g for g, flag in zip(predicted_groups, mask) if flag]
        else:
            anomalous_groups = []
    anomalous_groups = list(anomalous_groups)

    return EvaluationReport(
        cr=completeness_ratio(truth_groups, anomalous_groups) if truth_groups else 0.0,
        f1=group_detection_f1(anomalous_groups, truth_groups),
        auc=group_auc(predicted_groups, scores, truth_groups),
        n_predicted=len(anomalous_groups),
        avg_predicted_size=average_group_size(anomalous_groups),
        avg_truth_size=average_group_size(truth_groups),
    )
