"""Group-wise classification metrics: matching, F1 and AUC.

A *predicted* group counts as anomalous-correct when it matches some
ground-truth group; matching uses node overlap (at least half of a true
group covered, or a Jaccard similarity above a threshold).  F1 is computed
over the thresholded predictions; AUC treats each scored candidate group as
one ranking example whose label is whether it matches a true group.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph import Group


def match_groups(
    predicted: Sequence[Group],
    truth: Sequence[Group],
    coverage_threshold: float = 0.5,
    jaccard_threshold: float = 0.3,
) -> np.ndarray:
    """Binary label per predicted group: does it match any ground-truth group?

    A match requires either covering at least ``coverage_threshold`` of some
    true group while having at least half of its own nodes inside it, or a
    Jaccard similarity of at least ``jaccard_threshold``.
    """
    labels = np.zeros(len(predicted), dtype=bool)
    for index, candidate in enumerate(predicted):
        for true_group in truth:
            overlap = len(candidate.nodes & true_group.nodes)
            if overlap == 0:
                continue
            coverage = overlap / len(true_group.nodes)
            precision = overlap / len(candidate.nodes)
            jaccard = overlap / len(candidate.nodes | true_group.nodes)
            if (coverage >= coverage_threshold and precision >= 0.5) or jaccard >= jaccard_threshold:
                labels[index] = True
                break
    return labels


def roc_auc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """Rank-based ROC AUC (Mann-Whitney U) handling ties; 0.5 for degenerate labels."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    n_positive = int(labels.sum())
    n_negative = int((~labels).sum())
    if n_positive == 0 or n_negative == 0:
        return 0.5
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty_like(order, dtype=np.float64)
    sorted_scores = scores[order]
    # Average ranks for tied scores.
    i = 0
    position = 1
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        average_rank = (position + position + (j - i)) / 2.0
        ranks[order[i : j + 1]] = average_rank
        position += j - i + 1
        i = j + 1
    rank_sum_positive = ranks[labels].sum()
    auc = (rank_sum_positive - n_positive * (n_positive + 1) / 2.0) / (n_positive * n_negative)
    return float(auc)


def _threshold_mask(scores: np.ndarray, threshold: Optional[float], contamination: float) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if threshold is not None:
        return scores > threshold
    cut = np.quantile(scores, 1.0 - contamination) if len(scores) else 0.0
    return scores >= cut


def group_detection_f1(
    anomalous: Sequence[Group],
    truth: Sequence[Group],
    coverage_threshold: float = 0.5,
    jaccard_threshold: float = 0.3,
) -> float:
    """Detection-style group F1.

    Recall is the fraction of ground-truth anomaly groups matched by at
    least one flagged group; precision is the fraction of flagged groups
    matching at least one ground-truth group.  This penalises both missing
    real groups (the failure mode of N-GAD/Sub-GAD baselines, which flag a
    couple of small fragments) and over-reporting spurious groups.
    """
    anomalous = list(anomalous)
    truth = list(truth)
    if not truth:
        return 0.0
    if not anomalous:
        return 0.0

    predicted_matches = match_groups(anomalous, truth, coverage_threshold, jaccard_threshold)
    truth_matches = match_groups(truth, anomalous, coverage_threshold, jaccard_threshold)
    precision = float(predicted_matches.mean())
    recall = float(truth_matches.mean())
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def group_f1_score(
    predicted: Sequence[Group],
    scores: np.ndarray,
    truth: Sequence[Group],
    threshold: Optional[float] = None,
    contamination: float = 0.15,
) -> float:
    """Group-wise F1 of the thresholded candidate groups (see :func:`group_detection_f1`)."""
    predicted = list(predicted)
    if not predicted:
        return 0.0
    mask = _threshold_mask(scores, threshold, contamination)
    anomalous = [group for group, flag in zip(predicted, mask) if flag]
    return group_detection_f1(anomalous, truth)


def group_auc(predicted: Sequence[Group], scores: np.ndarray, truth: Sequence[Group]) -> float:
    """Group-wise ROC AUC of candidate-group scores against ground-truth matches."""
    if len(predicted) == 0:
        return 0.5
    labels = match_groups(predicted, truth)
    return roc_auc_score(labels, np.asarray(scores, dtype=np.float64))


def average_group_size(groups: Sequence[Group]) -> float:
    """Mean node count of a set of groups (used by the Fig. 5 experiment)."""
    groups = list(groups)
    if not groups:
        return 0.0
    return float(np.mean([len(g) for g in groups]))
