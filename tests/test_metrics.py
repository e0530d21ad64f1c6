"""Unit tests for the group-level metrics (CR, F1, AUC, matching, report)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.graph import Group
from repro.metrics import (
    average_group_size,
    completeness_ratio,
    completeness_score,
    evaluate_detection,
    group_auc,
    group_detection_f1,
    group_f1_score,
    match_groups,
    roc_auc_score,
)


def group(*nodes) -> Group:
    return Group.from_nodes(nodes)


class TestCompleteness:
    def test_exact_match_scores_one(self):
        truth = group(0, 1, 2, 3)
        assert completeness_score(truth, [group(0, 1, 2, 3)]) == pytest.approx(1.0)

    def test_no_overlap_scores_zero(self):
        assert completeness_score(group(0, 1), [group(5, 6)]) == 0.0

    def test_partial_detection(self):
        # Predicted covers half of the truth and has no redundant nodes.
        truth = group(0, 1, 2, 3)
        assert completeness_score(truth, [group(0, 1)]) == pytest.approx(0.5 * (0.5 + 1.0))

    def test_redundant_nodes_penalised(self):
        truth = group(0, 1, 2, 3)
        # Full coverage but half the prediction is redundant.
        assert completeness_score(truth, [group(0, 1, 2, 3, 4, 5, 6, 7)]) == pytest.approx(0.5 * (1.0 + 0.5))

    def test_best_match_selected(self):
        truth = group(0, 1, 2, 3)
        predictions = [group(9), group(0, 1), group(0, 1, 2, 3)]
        assert completeness_score(truth, predictions) == pytest.approx(1.0)

    def test_cr_averages_over_truth_groups(self):
        truth = [group(0, 1), group(2, 3)]
        predictions = [group(0, 1)]
        assert completeness_ratio(truth, predictions) == pytest.approx(0.5)

    def test_cr_no_predictions_is_zero(self):
        assert completeness_ratio([group(0, 1)], []) == 0.0

    def test_cr_no_truth_raises(self):
        with pytest.raises(ValueError):
            completeness_ratio([], [group(0, 1)])

    def test_empty_truth_group_raises(self):
        with pytest.raises(ValueError):
            completeness_score(Group.from_nodes([]), [group(0)])

    def test_cr_bounded_between_zero_and_one(self):
        truth = [group(0, 1, 2), group(5, 6, 7, 8)]
        predictions = [group(0, 1, 9), group(6, 7)]
        value = completeness_ratio(truth, predictions)
        assert 0.0 <= value <= 1.0


class TestMatching:
    def test_exact_match(self):
        labels = match_groups([group(0, 1, 2)], [group(0, 1, 2)])
        assert labels.tolist() == [True]

    def test_disjoint_no_match(self):
        labels = match_groups([group(0, 1)], [group(5, 6, 7)])
        assert labels.tolist() == [False]

    def test_jaccard_threshold_match(self):
        labels = match_groups([group(0, 1, 2, 3)], [group(2, 3, 4, 5)], jaccard_threshold=0.3)
        assert labels.tolist() == [True]

    def test_coverage_requires_precision_too(self):
        # A huge candidate containing a small true group: coverage 1.0 but precision tiny.
        labels = match_groups([group(*range(30))], [group(0, 1, 2)], jaccard_threshold=0.3)
        assert labels.tolist() == [False]

    def test_multiple_candidates(self):
        labels = match_groups([group(0, 1, 2), group(7, 8)], [group(0, 1, 2)])
        assert labels.tolist() == [True, False]


class TestClassificationMetrics:
    def test_roc_auc_perfect_ranking(self):
        labels = np.array([False, False, True, True])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc_score(labels, scores) == pytest.approx(1.0)

    def test_roc_auc_inverted_ranking(self):
        labels = np.array([False, False, True, True])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert roc_auc_score(labels, scores) == pytest.approx(0.0)

    def test_roc_auc_ties_give_half_credit(self):
        labels = np.array([False, True])
        scores = np.array([0.5, 0.5])
        assert roc_auc_score(labels, scores) == pytest.approx(0.5)

    def test_roc_auc_degenerate_labels(self):
        assert roc_auc_score(np.array([True, True]), np.array([0.1, 0.9])) == 0.5

    def test_group_detection_f1_perfect(self):
        truth = [group(0, 1, 2), group(5, 6, 7)]
        assert group_detection_f1(truth, truth) == pytest.approx(1.0)

    def test_group_detection_f1_misses_one_group(self):
        truth = [group(0, 1, 2), group(5, 6, 7)]
        predicted = [group(0, 1, 2)]
        # precision 1, recall 0.5 -> F1 = 2/3
        assert group_detection_f1(predicted, truth) == pytest.approx(2 / 3)

    def test_group_detection_f1_spurious_predictions(self):
        truth = [group(0, 1, 2)]
        predicted = [group(0, 1, 2), group(10, 11), group(20, 21)]
        assert group_detection_f1(predicted, truth) == pytest.approx(0.5)

    def test_group_detection_f1_empty_cases(self):
        assert group_detection_f1([], [group(0, 1)]) == 0.0
        assert group_detection_f1([group(0, 1)], []) == 0.0

    def test_group_f1_score_thresholds_by_contamination(self):
        truth = [group(0, 1, 2)]
        predicted = [group(0, 1, 2), group(10, 11)]
        scores = np.array([0.9, 0.1])
        assert group_f1_score(predicted, scores, truth, contamination=0.5) == pytest.approx(1.0)

    def test_group_auc_ranks_matching_groups_higher(self):
        truth = [group(0, 1, 2)]
        predicted = [group(0, 1, 2), group(10, 11), group(20, 21)]
        scores = np.array([0.9, 0.2, 0.1])
        assert group_auc(predicted, scores, truth) == pytest.approx(1.0)

    def test_group_auc_empty_predictions(self):
        assert group_auc([], np.array([]), [group(0, 1)]) == 0.5

    def test_average_group_size(self):
        assert average_group_size([group(0, 1), group(2, 3, 4, 5)]) == pytest.approx(3.0)
        assert average_group_size([]) == 0.0


class TestEvaluationReport:
    def test_report_fields_and_dict(self):
        truth = [group(0, 1, 2)]
        predicted = [group(0, 1, 2), group(10, 11)]
        scores = np.array([0.9, 0.1])
        report = evaluate_detection(predicted, scores, truth, threshold=0.5)
        assert report.cr == pytest.approx(1.0)
        assert report.f1 == pytest.approx(1.0)
        assert report.auc == pytest.approx(1.0)
        assert report.n_predicted == 1
        assert set(dataclasses.asdict(report)) == {"cr", "f1", "auc", "n_predicted", "avg_predicted_size", "avg_truth_size"}

    def test_report_uses_explicit_anomalous_groups(self):
        truth = [group(0, 1, 2)]
        predicted = [group(0, 1, 2), group(10, 11)]
        scores = np.array([0.9, 0.8])
        report = evaluate_detection(predicted, scores, truth, anomalous_groups=[predicted[0]])
        assert report.n_predicted == 1
        assert report.f1 == pytest.approx(1.0)

    def test_report_contamination_thresholding(self):
        truth = [group(0, 1, 2)]
        predicted = [group(0, 1, 2), group(10, 11), group(12, 13)]
        scores = np.array([0.9, 0.5, 0.1])
        report = evaluate_detection(predicted, scores, truth, contamination=0.34)
        assert report.n_predicted == 1
