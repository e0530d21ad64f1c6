"""Group-level evaluation metrics.

The paper evaluates Gr-GAD along two axes (Sec. VII-A2):

* **detection accuracy** — group-wise F1 and AUC, where a predicted group is
  a true positive when it matches a ground-truth anomaly group;
* **detection completeness** — the Completeness Ratio (CR, Eqns. 24-25),
  which this paper introduces and which simultaneously penalises missing
  and redundant nodes in the matched predictions.
"""

from repro.metrics.completeness import completeness_ratio, completeness_score
from repro.metrics.classification import (
    group_f1_score,
    group_detection_f1,
    group_auc,
    match_groups,
    roc_auc_score,
    average_group_size,
)
from repro.metrics.report import EvaluationReport, evaluate_detection

__all__ = [
    "completeness_ratio",
    "completeness_score",
    "group_f1_score",
    "group_detection_f1",
    "group_auc",
    "match_groups",
    "roc_auc_score",
    "average_group_size",
    "EvaluationReport",
    "evaluate_detection",
]
