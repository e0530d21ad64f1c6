"""Table III — CR / F1 / AUC of every method on every dataset.

The main comparison of the paper: the five baselines plus TP-GrGAD,
evaluated with the three group-level metrics, mean ± standard error over
the configured seeds.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.baselines import get_baseline
from repro.core import TPGrGAD
from repro.experiments.settings import BASELINE_NAMES, ExperimentSettings
from repro.viz import format_table

# Published Table III numbers for the proposed method, used in EXPERIMENTS.md
# to compare shapes (baseline rows omitted here for brevity; the full table
# lives in the paper and in EXPERIMENTS.md).
PAPER_TPGRGAD: Dict[str, Dict[str, float]] = {
    "Ethereum-TSGN": {"CR": 0.81, "F1": 0.73, "AUC": 0.86},
    "AMLPublic": {"CR": 0.89, "F1": 0.90, "AUC": 0.85},
    "simML": {"CR": 0.84, "F1": 0.76, "AUC": 0.84},
    "Cora-group": {"CR": 0.93, "F1": 0.75, "AUC": 0.73},
    "CiteSeer-group": {"CR": 0.72, "F1": 0.85, "AUC": 0.87},
}


def _aggregate(values: List[float]) -> Dict[str, float]:
    array = np.asarray(values, dtype=np.float64)
    standard_error = float(array.std(ddof=1) / np.sqrt(len(array))) if len(array) > 1 else 0.0
    return {"mean": float(array.mean()), "stderr": standard_error}


def run_table3(
    settings: Optional[ExperimentSettings] = None,
    methods: Optional[List[str]] = None,
) -> List[Dict[str, object]]:
    """Run every method on every dataset over all seeds.

    The TP-GrGAD configuration depends only on the seed, so for each seed
    one detector scores all datasets' graphs through the batched
    :meth:`TPGrGAD.fit_detect_many` API (each graph is still evaluated
    independently — per-(dataset, seed) numbers are identical to the
    per-graph loop the baselines keep).

    Returns one record per (dataset, method) with mean and standard error
    of CR, F1 and AUC.
    """
    settings = settings or ExperimentSettings()
    methods = methods if methods is not None else BASELINE_NAMES + ["tp-grgad"]
    datasets = list(settings.datasets)

    metric_values: Dict[tuple, Dict[str, List[float]]] = {
        (dataset, method): {"CR": [], "F1": [], "AUC": []} for dataset in datasets for method in methods
    }

    def _record_report(dataset: str, method: str, report) -> None:
        metric_values[(dataset, method)]["CR"].append(report.cr)
        metric_values[(dataset, method)]["F1"].append(report.f1)
        metric_values[(dataset, method)]["AUC"].append(report.auc)

    for seed in settings.seeds:
        graphs = {dataset: settings.load(dataset, seed=seed) for dataset in datasets}
        if "tp-grgad" in methods:
            detector = TPGrGAD(settings.pipeline_config(seed=seed))
            results = detector.fit_detect_many([graphs[dataset] for dataset in datasets])
            for dataset, result in zip(datasets, results):
                _record_report(dataset, "tp-grgad", result.evaluate(graphs[dataset]))
        for method in methods:
            if method == "tp-grgad":
                continue
            for dataset in datasets:
                baseline = get_baseline(method, settings.baseline_config(seed=seed))
                _record_report(dataset, method, baseline.fit_detect(graphs[dataset]).evaluate(graphs[dataset]))

    records: List[Dict[str, object]] = []
    for dataset in datasets:
        for method in methods:
            record: Dict[str, object] = {
                "dataset": settings.display_name(dataset),
                "method": "TP-GrGAD" if method == "tp-grgad" else method.upper() if method != "as-gae" else "AS-GAE",
            }
            for metric, values in metric_values[(dataset, method)].items():
                aggregated = _aggregate(values)
                record[metric] = aggregated["mean"]
                record[f"{metric}_stderr"] = aggregated["stderr"]
            records.append(record)
    return records


def render_table3(records: List[Dict[str, object]]) -> str:
    """Format Table III as ASCII (mean ± standard error)."""
    rows = []
    for record in records:
        rows.append(
            [
                record["dataset"],
                record["method"],
                f"{record['CR']:.2f}±{record['CR_stderr']:.2f}",
                f"{record['F1']:.2f}±{record['F1_stderr']:.2f}",
                f"{record['AUC']:.2f}±{record['AUC_stderr']:.2f}",
            ]
        )
    return format_table(
        ["dataset", "method", "CR", "F1", "AUC"],
        rows,
        title="Table III — group-level detection results (mean ± stderr over seeds)",
    )
