"""Tests for the visualisation helpers and the experiment harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentSettings,
    run_figure8,
    run_stream,
    run_table1,
    run_table2,
    render_figure8,
    render_stream,
    render_table1,
    render_table2,
)
from repro.experiments.figure6 import pba_ppa_rank
from repro.experiments.figure7 import embedding_separation
from repro.viz import format_bar_chart, format_heatmap, format_table, tsne


QUICK = ExperimentSettings(
    datasets=["ethereum-tsgn", "simml"],
    scale=0.08,
    seeds=(0,),
    mhgae_epochs=15,
    tpgcl_epochs=3,
    baseline_epochs=10,
    max_candidates=60,
)


class TestViz:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1.23456], ["yy", 2.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.235" in text

    def test_format_table_with_title(self):
        assert format_table(["a"], [[1]], title="T").splitlines()[0] == "T"

    def test_format_heatmap(self):
        text = format_heatmap(np.eye(2), ["r1", "r2"], ["c1", "c2"], title="H")
        assert "r1" in text and "c2" in text

    def test_format_bar_chart(self):
        text = format_bar_chart({"alpha": 2.0, "beta": 1.0}, title="B", width=10)
        assert text.splitlines()[0] == "B"
        assert text.count("#") > 0

    def test_format_bar_chart_empty(self):
        assert format_bar_chart({}, title="B") == "B"

    def test_tsne_output_shape_and_finite(self, rng):
        data = np.vstack([rng.normal(size=(20, 5)), rng.normal(loc=6.0, size=(20, 5))])
        coordinates = tsne(data, n_iterations=60, seed=0)
        assert coordinates.shape == (40, 2)
        assert np.isfinite(coordinates).all()

    def test_tsne_separates_well_separated_clusters(self, rng):
        data = np.vstack([rng.normal(size=(25, 4)), rng.normal(loc=10.0, size=(25, 4))])
        coordinates = tsne(data, n_iterations=150, seed=1)
        labels = np.array([False] * 25 + [True] * 25)
        assert embedding_separation(coordinates, labels) > 1.2

    def test_tsne_needs_three_samples(self):
        with pytest.raises(ValueError):
            tsne(np.ones((2, 3)))


class TestExperimentHarness:
    def test_registry_contains_every_artifact(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4", "table5",
            "figure5", "figure6", "figure7", "figure8", "stream",
        }

    def test_stream_replay_produces_one_record_per_dataset(self):
        settings = ExperimentSettings(
            datasets=["simml"], scale=0.05, seeds=(0,), mhgae_epochs=5, tpgcl_epochs=2
        )
        records = run_stream(settings)
        assert len(records) == 1
        record = records[0]
        assert record["dataset"] == "simML"
        assert record["speedup_vs_refit"] > 0
        assert record["incremental_ticks"] + record["refits"] == 8
        assert "Streaming replay" in render_stream(records)

    def test_table1_matches_dataset_statistics(self):
        records = run_table1(QUICK)
        assert len(records) == len(QUICK.datasets)
        for record in records:
            assert record["nodes"] > 0 and record["anomaly_groups"] >= 3
        assert "Table I" in render_table1(records)

    def test_table2_pattern_mix_shapes(self):
        records = run_table2(QUICK)
        by_name = {r["dataset"]: r for r in records}
        # AMLPublic is path dominated; Ethereum has trees and cycles.
        assert by_name["AMLPublic"]["path"] >= by_name["AMLPublic"]["tree"]
        assert by_name["Ethereum-TSGN"]["tree"] + by_name["Ethereum-TSGN"]["cycle"] >= by_name["Ethereum-TSGN"]["path"]
        assert "Table II" in render_table2(records)

    def test_figure8_mhgae_recovers_deep_members_best_among_gaes(self):
        records = run_figure8(QUICK)
        by_method = {r["method"]: r for r in records}
        assert set(by_method) == {"DOMINANT", "DeepAE", "ComGA", "MH-GAE"}
        assert by_method["MH-GAE"]["deep_recall"] >= by_method["DOMINANT"]["deep_recall"]
        assert by_method["MH-GAE"]["recall"] >= 0.5
        assert "Figure 8" in render_figure8(records)

    def test_pba_ppa_rank_helper(self):
        record = {"augmentations": ["PBA", "PPA"], "grid": [[0.1, 0.9], [0.2, 0.3]]}
        assert pba_ppa_rank(record) == 0

    def test_settings_quick_factory(self):
        settings = ExperimentSettings.quick()
        assert settings.scale <= 0.12
        assert len(settings.seeds) == 1

    def test_pipeline_config_overrides(self):
        settings = ExperimentSettings.quick()
        config = settings.pipeline_config(seed=3, use_tpgcl=False)
        assert config.use_tpgcl is False
        assert config.seed == 3
