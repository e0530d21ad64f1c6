"""Unit and integration tests for the TP-GrGAD pipeline and result container."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import GroupDetectionResult, TPGrGAD, TPGrGADConfig
from repro.gae import MHGAEConfig
from repro.graph import Group


class TestConfig:
    def test_fast_config_derives_distinct_stage_seeds(self):
        config = TPGrGADConfig.fast(seed=5)
        assert config.seed == 5
        # Unset stage seeds get per-stage streams derived from the master —
        # distinct from each other and from the master itself.
        stage_seeds = {config.mhgae.seed, config.sampler.seed, config.tpgcl.seed}
        assert len(stage_seeds) == 3
        assert 5 not in stage_seeds
        # The derivation is deterministic: same master, same stage seeds.
        again = TPGrGADConfig.fast(seed=5)
        assert (again.mhgae.seed, again.sampler.seed, again.tpgcl.seed) == (
            config.mhgae.seed, config.sampler.seed, config.tpgcl.seed,
        )

    def test_invalid_anchor_fraction(self):
        with pytest.raises(ValueError):
            TPGrGADConfig(anchor_fraction=0.0)

    @pytest.mark.parametrize("max_anchors", [0, -1])
    def test_invalid_max_anchors(self, max_anchors):
        # -1 used to keep 109 of 110 nodes as anchors; 0 ran the pipeline
        # with no anchors at all.
        with pytest.raises(ValueError, match="max_anchors"):
            TPGrGADConfig(max_anchors=max_anchors)

    def test_invalid_contamination(self):
        with pytest.raises(ValueError):
            TPGrGADConfig(contamination=1.0)

    def test_explicit_stage_seeds_preserved(self):
        config = TPGrGADConfig(mhgae=MHGAEConfig(seed=42), seed=7)
        assert config.mhgae.seed == 42

    def test_explicit_zero_stage_seed_wins(self):
        # The historical footgun: an explicit stage seed of 0 used to be
        # silently overwritten by the master seed.  0 must stick.
        config = TPGrGADConfig(mhgae=MHGAEConfig(seed=0), seed=7)
        assert config.mhgae.seed == 0

    def test_pinned_stage_seeds_share_the_derived_identity(self):
        # Pinning each stage seed to the value the master would derive
        # builds the same pipeline, so it must be the same model identity.
        derived = TPGrGADConfig(seed=7)
        pinned = TPGrGADConfig(
            mhgae=dataclasses.replace(derived.mhgae),
            sampler=dataclasses.replace(derived.sampler),
            tpgcl=dataclasses.replace(derived.tpgcl),
            seed=7,
        )
        assert repr(pinned) == repr(derived)
        assert pinned.content_hash() == derived.content_hash()
        assert TPGrGADConfig(seed=8).content_hash() != derived.content_hash()


class TestResultContainer:
    def _result(self):
        groups = [Group.from_nodes([0, 1, 2]), Group.from_nodes([3, 4]), Group.from_nodes([5, 6, 7, 8])]
        scores = np.array([0.9, 0.1, 0.5])
        return GroupDetectionResult(
            candidate_groups=groups,
            scores=scores,
            threshold=0.4,
            anomalous_groups=[groups[0].with_score(0.9), groups[2].with_score(0.5)],
        )

    def test_counts_and_sizes(self):
        result = self._result()
        assert result.n_candidates == 3
        assert result.n_anomalous == 2
        assert result.average_anomalous_size() == pytest.approx(3.5)

    def test_top_groups_sorted_by_score(self):
        result = self._result()
        top = result.top_groups(2)
        assert [g.score for g in top] == [pytest.approx(0.9), pytest.approx(0.5)]

    def test_score_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            GroupDetectionResult(
                candidate_groups=[Group.from_nodes([0])],
                scores=np.array([0.1, 0.2]),
                threshold=0.0,
                anomalous_groups=[],
            )

    def test_empty_result_statistics(self):
        result = GroupDetectionResult(candidate_groups=[], scores=np.array([]), threshold=0.0, anomalous_groups=[])
        assert result.average_anomalous_size() == 0.0
        assert result.top_groups(3) == []


class TestPipelineStages:
    @pytest.fixture(scope="class")
    def fitted(self, example_graph):
        detector = TPGrGAD(TPGrGADConfig.fast(seed=1))
        result = detector.fit_detect(example_graph)
        return detector, result

    def test_anchor_stage_enriched_in_group_nodes(self, fitted, example_graph):
        _, result = fitted
        truth = example_graph.anomaly_node_mask()
        anomaly_rate = truth.mean()
        anchor_hit_rate = truth[result.anchor_nodes].mean()
        assert anchor_hit_rate > anomaly_rate  # anchors beat random selection

    def test_candidates_and_scores_consistent(self, fitted):
        _, result = fitted
        assert result.n_candidates == len(result.scores)
        assert result.embeddings.shape[0] == result.n_candidates
        assert np.isfinite(result.scores).all()

    def test_anomalous_groups_respect_threshold(self, fitted):
        _, result = fitted
        assert all(g.score >= result.threshold for g in result.anomalous_groups)
        assert result.n_anomalous <= result.n_candidates

    def test_node_scores_available(self, fitted, example_graph):
        _, result = fitted
        assert result.node_scores.shape == (example_graph.n_nodes,)

    def test_evaluation_reports_reasonable_quality(self, fitted, example_graph):
        _, result = fitted
        report = result.evaluate(example_graph)
        assert report.cr > 0.3
        assert report.auc >= 0.5
        assert report.avg_truth_size == pytest.approx(example_graph.average_group_size())

    def test_explicit_threshold_respected(self, example_graph):
        detector = TPGrGAD(TPGrGADConfig.fast(seed=2))
        result = detector.fit_detect(example_graph, threshold=float("inf"))
        assert result.n_anomalous == 0

    def test_without_tpgcl_uses_mean_features(self, example_graph):
        config = TPGrGADConfig.fast(seed=1)
        config.use_tpgcl = False
        result = TPGrGAD(config).fit_detect(example_graph)
        assert result.embeddings.shape[1] == example_graph.n_features

    def test_alternative_outlier_detector(self, example_graph):
        config = TPGrGADConfig.fast(seed=1)
        config.detector = "iforest"
        result = TPGrGAD(config).fit_detect(example_graph)
        assert result.n_candidates > 0


class TestBatchedPipeline:
    def test_fit_detect_many_matches_independent_runs(self, example_graph):
        from repro.datasets import make_example_graph

        other = make_example_graph(seed=11)
        batched = TPGrGAD(TPGrGADConfig.fast(seed=1)).fit_detect_many([example_graph, other])
        singles = [
            TPGrGAD(TPGrGADConfig.fast(seed=1)).fit_detect(example_graph),
            TPGrGAD(TPGrGADConfig.fast(seed=1)).fit_detect(other),
        ]
        for batch_result, single_result in zip(batched, singles):
            assert batch_result.to_json_dict() == single_result.to_json_dict()

    def test_repeated_graph_gives_equal_independent_results(self, example_graph):
        detector = TPGrGAD(TPGrGADConfig.fast(seed=1))
        results = detector.fit_detect_many([example_graph, example_graph])
        expected = results[1].to_json_dict()
        assert results[0].to_json_dict() == expected
        results[0].candidate_groups.append(Group.from_nodes([0, 1]))
        results[0].embeddings[:] = 0.0
        assert results[1].to_json_dict() == expected
        assert detector.fit_detect(example_graph).to_json_dict() == expected

    def test_repeated_fit_respects_new_threshold(self, example_graph):
        detector = TPGrGAD(TPGrGADConfig.fast(seed=1))
        detector.fit_detect(example_graph)
        rethresholded = detector.fit_detect(example_graph, threshold=float("inf"))
        assert rethresholded.n_anomalous == 0
        assert rethresholded.n_candidates > 0

    def test_refit_rebinds_matching_stage_models(self, example_graph):
        from repro.datasets import make_example_graph

        other = make_example_graph(seed=11)
        detector = TPGrGAD(TPGrGADConfig.fast(seed=1))
        detector.fit_detect(example_graph)
        first_scores = detector.mhgae.score_nodes().copy()
        detector.fit_detect(other)
        detector.fit_detect(example_graph)
        assert detector.mhgae.score_nodes() == pytest.approx(first_scores)

    def test_fit_detect_many_empty_list(self):
        assert TPGrGAD(TPGrGADConfig.fast(seed=1)).fit_detect_many([]) == []

    def test_result_to_json_dict_roundtrips_through_json(self, example_graph):
        import json

        result = TPGrGAD(TPGrGADConfig.fast(seed=1)).fit_detect(example_graph)
        payload = result.to_json_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert len(payload["scores"]) == result.n_candidates
        assert payload["anomalous_groups"] == sorted(sorted(g.nodes) for g in result.anomalous_groups)


class TestFittedState:
    """``TPGrGAD.state`` is the one fitted state: who sets it, who leaves it."""

    def test_state_is_none_before_a_fit(self):
        assert TPGrGAD(TPGrGADConfig.fast(seed=1)).state is None

    def test_fit_sets_state_of_the_fitted_graph(self, example_graph):
        detector = TPGrGAD(TPGrGADConfig.fast(seed=1))
        detector.fit_detect(example_graph)
        assert detector.state.graph_fingerprint == example_graph.fingerprint()
        assert detector.state.n_features == example_graph.n_features
        assert detector.state.config is detector.config

    def test_detect_only_leaves_state_in_place(self, example_graph):
        from repro.datasets import make_example_graph

        detector = TPGrGAD(TPGrGADConfig.fast(seed=1))
        detector.fit_detect(example_graph)
        state = detector.state
        detector.detect_only(make_example_graph(seed=11))
        assert detector.state is state

    def test_fit_detect_many_holds_last_graphs_state(self, example_graph):
        from repro.datasets import make_example_graph

        graphs = [make_example_graph(seed=11), example_graph]
        detector = TPGrGAD(TPGrGADConfig.fast(seed=1))
        detector.fit_detect_many(graphs)
        serial = TPGrGAD(TPGrGADConfig.fast(seed=1))
        serial.fit_detect(graphs[-1])
        assert detector.state.graph_fingerprint == graphs[-1].fingerprint()
        for name, values in serial.state.mhgae_state.items():
            assert np.array_equal(detector.state.mhgae_state[name], values), name

    @pytest.mark.parametrize("call", ["detect_only", "save"])
    def test_unfitted_detector_raises_naming_fit_detect(self, call, example_graph, tmp_path):
        detector = TPGrGAD(TPGrGADConfig.fast(seed=1))
        argument = example_graph if call == "detect_only" else tmp_path / "artifact"
        with pytest.raises(RuntimeError, match="fit_detect"):
            getattr(detector, call)(argument)
