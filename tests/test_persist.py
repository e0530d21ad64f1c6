"""Artifact persistence: save/load roundtrips, manifests, JSON coercion."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import load_dataset
from repro.gae import MHGAEConfig
from repro.gcl import TPGCLConfig
from repro.persist import (
    ARTIFACT_FORMAT_VERSION,
    PipelineState,
    config_from_dict,
    config_to_dict,
    to_native,
)
from repro.sampling import SamplerConfig

SCORE_TOLERANCE = 1e-8


def _tiny_config(seed: int = 3) -> TPGrGADConfig:
    return TPGrGADConfig(
        mhgae=MHGAEConfig(epochs=6, hidden_dim=16, embedding_dim=8),
        sampler=SamplerConfig(max_candidates=60, max_anchor_pairs=60),
        tpgcl=TPGCLConfig(epochs=3, hidden_dim=16, embedding_dim=16, batch_size=12),
        max_anchors=15,
        seed=seed,
    )


# The three registry datasets of the roundtrip acceptance criterion, at
# scales small enough for the tier-1 budget.
ROUNDTRIP_DATASETS = [
    ("example", 1.0),
    ("simml", 0.04),
    ("cora-group", 0.04),
]


class TestToNative:
    def test_numpy_scalars_and_arrays(self):
        payload = {
            "f32": np.float32(0.5),
            "i64": np.int64(7),
            "bool": np.bool_(True),
            "arr": np.arange(3, dtype=np.int64),
            "nested": [np.float64(1.5), (np.int32(2),)],
        }
        native = to_native(payload)
        assert native == {"f32": 0.5, "i64": 7, "bool": True, "arr": [0, 1, 2], "nested": [1.5, [2]]}
        # Every leaf must be JSON-clean.
        assert json.loads(json.dumps(native)) == native

    def test_numpy_dict_keys_are_unwrapped(self):
        native = to_native({np.int64(3): np.float32(1.0)})
        assert native == {3: 1.0}
        json.dumps(native)  # must not raise

    def test_sets_become_sorted_lists(self):
        assert to_native({np.int64(2), np.int64(1)}) == [1, 2]

    def test_zero_dim_array(self):
        assert to_native(np.array(3.5)) == 3.5
        assert to_native({"v": np.array(7, dtype=np.int64)}) == {"v": 7}

    def test_result_json_dict_survives_numpy_inputs(self):
        from repro.core import GroupDetectionResult
        from repro.graph import Group

        result = GroupDetectionResult(
            candidate_groups=[Group.from_nodes(np.array([0, 1], dtype=np.int64))],
            scores=np.array([0.5], dtype=np.float32),
            threshold=np.float32(0.4),
            anomalous_groups=[Group.from_nodes([0, 1]).with_score(0.5)],
            anchor_nodes=np.array([0], dtype=np.int64),
        )
        payload = result.to_json_dict()
        json.dumps(payload)  # must not raise
        assert payload["threshold"] == pytest.approx(0.4)


class TestConfigRoundtrip:
    def test_config_dict_roundtrip_preserves_everything(self):
        config = _tiny_config(seed=9)
        clone = config_from_dict(config_to_dict(config))
        assert repr(clone) == repr(config)

    def test_config_dict_is_json_clean(self):
        payload = config_to_dict(_tiny_config())
        assert json.loads(json.dumps(payload)) == payload

    def test_roundtrip_preserves_content_hash(self):
        config = _tiny_config(seed=3)
        clone = config_from_dict(config_to_dict(config))
        assert clone.content_hash() == config.content_hash()
        # The dict holds the config's fields and nothing else.
        assert set(config_to_dict(config)) == {f.name for f in dataclasses.fields(config)}


class TestArtifactRoundtrip:
    @pytest.mark.parametrize("name,scale", ROUNDTRIP_DATASETS)
    def test_saved_then_loaded_detect_matches_fit_detect(self, name, scale, tmp_path):
        graph = load_dataset(name, scale=scale, seed=1)
        detector = TPGrGAD(_tiny_config())
        in_memory = detector.fit_detect(graph)

        detector.save(tmp_path / "artifact")
        loaded = TPGrGAD.load(tmp_path / "artifact")
        replayed = loaded.detect_only(graph)

        assert replayed.n_candidates == in_memory.n_candidates
        assert np.abs(replayed.scores - in_memory.scores).max() <= SCORE_TOLERANCE
        assert abs(replayed.threshold - in_memory.threshold) <= SCORE_TOLERANCE
        assert [sorted(g.nodes) for g in replayed.candidate_groups] == [
            sorted(g.nodes) for g in in_memory.candidate_groups
        ]
        assert np.array_equal(replayed.anchor_nodes, in_memory.anchor_nodes)

    def test_detect_only_without_fit_or_artifact_raises(self, example_graph):
        with pytest.raises(RuntimeError, match="fit_detect"):
            TPGrGAD(_tiny_config()).detect_only(example_graph)

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="unfitted"):
            TPGrGAD(_tiny_config()).save(tmp_path / "nope")

    def test_in_memory_detect_only_matches_fit_detect(self, example_graph):
        detector = TPGrGAD(_tiny_config())
        fitted = detector.fit_detect(example_graph)
        warm = detector.detect_only(example_graph)
        assert np.abs(warm.scores - fitted.scores).max() <= SCORE_TOLERANCE

    def test_warm_detect_on_new_graph(self, tmp_path, example_graph):
        from repro.datasets import make_example_graph

        detector = TPGrGAD(_tiny_config())
        detector.fit_detect(example_graph)
        detector.save(tmp_path / "artifact")

        other = make_example_graph(seed=23)
        loaded = TPGrGAD.load(tmp_path / "artifact")
        result = loaded.detect_only(other)
        assert result.n_candidates > 0
        assert np.isfinite(result.scores).all()
        # Warm inference must not have trained anything.
        assert loaded.tpgcl is None or loaded.tpgcl.training_result.losses == []

    def test_resave_of_loaded_detector_preserves_original_state(self, tmp_path, example_graph):
        from repro.datasets import make_example_graph

        detector = TPGrGAD(_tiny_config())
        detector.fit_detect(example_graph)
        detector.save(tmp_path / "first")

        loaded = TPGrGAD.load(tmp_path / "first")
        # Serving other graphs rebinds the live models but must not change
        # what a re-save persists: same weights, same fitted fingerprint.
        loaded.detect_only(make_example_graph(seed=23))
        loaded.save(tmp_path / "second")

        first = PipelineState.load(tmp_path / "first")
        second = PipelineState.load(tmp_path / "second")
        assert second.graph_fingerprint == first.graph_fingerprint == example_graph.fingerprint()
        for name, values in first.mhgae_state.items():
            assert np.array_equal(second.mhgae_state[name], values), name

    def test_serve_without_tpgcl_head_does_not_drop_trained_weights(self, tmp_path, example_graph):
        """A serve that skips the TPGCL head must not erase it from save()."""
        from repro.graph import Graph

        detector = TPGrGAD(_tiny_config())
        detector.fit_detect(example_graph)
        assert detector.tpgcl is not None
        # A tiny graph yields too few candidates for the TPGCL head.
        rng = np.random.default_rng(0)
        tiny = Graph(
            3, [(0, 1), (1, 2)], features=rng.normal(size=(3, example_graph.n_features))
        )
        detector.detect_only(tiny)
        detector.save(tmp_path / "artifact")
        state = PipelineState.load(tmp_path / "artifact")
        assert state.tpgcl_state is not None

    def test_attach_without_state_keeps_trained_weights(self, example_graph):
        from repro.datasets import make_example_graph
        from repro.gae import MHGAEConfig, MultiHopGAE

        model = MultiHopGAE(MHGAEConfig(epochs=4, hidden_dim=16, embedding_dim=8))
        model.fit(example_graph)
        trained = model.state_dict()
        model.attach(make_example_graph(seed=23))
        for name, values in model.state_dict().items():
            assert np.array_equal(values, trained[name]), name

    def test_attach_unfitted_without_state_raises(self, example_graph):
        from repro.gae import MHGAEConfig, MultiHopGAE

        with pytest.raises(RuntimeError, match="attach"):
            MultiHopGAE(MHGAEConfig()).attach(example_graph)

    def test_refit_refreshes_warm_serving_state(self, example_graph):
        """Refitting an earlier graph must replace the state detect_only serves."""
        from repro.datasets import make_example_graph

        other = make_example_graph(seed=23)
        detector = TPGrGAD(_tiny_config())
        oracle = detector.fit_detect(example_graph)
        detector.detect_only(example_graph)
        detector.fit_detect(other)
        detector.detect_only(other)   # caches other's export
        detector.fit_detect(example_graph)  # refit replaces the state
        replay = detector.detect_only(example_graph)
        assert np.abs(replay.scores - oracle.scores).max() <= SCORE_TOLERANCE

    def test_save_after_detect_only_keeps_fitted_fingerprint(self, tmp_path, example_graph):
        from repro.datasets import make_example_graph

        detector = TPGrGAD(_tiny_config())
        detector.fit_detect(example_graph)
        detector.detect_only(make_example_graph(seed=23))  # rebinds _graph
        detector.save(tmp_path / "artifact")
        state = PipelineState.load(tmp_path / "artifact")
        assert state.graph_fingerprint == example_graph.fingerprint()

    def test_refit_supersedes_loaded_state_on_save(self, tmp_path, example_graph):
        from repro.datasets import make_example_graph

        detector = TPGrGAD(_tiny_config())
        detector.fit_detect(example_graph)
        detector.save(tmp_path / "first")

        other = make_example_graph(seed=23)
        loaded = TPGrGAD.load(tmp_path / "first")
        loaded.fit_detect(other)  # real training clears the loaded state
        loaded.save(tmp_path / "refit")
        assert PipelineState.load(tmp_path / "refit").graph_fingerprint == other.fingerprint()

    def test_feature_dimension_mismatch_rejected(self, tmp_path, example_graph):
        from repro.graph import Graph

        detector = TPGrGAD(_tiny_config())
        detector.fit_detect(example_graph)
        detector.save(tmp_path / "artifact")
        loaded = TPGrGAD.load(tmp_path / "artifact")

        narrow = Graph(
            example_graph.n_nodes,
            example_graph.edge_index.T,
            features=np.zeros((example_graph.n_nodes, example_graph.n_features + 1)),
        )
        with pytest.raises(ValueError, match="features"):
            loaded.detect_only(narrow)


class TestManifest:
    @pytest.fixture()
    def saved(self, tmp_path, example_graph):
        detector = TPGrGAD(_tiny_config())
        detector.fit_detect(example_graph)
        path = tmp_path / "artifact"
        detector.save(path)
        return detector, path, example_graph

    def test_manifest_contents(self, saved):
        detector, path, graph = saved
        with open(path / "manifest.json") as handle:
            manifest = json.load(handle)
        assert manifest["format_version"] == ARTIFACT_FORMAT_VERSION
        assert manifest["method"] == "TP-GrGAD"
        assert manifest["graph_fingerprint"] == graph.fingerprint()
        assert manifest["n_features"] == graph.n_features
        assert manifest["has_mhgae"] is True
        assert set(manifest["versions"]) == {"python", "numpy", "scipy"}
        assert config_from_dict(manifest["config"]).seed == detector.config.seed

    def test_arrays_are_exact_float64(self, saved):
        detector, path, _ = saved
        state = PipelineState.load(path)
        for name, values in detector.mhgae.state_dict().items():
            assert np.array_equal(state.mhgae_state[name], values), name

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PipelineState.load(tmp_path / "not-there")

    def test_future_format_version_rejected(self, saved, tmp_path):
        _, path, _ = saved
        with open(path / "manifest.json") as handle:
            manifest = json.load(handle)
        manifest["format_version"] = ARTIFACT_FORMAT_VERSION + 1
        with open(path / "manifest.json", "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="format_version"):
            PipelineState.load(path)

    def test_v1_manifest_refused_with_format_error(self, saved):
        # Format 1 configs carried the since-removed ``cache_size`` field;
        # the version check must refuse them before the config is parsed.
        _, path, _ = saved
        with open(path / "manifest.json") as handle:
            manifest = json.load(handle)
        manifest["format_version"] = 1
        manifest["config"]["cache_size"] = 8
        with open(path / "manifest.json", "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="format_version 1"):
            PipelineState.load(path)

    def test_v2_manifest_refused_with_format_error(self, saved):
        # Format 2 configs carried a since-removed ``derived_stage_seeds``
        # list; the version check must refuse them before the config is
        # parsed, not fail later with a TypeError.
        _, path, _ = saved
        with open(path / "manifest.json") as handle:
            manifest = json.load(handle)
        manifest["format_version"] = 2
        manifest["config"]["derived_stage_seeds"] = ["mhgae", "sampler", "tpgcl"]
        with open(path / "manifest.json", "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="format_version 2"):
            PipelineState.load(path)

    def test_manifest_with_unusable_stage_dtype_refused(self, saved):
        # A hand-written manifest without the hash and dtype records used
        # to load a float16 TPGCL config; every score then failed later.
        _, path, _ = saved
        with open(path / "manifest.json") as handle:
            manifest = json.load(handle)
        manifest["config"]["tpgcl"]["dtype"] = "float16"
        del manifest["config_hash"], manifest["dtype"]
        with open(path / "manifest.json", "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="float32 or float64"):
            PipelineState.load(path)

    def test_tampered_manifest_config_rejected_by_hash(self, saved):
        _, path, _ = saved
        with open(path / "manifest.json") as handle:
            manifest = json.load(handle)
        manifest["config"]["contamination"] = 0.42  # hand edit, hash untouched
        with open(path / "manifest.json", "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="config_hash"):
            PipelineState.load(path)


class TestDtypeManifest:
    """Artifacts record their training dtype and defend it on load."""

    @pytest.fixture()
    def saved(self, tmp_path, example_graph):
        detector = TPGrGAD(_tiny_config())
        detector.fit_detect(example_graph)
        path = tmp_path / "artifact"
        detector.save(path)
        return detector, path, example_graph

    def test_manifest_records_stage_dtypes(self, saved):
        _, path, _ = saved
        with open(path / "manifest.json") as handle:
            manifest = json.load(handle)
        assert manifest["dtype"] == {"mhgae": "float64", "tpgcl": "float64"}

    def test_float32_artifact_roundtrip(self, tmp_path, example_graph):
        detector = TPGrGAD(_tiny_config().accelerated())
        result = detector.fit_detect(example_graph)
        path = tmp_path / "artifact32"
        detector.save(path)

        with open(path / "manifest.json") as handle:
            manifest = json.load(handle)
        assert manifest["dtype"] == {"mhgae": "float32", "tpgcl": "float32"}

        state = PipelineState.load(path)
        for values in state.mhgae_state.values():
            assert values.dtype == np.float32
        if state.tpgcl_state is not None:
            for values in state.tpgcl_state.values():
                assert values.dtype == np.float32

        warm = TPGrGAD.from_state(state).detect_only(example_graph)
        np.testing.assert_allclose(warm.scores, result.scores, atol=SCORE_TOLERANCE)

    def test_load_rejects_edited_dtype(self, saved):
        _, path, _ = saved
        with open(path / "manifest.json") as handle:
            manifest = json.load(handle)
        manifest["dtype"]["mhgae"] = "float32"  # hand edit; config still float64
        with open(path / "manifest.json", "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ValueError, match="dtype"):
            PipelineState.load(path)

    def test_legacy_manifest_without_dtype_loads(self, saved):
        detector, path, example_graph = saved
        with open(path / "manifest.json") as handle:
            manifest = json.load(handle)
        del manifest["dtype"]  # pre-dtype artifacts have no such key
        with open(path / "manifest.json", "w") as handle:
            json.dump(manifest, handle)
        state = PipelineState.load(path)
        for name, values in detector.mhgae.state_dict().items():
            assert values.dtype == np.float64
            assert np.array_equal(state.mhgae_state[name], values), name


class TestContentHash:
    """One config identity for the manifest, the registry and the job store."""

    def test_hash_equality_implies_manifest_config_equality(self):
        first, second = _tiny_config(seed=9), _tiny_config(seed=9)
        assert first is not second
        assert first.content_hash() == second.content_hash()
        # The hash is taken over exactly the manifest's config dict, so
        # equal hashes mean byte-equal manifests (and vice versa).
        assert config_to_dict(first) == config_to_dict(second)

    def test_any_stage_knob_changes_the_hash(self):
        base = _tiny_config(seed=9)
        for other in (
            _tiny_config(seed=10),  # master seed (and derived stage seeds)
            TPGrGADConfig(contamination=0.3),
            TPGrGADConfig(detector="iforest"),
        ):
            assert base.content_hash() != other.content_hash()

    def test_hash_survives_artifact_roundtrip(self, tmp_path, example_graph):
        detector = TPGrGAD(_tiny_config())
        detector.fit_detect(example_graph)
        path = detector.save(tmp_path / "artifact")
        with open(Path(path) / "manifest.json") as handle:
            manifest = json.load(handle)
        loaded = TPGrGAD.load(path)
        assert (
            manifest["config_hash"]
            == loaded.config.content_hash()
            == detector.config.content_hash()
        )


class TestStreamWarmStart:
    def test_replay_with_artifact_warm_start(self, tmp_path):
        from repro.datasets.stream import make_event_stream
        from repro.stream import StreamConfig, replay_event_stream

        stream = make_event_stream(dataset="simml", scale=0.05, seed=2, n_ticks=4)
        config = _tiny_config()

        # Fit on the base snapshot and persist — the restart scenario.
        detector = TPGrGAD(config)
        detector.fit_detect(stream.base)
        artifact = tmp_path / "artifact"
        detector.save(artifact)

        summary = replay_event_stream(
            stream,
            stream_config=StreamConfig(refit_policy="never"),
            artifact=str(artifact),
        )
        assert summary.n_ticks == stream.n_ticks
        # The flush refit restores exact batch parity on the final snapshot.
        batch = TPGrGAD(_tiny_config()).fit_detect(stream.final)
        assert np.abs(summary.final_result.scores - batch.scores).max() <= SCORE_TOLERANCE

    def test_warm_start_from_fitted_detector_object(self, example_graph):
        """A fitted in-memory detector works as `artifact=` (no disk trip)."""
        from repro.stream.incremental import IncrementalTPGrGAD

        detector = TPGrGAD(_tiny_config())
        detector.fit_detect(example_graph)
        incremental = IncrementalTPGrGAD(example_graph, artifact=detector)
        assert incremental.n_warm_starts == 1
        assert incremental.result.n_candidates > 0

    def test_warm_start_config_override_does_not_mutate_caller(self, example_graph):
        from repro.stream.incremental import IncrementalTPGrGAD

        detector = TPGrGAD(_tiny_config(seed=3))
        detector.fit_detect(example_graph)
        override = _tiny_config(seed=4)
        incremental = IncrementalTPGrGAD(example_graph, config=override, artifact=detector)
        # The stream adopts the override; the caller's detector keeps its own.
        assert incremental.config.seed == 4
        assert detector.config.seed == 3
        assert incremental.detector is not detector

    def test_warm_start_counts_no_initial_refit(self, tmp_path, example_graph):
        from repro.stream.incremental import IncrementalTPGrGAD

        detector = TPGrGAD(_tiny_config())
        detector.fit_detect(example_graph)
        artifact = tmp_path / "artifact"
        detector.save(artifact)

        incremental = IncrementalTPGrGAD(example_graph, artifact=str(artifact))
        assert incremental.n_warm_starts == 1
        assert incremental.n_refits == 0
        assert incremental.result.n_candidates > 0

    def test_warm_start_override_resaves_the_artifact_as_trained(self, tmp_path, example_graph):
        """An override steers warm scoring but never relabels the weights."""
        from repro.stream import StreamConfig
        from repro.stream.incremental import IncrementalTPGrGAD

        detector = TPGrGAD(TPGrGADConfig.fast(seed=3))
        detector.fit_detect(example_graph)
        detector.save(tmp_path / "a")

        incremental = IncrementalTPGrGAD(
            example_graph,
            config=TPGrGADConfig.fast(seed=4),
            stream_config=StreamConfig(refit_policy="never"),
            artifact=str(tmp_path / "a"),
        )
        assert incremental.n_refits == 0
        assert incremental.config.seed == 4
        incremental.detector.save(tmp_path / "b")

        manifests = []
        for name in ("a", "b"):
            with open(tmp_path / name / "manifest.json") as handle:
                manifests.append(json.load(handle))
        assert manifests[1]["config_hash"] == manifests[0]["config_hash"]
        assert manifests[1]["graph_fingerprint"] == manifests[0]["graph_fingerprint"]
        first, second = PipelineState.load(tmp_path / "a"), PipelineState.load(tmp_path / "b")
        for stage in ("mhgae_state", "tpgcl_state"):
            expected, actual = getattr(first, stage), getattr(second, stage)
            assert expected.keys() == actual.keys()
            for name, values in expected.items():
                assert np.array_equal(actual[name], values), (stage, name)
