"""Sharded execution: serial parity, seed derivation, artifact broadcast."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_example_graph
from repro.gae import MHGAEConfig
from repro.gcl import TPGCLConfig
from repro.parallel import ParallelExecutor, default_worker_count
from repro.sampling import SamplerConfig
from repro.seeding import derive_stage_seeds, resolve_seed, spawn_seeds


def _tiny_config(seed: int = 1) -> TPGrGADConfig:
    return TPGrGADConfig(
        mhgae=MHGAEConfig(epochs=6, hidden_dim=16, embedding_dim=8),
        sampler=SamplerConfig(max_candidates=60, max_anchor_pairs=60),
        tpgcl=TPGCLConfig(epochs=3, hidden_dim=16, embedding_dim=16, batch_size=12),
        max_anchors=15,
        seed=seed,
    )


@pytest.fixture(scope="module")
def graphs():
    return [make_example_graph(seed=s) for s in (7, 11, 13)]


@pytest.fixture(scope="module")
def serial_results(graphs):
    return [r.to_json_dict() for r in TPGrGAD(_tiny_config()).fit_detect_many(graphs)]


class TestSeeding:
    def test_resolve_seed(self):
        assert resolve_seed(None) == 0
        assert resolve_seed(0) == 0
        assert resolve_seed(np.int64(5)) == 5

    def test_derive_stage_seeds_deterministic_and_distinct(self):
        a = derive_stage_seeds(3)
        assert a == derive_stage_seeds(3)
        assert len(set(a.values())) == 3
        assert a != derive_stage_seeds(4)

    def test_spawn_seeds_by_index_not_chunk(self):
        whole = spawn_seeds(9, 8)
        assert whole[:4] == spawn_seeds(9, 8)[:4]
        assert len(set(whole)) == 8

    def test_spawn_seeds_validates(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestShardedParity:
    def test_two_workers_match_serial(self, graphs, serial_results):
        executor = ParallelExecutor(_tiny_config(), n_workers=2)
        sharded = executor.fit_detect_many(graphs)
        assert [r.to_json_dict() for r in sharded] == serial_results

    def test_chunk_size_one_matches_serial(self, graphs, serial_results):
        executor = ParallelExecutor(_tiny_config(), n_workers=2, chunk_size=1)
        sharded = executor.fit_detect_many(graphs)
        assert [r.to_json_dict() for r in sharded] == serial_results

    def test_in_process_fallback_matches_serial(self, graphs, serial_results):
        executor = ParallelExecutor(_tiny_config(), n_workers=1)
        assert [r.to_json_dict() for r in executor.fit_detect_many(graphs)] == serial_results

    def test_empty_batch(self):
        assert ParallelExecutor(_tiny_config(), n_workers=2).fit_detect_many([]) == []

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            ParallelExecutor(_tiny_config(), chunk_size=0)


class TestRepeatedGraphs:
    def test_repeated_graphs_match_serial(self, graphs):
        batch = [graphs[0], graphs[1], graphs[0], graphs[1]]
        serial_results = TPGrGAD(_tiny_config()).fit_detect_many(batch)
        sharded = ParallelExecutor(_tiny_config(), n_workers=2).fit_detect_many(batch)
        assert [r.to_json_dict() for r in sharded] == [r.to_json_dict() for r in serial_results]

    def test_duplicate_results_are_independent_copies(self, graphs):
        executor = ParallelExecutor(_tiny_config(), n_workers=1)
        results = executor.fit_detect_many([graphs[0], graphs[0]])
        results[0].embeddings[:] = 0.0
        assert np.abs(results[1].embeddings).sum() > 0.0


class TestDerivedSeeds:
    def test_sharding_invariant(self, graphs):
        one = ParallelExecutor(_tiny_config(), n_workers=1, derive_seeds=True)
        two = ParallelExecutor(_tiny_config(), n_workers=2, derive_seeds=True, chunk_size=1)
        a = one.fit_detect_many(graphs)
        b = two.fit_detect_many(graphs)
        assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]

    def test_identical_graphs_get_distinct_streams(self, graphs):
        executor = ParallelExecutor(_tiny_config(), n_workers=1, derive_seeds=True)
        results = executor.fit_detect_many([graphs[0], graphs[0]])
        # Distinct per-index master seeds: same graph, different pipelines.
        assert results[0].to_json_dict() != results[1].to_json_dict()


class TestArtifactBroadcast:
    def test_workers_serve_detect_only_from_artifact(self, tmp_path, graphs):
        detector = TPGrGAD(_tiny_config())
        oracle = [detector.fit_detect(graph) for graph in graphs]
        artifact = tmp_path / "artifact"
        # Save the pipeline fitted on the *last* graph; warm parity is only
        # exact on that graph, the others are warm-served approximations.
        detector.save(artifact)

        executor = ParallelExecutor(n_workers=2, artifact=str(artifact))
        warm = executor.fit_detect_many(graphs)
        assert len(warm) == len(graphs)
        assert np.abs(warm[-1].scores - oracle[-1].scores).max() <= 1e-8
        for result in warm:
            assert np.isfinite(result.scores).all()

    def test_artifact_mode_repeated_graphs_score_alike(self, tmp_path, graphs):
        detector = TPGrGAD(_tiny_config())
        detector.fit_detect(graphs[0])
        artifact = tmp_path / "artifact"
        detector.save(artifact)

        executor = ParallelExecutor(n_workers=1, artifact=str(artifact))
        results = executor.fit_detect_many([graphs[0], graphs[1], graphs[0], graphs[1]])
        assert results[0].to_json_dict() == results[2].to_json_dict()
        assert results[1].to_json_dict() == results[3].to_json_dict()
        direct = TPGrGAD.load(str(artifact)).detect_only(graphs[1])
        assert np.abs(results[1].scores - direct.scores).max() <= 1e-8


class TestExperimentSharding:
    def test_registry_shards_and_preserves_order(self):
        from repro.experiments import ExperimentSettings

        settings = ExperimentSettings(datasets=["simml"], scale=0.05, seeds=(0,))
        executor = ParallelExecutor(n_workers=2)
        runs = executor.run_experiments(["table1", "table1"], settings)
        assert [name for name, _, _ in runs] == ["table1", "table1"]
        # Same experiment, same settings: identical records and rendering.
        assert runs[0][1] == runs[1][1]
        assert "simML" in runs[0][2]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="unknown experiments"):
            ParallelExecutor(n_workers=1).run_experiments(["nope"], None)

    def test_empty_names(self):
        assert ParallelExecutor(n_workers=1).run_experiments([], None) == []


def test_default_worker_count_positive():
    assert default_worker_count() >= 1
