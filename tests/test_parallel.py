"""Sharded execution: serial parity, stage seeds, artifact broadcast."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_example_graph
from repro.gae import MHGAEConfig
from repro.gcl import TPGCLConfig
from repro.parallel import ParallelExecutor, default_worker_count
from repro.sampling import SamplerConfig
from repro.seeding import derive_stage_seeds, resolve_seed


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


class TestShardedParity:
    def test_two_workers_match_serial(self, graphs, serial_results):
        executor = ParallelExecutor(_tiny_config(), n_workers=2)
        sharded = executor.fit_detect_many(graphs)
        assert [r.to_json_dict() for r in sharded] == serial_results

    def test_one_graph_per_worker_matches_serial(self, graphs, serial_results):
        executor = ParallelExecutor(_tiny_config(), n_workers=len(graphs))
        sharded = executor.fit_detect_many(graphs)
        assert [r.to_json_dict() for r in sharded] == serial_results

    def test_in_process_fallback_matches_serial(self, graphs, serial_results):
        executor = ParallelExecutor(_tiny_config(), n_workers=1)
        assert [r.to_json_dict() for r in executor.fit_detect_many(graphs)] == serial_results

    def test_empty_batch(self):
        assert ParallelExecutor(_tiny_config(), n_workers=2).fit_detect_many([]) == []


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


def test_default_worker_count_positive():
    assert default_worker_count() >= 1
