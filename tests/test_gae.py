"""Unit tests for the GAE family and anchor selection."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import repro.gae.multihop as multihop
from repro.gae import GAEConfig, GraphAutoEncoder, MHGAEConfig, MultiHopGAE, select_anchor_nodes
from repro.graph import Graph, graphsnn_weighted_adjacency, k_hop_matrix

from gae_oracle import reconstruct


FAST = dict(epochs=8, hidden_dim=16, embedding_dim=8, seed=0)


def _dense(matrix) -> np.ndarray:
    """Densify a propagation matrix regardless of its sparse/dense layout."""
    return matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)


class TestAnchorSelection:
    def test_top_fraction_selected(self):
        scores = np.arange(100, dtype=float)
        anchors = select_anchor_nodes(scores, fraction=0.1)
        assert len(anchors) == 10
        assert anchors[0] == 99  # highest score first

    def test_minimum_enforced(self):
        anchors = select_anchor_nodes(np.arange(10, dtype=float), fraction=0.01, minimum=4)
        assert len(anchors) == 4

    def test_maximum_caps(self):
        anchors = select_anchor_nodes(np.arange(100, dtype=float), fraction=0.5, maximum=7)
        assert len(anchors) == 7

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            select_anchor_nodes(np.ones(5), fraction=0.0)

    def test_non_1d_scores_raise(self):
        with pytest.raises(ValueError):
            select_anchor_nodes(np.ones((3, 3)))

    def test_negative_maximum_raises(self):
        # A negative cap used to slice ``order[:-1]``: all nodes but one.
        with pytest.raises(ValueError, match="maximum"):
            select_anchor_nodes(np.arange(10, dtype=float), maximum=-1)

    def test_zero_maximum_selects_nothing(self):
        assert len(select_anchor_nodes(np.arange(10, dtype=float), maximum=0)) == 0


class TestGraphAutoEncoder:
    def test_fit_records_decreasing_loss(self, example_graph):
        model = GraphAutoEncoder(GAEConfig(epochs=30, hidden_dim=16, embedding_dim=8, seed=0))
        model.fit(example_graph)
        losses = model.training_result.losses
        assert len(losses) == 30
        assert losses[-1] < losses[0]

    def test_score_shapes_and_nonnegative_before_normalization(self, example_graph):
        model = GraphAutoEncoder(GAEConfig(normalize_errors=False, **FAST)).fit(example_graph)
        scores = model.score_nodes()
        assert scores.shape == (example_graph.n_nodes,)
        assert (scores >= 0).all()

    def test_score_normalized_in_unit_interval(self, example_graph):
        model = GraphAutoEncoder(GAEConfig(**FAST)).fit(example_graph)
        normalized = model.score_normalized()
        assert normalized.min() == pytest.approx(0.0)
        assert normalized.max() == pytest.approx(1.0)

    def test_reconstruct_shapes(self, example_graph):
        model = GraphAutoEncoder(GAEConfig(**FAST)).fit(example_graph)
        structure, attributes = reconstruct(model)
        assert structure.shape == (example_graph.n_nodes, example_graph.n_nodes)
        assert attributes.shape == example_graph.features.shape

    def test_scoring_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GraphAutoEncoder().score_nodes()

    def test_feature_scaling_options(self, example_graph):
        for mode in ("none", "standardize", "minmax"):
            model = GraphAutoEncoder(GAEConfig(feature_scaling=mode, **FAST)).fit(example_graph)
            assert np.isfinite(model.score_nodes()).all()
        with pytest.raises(ValueError):
            GraphAutoEncoder(GAEConfig(feature_scaling="weird", **FAST)).fit(example_graph)

    def test_deterministic_given_seed(self, example_graph):
        a = GraphAutoEncoder(GAEConfig(**FAST)).fit(example_graph).score_nodes()
        b = GraphAutoEncoder(GAEConfig(**FAST)).fit(example_graph).score_nodes()
        assert a == pytest.approx(b)


class TestMultiHopGAE:
    def test_default_target_is_graphsnn(self, example_graph):
        model = MultiHopGAE(MHGAEConfig(**FAST))
        model.fit(example_graph)
        assert model._structure_target.toarray() == pytest.approx(graphsnn_weighted_adjacency(example_graph))

    def test_k_hop_target(self, example_graph):
        model = MultiHopGAE(MHGAEConfig(target="k_hop", k_hops=3, **FAST))
        model.fit(example_graph)
        assert model._structure_target.toarray() == pytest.approx(k_hop_matrix(example_graph, 3))

    def test_adjacency_target_falls_back_to_vanilla(self, example_graph):
        model = MultiHopGAE(MHGAEConfig(target="adjacency", **FAST))
        model.fit(example_graph)
        assert model._structure_target.toarray() == pytest.approx(example_graph.adjacency())

    def test_unknown_target_raises(self, example_graph):
        with pytest.raises(ValueError):
            MultiHopGAE(MHGAEConfig(target="spectral", **FAST)).fit(example_graph)

    def test_dense_k_hop_mix_over_budget_raises_before_allocating(self):
        n_nodes = 6000  # four 6000² float64 arrays are ~1.1 GB, over the 1 GiB budget
        edges = np.random.default_rng(0).integers(0, n_nodes, size=(3 * n_nodes, 2))
        graph = Graph(n_nodes, edges, np.ones((n_nodes, 2)))
        model = MultiHopGAE(MHGAEConfig(target="k_hop", k_hops=5, **FAST))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{n_nodes} nodes"):
                model.fit(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n_nodes * n_nodes * 8 // 100
        assert model._structure_target is None

    def test_dense_mix_budget_covers_every_dense_branch(self, monkeypatch, example_graph):
        monkeypatch.setattr(multihop, "DENSE_MIX_BUDGET_BYTES", 4 * 8 * (example_graph.n_nodes - 1) ** 2)
        for config in (
            MHGAEConfig(target="k_hop", k_hops=3, **FAST),
            MHGAEConfig(target="k_hop", k_hops=3, propagate_with_target=False, **FAST),
            MHGAEConfig(target="graphsnn", sparse_propagation=False, **FAST),
        ):
            with pytest.raises(ValueError, match=f"{example_graph.n_nodes} nodes"):
                MultiHopGAE(config).fit(example_graph)
        # No dense mix and no k-hop target, no budget: the sparse GraphSNN mix.
        MultiHopGAE(MHGAEConfig(**FAST)).fit(example_graph)

    def test_unmixed_k_hop_target_over_budget_raises_before_building(self, monkeypatch):
        n_nodes = 6000  # past the 5792-node budget, with only ~n edges
        edges = np.random.default_rng(0).integers(0, n_nodes, size=(n_nodes, 2))
        graph = Graph(n_nodes, edges, np.ones((n_nodes, 2)))

        def k_hop_matrix_must_not_run(*args, **kwargs):
            raise AssertionError("k_hop_matrix ran before the budget check")

        monkeypatch.setattr(multihop, "k_hop_matrix", k_hop_matrix_must_not_run)
        model = MultiHopGAE(MHGAEConfig(target="k_hop", k_hops=5, propagate_with_target=False, **FAST))
        with pytest.raises(ValueError, match=f"{n_nodes} nodes"):
            model.fit(graph)
        assert model._structure_target is None

    def test_propagation_mixes_multi_hop(self, example_graph):
        mixed = MultiHopGAE(MHGAEConfig(target="k_hop", k_hops=5, **FAST)).fit(example_graph)
        one_hop = MultiHopGAE(
            MHGAEConfig(target="k_hop", k_hops=5, propagate_with_target=False, **FAST)
        ).fit(example_graph)
        assert not np.allclose(_dense(mixed._propagation), _dense(one_hop._propagation))
        # Rows of the mixed propagation are normalised.
        assert _dense(mixed._propagation).sum(axis=1) == pytest.approx(
            np.ones(example_graph.n_nodes), abs=1e-6
        )

    def test_anchor_nodes_interface(self, example_graph):
        model = MultiHopGAE(MHGAEConfig(**FAST)).fit(example_graph)
        anchors = model.anchor_nodes(fraction=0.1)
        assert 3 <= len(anchors) <= example_graph.n_nodes

    def test_mhgae_better_than_vanilla_on_deep_nodes(self, example_graph):
        """The core claim of Sec. V-B: MH-GAE recalls deep group members better."""
        truth = example_graph.anomaly_node_mask()
        deep = np.array(
            [
                truth[node] and all(truth[m] for m in example_graph.neighbors(node))
                for node in range(example_graph.n_nodes)
            ]
        )
        k = int(truth.sum())

        vanilla = GraphAutoEncoder(GAEConfig(epochs=60, hidden_dim=32, embedding_dim=16, seed=1))
        multihop = MultiHopGAE(MHGAEConfig(epochs=60, hidden_dim=32, embedding_dim=16, seed=1, target="k_hop", k_hops=5))
        vanilla_scores = vanilla.fit(example_graph).score_nodes()
        multihop_scores = multihop.fit(example_graph).score_nodes()

        def deep_recall(scores: np.ndarray) -> float:
            top = np.argsort(-scores)[:k]
            return deep[top].sum() / max(deep.sum(), 1)

        assert deep_recall(multihop_scores) >= deep_recall(vanilla_scores)


class TestGAEConfigValidation:
    @pytest.mark.parametrize("config_cls", [GAEConfig, MHGAEConfig])
    @pytest.mark.parametrize("dtype", ["float16", None, "bogus"])
    def test_dtype_other_than_float32_or_float64_rejected(self, config_cls, dtype):
        with pytest.raises(ValueError, match="float32 or float64"):
            config_cls(dtype=dtype)
        assert config_cls(dtype="float32").dtype == "float32"
