"""Unit tests for the TPGCL contrastive-learning stage."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro.gcl.tpgcl as tpgcl_module
from repro.augment import PatternBreakingAugmentation, PatternPreservingAugmentation, find_topology_patterns
from repro.datasets import make_simml
from repro.gcl import GroupEncoder, MINEStatisticsNetwork, TPGCL, TPGCLConfig, mine_mutual_information
from repro.gcl.encoder import GroupView
from repro.graph import Group, normalized_adjacency
from repro.tensor import Tensor, default_dtype, no_grad

from encoder_oracle import AutodiffGroupEncoder, reference_mine_mutual_information


@pytest.fixture
def candidate_groups(example_graph):
    groups = list(example_graph.groups)
    groups.append(Group.from_nodes(range(0, 6)))
    groups.append(Group.from_nodes(range(10, 17)))
    groups.append(Group.from_nodes(range(20, 26)))
    return groups


class TestGroupEncoder:
    def test_single_group_embedding_shape(self, example_graph):
        encoder = GroupEncoder(example_graph.n_features, hidden_dim=16, embedding_dim=12)
        subgraph = example_graph.group_subgraph(example_graph.groups[0])
        assert encoder(subgraph).shape == (1, 12)

    def test_batch_embedding_shape(self, example_graph, candidate_groups):
        encoder = GroupEncoder(example_graph.n_features, hidden_dim=16, embedding_dim=12)
        subgraphs = [example_graph.group_subgraph(g) for g in candidate_groups]
        assert encoder.encode_batch(subgraphs).shape == (len(candidate_groups), 12)

    def test_empty_batch_raises(self, example_graph):
        encoder = GroupEncoder(example_graph.n_features)
        with pytest.raises(ValueError):
            encoder.encode_batch([])

    def test_readout_is_permutation_invariant(self, example_graph):
        encoder = GroupEncoder(example_graph.n_features, hidden_dim=8, embedding_dim=8)
        nodes = sorted(example_graph.groups[0].nodes)
        a = encoder(example_graph.subgraph(nodes)).numpy()
        b = encoder(example_graph.subgraph(list(reversed(nodes)))).numpy()
        assert a == pytest.approx(b)

    def test_fused_kernel_matches_autodiff_oracle_bitwise(self, example_graph, candidate_groups):
        subgraphs = [example_graph.group_subgraph(g) for g in candidate_groups]
        weights = np.random.default_rng(5).normal(size=(len(subgraphs), 12))
        outputs = []
        for cls in (GroupEncoder, AutodiffGroupEncoder):
            encoder = cls(example_graph.n_features, hidden_dim=16, embedding_dim=12)
            embeddings = encoder.encode_batch(subgraphs)
            (embeddings * Tensor(weights)).sum().backward()
            outputs.append([embeddings.data] + [p.grad for p in encoder.parameters()])
        for fused, oracle in zip(*outputs):
            assert np.array_equal(fused, oracle)


def _assert_views_byte_equal(view, reference):
    propagation, expected = view.propagation, reference.propagation
    assert sp.issparse(propagation) == sp.issparse(expected)
    if sp.issparse(expected):
        for field in ("indptr", "indices", "data"):
            got, want = getattr(propagation, field), getattr(expected, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
    else:
        assert propagation.dtype == expected.dtype and propagation.tobytes() == expected.tobytes()
    assert view.features.dtype == reference.features.dtype
    assert view.features.tobytes() == reference.features.tobytes()


class TestColumnarViews:
    """``prepare_groups`` (one columnar pass) against one ``Graph`` per group."""

    @pytest.fixture(scope="class")
    def graph(self):
        return make_simml(scale=0.1, seed=2)

    @pytest.fixture(scope="class")
    def groups(self, graph):
        adjacency = graph.adjacency(sparse=True)
        isolated = []  # pairwise non-adjacent nodes: no internal edges
        for node in range(graph.n_nodes):
            if not any(other in graph.neighbors(node) for other in isolated):
                isolated.append(node)
            if len(isolated) == 5:
                break
        u, v = graph.edge_index[:, 0]
        hub = int(np.argmax(np.diff(adjacency.indptr)))
        groups = [
            Group.from_nodes(isolated),
            Group.from_nodes([u, v]),  # 2 nodes, one edge
            Group.from_nodes([hub, *graph.neighbors(hub)]),
            Group.from_nodes(range(graph.n_nodes - 260, graph.n_nodes)),  # CSR propagation
            Group.from_nodes([3]),
        ]
        groups += list(graph.groups)
        return groups + groups[:3]  # duplicate candidates

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_views_byte_equal_to_per_graph_prepare(self, graph, groups, dtype):
        with default_dtype(np.dtype(dtype)):
            encoder = GroupEncoder(graph.n_features, hidden_dim=8, embedding_dim=8)
        assert encoder.dtype == dtype
        views = encoder.prepare_groups(graph, groups)
        assert len(views) == len(groups)
        assert np.count_nonzero(views[0].propagation) == len(groups[0])  # diagonal only
        assert np.count_nonzero(views[1].propagation) == 4
        assert sp.issparse(views[3].propagation)
        for view, group in zip(views, groups):
            subgraph = graph.group_subgraph(group)
            _assert_views_byte_equal(view, encoder.prepare(subgraph))
            # ...and both equal the normalised adjacency the encoder used to build.
            sparse = subgraph.n_nodes >= 256
            reference = GroupView(
                normalized_adjacency(subgraph, sparse=sparse).astype(dtype, copy=False),
                np.asarray(subgraph.features, dtype=dtype),
            )
            _assert_views_byte_equal(view, reference)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_embed_groups_byte_equal_to_per_graph_encoding(self, graph, groups, dtype):
        config = TPGCLConfig(epochs=2, batch_size=8, hidden_dim=8, embedding_dim=8, dtype=dtype)
        model = TPGCL(config).fit(graph, groups)
        per_graph = model.encoder.encode_batch([graph.group_subgraph(group) for group in groups]).numpy()
        embeddings = model.embed_groups(graph, groups)
        assert embeddings.dtype == per_graph.dtype
        assert embeddings.tobytes() == per_graph.tobytes()
        if dtype == "float64":
            oracle = AutodiffGroupEncoder(graph.n_features, hidden_dim=8, embedding_dim=8)
            oracle.load_state_dict(model.encoder.state_dict())
            with no_grad():
                expected = oracle.encode_batch(oracle.prepare_groups(graph, groups)).numpy()
            assert embeddings.tobytes() == expected.tobytes()

    def test_empty_group_is_rejected(self, graph):
        with pytest.raises(ValueError, match="empty"):
            graph.induced_subgraphs([[0, 1], []])


class TestMINE:
    def test_statistics_network_output_shape(self):
        network = MINEStatisticsNetwork(embedding_dim=6, hidden_dim=8)
        scores = network(Tensor(np.ones((4, 6))), Tensor(np.ones((4, 6))))
        assert scores.shape == (4, 1)

    def test_mi_estimate_is_scalar_and_finite(self, rng):
        network = MINEStatisticsNetwork(embedding_dim=4, hidden_dim=8)
        positive = Tensor(rng.normal(size=(8, 4)))
        negative = Tensor(rng.normal(size=(8, 4)))
        estimate = mine_mutual_information(network, positive, negative)
        assert estimate.size == 1
        assert np.isfinite(estimate.item())

    def test_mi_requires_matching_batches(self, rng):
        network = MINEStatisticsNetwork(embedding_dim=4)
        with pytest.raises(ValueError):
            mine_mutual_information(network, Tensor(rng.normal(size=(4, 4))), Tensor(rng.normal(size=(5, 4))))

    def test_mi_requires_at_least_two_pairs(self, rng):
        network = MINEStatisticsNetwork(embedding_dim=4)
        with pytest.raises(ValueError):
            mine_mutual_information(network, Tensor(rng.normal(size=(1, 4))), Tensor(rng.normal(size=(1, 4))))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("m", [2, 3, 24, 33])
    @pytest.mark.parametrize("d", [6, 1])
    def test_marginal_gather_bitwise_equals_indexing_oracle(self, d, m, dtype):
        """Loss, both embedding gradients and every Φ gradient match the ``np.add.at`` oracle."""

        def loss_and_gradients(estimate):
            rng = np.random.default_rng(m)
            with default_dtype(dtype):
                network = MINEStatisticsNetwork(embedding_dim=d, hidden_dim=8, rng=np.random.default_rng(1))
                positive = Tensor(rng.normal(size=(m, d)).astype(dtype), requires_grad=True)
                negative = Tensor(rng.normal(size=(m, d)).astype(dtype), requires_grad=True)
                loss = estimate(network, positive, negative)
                loss.backward()
            return [loss.data, positive.grad, negative.grad] + [p.grad for p in network.parameters()]

        got = loss_and_gradients(mine_mutual_information)
        want = loss_and_gradients(reference_mine_mutual_information)
        assert len(got) == 3 + 4  # loss, two embedding gradients, Φ's two weights and biases
        for fused, oracle in zip(got, want):
            assert fused.dtype == np.dtype(dtype)
            assert fused.tobytes() == oracle.tobytes()

    def test_mi_detects_dependence(self, rng):
        """A trained estimator should report higher MI for correlated pairs than independent ones."""
        from repro.nn import Adam

        correlated = rng.normal(size=(40, 4))
        positive = Tensor(correlated)
        negative_dependent = Tensor(correlated + rng.normal(scale=0.05, size=(40, 4)))
        negative_independent = Tensor(rng.normal(size=(40, 4)))

        def trained_estimate(negative: Tensor) -> float:
            network = MINEStatisticsNetwork(embedding_dim=4, hidden_dim=16, rng=np.random.default_rng(0))
            optimizer = Adam(network.parameters(), lr=0.01)
            for _ in range(80):
                optimizer.zero_grad()
                loss = -mine_mutual_information(network, positive, negative)
                loss.backward()
                optimizer.step()
            return mine_mutual_information(network, positive, negative).item()

        assert trained_estimate(negative_dependent) > trained_estimate(negative_independent)


class TestTPGCL:
    def test_fit_and_embed(self, example_graph, candidate_groups):
        model = TPGCL(TPGCLConfig(epochs=2, batch_size=4, hidden_dim=16, embedding_dim=16))
        embeddings = model.fit(example_graph, candidate_groups).embed_groups(example_graph, candidate_groups)
        assert embeddings.shape == (len(candidate_groups), 16)
        assert np.isfinite(embeddings).all()

    def test_training_records_losses(self, example_graph, candidate_groups):
        model = TPGCL(TPGCLConfig(epochs=3, batch_size=4, hidden_dim=8, embedding_dim=8))
        model.fit(example_graph, candidate_groups)
        assert len(model.training_result.losses) == 3

    def test_needs_two_groups(self, example_graph):
        model = TPGCL(TPGCLConfig(epochs=1))
        with pytest.raises(ValueError):
            model.fit(example_graph, [example_graph.groups[0]])

    def test_embed_before_fit_raises(self, example_graph, candidate_groups):
        with pytest.raises(RuntimeError):
            TPGCL().embed_groups(example_graph, candidate_groups)

    def test_alternative_augmentations(self, example_graph, candidate_groups):
        config = TPGCLConfig(epochs=1, batch_size=4, hidden_dim=8, embedding_dim=8,
                             positive_augmentation="FM", negative_augmentation="ND")
        embeddings = TPGCL(config).fit(example_graph, candidate_groups).embed_groups(example_graph, candidate_groups)
        assert embeddings.shape[0] == len(candidate_groups)

    def test_deterministic_given_seed(self, example_graph, candidate_groups):
        config = TPGCLConfig(epochs=2, batch_size=4, hidden_dim=8, embedding_dim=8, seed=3)
        a = TPGCL(config).fit(example_graph, candidate_groups).embed_groups(example_graph, candidate_groups)
        b = TPGCL(TPGCLConfig(epochs=2, batch_size=4, hidden_dim=8, embedding_dim=8, seed=3)).fit(
            example_graph, candidate_groups
        ).embed_groups(example_graph, candidate_groups)
        assert a == pytest.approx(b)

    def _count_pattern_searches(self, monkeypatch):
        calls = []

        def counting(group_graph):
            calls.append(group_graph)
            return find_topology_patterns(group_graph)

        monkeypatch.setattr(tpgcl_module, "find_topology_patterns", counting)
        return calls

    def test_patterns_searched_once_per_subgraph(self, example_graph, candidate_groups, monkeypatch):
        calls = self._count_pattern_searches(monkeypatch)
        config = TPGCLConfig(epochs=5, batch_size=4, hidden_dim=8, embedding_dim=8, view_refresh_every=2)
        TPGCL(config).fit(example_graph, candidate_groups)
        assert len(calls) == len(candidate_groups)  # three view generations, one search each

    def test_baseline_augmentations_skip_pattern_search(self, example_graph, candidate_groups, monkeypatch):
        calls = self._count_pattern_searches(monkeypatch)
        config = TPGCLConfig(epochs=1, batch_size=4, hidden_dim=8, embedding_dim=8,
                             positive_augmentation="FM", negative_augmentation="ND")
        TPGCL(config).fit(example_graph, candidate_groups)
        assert calls == []

    @pytest.mark.parametrize("augmentation", [PatternPreservingAugmentation(), PatternBreakingAugmentation()])
    def test_shared_patterns_leave_views_and_rng_unchanged(self, example_graph, candidate_groups, augmentation):
        for group in candidate_groups:
            subgraph = example_graph.group_subgraph(group)
            rng_own, rng_shared = np.random.default_rng(9), np.random.default_rng(9)
            own = augmentation(subgraph, rng_own)
            shared = augmentation(subgraph, rng_shared, find_topology_patterns(subgraph))
            assert np.array_equal(own.edge_index, shared.edge_index)
            assert np.array_equal(own.features, shared.features)
            assert rng_own.bit_generator.state == rng_shared.bit_generator.state


class TestTPGCLConfigValidation:
    def test_batch_size_below_two_rejected(self):
        # Every batch of one is skipped, so batch_size=1 fitted nothing.
        with pytest.raises(ValueError, match="batch_size"):
            TPGCLConfig(epochs=3, batch_size=1)
        assert TPGCLConfig(batch_size=2).batch_size == 2

    @pytest.mark.parametrize("dtype", ["float16", None, "bogus"])
    def test_dtype_other_than_float32_or_float64_rejected(self, dtype):
        with pytest.raises(ValueError, match="float32 or float64"):
            TPGCLConfig(dtype=dtype)
        assert TPGCLConfig(dtype="float32").dtype == "float32"
