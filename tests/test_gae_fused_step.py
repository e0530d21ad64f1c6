"""The row-blocked MH-GAE training step against the autodiff oracle, and its memory bound.

``GraphAutoEncoder.fit`` records each step's objective as one tape node
(``_ReconstructionLoss``) that walks row blocks of
``SCORE_BLOCK_ELEMENTS // n`` rows and never forms ``σ(ZZᵀ)`` or the
target as an ``n × n`` array.  The oracle (``tests/gae_oracle.py``) is the
formulation it replaced: the dense target, the autodiff decoder
``(Z Zᵀ).sigmoid()`` and the dense fused loss.  Within one block the
kernel applies the oracle's ops in the oracle's order, so float64 values
are bitwise equal; across blocks the loss sum and the ``Zᵀ G`` products
are split, which moves them by rounding only.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.gae.autoencoder as autoencoder
from repro.datasets import make_example_graph, make_simml
from repro.gae import GAEConfig, GraphAutoEncoder, MHGAEConfig, MultiHopGAE
from repro.gae.autoencoder import _GAEModel, _ReconstructionLoss
from repro.graph import Graph
from repro.tensor import Tensor, default_dtype

from gae_oracle import AutodiffMultiHopGAE, autodiff_step_loss

N_NODES = 23
SMALL = dict(epochs=3, hidden_dim=16, embedding_dim=8, seed=0)
MODELS = {
    "graphsnn": lambda dtype: MultiHopGAE(MHGAEConfig(target="graphsnn", dtype=dtype, **SMALL)),
    "k_hop": lambda dtype: MultiHopGAE(MHGAEConfig(target="k_hop", k_hops=3, dtype=dtype, **SMALL)),
    "adjacency": lambda dtype: MultiHopGAE(MHGAEConfig(target="adjacency", dtype=dtype, **SMALL)),
    "vanilla": lambda dtype: GraphAutoEncoder(GAEConfig(dtype=dtype, **SMALL)),
}
# Rows per block: several blocks for 1 and n - 1, one block for n and 2n + 7.
BLOCK_ROWS = {"1": 1, "n-1": N_NODES - 1, "n": N_NODES, "2n+7": 2 * N_NODES + 7}
MULTI_BLOCK_TOLERANCE = 1e-10
FLOAT32_TOLERANCE = 1e-5


def _random_graph(n_nodes: int = N_NODES, seed: int = 0) -> Graph:
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n_nodes, size=(3 * n_nodes, 2))
    return Graph(n_nodes, edges, rng.normal(size=(n_nodes, 5)))


def _step(model: GraphAutoEncoder, graph: Graph, fused: bool, upstream=None):
    """Loss, ``dZ`` and every parameter gradient of one training step."""
    model._bind_graph(graph)
    lam = model.config.structure_weight
    with default_dtype(model.dtype):
        net = _GAEModel(graph.n_features, graph.n_nodes, model.config, np.random.default_rng(3))
        z = net.encode(Tensor(model._scaled_features), model._propagation)
        attribute_hat = net.decode_attributes(z)
        if fused:
            loss = _ReconstructionLoss(model._structure_target, model._scaled_features, lam)(z, attribute_hat)
        else:
            loss = autodiff_step_loss(
                z, attribute_hat, model._structure_target.toarray(), model._scaled_features, lam
            )
        loss.backward(None if upstream is None else np.asarray(upstream, dtype=model.dtype))
    return [loss.data, z.grad] + [p.grad for p in net.parameters()]


def _assert_close(actual, expected, atol):
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)


@pytest.mark.parametrize("upstream", [None, 2.5])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("target", sorted(MODELS))
@pytest.mark.parametrize("block", sorted(BLOCK_ROWS))
def test_fused_step_matches_autodiff_oracle(monkeypatch, block, target, dtype, upstream):
    rows = BLOCK_ROWS[block]
    monkeypatch.setattr(autoencoder, "SCORE_BLOCK_ELEMENTS", rows * N_NODES)
    graph = _random_graph()
    fused = _step(MODELS[target](dtype), graph, fused=True, upstream=upstream)
    oracle = _step(MODELS[target](dtype), graph, fused=False, upstream=upstream)
    assert len(fused) == len(oracle)
    if dtype == "float32":
        _assert_close(fused, oracle, FLOAT32_TOLERANCE)
    elif rows >= N_NODES:
        for got, want in zip(fused, oracle):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
    else:
        _assert_close(fused, oracle, MULTI_BLOCK_TOLERANCE)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("target", ["graphsnn", "k_hop", "adjacency"])
def test_one_block_fit_is_bitwise_the_oracle_loop(target, dtype):
    graph = make_example_graph(seed=7)
    config = MHGAEConfig(target=target, dtype=dtype, epochs=4, k_hops=3, seed=1)
    fused = MultiHopGAE(config).fit(graph)
    oracle = AutodiffMultiHopGAE(config).fit(graph)
    assert fused.training_result.losses == oracle.training_result.losses
    fused_state, oracle_state = fused.state_dict(), oracle.state_dict()
    assert fused_state.keys() == oracle_state.keys()
    for name in fused_state:
        assert np.array_equal(fused_state[name], oracle_state[name]), name
    assert fused.score_nodes().tobytes() == oracle.score_nodes().tobytes()


def test_multi_block_fit_tracks_the_oracle_loop(monkeypatch):
    graph = _random_graph(60, seed=2)
    config = MHGAEConfig(epochs=5, hidden_dim=16, embedding_dim=8, seed=0)
    oracle = AutodiffMultiHopGAE(config).fit(graph)
    monkeypatch.setattr(autoencoder, "SCORE_BLOCK_ELEMENTS", 7 * graph.n_nodes)
    fused = MultiHopGAE(config).fit(graph)
    np.testing.assert_allclose(
        fused.training_result.losses, oracle.training_result.losses, rtol=0.0, atol=MULTI_BLOCK_TOLERANCE
    )


def test_training_allocates_no_dense_square_array():
    """MH-GAE fit on a ~3.3k-node graph peaks below one n×n float64 array."""
    graph = make_simml(scale=1.2, seed=1)
    dense_square_bytes = graph.n_nodes * graph.n_nodes * 8
    model = MultiHopGAE(MHGAEConfig(epochs=2, seed=0))
    tracemalloc.start()
    try:
        model.fit(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.n_nodes > 3000
    assert peak < dense_square_bytes, (
        f"MH-GAE fit peaked at {peak / 2**20:.1f} MB; one dense "
        f"{graph.n_nodes}x{graph.n_nodes} float64 array is {dense_square_bytes / 2**20:.1f} MB"
    )
