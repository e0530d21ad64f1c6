"""Row-blocked ``score_nodes`` against the dense Eqn. (1) oracle, and its memory bound.

``score_nodes`` never forms ``sigmoid(Z Zᵀ)`` or the target as an ``n × n``
array; it walks row blocks of ``SCORE_BLOCK_ELEMENTS // n`` rows.  The
oracle below is the dense formula the blocked pass replaced: densify the
CSR target, subtract the full ``reconstruct()`` output (``tests/gae_oracle.py``)
and take row norms.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.gae.autoencoder as autoencoder
from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_simml
from repro.gae import GAEConfig, GraphAutoEncoder, MHGAEConfig, MultiHopGAE, select_anchor_nodes
from repro.graph import Graph

from gae_oracle import reconstruct

BLOCK_ROWS = 16
SMALL = dict(epochs=4, hidden_dim=16, embedding_dim=8, seed=0)
MODELS = {
    "graphsnn": lambda dtype: MultiHopGAE(MHGAEConfig(target="graphsnn", dtype=dtype, **SMALL)),
    "k_hop": lambda dtype: MultiHopGAE(MHGAEConfig(target="k_hop", k_hops=3, dtype=dtype, **SMALL)),
    "adjacency": lambda dtype: MultiHopGAE(MHGAEConfig(target="adjacency", dtype=dtype, **SMALL)),
    "vanilla": lambda dtype: GraphAutoEncoder(GAEConfig(dtype=dtype, **SMALL)),
}
TOLERANCE = {"float64": 1e-12, "float32": 1e-5}


def dense_oracle_scores(model: GraphAutoEncoder) -> np.ndarray:
    """Eqn. (1) computed on the dense ``n × n`` reconstruction."""
    structure_hat, attribute_hat = reconstruct(model)
    structure_error = np.linalg.norm(model._structure_target.toarray() - structure_hat, axis=1)
    attribute_error = np.linalg.norm(model._scaled_features - attribute_hat, axis=1)
    if model.config.normalize_errors:
        structure_error = model._zscore(structure_error)
        attribute_error = model._zscore(attribute_error)
    lam = model.config.structure_weight
    return lam * structure_error + (1.0 - lam) * attribute_error


def _random_graph(n_nodes: int, seed: int = 0) -> Graph:
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n_nodes, size=(3 * n_nodes, 2))
    return Graph(n_nodes, edges, rng.normal(size=(n_nodes, 5)))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("target", sorted(MODELS))
@pytest.mark.parametrize("n_nodes", [1, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 7])
def test_blocked_scores_match_dense_oracle(monkeypatch, n_nodes, target, dtype):
    # A budget of BLOCK_ROWS * n elements makes every block BLOCK_ROWS rows.
    monkeypatch.setattr(autoencoder, "SCORE_BLOCK_ELEMENTS", BLOCK_ROWS * n_nodes)
    model = MODELS[target](dtype).fit(_random_graph(n_nodes))
    scores = model.score_nodes()
    expected = dense_oracle_scores(model)
    assert scores.shape == (n_nodes,)
    assert scores.dtype == np.dtype(dtype)
    np.testing.assert_allclose(scores, expected, rtol=0.0, atol=TOLERANCE[dtype])
    assert np.array_equal(
        select_anchor_nodes(scores, fraction=0.3, minimum=1),
        select_anchor_nodes(expected, fraction=0.3, minimum=1),
    )


def test_default_block_budget_matches_dense_oracle():
    model = MultiHopGAE(MHGAEConfig(**SMALL)).fit(_random_graph(300, seed=1))
    np.testing.assert_allclose(model.score_nodes(), dense_oracle_scores(model), rtol=0.0, atol=1e-12)


def test_fitted_model_keeps_only_the_sparse_target():
    model = MultiHopGAE(MHGAEConfig(**SMALL)).fit(_random_graph(40))
    assert model._structure_target.format == "csr"


def test_warm_scoring_allocates_no_dense_square_array():
    """bind + score on a ~3.3k-node graph peaks below one n×n float64 array."""
    detector = TPGrGAD(TPGrGADConfig.fast(seed=0))
    detector.fit_detect(make_simml(scale=0.04, seed=0))
    graph = make_simml(scale=1.2, seed=1)
    dense_square_bytes = graph.n_nodes * graph.n_nodes * 8
    tracemalloc.start()
    try:
        detector.state.bind_mhgae(graph).score_nodes()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.n_nodes > 3000
    assert peak < dense_square_bytes, (
        f"warm scoring peaked at {peak / 2**20:.1f} MB; one dense "
        f"{graph.n_nodes}x{graph.n_nodes} float64 array is {dense_square_bytes / 2**20:.1f} MB"
    )
