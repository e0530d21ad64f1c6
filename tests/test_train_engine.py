"""Tests for the fast training engine (dtype-aware autodiff, fused/batched
kernels, in-place optimizers, early stopping).

Four oracle families:

* **Optimizer trajectory regression** — the in-place Adam step must
  reproduce the pre-refactor allocating implementation *bitwise* (the
  reference is kept verbatim in this file).
* **Tape-leakage sentinel** — inference paths (``detect_only``,
  ``embed_groups``, GAE scoring; the serve scoring path calls
  ``detect_only``) must record zero tape nodes.
* **Float32 parity** — full-pipeline fast-mode runs detect the same
  groups with identical CR/F1 on the seed datasets; warm inference with
  shared weights keeps scores within 1e-4.  (Full *training* trajectories
  in float32 legitimately drift — chaotic contrastive dynamics amplify
  rounding — so score closeness is pinned on the inference path, decisions
  on the end-to-end path.)
* **Kernel equivalence** — the dense fused GAE loss of the training
  oracle (``tests/gae_oracle.py``, which ``tests/test_gae_fused_step.py``
  pins the row-blocked training step to) matches the unfused autodiff
  graph bit for bit in float64; the fused group-encoder kernel matches the
  per-subgraph autodiff encoder (``tests/encoder_oracle.py``) bit for bit
  in float64, embeddings and gradients, and within 1e-5 in float32.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import repro.gcl.encoder as encoder_module
import repro.gcl.tpgcl as tpgcl_module
from repro.core import TPGrGAD, TPGrGADConfig
from repro.datasets import make_example_graph
from repro.gae import GAEConfig, GraphAutoEncoder, MHGAEConfig, MultiHopGAE
from repro.gcl import GroupEncoder, MINEStatisticsNetwork, TPGCL, TPGCLConfig, mine_mutual_information
from repro.graph import Graph, Group
from repro.nn import Adam, Parameter
from repro.nn.optim import Optimizer
from repro.persist import PipelineState
from repro.tensor import (
    Tensor,
    default_dtype,
    get_default_dtype,
    no_grad,
    set_default_dtype,
    tape_node_count,
)
from repro.tensor.functional import spmm

from encoder_oracle import AutodiffGroupEncoder
from gae_oracle import gae_reconstruction_loss


# ======================================================================
# Reference (pre-refactor) Adam, kept verbatim as the trajectory oracle
# for the in-place rewrite.
# ======================================================================
class _ReferenceAdam(Optimizer):
    def __init__(self, parameters, lr=0.001, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _run_trajectory(optimizer_cls, rng_seed, n_steps=12, dtype=np.float64, **kwargs):
    rng = np.random.default_rng(rng_seed)
    params = [
        Parameter(rng.normal(size=(5, 3)).astype(dtype)),
        Parameter(rng.normal(size=(3,)).astype(dtype)),
    ]
    optimizer = optimizer_cls(params, **kwargs)
    grad_rng = np.random.default_rng(rng_seed + 1)
    for _ in range(n_steps):
        for param in params:
            param.grad = grad_rng.normal(size=param.data.shape).astype(dtype)
        optimizer.step()
    return [param.data.copy() for param in params]


class TestInPlaceOptimizers:
    @pytest.mark.parametrize(
        "kwargs", [{"lr": 0.01}, {"lr": 0.01, "weight_decay": 1e-3}]
    )
    def test_adam_trajectory_bitwise(self, kwargs):
        new = _run_trajectory(Adam, 11, **kwargs)
        ref = _run_trajectory(_ReferenceAdam, 11, **kwargs)
        for a, b in zip(new, ref):
            assert np.array_equal(a, b)

    def test_adam_float32_stays_float32(self):
        (w, b) = _run_trajectory(Adam, 3, dtype=np.float32, lr=0.01, weight_decay=1e-4)
        assert w.dtype == np.float32 and b.dtype == np.float32

    def test_zero_grad_drops_buffers(self):
        param = Parameter(np.ones((4, 4)))
        loss = (param * param).sum()
        loss.backward()
        assert param.grad is not None
        Adam([param]).zero_grad()
        assert param.grad is None


# ======================================================================
# Dtype plumbing
# ======================================================================
class TestDtypePlumbing:
    def test_default_dtype_context(self):
        assert get_default_dtype() == np.float64
        with default_dtype(np.float32):
            assert get_default_dtype() == np.float32
            assert Tensor([1.0, 2.0]).data.dtype == np.float32
        assert get_default_dtype() == np.float64

    def test_set_default_dtype_rejects_non_float(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)

    def test_float32_survives_scalar_arithmetic(self):
        x = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
        y = ((x * 2.0 + 1.0) * 3.0 - 0.5) ** 2
        assert y.data.dtype == np.float32
        y.sum().backward()
        assert x.grad.dtype == np.float32

    def test_binary_ops_coerce_wrapped_operand(self):
        x = Tensor(np.ones(4, dtype=np.float32))
        assert (1.0 - x).data.dtype == np.float32
        assert (2.0 * (x + 1.0)).data.dtype == np.float32

    def test_existing_float64_arrays_keep_dtype_under_float32_default(self):
        with default_dtype(np.float32):
            assert Tensor(np.ones(3, dtype=np.float64)).data.dtype == np.float64

    def test_init_respects_default_dtype(self):
        from repro.nn import glorot_uniform, zeros

        rng = np.random.default_rng(0)
        with default_dtype(np.float32):
            assert glorot_uniform((4, 4), rng).dtype == np.float32
            assert zeros((4,)).dtype == np.float32
        # float32 draws are the rounded image of the float64 draw
        w64 = glorot_uniform((4, 4), np.random.default_rng(5))
        w32 = glorot_uniform((4, 4), np.random.default_rng(5), dtype=np.float32)
        assert np.array_equal(w32, w64.astype(np.float32))

    def test_load_state_dict_casts_to_model_dtype(self):
        from repro.nn import Linear

        with default_dtype(np.float32):
            layer = Linear(3, 2, np.random.default_rng(0))
        state = {k: v.astype(np.float64) for k, v in layer.state_dict().items()}
        layer.load_state_dict(state)
        assert layer.weight.data.dtype == np.float32

    def test_spmm_runs_in_input_dtype(self):
        import scipy.sparse as sp

        matrix = sp.random(6, 6, density=0.5, random_state=0, format="csr")
        x = Tensor(np.ones((6, 2), dtype=np.float32), requires_grad=True)
        out = spmm(matrix, x)
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32


# ======================================================================
# The dense fused GAE loss of the training oracle (tests/gae_oracle.py)
# ======================================================================
class TestFusedKernels:
    def _unfused_loss(self, s_hat, s_target, a_hat, a_target, lam):
        structure_loss = ((s_hat - Tensor(s_target)) ** 2).mean()
        attribute_loss = ((a_hat - Tensor(a_target)) ** 2).mean()
        return structure_loss * lam + attribute_loss * (1.0 - lam)

    @pytest.mark.parametrize("workspace", [None, {}])
    def test_gae_loss_matches_unfused_bitwise(self, workspace):
        rng = np.random.default_rng(0)
        s_target = rng.normal(size=(12, 12))
        a_target = rng.normal(size=(12, 5))
        lam = 0.6

        def build_hats():
            z = Tensor(rng_state["z"].copy(), requires_grad=True)
            return z, (z @ z.T).sigmoid(), (z * 0.5).relu() @ Tensor(rng_state["w"])

        rng_state = {"z": rng.normal(size=(12, 5)), "w": rng.normal(size=(5, 5))}
        z1, s1, a1 = build_hats()
        fused = gae_reconstruction_loss(s1, s_target, a1, a_target, lam, workspace=workspace)
        fused.backward()
        z2, s2, a2 = build_hats()
        unfused = self._unfused_loss(s2, s_target, a2, a_target, lam)
        unfused.backward()

        assert np.array_equal(fused.data, unfused.data)
        assert np.array_equal(z1.grad, z2.grad)

    def test_gae_loss_workspace_reused_across_epochs(self):
        rng = np.random.default_rng(1)
        workspace: dict = {}
        s_target = rng.normal(size=(6, 6))
        a_target = rng.normal(size=(6, 3))
        first_buffers = None
        for _ in range(3):
            s_hat = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
            a_hat = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
            loss = gae_reconstruction_loss(s_hat, s_target, a_hat, a_target, 0.5, workspace=workspace)
            loss.backward()
            buffers = {k: id(v) for k, v in workspace.items()}
            if first_buffers is None:
                first_buffers = buffers
            assert buffers == first_buffers  # no reallocation epoch to epoch


# ======================================================================
# Fused group-encoder kernel vs the autodiff oracle (tests/encoder_oracle.py)
# ======================================================================
def _group_graphs(rng, sizes, n_features=5):
    graphs = []
    for n in sizes:
        pairs = rng.integers(0, n, size=(2 * n, 2))
        edges = [(int(u), int(v)) for u, v in pairs if u != v]
        graphs.append(Graph(n, edges, rng.normal(size=(n, n_features))))
    return graphs


def _encode_and_backprop(encoder_cls, positive, negative, dtype, widths=(5, 8, 6)):
    """Embeddings plus every parameter gradient after one MINE step."""
    n_features, hidden_dim, embedding_dim = widths
    with default_dtype(dtype):
        encoder = encoder_cls(n_features, hidden_dim, embedding_dim, rng=np.random.default_rng(1))
        statistics = MINEStatisticsNetwork(embedding_dim, 8, rng=np.random.default_rng(2))
    positive_batch = encoder.encode_batch(positive)
    negative_batch = encoder.encode_batch(negative)
    mine_mutual_information(statistics, positive_batch, negative_batch).backward()
    return [positive_batch.data, negative_batch.data] + [p.grad for p in encoder.parameters()]


class TestFusedGroupEncoder:
    # Small dense groups, a one-node group, and a >=256-node subgraph per
    # batch (the CSR branch).  Both batches feed one loss, so gradients
    # from two kernel nodes accumulate into the same parameters.
    POSITIVE_SIZES = [3, 7, 1, 300, 12]
    NEGATIVE_SIZES = [4, 2, 9, 5, 260]
    # Padding edge cases: (positive sizes, negative sizes, chunk budget,
    # feature/hidden/embedding widths).  ``None`` keeps the module's
    # budget; a tiny one splits the padded views of each batch into
    # several chunks.  Unit widths send every view down the per-view path.
    BATCHES = {
        "mixed": (POSITIVE_SIZES, NEGATIVE_SIZES, None, (5, 8, 6)),
        "one_size_no_padding": ([6, 6, 6, 6], [6, 6, 6, 6], None, (5, 8, 6)),
        "largest_dense_view": ([2, 255, 2, 3], [2, 2, 255, 2], None, (5, 8, 6)),
        "no_dense_stack": ([1, 300, 1], [260, 1, 1], None, (5, 8, 6)),
        "several_chunks": ([3, 7, 1, 300, 12, 4, 9, 2], [4, 2, 9, 5, 260, 11, 3, 6], 64, (5, 8, 6)),
        "unit_widths": ([3, 7, 1, 12, 9, 10, 11, 13, 14, 15], [4, 2, 9, 5, 6, 8, 10, 12, 3, 7], None, (1, 1, 1)),
    }

    def _batches(self, positive_sizes=POSITIVE_SIZES, negative_sizes=NEGATIVE_SIZES, n_features=5):
        rng = np.random.default_rng(0)
        return _group_graphs(rng, positive_sizes, n_features), _group_graphs(rng, negative_sizes, n_features)

    @pytest.mark.parametrize("case", sorted(BATCHES))
    def test_float64_embeddings_and_gradients_bitwise(self, case, monkeypatch):
        positive_sizes, negative_sizes, budget, widths = self.BATCHES[case]
        if budget is not None:
            monkeypatch.setattr(encoder_module, "_PAD_CHUNK_ELEMENTS", budget)
            _, chunks = encoder_module._segments(np.array(positive_sizes), widths)
            assert len(chunks) > 2
        positive, negative = self._batches(positive_sizes, negative_sizes, widths[0])
        fused = _encode_and_backprop(GroupEncoder, positive, negative, "float64", widths)
        oracle = _encode_and_backprop(AutodiffGroupEncoder, positive, negative, "float64", widths)
        assert len(fused) == 6  # two embedding batches + W1, b1, W2, b2
        for got, want in zip(fused, oracle):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)

    def test_padded_stacks_stay_within_chunk_budget(self):
        """300 views with one 255-node view: peak memory follows the chunk budget, not 300 × 255²."""
        rng = np.random.default_rng(0)
        sizes = [int(n) for n in rng.integers(2, 23, size=300)]
        sizes[150] = 255
        encoder = GroupEncoder(5, hidden_dim=8, embedding_dim=6)
        views = encoder.prepare_many(_group_graphs(rng, sizes))
        tracemalloc.start()
        try:
            embeddings = encoder.encode_batch(views)
            embeddings.backward(np.ones_like(embeddings.data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        itemsize = np.dtype(np.float64).itemsize
        assert peak < 6 * encoder_module._PAD_CHUNK_ELEMENTS * itemsize < len(sizes) * 255**2 * itemsize

    def test_float32_embeddings_and_gradients_within_1e5(self):
        positive, negative = self._batches()
        fused = _encode_and_backprop(GroupEncoder, positive, negative, "float32")
        oracle = _encode_and_backprop(AutodiffGroupEncoder, positive, negative, "float32")
        for got, want in zip(fused, oracle):
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)

    def test_prepared_views_match_graphs(self):
        positive, _ = self._batches()
        encoder = GroupEncoder(5, hidden_dim=8, embedding_dim=6)
        views = [encoder.prepare(graph) for graph in positive]
        assert all(sp.issparse(v.propagation) == (g.n_nodes >= 256) for v, g in zip(views, positive))
        assert np.array_equal(encoder.encode_batch(views).data, encoder.encode_batch(positive).data)

    def test_one_tape_node_per_batch_and_none_without_grad(self):
        positive, _ = self._batches()
        encoder = GroupEncoder(5, hidden_dim=8, embedding_dim=6)
        before = tape_node_count()
        encoder.encode_batch(positive)
        assert tape_node_count() - before == 1
        before = tape_node_count()
        with no_grad():
            encoder.encode_batch(positive)
        assert tape_node_count() == before

    def test_tpgcl_fit_matches_oracle_encoder_bitwise(self, example_graph, monkeypatch):
        groups = [Group.from_nodes(range(i, i + 6)) for i in range(0, 30, 5)]
        config = TPGCLConfig(epochs=4, hidden_dim=8, embedding_dim=8, batch_size=4, view_refresh_every=2)
        fused = TPGCL(config).fit(example_graph, groups)
        monkeypatch.setattr(tpgcl_module, "GroupEncoder", AutodiffGroupEncoder)
        oracle = TPGCL(config).fit(example_graph, groups)
        assert isinstance(oracle.encoder, AutodiffGroupEncoder)
        assert fused.training_result.losses == oracle.training_result.losses
        assert np.array_equal(
            fused.embed_groups(example_graph, groups), oracle.embed_groups(example_graph, groups)
        )


# ======================================================================
# Tape-leakage sentinel: inference must record no backward graph
# ======================================================================
class TestTapeSentinel:
    def test_detect_only_and_embed_groups_build_no_tape(self, example_graph):
        detector = TPGrGAD(TPGrGADConfig.fast(seed=1))
        detector.fit_detect(example_graph)

        before = tape_node_count()
        detector.detect_only(example_graph)  # the serve scoring path calls this
        assert tape_node_count() == before

        groups = [Group.from_nodes(range(5)), Group.from_nodes(range(5, 10))]
        detector.tpgcl.embed_groups(example_graph, groups)
        assert tape_node_count() == before

    def test_gae_inference_builds_no_tape(self, example_graph):
        gae = MultiHopGAE(MHGAEConfig(epochs=2, hidden_dim=8, embedding_dim=4))
        gae.fit(example_graph)
        before = tape_node_count()
        gae.score_nodes()
        gae.anchor_nodes(fraction=0.1)
        assert tape_node_count() == before

    def test_training_does_build_tape(self, example_graph):
        before = tape_node_count()
        MultiHopGAE(MHGAEConfig(epochs=1, hidden_dim=8, embedding_dim=4)).fit(example_graph)
        assert tape_node_count() > before


# ======================================================================
# Float32 fast-mode parity
# ======================================================================
class TestFloat32Parity:
    @pytest.mark.parametrize("graph_seed", [7, 11])
    def test_full_pipeline_decisions_identical(self, graph_seed):
        graph = make_example_graph(seed=graph_seed)
        r64 = TPGrGAD(TPGrGADConfig.fast(seed=1)).fit_detect(graph)
        r32 = TPGrGAD(TPGrGADConfig.fast(seed=1).accelerated()).fit_detect(graph)

        groups64 = sorted(tuple(sorted(g.nodes)) for g in r64.anomalous_groups)
        groups32 = sorted(tuple(sorted(g.nodes)) for g in r32.anomalous_groups)
        assert groups32 == groups64

        e64, e32 = r64.evaluate(graph), r32.evaluate(graph)
        assert e32.cr == e64.cr
        assert e32.f1 == e64.f1

    def test_warm_inference_scores_within_1e4(self, example_graph):
        detector = TPGrGAD(TPGrGADConfig.fast(seed=1))
        detector.fit_detect(example_graph)
        state = detector.state

        r64 = TPGrGAD.from_state(state).detect_only(example_graph)
        state32 = PipelineState(
            config=state.config.accelerated(),
            n_features=state.n_features,
            mhgae_state={k: np.asarray(v, np.float32) for k, v in state.mhgae_state.items()},
            tpgcl_state=(
                {k: np.asarray(v, np.float32) for k, v in state.tpgcl_state.items()}
                if state.tpgcl_state is not None
                else None
            ),
            graph_fingerprint=state.graph_fingerprint,
        )
        r32 = TPGrGAD.from_state(state32).detect_only(example_graph)

        np.testing.assert_allclose(r32.scores, r64.scores, atol=1e-4)
        np.testing.assert_allclose(r32.node_scores, r64.node_scores, atol=1e-4)
        groups64 = sorted(tuple(sorted(g.nodes)) for g in r64.anomalous_groups)
        groups32 = sorted(tuple(sorted(g.nodes)) for g in r32.anomalous_groups)
        assert groups32 == groups64

    def test_float32_models_train_in_float32(self, example_graph):
        gae = MultiHopGAE(MHGAEConfig(epochs=2, hidden_dim=8, embedding_dim=4, dtype="float32"))
        gae.fit(example_graph)
        assert gae._model.encoder_1.linear.weight.data.dtype == np.float32
        assert gae.score_nodes().dtype == np.float32

        groups = [Group.from_nodes(range(6)), Group.from_nodes(range(6, 12)), Group.from_nodes(range(12, 18))]
        model = TPGCL(TPGCLConfig(epochs=2, hidden_dim=8, embedding_dim=8, dtype="float32"))
        model.fit(example_graph, groups)
        assert model.encoder.dtype == np.float32
        assert model.embed_groups(example_graph, groups).dtype == np.float32

    def test_float64_default_unchanged_by_accelerated_clone(self):
        config = TPGrGADConfig.fast(seed=1)
        clone = config.accelerated()
        assert config.mhgae.dtype == "float64" and config.tpgcl.dtype == "float64"
        assert clone.mhgae.dtype == "float32" and clone.tpgcl.dtype == "float32"
        assert clone.content_hash() != config.content_hash()


# ======================================================================
# Training loops
# ======================================================================
class TestTrainingLoops:
    def test_every_fit_runs_all_epochs(self, example_graph):
        gae = GraphAutoEncoder(GAEConfig(epochs=5, hidden_dim=8, embedding_dim=4, seed=0))
        gae.fit(example_graph)
        assert gae.training_result.epochs_run == 5

        groups = [Group.from_nodes(range(i * 6, (i + 1) * 6)) for i in range(5)]
        model = TPGCL(TPGCLConfig(epochs=4, hidden_dim=8, embedding_dim=8, seed=0))
        model.fit(example_graph, groups)
        assert model.training_result.epochs_run == 4
