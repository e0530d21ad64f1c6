"""Vanilla attributed Graph AutoEncoder (DOMINANT-style).

The model is the reference N-GAD detector described in Sec. III-A of the
paper:

* encoder — a 2-layer GCN producing node embeddings ``Z``,
* structure decoder — ``sigmoid(Z Z^T)`` reconstructing the adjacency,
* attribute decoder — an MLP reconstructing the feature matrix,
* loss — ``λ · ||A - A'||² + (1 - λ) · ||X - X'||²``,
* per-node anomaly score — the weighted sum of that node's structure and
  attribute reconstruction errors (Eqn. 1).

The structure target is stored only as CSR (it has the sparsity of ``A``)
and neither training nor scoring densifies it.  Both walk row blocks of
``SCORE_BLOCK_ELEMENTS // n`` rows (:func:`_row_blocks`):

* each training step records the whole objective as one tape node
  (:class:`_ReconstructionLoss`) that forms ``sigmoid(Z_B Zᵀ)``, the
  residual, its squared sum and the gradient ``∂L/∂Z`` block by block in
  three block buffers allocated once per fit;
* :meth:`GraphAutoEncoder.score_nodes` encodes once and forms the residual
  row norms block by block.

So neither path allocates an ``n × n`` array.  The dense reconstruction
``(A', X')`` survives only as the test oracle ``reconstruct`` in
``tests/gae_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.graph import Graph, normalized_adjacency
from repro.nn import Adam, GCNConv, MLP, Module
from repro.obs.tracer import get_tracer
from repro.seeding import resolve_seed
from repro.tensor import Tensor, default_dtype, float_dtype, no_grad, sigmoid_, tape_node_count

Propagation = Union[np.ndarray, sp.spmatrix]

# Elements of one ``sigmoid(Z_B Zᵀ)`` row block in training and scoring
# (8 MB in float64); the block holds ``max(1, budget // n)`` rows.
SCORE_BLOCK_ELEMENTS = 1 << 20


def _row_blocks(n: int) -> List[slice]:
    """Row slices of ``SCORE_BLOCK_ELEMENTS // n`` rows covering ``range(n)``."""
    rows = max(1, SCORE_BLOCK_ELEMENTS // max(n, 1))
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


class _ReconstructionLoss:
    """The GAE objective ``λ·mean((Ã − σ(ZZᵀ))²) + (1−λ)·mean((X − X̂)²)``.

    Calling it records one tape node whose parents are ``Z`` and ``X̂``.
    The forward pass walks row blocks ``B`` and, per block, forms
    ``S_B = σ(Z_B Zᵀ)``, the residual ``D_B = S_B − Ã_B`` (``Ã``'s nonzeros
    are subtracted in place, the CSR is never densified), adds ``ΣD_B²`` to
    the loss and, when ``Z`` needs a gradient, turns ``D_B`` in place into
    ``G_B = ∂L/∂(Z_B Zᵀ) = c·D_B ⊙ S_B ⊙ (1 − S_B)`` and adds ``G_B Z`` to
    ``dZ_B`` and ``(Z_Bᵀ G_B)ᵀ`` to ``dZ``.  The three block buffers are
    allocated once, by the constructor.

    These are the ops of the autodiff chain ``(Z Zᵀ).sigmoid()`` → squared
    error mean, in the same order.  With one block (``n ≤ 1024`` at the
    default budget) the float64 loss and gradients are therefore bitwise
    equal to it; across blocks only the loss sum and the ``Zᵀ G`` products
    are split, which moves the result by rounding (≤1e-10).  The gradient
    is formed for an upstream gradient of 1, which is what ``backward()``
    on the loss passes; any other upstream gradient walks the blocks again.
    """

    def __init__(self, target: sp.csr_matrix, features: np.ndarray, structure_weight: float) -> None:
        if not target.has_canonical_format:
            target = target.copy()
            target.sum_duplicates()
        n = target.shape[0]
        self._n = n
        self._blocks = _row_blocks(n)
        self._features = features
        self._lam = float(structure_weight)
        rows = self._blocks[0].stop if self._blocks else 0
        shape = (rows, n)
        self._product = np.empty(shape, dtype=features.dtype)
        self._residual = np.empty(shape, dtype=features.dtype)
        self._square = np.empty(shape, dtype=features.dtype)
        # Ã's nonzeros as flat positions inside their row block.
        row_of = np.repeat(np.arange(n), np.diff(target.indptr))
        self._flat = (row_of % max(rows, 1)) * n + target.indices
        self._values = target.data
        self._indptr = target.indptr

    @staticmethod
    def _coefficient(grad: np.ndarray, weight: float, size: int) -> np.ndarray:
        # The autodiff chain's upstream factor: ((g * weight) * (1/size)) * 2.
        return ((grad * weight) * (1.0 / size)) * 2

    def _walk(self, z: np.ndarray, coefficient: Optional[np.ndarray]):
        """``(ΣD², dZ)`` over all row blocks; ``dZ`` is None without a coefficient."""
        total = z.dtype.type(0)
        dz = None if coefficient is None else np.zeros_like(z)
        for block in self._blocks:
            rows = block.stop - block.start
            product = np.matmul(z[block], z.T, out=self._product[:rows])
            sigmoid_(product)
            residual = self._residual[:rows]
            np.copyto(residual, product)
            nonzeros = slice(self._indptr[block.start], self._indptr[block.stop])
            residual.reshape(-1)[self._flat[nonzeros]] -= self._values[nonzeros]
            total = total + np.multiply(residual, residual, out=self._square[:rows]).sum()
            if dz is None:
                continue
            residual *= coefficient
            residual *= product
            residual *= np.subtract(1.0, product, out=product)
            if block.start == 0:
                np.matmul(residual, z, out=dz[block])
            else:
                dz[block] += residual @ z
            dz += (z[block].T @ residual).T
        return total, dz

    def __call__(self, z: Tensor, attribute_hat: Tensor) -> Tensor:
        lam = self._lam
        structure_size = self._n * self._n
        unit = np.ones((), dtype=z.data.dtype)
        total, dz = self._walk(
            z.data, self._coefficient(unit, lam, structure_size) if z.requires_grad else None
        )
        attribute_diff = attribute_hat.data - self._features
        attribute_sum = (attribute_diff * attribute_diff).sum()
        loss = (total * (1.0 / structure_size)) * lam + (
            attribute_sum * (1.0 / attribute_diff.size)
        ) * (1.0 - lam)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if z.requires_grad:
                structure_grad = dz
                if g != 1:
                    _, structure_grad = self._walk(z.data, self._coefficient(g, lam, structure_size))
                z._accumulate(structure_grad, owned=True)
            attribute_hat._accumulate(
                attribute_diff * self._coefficient(g, 1.0 - lam, attribute_diff.size), owned=True
            )

        return Tensor._make(np.asarray(loss), (z, attribute_hat), backward, "gae_loss")


@dataclass
class GAEConfig:
    """Hyperparameters of the vanilla GAE.

    ``structure_weight`` is the λ of Eqn. (1) balancing structure vs
    attribute reconstruction; the paper and DOMINANT both use values around
    0.5-0.8.  ``feature_scaling`` controls the preprocessing of the node
    attribute matrix (``"minmax"``, ``"standardize"`` or ``"none"``); the
    reconstruction target uses the same scaled features.
    ``normalize_errors`` z-scores the structure and attribute error
    components across nodes before the weighted combination of Eqn. (1), so
    neither term dominates purely because of its scale.
    ``sparse_propagation`` keeps the GCN propagation matrix in CSR form so
    message passing runs as sparse-dense products and never materialises a
    dense ``n × n`` matrix.  (The reconstruction target is always CSR, and
    training and scoring read it one row block at a time.)

    ``dtype`` selects the training precision: ``"float64"`` (default) is
    the bit-reproducible reference path; ``"float32"`` is the fast mode —
    all derived matrices are still *built* in float64 and cast once, so the
    float32 run starts from the rounded image of the reference state.
    """

    hidden_dim: int = 64
    embedding_dim: int = 32
    epochs: int = 100
    learning_rate: float = 0.01
    weight_decay: float = 0.0
    structure_weight: float = 0.6
    feature_scaling: str = "minmax"
    normalize_errors: bool = True
    sparse_propagation: bool = True
    dtype: str = "float64"
    # None means "unset": standalone use resolves to 0, while a parent
    # TPGrGADConfig fills it with a stream derived from its master seed.
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        float_dtype(self.dtype)


@dataclass
class GAETrainingResult:
    """Losses recorded while fitting a GAE."""

    losses: List[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.losses)


class _GAEModel(Module):
    """Encoder + decoders; kept separate from the fitting logic."""

    def __init__(self, n_features: int, n_nodes: int, config: GAEConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.encoder_1 = GCNConv(n_features, config.hidden_dim, rng, activation="relu")
        self.encoder_2 = GCNConv(config.hidden_dim, config.embedding_dim, rng, activation=None)
        self.attribute_decoder = MLP(
            [config.embedding_dim, config.hidden_dim, n_features], rng, activation="relu"
        )

    def encode(self, features: Tensor, propagation: Propagation) -> Tensor:
        hidden = self.encoder_1(features, propagation)
        return self.encoder_2(hidden, propagation)

    def decode_structure(self, z: Tensor) -> Tensor:
        return (z @ z.T).sigmoid()

    def decode_attributes(self, z: Tensor) -> Tensor:
        return self.attribute_decoder(z)


class GraphAutoEncoder:
    """Vanilla attributed GAE with reconstruction-error anomaly scoring.

    Examples
    --------
    >>> from repro.datasets import make_example_graph
    >>> gae = GraphAutoEncoder(GAEConfig(epochs=5))
    >>> scores = gae.fit(make_example_graph()).score_nodes()
    >>> scores.shape
    (110,)
    """

    def __init__(self, config: Optional[GAEConfig] = None) -> None:
        self.config = config or GAEConfig()
        self._model: Optional[_GAEModel] = None
        self._graph: Optional[Graph] = None
        self._propagation: Optional[Propagation] = None
        self._structure_target: Optional[sp.csr_matrix] = None
        self._scaled_features: Optional[np.ndarray] = None
        self.training_result = GAETrainingResult()

    # ------------------------------------------------------------------
    # Feature preprocessing
    # ------------------------------------------------------------------
    def _scale_features(self, features: np.ndarray) -> np.ndarray:
        mode = self.config.feature_scaling
        if mode == "none":
            return features.copy()
        if mode == "standardize":
            return (features - features.mean(axis=0)) / (features.std(axis=0) + 1e-9)
        if mode == "minmax":
            low, high = features.min(axis=0), features.max(axis=0)
            return (features - low) / np.maximum(high - low, 1e-9)
        raise ValueError(f"unknown feature_scaling '{mode}'")

    # ------------------------------------------------------------------
    # Reconstruction target and propagation (overridden by MH-GAE)
    # ------------------------------------------------------------------
    def _build_structure_target(self, graph: Graph) -> sp.csr_matrix:
        return graph.adjacency(sparse=True)

    def _build_propagation(self, graph: Graph) -> Propagation:
        return normalized_adjacency(graph, sparse=self.config.sparse_propagation)

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """Training dtype resolved from the config."""
        return np.dtype(self.config.dtype)

    def _bind_graph(self, graph: Graph) -> None:
        """Build the per-graph derived state, cast once to the config dtype.

        Targets, propagation matrices and scaled features are always
        *constructed* in float64 (identical to the reference path) and only
        rounded at the end, so fast mode sees the rounded image of exactly
        the state the float64 run trains on.
        """
        dtype = self.dtype
        self._graph = graph
        self._structure_target = self._build_structure_target(graph)
        self._propagation = self._build_propagation(graph)
        self._scaled_features = self._scale_features(graph.features)
        if dtype != np.float64:
            self._structure_target = self._structure_target.astype(dtype)
            self._scaled_features = np.asarray(self._scaled_features, dtype=dtype)
            if sp.issparse(self._propagation):
                self._propagation = self._propagation.astype(dtype)
            else:
                self._propagation = np.asarray(self._propagation, dtype=dtype)

    def fit(self, graph: Graph) -> "GraphAutoEncoder":
        """Train encoder and decoders on ``graph`` (unsupervised)."""
        config = self.config
        tracer = get_tracer()
        with tracer.span("gae.fit", model=type(self).__name__) as fit_span:
            tape_before = tape_node_count()
            rng = np.random.default_rng(resolve_seed(config.seed))
            with tracer.span("gae.bind_graph"):
                self._bind_graph(graph)
            self.training_result = GAETrainingResult()
            reconstruction_loss = _ReconstructionLoss(
                self._structure_target, self._scaled_features, config.structure_weight
            )

            with default_dtype(self.dtype):
                self._model = _GAEModel(graph.n_features, graph.n_nodes, config, rng)
                features = Tensor(self._scaled_features)
                optimizer = Adam(
                    self._model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
                )
                for _ in range(config.epochs):
                    with tracer.span("gae.epoch") as epoch_span:
                        optimizer.zero_grad()
                        z = self._model.encode(features, self._propagation)
                        loss = reconstruction_loss(z, self._model.decode_attributes(z))
                        loss.backward()
                        optimizer.step()
                        value = loss.item()
                        self.training_result.losses.append(value)
                        fit_span.add("optimizer_steps")
                        if tracer.enabled:
                            epoch_span.set("loss", value)
            if tracer.enabled:
                fit_span.add("tape_node_count", tape_node_count() - tape_before)
                fit_span.set("epochs_run", self.training_result.epochs_run)
        return self

    # ------------------------------------------------------------------
    # Warm start / persistence
    # ------------------------------------------------------------------
    def attach(self, graph: Graph, state: Optional[dict] = None) -> "GraphAutoEncoder":
        """Bind this model to ``graph`` *without training*.

        Rebuilds the per-graph derived state (structure target, propagation
        matrix, scaled features) and loads the trained parameters — from
        ``state`` (produced by :meth:`state_dict`) or, when ``state`` is
        omitted and the model is already fitted, from its own current
        weights, so ``fit(g1); attach(g2)`` re-binds without ever
        discarding the training.  This is the warm-start path used by the
        artifact store: a loaded model can score any graph with the same
        feature dimensionality as the one it was fitted on.
        """
        config = self.config
        if state is None:
            if self._model is None:
                raise RuntimeError(
                    "attach() needs trained weights: fit() first or pass state="
                )
            state = self._model.state_dict()
        self._bind_graph(graph)
        rng = np.random.default_rng(resolve_seed(config.seed))
        with default_dtype(self.dtype):
            self._model = _GAEModel(graph.n_features, graph.n_nodes, config, rng)
        if state is not None:
            self._model.load_state_dict(state)
        return self

    def state_dict(self) -> dict:
        """Trained parameters keyed by qualified name (see ``Module``)."""
        self._require_fitted()
        return self._model.state_dict()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _require_fitted(self) -> None:
        if self._model is None or self._graph is None:
            raise RuntimeError("call fit() before scoring")

    @staticmethod
    def _zscore(values: np.ndarray) -> np.ndarray:
        spread = values.std()
        if spread < 1e-12:
            return np.zeros_like(values)
        return (values - values.mean()) / spread

    def score_nodes(self) -> np.ndarray:
        """Per-node anomaly scores: weighted structure + attribute errors (Eqn. 1).

        The structure error ``‖Ã_i − σ(z_i Zᵀ)‖`` is computed one row block
        of ``SCORE_BLOCK_ELEMENTS // n`` rows at a time, with the
        elementwise ops of the dense decoder ``sigmoid(Z Zᵀ)``, so the
        values equal the dense formula without holding an ``n × n`` array.
        """
        self._require_fitted()
        with no_grad():
            z = self._model.encode(Tensor(self._scaled_features), self._propagation)
            attribute_hat = self._model.decode_attributes(z).numpy()
        z = z.numpy()
        structure_error = np.empty(z.shape[0], dtype=z.dtype)
        for block in _row_blocks(z.shape[0]):
            residual = self._structure_target[block].toarray()
            residual -= sigmoid_(z[block] @ z.T)
            structure_error[block] = np.linalg.norm(residual, axis=1)
        lam = self.config.structure_weight
        attribute_error = np.linalg.norm(self._scaled_features - attribute_hat, axis=1)
        if self.config.normalize_errors:
            structure_error = self._zscore(structure_error)
            attribute_error = self._zscore(attribute_error)
        return lam * structure_error + (1.0 - lam) * attribute_error

    def score_normalized(self) -> np.ndarray:
        """Anomaly scores min-max scaled into ``[0, 1]``."""
        scores = self.score_nodes()
        low, high = scores.min(), scores.max()
        if high - low < 1e-12:
            return np.zeros_like(scores)
        return (scores - low) / (high - low)
