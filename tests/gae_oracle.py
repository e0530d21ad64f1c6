"""Reference GAE training step: the autodiff formulation of the objective.

Before the row-blocked ``_ReconstructionLoss`` kernel,
:meth:`repro.gae.GraphAutoEncoder.fit` densified the CSR structure target
once per fit and, every epoch, recorded the decoder ``(Z Zᵀ).sigmoid()``
as two autodiff nodes plus :func:`gae_reconstruction_loss`, a fused loss
over the dense ``n × n`` reconstruction.  That path is kept here, verbatim,
as the oracle the kernel must match (bitwise on one row block, ≤1e-10
across blocks; ``tests/test_gae_fused_step.py``) and as the parent arm of
``benchmarks/test_mhgae_scale.py``.

:class:`AutodiffMultiHopGAE` is a :class:`repro.gae.MultiHopGAE` whose
``fit`` is the pre-kernel training loop.  :func:`reconstruct` is the dense
``(A', X')`` that the row-blocked ``score_nodes`` replaced
(``tests/test_gae_scoring.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gae import GraphAutoEncoder, MultiHopGAE
from repro.gae.autoencoder import GAETrainingResult, _GAEModel
from repro.nn import Adam
from repro.seeding import resolve_seed
from repro.tensor import Tensor, default_dtype, no_grad


def _workspace_buffer(workspace, key: str, shape, dtype) -> np.ndarray:
    """Fetch (or lazily allocate) a reusable array from a workspace dict."""
    buffer = workspace.get(key)
    if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
        buffer = np.empty(shape, dtype=dtype)
        workspace[key] = buffer
    return buffer


def gae_reconstruction_loss(
    structure_hat: Tensor,
    structure_target: np.ndarray,
    attribute_hat: Tensor,
    attribute_target: np.ndarray,
    structure_weight: float,
    workspace: Optional[dict] = None,
) -> Tensor:
    """Fused GAE objective ``λ·mean((A−A')²) + (1−λ)·mean((X−X')²)``.

    Bit-identical in value and gradients to the unfused autodiff graph

    .. code-block:: python

        ((structure_hat - A) ** 2).mean() * lam \
            + ((attribute_hat - X) ** 2).mean() * (1.0 - lam)

    but recorded as one tape node: the only retained intermediates are the
    two residual matrices, and each backward pass performs exactly one
    full-size multiply per term.  Targets are constants of the problem
    (no gradient flows into them).

    ``workspace`` (an ordinary dict owned by the training loop) makes the
    kernel allocation-free across epochs: residuals and squared residuals
    are written into persistent buffers, and the backward product is formed
    in place over the residual.  The gradient handed to ``structure_hat``
    then *is* the workspace buffer — valid for the current backward pass,
    overwritten by the next forward — which is exactly the lifetime a
    training step needs.  Pass ``None`` (default) for fully independent
    gradient arrays.
    """
    s_hat = structure_hat if isinstance(structure_hat, Tensor) else Tensor(structure_hat)
    a_hat = attribute_hat if isinstance(attribute_hat, Tensor) else Tensor(attribute_hat)
    s_target = np.asarray(structure_target)
    a_target = np.asarray(attribute_target)
    lam = float(structure_weight)

    # Forward: the exact op sequence of the unfused graph (sub, pow 2,
    # sum, * 1/size, * weight, add) so float64 values match bitwise
    # (x ** 2 is computed as x·x by numpy, which the buffered path mirrors).
    if workspace is None:
        s_diff = s_hat.data - s_target
        a_diff = a_hat.data - a_target
        s_sq, a_sq = s_diff ** 2, a_diff ** 2
    else:
        s_diff = np.subtract(
            s_hat.data, s_target,
            out=_workspace_buffer(workspace, "s_diff", s_hat.data.shape, s_hat.data.dtype),
        )
        a_diff = np.subtract(
            a_hat.data, a_target,
            out=_workspace_buffer(workspace, "a_diff", a_hat.data.shape, a_hat.data.dtype),
        )
        s_sq = np.multiply(
            s_diff, s_diff,
            out=_workspace_buffer(workspace, "s_sq", s_diff.shape, s_diff.dtype),
        )
        a_sq = np.multiply(
            a_diff, a_diff,
            out=_workspace_buffer(workspace, "a_sq", a_diff.shape, a_diff.dtype),
        )
    s_mean = s_sq.sum() * (1.0 / s_diff.size)
    a_mean = a_sq.sum() * (1.0 / a_diff.size)
    loss = s_mean * lam + a_mean * (1.0 - lam)

    def backward(grad: np.ndarray) -> None:
        # Mirrors the unfused chain: each residual's upstream coefficient
        # is ((g * weight) * (1/size)) * 2, applied in that order.
        g = np.asarray(grad)
        s_coeff = ((g * lam) * (1.0 / s_diff.size)) * 2
        a_coeff = ((g * (1.0 - lam)) * (1.0 / a_diff.size)) * 2
        if workspace is None:
            s_grad = s_coeff * s_diff
            a_grad = a_coeff * a_diff
        else:
            s_grad = np.multiply(s_diff, s_coeff, out=s_diff)
            a_grad = np.multiply(a_diff, a_coeff, out=a_diff)
        s_hat._accumulate(s_grad, owned=True)
        a_hat._accumulate(a_grad, owned=True)

    return Tensor._make(np.asarray(loss), (s_hat, a_hat), backward, "gae_loss")


def autodiff_step_loss(
    z: Tensor,
    attribute_hat: Tensor,
    structure_target: np.ndarray,
    attribute_target: np.ndarray,
    structure_weight: float,
    workspace: Optional[dict] = None,
) -> Tensor:
    """The pre-kernel objective: decode ``σ(ZZᵀ)`` densely, then the fused dense loss."""
    return gae_reconstruction_loss(
        (z @ z.T).sigmoid(), structure_target, attribute_hat, attribute_target, structure_weight,
        workspace=workspace,
    )


class AutodiffMultiHopGAE(MultiHopGAE):
    """:class:`MultiHopGAE` with the pre-kernel training loop (dense target, autodiff decoder)."""

    def fit(self, graph):
        config = self.config
        rng = np.random.default_rng(resolve_seed(config.seed))
        self._bind_graph(graph)
        lam = config.structure_weight
        self.training_result = GAETrainingResult()
        workspace: dict = {}
        structure_target = self._structure_target.toarray()
        with default_dtype(self.dtype):
            self._model = _GAEModel(graph.n_features, graph.n_nodes, config, rng)
            features = Tensor(self._scaled_features)
            optimizer = Adam(self._model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay)
            for _ in range(config.epochs):
                optimizer.zero_grad()
                z = self._model.encode(features, self._propagation)
                loss = autodiff_step_loss(
                    z, self._model.decode_attributes(z), structure_target, self._scaled_features, lam,
                    workspace=workspace,
                )
                loss.backward()
                optimizer.step()
                self.training_result.losses.append(loss.item())
        return self


def reconstruct(model: GraphAutoEncoder) -> tuple:
    """``(A', X')``: the dense structure ``σ(ZZᵀ)`` and (scaled) attributes of a fitted model."""
    model._require_fitted()
    with no_grad():
        z = model._model.encode(Tensor(model._scaled_features), model._propagation)
        structure_hat = model._model.decode_structure(z).numpy()
        attribute_hat = model._model.decode_attributes(z).numpy()
    return structure_hat, attribute_hat
