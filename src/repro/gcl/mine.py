"""MINE: Mutual Information Neural Estimation (Belghazi et al., 2018).

The statistics network Φ is an MLP over concatenated embedding pairs.  The
Donsker-Varadhan bound estimates the mutual information between the
positive-view and negative-view embedding distributions:

    I(Zp; Zn) >= E_joint[Φ(zp_i, zn_i)] - log E_marginal[exp Φ(zp_i, zn_j)]

TPGCL *minimises* this quantity (Eqn. 8 of the paper), pushing the encoder
to share as little information as possible between views that preserve and
views that break the group's topology patterns.

The ``m (m - 1)`` marginal pairs repeat every embedding row ``m - 1``
times.  A MINE-local gather op builds them; its backward groups each row's
gradient rows with a stable argsort and sums them with one
``reshape(m, m - 1, d).sum(axis=1)``.  That adds them in the order
``np.add.at`` (the backward of ``Tensor.__getitem__``) would, so the loss
and every gradient are bitwise equal to the indexing formulation that
``tests/encoder_oracle.py`` keeps as the oracle, without its unbuffered
per-element scatter.
"""

from __future__ import annotations

import numpy as np

from repro.nn import MLP, Module
from repro.tensor import Tensor


class MINEStatisticsNetwork(Module):
    """The trainable estimator Φ of Eqn. (8), implemented as an MLP."""

    def __init__(self, embedding_dim: int, hidden_dim: int = 64, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.mlp = MLP([2 * embedding_dim, hidden_dim, 1], rng, activation="relu")

    def forward(self, z_a: Tensor, z_b: Tensor) -> Tensor:
        """Score pairs ``(z_a[i], z_b[i])``; both inputs are ``(k, d)`` tensors."""
        return self.mlp(Tensor.concatenate([z_a, z_b], axis=1))


def _gather_marginal(embeddings: Tensor, index: np.ndarray) -> Tensor:
    """``embeddings[index]`` for an index naming each of the ``m`` rows ``m - 1`` times.

    The backward sums each row's ``m - 1`` gradient rows in the order they
    appear in ``index`` (a stable argsort groups them by row), which is the
    order ``np.add.at`` in ``Tensor.__getitem__`` adds them in, so the result
    is bitwise equal without the unbuffered scatter.  numpy sums a
    one-column slab pairwise, so ``d == 1`` accumulates instead.
    """
    m, d = embeddings.shape
    order = np.argsort(index, kind="stable")

    def backward(grad: np.ndarray) -> None:
        grouped = np.asarray(grad)[order].reshape(m, m - 1, d)
        total = np.add.accumulate(grouped, axis=1)[:, -1] if d == 1 else grouped.sum(axis=1)
        embeddings._accumulate(total, owned=True)

    return Tensor._make(embeddings.data[index], (embeddings,), backward, "gather")


def mine_mutual_information(
    statistics_network: MINEStatisticsNetwork,
    positive_embeddings: Tensor,
    negative_embeddings: Tensor,
    clamp: float = 20.0,
) -> Tensor:
    """Donsker-Varadhan MI estimate between paired embedding sets.

    Parameters
    ----------
    statistics_network:
        The Φ network.
    positive_embeddings, negative_embeddings:
        ``(m, d)`` tensors; row ``i`` of each comes from the same candidate
        group (the joint distribution), while cross-row pairs provide the
        product-of-marginals samples.
    clamp:
        Bound on Φ outputs before exponentiation for numerical stability.

    Returns
    -------
    Tensor
        Scalar MI estimate (can be negative early in training).
    """
    m = positive_embeddings.shape[0]
    if negative_embeddings.shape[0] != m:
        raise ValueError("positive and negative embedding batches must have equal size")
    if m < 2:
        raise ValueError("MINE needs at least two pairs to form marginal samples")

    # Joint samples: matching rows (cp_i, cn_i).
    joint_scores = statistics_network(positive_embeddings, negative_embeddings).clip(-clamp, clamp)
    joint_term = joint_scores.mean()

    # Marginal samples: all mismatched row pairs (cp_i, cn_j), i != j.
    row_index = np.repeat(np.arange(m), m)
    column_index = np.tile(np.arange(m), m)
    off_diagonal = row_index != column_index
    row_index, column_index = row_index[off_diagonal], column_index[off_diagonal]

    marginal_scores = statistics_network(
        _gather_marginal(positive_embeddings, row_index), _gather_marginal(negative_embeddings, column_index)
    ).clip(-clamp, clamp)
    # log E[exp Φ] with the log-sum-exp trick for stability.
    max_score = Tensor(np.array(marginal_scores.numpy().max()))
    marginal_term = ((marginal_scores - max_score).exp().mean()).log() + max_score

    return joint_term - marginal_term
