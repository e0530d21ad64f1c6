"""Reference group encoder and MINE estimate: the plain autodiff formulations.

Before the fused ``group_encode`` kernel, :class:`repro.gcl.GroupEncoder`
embedded each subgraph through two autodiff ``GCNConv`` calls and a
``mean`` readout, recomputing the normalised adjacency on every call, and
concatenated the rows.  That path is kept here, verbatim, as the oracle the
kernel must match bit for bit in float64 (``tests/test_gcl.py``,
``tests/test_train_engine.py``) and as the baseline arm of
``benchmarks/test_tpgcl_speed.py``.

``prepare_many`` (so also ``prepare``) returns the graphs unchanged and
``prepare_groups`` builds each group's subgraph with
``graph.group_subgraph``, so a :class:`repro.gcl.TPGCL` whose encoder is an
:class:`AutodiffGroupEncoder` trains and embeds exactly as the pre-kernel
code did, normalisation per epoch included.

:func:`reference_mine_mutual_information` is the MINE estimate as it was
before :func:`repro.gcl.mine_mutual_information` got its own marginal-pair
gather: the marginal pairs come from ``Tensor.__getitem__``, whose
backward scatters with ``np.add.at``.  ``tests/test_gcl.py`` pins the
loss, the embedding gradients and every Φ gradient to it bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.gcl import GroupEncoder, MINEStatisticsNetwork
from repro.graph import Graph, Group, normalized_adjacency
from repro.tensor import Tensor

_SPARSE_PROPAGATION_MIN_NODES = 256


class AutodiffGroupEncoder(GroupEncoder):
    """:class:`GroupEncoder` with the pre-kernel autodiff forward."""

    def prepare_many(self, group_graphs: Sequence[Graph]) -> List[Graph]:
        return list(group_graphs)

    def prepare_groups(self, graph: Graph, groups: Sequence[Group]) -> List[Graph]:
        return [graph.group_subgraph(group) for group in groups]

    def forward(self, group_graph: Graph) -> Tensor:
        propagation = normalized_adjacency(
            group_graph, sparse=group_graph.n_nodes >= _SPARSE_PROPAGATION_MIN_NODES
        )
        features = Tensor(np.asarray(group_graph.features, dtype=self.dtype))
        hidden = self.conv_1(features, propagation)
        node_embeddings = self.conv_2(hidden, propagation)
        return node_embeddings.mean(axis=0, keepdims=True)

    def encode_batch(self, group_graphs: Sequence[Graph]) -> Tensor:
        if not group_graphs:
            raise ValueError("encode_batch received no group graphs")
        return Tensor.concatenate([self.forward(graph) for graph in group_graphs], axis=0)


def reference_mine_mutual_information(
    statistics_network: MINEStatisticsNetwork,
    positive_embeddings: Tensor,
    negative_embeddings: Tensor,
    clamp: float = 20.0,
) -> Tensor:
    """Donsker-Varadhan MI estimate with marginal pairs gathered by indexing."""
    m = positive_embeddings.shape[0]
    joint_scores = statistics_network(positive_embeddings, negative_embeddings).clip(-clamp, clamp)
    joint_term = joint_scores.mean()

    row_index = np.repeat(np.arange(m), m)
    column_index = np.tile(np.arange(m), m)
    off_diagonal = row_index != column_index
    row_index, column_index = row_index[off_diagonal], column_index[off_diagonal]

    marginal_scores = statistics_network(
        positive_embeddings[row_index], negative_embeddings[column_index]
    ).clip(-clamp, clamp)
    max_score = Tensor(np.array(marginal_scores.numpy().max()))
    marginal_term = ((marginal_scores - max_score).exp().mean()).log() + max_score

    return joint_term - marginal_term
