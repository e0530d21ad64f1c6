"""Reference group encoder: the per-subgraph autodiff GCN loop.

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
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.gcl import GroupEncoder
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
