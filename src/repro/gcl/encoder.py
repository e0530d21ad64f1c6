"""Group encoder: a GCN over the group's induced subgraph plus mean readout.

The paper uses a 2-layer GCN (Sec. VII-A4) shared across all candidate
groups and views; a permutation-invariant mean readout turns node
embeddings into a single group embedding of dimension 64.

:meth:`GroupEncoder.encode_batch` is one fused kernel: the whole view
batch is a single ``group_encode`` tape node.  Its forward runs, per
subgraph, ``P @ (X W₁ + b₁)`` → relu → ``P @ (R W₂ + b₂)`` → mean in plain
numpy; its backward walks the subgraphs in batch order and accumulates the
``W₁, b₁, W₂, b₂`` gradients one subgraph at a time.  Those are exactly
the array operations, in exactly the order, that the per-subgraph
autodiff graph (two ``GCNConv`` calls, ``mean``, ``concatenate``) records
and replays — reverse topological order visits a concatenation's inputs
first to last — so float64 embeddings and gradients are bitwise equal to
that graph, which ``tests/encoder_oracle.py`` keeps as the oracle.  The
kernel just skips ~10 ``Tensor`` objects and closures per subgraph.

:meth:`GroupEncoder.prepare` builds a view's propagation matrix and
dtype-cast features once; TPGCL prepares each view when it is generated
and reuses it every epoch until the views are refreshed.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.graph import Graph, normalized_adjacency
from repro.nn import GCNConv, Module
from repro.tensor import Tensor, is_grad_enabled


# Below this node count the constant overhead of CSR construction and
# sparse-dense products outweighs the dense n² work they avoid; candidate
# groups are usually far smaller, so this keeps the common case fast while
# large subgraphs still propagate sparsely.
_SPARSE_PROPAGATION_MIN_NODES = 256


class GroupView(NamedTuple):
    """One subgraph ready for the encoder: ``Â`` and ``X`` in the encoder dtype."""

    propagation: Union[np.ndarray, sp.csr_matrix]
    features: np.ndarray


class GroupEncoder(Module):
    """Shared GCN encoder mapping a (small) group graph to one embedding row."""

    def __init__(
        self,
        n_features: int,
        hidden_dim: int = 64,
        embedding_dim: int = 64,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        # The layers hold the parameters (and fix the state_dict keys); the
        # fused kernel below computes their forward and backward itself.
        self.conv_1 = GCNConv(n_features, hidden_dim, rng, activation="relu")
        self.conv_2 = GCNConv(hidden_dim, embedding_dim, rng, activation=None)
        self.embedding_dim = embedding_dim

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the encoder weights (features are cast to match)."""
        return self.conv_1.linear.weight.data.dtype

    def prepare(self, group_graph: Graph) -> GroupView:
        """Normalised adjacency (dense below 256 nodes, CSR above) and features."""
        sparse = group_graph.n_nodes >= _SPARSE_PROPAGATION_MIN_NODES
        propagation = normalized_adjacency(group_graph, sparse=sparse)
        propagation = propagation.astype(self.dtype, copy=False)
        return GroupView(propagation, np.asarray(group_graph.features, dtype=self.dtype))

    def forward(self, group_graph: Graph) -> Tensor:
        """Embed one group graph; returns a ``(1, embedding_dim)`` tensor."""
        return self.encode_batch([group_graph])

    def encode_batch(self, views: Sequence[Union[GroupView, Graph]]) -> Tensor:
        """Embed group graphs (or prepared views) into an ``(m, embedding_dim)`` tensor."""
        if not views:
            raise ValueError("encode_batch received no group graphs")
        views = [view if isinstance(view, GroupView) else self.prepare(view) for view in views]
        w1, b1 = self.conv_1.linear.weight, self.conv_1.linear.bias
        w2, b2 = self.conv_2.linear.weight, self.conv_2.linear.bias
        record = is_grad_enabled()
        out = np.empty((len(views), w2.data.shape[1]), dtype=w2.data.dtype)
        residuals = []
        for row, (propagation, features) in enumerate(views):
            pre = propagation @ (features @ w1.data + b1.data)
            hidden = np.maximum(pre, 0.0)
            nodes = propagation @ (hidden @ w2.data + b2.data)
            scale = np.asarray(1.0 / nodes.shape[0], dtype=nodes.dtype)
            out[row] = nodes.sum(axis=0) * scale
            if record:
                residuals.append((scale, pre, hidden))

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            for row, ((propagation, features), (scale, pre, hidden)) in enumerate(zip(views, residuals)):
                # Mean readout: every node row receives grad / n.
                g_nodes = np.repeat(grad[row : row + 1] * scale, pre.shape[0], axis=0)
                g_support = np.asarray(propagation.T @ g_nodes)
                b2._accumulate(g_support.sum(axis=0), owned=True)
                w2._accumulate(hidden.T @ g_support, owned=True)
                g_pre = (g_support @ w2.data.T) * (pre > 0.0)
                g_support = np.asarray(propagation.T @ g_pre)
                b1._accumulate(g_support.sum(axis=0), owned=True)
                w1._accumulate(features.T @ g_support, owned=True)

        return Tensor._make(out, (w1, b1, w2, b2), backward, "group_encode")
