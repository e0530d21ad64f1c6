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

:meth:`GroupEncoder.prepare_many` builds the views (propagation matrix
and dtype-cast features) of a list of subgraphs in one batch; TPGCL
prepares each view generation at once and reuses it every epoch until the
views are refreshed.  :meth:`GroupEncoder.prepare_groups` builds the
unaugmented views of candidate groups from one columnar
:meth:`Graph.induced_subgraphs` pass.  Both go through one edge-array
builder, so a view is byte-equal whichever way it was made.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.graph import Graph, Group
from repro.nn import GCNConv, Module
from repro.tensor import Tensor, is_grad_enabled


# Below this node count the constant overhead of CSR construction and
# sparse-dense products outweighs the dense n² work they avoid; candidate
# groups are usually far smaller, so this keeps the common case fast while
# large subgraphs still propagate sparsely.
_SPARSE_PROPAGATION_MIN_NODES = 256


def _propagations(
    node_offsets: np.ndarray, edge_offsets: np.ndarray, edges: np.ndarray, dtype: np.dtype
) -> List[Union[np.ndarray, sp.csr_matrix]]:
    """``D^-½(A+I)D^-½`` of every subgraph of a columnar batch, in ``dtype``.

    Subgraph ``i`` has ``node_offsets[i + 1] - node_offsets[i]`` nodes and
    the canonical local edge index ``edges[:, edge_offsets[i]:edge_offsets[i + 1]]``
    (the layout of :class:`~repro.graph.InducedSubgraphs`).  Each matrix is
    byte-equal to ``normalized_adjacency(subgraph, sparse=n >= 256)`` cast
    to ``dtype``: the degrees are the same exact integers, and every
    nonzero of that product is ``(1 · s_i) · s_j = s_i · s_j`` with
    ``s = degrees^-½``.  So the dense matrices are written at their
    ``2E + n`` nonzeros, all at once, into zeroed blocks of one buffer
    instead of scaling an ``n × n`` array twice per subgraph.  The CSR
    branch runs the same scipy products as ``normalized_adjacency``, so its
    index order (and hence the SpMM summation order) is unchanged.
    """
    sizes = np.diff(node_offsets)
    edge_owner = np.repeat(np.arange(sizes.size), np.diff(edge_offsets))
    heads, tails = edges + node_offsets[edge_owner]  # batch-wide node ids
    inv_sqrt = (np.bincount(np.concatenate([heads, tails]), minlength=node_offsets[-1]) + 1.0) ** -0.5
    weights = inv_sqrt[heads] * inv_sqrt[tails]

    # Dense subgraph i owns a k×k block of one zeroed buffer, padded to 16
    # elements so each block starts as aligned as a fresh allocation would.
    dense = sizes < _SPARSE_PROPAGATION_MIN_NODES
    block_offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(np.where(dense, -(-sizes * sizes // 16) * 16, 0), out=block_offsets[1:])
    buffer = np.zeros(block_offsets[-1], dtype=dtype)
    on = dense[edge_owner]
    owner, (row, col), off_diagonal = edge_owner[on], edges[:, on], weights[on]
    buffer[block_offsets[owner] + row * sizes[owner] + col] = off_diagonal
    buffer[block_offsets[owner] + col * sizes[owner] + row] = off_diagonal
    node_owner = np.repeat(np.arange(sizes.size), sizes)
    on = dense[node_owner]
    owner, local = node_owner[on], np.arange(node_owner.size)[on] - node_offsets[node_owner[on]]
    buffer[block_offsets[owner] + local * (sizes[owner] + 1)] = (inv_sqrt * inv_sqrt)[on]

    propagations: List[Union[np.ndarray, sp.csr_matrix]] = []
    for i, n_nodes in enumerate(sizes.tolist()):
        if n_nodes < _SPARSE_PROPAGATION_MIN_NODES:
            start = int(block_offsets[i])
            propagations.append(buffer[start : start + n_nodes * n_nodes].reshape(n_nodes, n_nodes))
            continue
        local_heads, local_tails = edges[:, edge_offsets[i] : edge_offsets[i + 1]]
        adjacency = sp.csr_matrix(
            (
                np.ones(2 * local_heads.size),
                (np.concatenate([local_heads, local_tails]), np.concatenate([local_tails, local_heads])),
            ),
            shape=(n_nodes, n_nodes),
        )
        adjacency.sort_indices()
        scaler = sp.diags(inv_sqrt[node_offsets[i] : node_offsets[i + 1]])
        propagation = scaler @ (adjacency + sp.identity(n_nodes, format="csr")) @ scaler
        propagations.append(propagation.tocsr().astype(dtype, copy=False))
    return propagations


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
        return self.prepare_many([group_graph])[0]

    def prepare_many(self, group_graphs: Sequence[Graph]) -> List[GroupView]:
        """:meth:`prepare` for a whole list of subgraphs (e.g. one view generation)."""
        sizes = [group_graph.n_nodes for group_graph in group_graphs]
        edge_counts = [group_graph.n_edges for group_graph in group_graphs]
        return self._views(
            np.cumsum([0] + sizes),
            np.cumsum([0] + edge_counts),
            np.concatenate([group_graph.edge_index for group_graph in group_graphs], axis=1),
            np.concatenate([group_graph.features for group_graph in group_graphs]),
        )

    def prepare_groups(self, graph: Graph, groups: Sequence[Group]) -> List[GroupView]:
        """Views of the groups' induced subgraphs, built from one columnar pass.

        :meth:`Graph.induced_subgraphs` yields every group's canonical
        local edge index at once, so no ``Graph`` is made per group; each
        view equals ``prepare(graph.group_subgraph(group))`` byte for byte.
        """
        induced = graph.induced_subgraphs([group.nodes for group in groups])
        return self._views(
            induced.node_offsets, induced.edge_offsets, induced.edges, graph.features[induced.nodes]
        )

    def _views(
        self, node_offsets: np.ndarray, edge_offsets: np.ndarray, edges: np.ndarray, features: np.ndarray
    ) -> List[GroupView]:
        """Views of a columnar batch of subgraphs whose stacked node features are ``features``."""
        propagations = _propagations(node_offsets, edge_offsets, edges, self.dtype)
        features = np.asarray(features, dtype=self.dtype)
        offsets = node_offsets.tolist()
        return [
            GroupView(propagation, features[offsets[i] : offsets[i + 1]])
            for i, propagation in enumerate(propagations)
        ]

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
