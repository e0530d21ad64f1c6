"""Group encoder: a GCN over the group's induced subgraph plus mean readout.

The paper uses a 2-layer GCN (Sec. VII-A4) shared across all candidate
groups and views; a permutation-invariant mean readout turns node
embeddings into a single group embedding of dimension 64.

:meth:`GroupEncoder.encode_batch` is one fused kernel: the whole view
batch is a single ``group_encode`` tape node computing, per subgraph,
``P @ (X W₁ + b₁)`` → relu → ``P @ (R W₂ + b₂)`` → mean, and its backward.
Dense views of 2–255 nodes run in consecutive chunks, zero-padded to the
chunk's largest size ``K``: ``(b, K, K)`` propagation stacks and
``(b, K, width)`` node stacks, so a fixed number of stacked ``np.matmul``
and reduction calls serve the whole chunk (``_PAD_CHUNK_ELEMENTS`` caps a
chunk's largest stack).  The ``@ W + b`` products run on the real node
rows only.  1-node views (numpy routes their products through gemv/dot,
not gemm) and CSR views (256+ nodes) keep a per-view loop.

The result is bitwise equal to the per-subgraph autodiff graph (two
``GCNConv`` calls, ``mean``, ``concatenate``), which
``tests/encoder_oracle.py`` keeps as the oracle.  Padding only appends
``+0`` terms to each view's BLAS dot products and node-axis sums, both of
which add in index order; the padded rows of every stack are zero.  Each
view's ``W₁, b₁, W₂, b₂`` gradient is written to row ``1 + i`` of a stack
whose row 0 holds the parameter's existing gradient, and one sequential
sum over axis 0 adds them in the order the autodiff graph would (reverse
topological order visits a concatenation's inputs first to last).  One
product stays per view: the gradient through ``R W₂``, ``G @ W₂ᵀ``.
OpenBLAS picks its small-matrix kernel for that transposed product by
row count, so padded or packed rows could sum a view with another kernel.
The argument rests on how the BLAS build sums, so the tests check it
against the oracle rather than assume it.

:meth:`GroupEncoder.prepare_many` builds the views (propagation matrix
and dtype-cast features) of a list of subgraphs in one batch; TPGCL
prepares each view generation at once and reuses it every epoch until the
views are refreshed.  :meth:`GroupEncoder.prepare_groups` builds the
unaugmented views of candidate groups from one columnar
:meth:`Graph.induced_subgraphs` pass.  Both go through one edge-array
builder, so a view is byte-equal whichever way it was made.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple, Union

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


# Cap on the elements of one padded chunk's largest stack: b views × K
# nodes × the largest of K and the feature, hidden and embedding widths.
_PAD_CHUNK_ELEMENTS = 1 << 18


def _segments(sizes: np.ndarray, widths: Sequence[int]) -> Tuple[List[int], List[slice]]:
    """Split a batch into per-view rows and runs of consecutive padded rows.

    1-node and CSR views stay per-view, and so does every view when a width
    is 1: numpy runs a product with a unit dimension through gemv or dot
    and sums a unit-width column pairwise, and padding would change the
    summation order of both.  Any other view extends the current run unless
    that would take the run's largest stack past ``_PAD_CHUNK_ELEMENTS``.
    """
    stackable = min(widths) > 1
    width = max(widths)
    loose: List[int] = []
    chunks: List[slice] = []
    start, largest = 0, 0
    for row, n_nodes in enumerate(sizes.tolist()):
        if not stackable or n_nodes == 1 or n_nodes >= _SPARSE_PROPAGATION_MIN_NODES:
            if start < row:
                chunks.append(slice(start, row))
            loose.append(row)
            start, largest = row + 1, 0
            continue
        largest = max(largest, n_nodes)
        if start < row and (row + 1 - start) * largest * max(largest, width) > _PAD_CHUNK_ELEMENTS:
            chunks.append(slice(start, row))
            start, largest = row, n_nodes
    if start < sizes.size:
        chunks.append(slice(start, sizes.size))
    return loose, chunks


class _Chunk(NamedTuple):
    """A run of dense views zero-padded to the run's largest size ``k``.

    Node rows live in two layouts: *packed* (every view's real rows, one
    view after another) for the row-wise ``@ W + b`` products, and
    *padded* ``(b, k, width)`` for the per-view propagation and
    weight-gradient products.  ``slots`` maps packed row ``i`` to its row
    of the flattened padded stack.
    """

    slots: np.ndarray
    propagations: np.ndarray
    features: np.ndarray

    @classmethod
    def build(cls, views: Sequence["GroupView"], sizes: np.ndarray, dtype: np.dtype) -> "_Chunk":
        k = int(sizes.max())
        starts = np.cumsum(sizes) - sizes
        slots = np.arange(int(sizes.sum())) + np.repeat(np.arange(sizes.size) * k - starts, sizes)
        propagations = np.zeros((sizes.size, k, k), dtype=dtype)
        for slot, (view, n_nodes) in enumerate(zip(views, sizes.tolist())):
            propagations[slot, :n_nodes, :n_nodes] = view.propagation
        return cls(slots, propagations, np.concatenate([view.features for view in views]))

    def pad(self, packed: np.ndarray) -> np.ndarray:
        """Scatter packed node rows into a zero-padded ``(b, k, width)`` stack."""
        b, k = self.propagations.shape[:2]
        padded = np.zeros((b * k, packed.shape[1]), dtype=packed.dtype)
        padded[self.slots] = packed
        return padded.reshape(b, k, packed.shape[1])

    def pack(self, padded: np.ndarray) -> np.ndarray:
        """Gather the real node rows of a padded stack."""
        return padded.reshape(-1, padded.shape[2])[self.slots]


def _accumulate_rows(parameter: Tensor, stack: np.ndarray) -> None:
    """Add ``stack[1:]`` into ``parameter.grad`` row by row, in batch order.

    Row 0 is overwritten with the existing gradient, or with ``-0.0`` (the
    exact additive identity) when there is none, so one sequential sum over
    axis 0 adds the rows in the order of per-view ``_accumulate`` calls.
    numpy sums a one-element row pairwise instead, so that case accumulates.
    """
    stack[0] = -0.0 if parameter.grad is None else parameter.grad
    if stack[0].size == 1:
        total = np.add.accumulate(stack, axis=0)[-1]
    else:
        total = stack.sum(axis=0)
    if parameter.grad is None:
        parameter._accumulate(total, owned=True)
    else:
        parameter.grad[...] = total


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
        dtype = w2.data.dtype
        record = is_grad_enabled()
        sizes = np.array([features.shape[0] for _, features in views])
        scales = (1.0 / sizes).astype(dtype)[:, None]
        loose, chunks = _segments(sizes, (*w1.data.shape, w2.data.shape[1]))
        out = np.empty((len(views), w2.data.shape[1]), dtype=dtype)

        loose_residuals = []
        for row in loose:
            propagation, features = views[row]
            pre = propagation @ (features @ w1.data + b1.data)
            hidden = np.maximum(pre, 0.0)
            nodes = propagation @ (hidden @ w2.data + b2.data)
            out[row] = nodes.sum(axis=0) * scales[row]
            if record:
                loose_residuals.append((pre, hidden))

        chunk_residuals = []
        for rows in chunks:
            chunk = _Chunk.build(views[rows], sizes[rows], dtype)
            hidden = np.maximum(chunk.propagations @ chunk.pad(chunk.features @ w1.data + b1.data), 0.0)
            nodes = chunk.propagations @ chunk.pad(chunk.pack(hidden) @ w2.data + b2.data)
            out[rows] = nodes.sum(axis=1) * scales[rows]
            if record:
                chunk_residuals.append((chunk, hidden))

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad) * scales  # mean readout: every node row receives grad / n
            # Row 1 + i holds view i's contribution; row 0 the existing gradient.
            stacks = [np.empty((len(views) + 1,) + p.data.shape, dtype=dtype) for p in (w1, b1, w2, b2)]
            g_w1, g_b1, g_w2, g_b2 = (stack[1:] for stack in stacks)
            for row, (pre, hidden) in zip(loose, loose_residuals):
                propagation, features = views[row]
                g_support = np.asarray(propagation.T @ np.repeat(grad[row : row + 1], pre.shape[0], axis=0))
                g_b2[row] = g_support.sum(axis=0)
                g_w2[row] = hidden.T @ g_support
                g_pre = (g_support @ w2.data.T) * (pre > 0.0)
                g_support = np.asarray(propagation.T @ g_pre)
                g_b1[row] = g_support.sum(axis=0)
                g_w1[row] = features.T @ g_support
            for rows, (chunk, hidden) in zip(chunks, chunk_residuals):
                transposed = chunk.propagations.transpose(0, 2, 1)
                g_support = transposed @ np.repeat(grad[rows, None], hidden.shape[1], axis=1)
                np.sum(g_support, axis=1, out=g_b2[rows])
                np.matmul(hidden.transpose(0, 2, 1), g_support, out=g_w2[rows])
                g_pre = np.zeros(hidden.shape, dtype=dtype)
                for slot, n_nodes in enumerate(sizes[rows].tolist()):
                    np.matmul(g_support[slot, :n_nodes], w2.data.T, out=g_pre[slot, :n_nodes])
                # relu(pre) > 0 exactly where pre > 0.
                g_pre *= hidden > 0.0
                g_support = transposed @ g_pre
                np.sum(g_support, axis=1, out=g_b1[rows])
                np.matmul(chunk.pad(chunk.features).transpose(0, 2, 1), g_support, out=g_w1[rows])
            for parameter, stack in zip((w1, b1, w2, b2), stacks):
                _accumulate_rows(parameter, stack)

        return Tensor._make(out, (w1, b1, w2, b2), backward, "group_encode")
