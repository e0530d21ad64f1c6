"""Multi-Hop Graph AutoEncoder (MH-GAE), Sec. V-B of the paper.

MH-GAE differs from the vanilla GAE only in its *structure reconstruction
target*: instead of the one-hop adjacency ``A`` it reconstructs either

* a standardised k-hop matrix ``A^k`` (Eqn. 3), or
* the GraphSNN weighted adjacency ``Ã`` (Eqn. 4, the recommended choice),

so nodes deep inside an anomaly group — which look perfectly normal to
their immediate neighbours but inconsistent with the wider graph — receive
large reconstruction errors.  Those errors are thresholded into the anchor
node set that seeds candidate-group sampling.

Every target is built and stored as CSR.  The GraphSNN propagation mix is
formed from that CSR directly; only the ``k_hop`` mix, whose reachability
mass is dense for any connected graph, densifies.  A graph whose dense mix
or ``k_hop`` target (mixed or not) would exceed ``DENSE_MIX_BUDGET_BYTES``
is refused before anything is built.  Training and scoring inherit the
tiled structure walk of :class:`GraphAutoEncoder`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.gae.autoencoder import GAEConfig, GraphAutoEncoder, Propagation
from repro.graph import Graph, graphsnn_weighted_adjacency, k_hop_matrix, row_normalize

# Byte budget of the dense propagation mix.  At its peak the mix holds four
# n × n float64 arrays (the dense one-hop propagation, the dense target, the
# identity and their sum), so 1 GiB admits graphs of up to 5792 nodes.
DENSE_MIX_BUDGET_BYTES = 1 << 30
_DENSE_MIX_BYTES_PER_ENTRY = 4 * 8


@dataclass
class MHGAEConfig(GAEConfig):
    """MH-GAE hyperparameters.

    ``target`` selects the reconstruction objective: ``"graphsnn"`` (Ã,
    default and recommended by the paper), ``"k_hop"`` (requires ``k_hops``)
    or ``"adjacency"`` (falls back to the vanilla GAE, useful for the Table
    IV ablation).  ``graphsnn_lambda`` is the λ exponent of Eqn. (4).

    ``propagate_with_target`` additionally drives the GCN encoder's message
    passing with the multi-hop matrix (mixed with the one-hop adjacency), so
    a node's embedding aggregates information from the same multi-hop
    neighbourhood its reconstruction target covers.  This is the mechanism
    that lets the reconstruction error of nodes deep inside an anomaly group
    reflect their inconsistency with long-range (outside-group) nodes — see
    DESIGN.md for how this maps onto the paper's Eqns. (3)-(4).
    """

    target: str = "graphsnn"
    k_hops: int = 5
    graphsnn_lambda: float = 1.0
    propagate_with_target: bool = True


class MultiHopGAE(GraphAutoEncoder):
    """MH-GAE: a GAE whose reconstruction objective sees beyond one hop.

    Examples
    --------
    >>> from repro.datasets import make_example_graph
    >>> model = MultiHopGAE(MHGAEConfig(epochs=5, target="graphsnn"))
    >>> anchors = model.fit(make_example_graph()).anchor_nodes(fraction=0.1)
    >>> len(anchors) > 0
    True
    """

    def __init__(self, config: Optional[MHGAEConfig] = None) -> None:
        super().__init__(config or MHGAEConfig())

    # ------------------------------------------------------------------
    # Differences from the vanilla GAE: the structure target and,
    # optionally, the propagation matrix of the encoder.
    # ------------------------------------------------------------------
    def _mixes_densely(self) -> bool:
        """Whether :meth:`_build_propagation` forms the dense ``n × n`` mix."""
        config: MHGAEConfig = self.config  # type: ignore[assignment]
        return (
            config.propagate_with_target
            and config.target != "adjacency"
            and (config.target == "k_hop" or not config.sparse_propagation)
        )

    def _bind_graph(self, graph: Graph) -> None:
        # The k-hop target is near dense for any connected graph even when
        # stored as CSR (A^5 of a sparse graph fills most of n²), so it
        # falls under the same budget as the dense mix, mixed or not.
        n = graph.n_nodes
        projected = _DENSE_MIX_BYTES_PER_ENTRY * n * n
        dense = self._mixes_densely() or self.config.target == "k_hop"
        if dense and projected > DENSE_MIX_BUDGET_BYTES:
            limit = math.isqrt(DENSE_MIX_BUDGET_BYTES // _DENSE_MIX_BYTES_PER_ENTRY)
            raise ValueError(
                f"MH-GAE target '{self.config.target}' is dense in n × n: "
                f"{n} nodes need ~{projected / 2**20:.0f} MB, over the "
                f"{DENSE_MIX_BUDGET_BYTES / 2**20:.0f} MB budget ({limit} nodes at most); "
                "use target='graphsnn' with sparse_propagation=True for larger graphs"
            )
        super()._bind_graph(graph)

    def _build_structure_target(self, graph: Graph) -> sp.csr_matrix:
        config: MHGAEConfig = self.config  # type: ignore[assignment]
        if config.target == "adjacency":
            return graph.adjacency(sparse=True)
        if config.target == "k_hop":
            return k_hop_matrix(graph, config.k_hops, sparse=True)
        if config.target == "graphsnn":
            return graphsnn_weighted_adjacency(graph, lam=config.graphsnn_lambda, sparse=True)
        raise ValueError(f"unknown MH-GAE target '{config.target}'")

    def _build_propagation(self, graph: Graph) -> Propagation:
        config: MHGAEConfig = self.config  # type: ignore[assignment]
        one_hop = super()._build_propagation(graph)
        if config.target == "adjacency" or not config.propagate_with_target:
            return one_hop
        # Mix the multi-hop reachability mass with the one-hop propagation
        # and renormalise rows, so messages travel along the same long-range
        # relations the reconstruction loss penalises.
        target = self._structure_target
        if not self._mixes_densely():
            # Ã shares the sparsity of A, so the mixed propagation stays
            # sparse: one_hop + row-normalised (Ã + I), all in CSR.
            target_norm = row_normalize(target + sp.identity(graph.n_nodes, format="csr"))
            return row_normalize((one_hop + target_norm).tocsr())
        # k-hop reachability mass is dense for any connected graph;
        # densify the mix rather than pretending it is sparse.
        if sp.issparse(one_hop):
            one_hop = one_hop.toarray()
        mixed = one_hop + row_normalize(target.toarray() + np.eye(graph.n_nodes))
        return row_normalize(mixed)

    # ------------------------------------------------------------------
    # Anchor selection helper (thin wrapper around gae.anchors)
    # ------------------------------------------------------------------
    def anchor_nodes(self, fraction: float = 0.1, minimum: int = 3) -> np.ndarray:
        """Indices of the top-``fraction`` nodes by reconstruction error.

        The paper selects the top 10% of nodes as anchors (Sec. VII-A4).
        """
        from repro.gae.anchors import select_anchor_nodes

        return select_anchor_nodes(self.score_nodes(), fraction=fraction, minimum=minimum)
