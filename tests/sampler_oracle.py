"""Reference candidate sampler: one seed search per anchor pair.

Before the multi-source search engine, :class:`repro.sampling.CandidateGroupSampler`
ran one ``path_search`` / ``tree_search`` per anchor pair and one
``cycle_search`` per anchor, each a traversal of its own.  That collection
step is kept here as the oracle the engine must match exactly — node sets,
edge sets, labels and order (``tests/test_sampler_parity.py``,
``tests/test_properties.py``) — and as the baseline arm of
``benchmarks/test_scaling_sparse.py``.

Only :meth:`collect` differs from the library sampler, so pair proposal,
filtering, dedup, the candidate cap and the rng stream are shared.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.graph import Graph
from repro.sampling import CandidateGroupSampler, SampleCollection, cycle_search, path_search, tree_search


class PerPairSampler(CandidateGroupSampler):
    """:class:`CandidateGroupSampler` answering every search with the seed searches."""

    def collect(
        self, graph: Graph, anchors: Sequence[int], pairs: Sequence[Tuple[int, int]]
    ) -> SampleCollection:
        config = self.config
        collection = SampleCollection()
        for u, v in pairs:
            path_group = path_search(graph, u, v, max_length=config.max_path_length)
            tree_group = tree_search(graph, u, v, depth=config.tree_depth, max_nodes=config.max_group_size)
            collection.pair_groups[(u, v)] = (path_group, tree_group)
        for anchor in anchors:
            collection.anchor_cycles[anchor] = cycle_search(
                graph,
                anchor,
                max_cycle_length=config.max_cycle_length,
                max_cycles=config.max_cycles_per_anchor,
            )
        return collection
