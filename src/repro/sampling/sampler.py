"""Candidate group sampler — Algorithm 1 of the paper.

For every pair of anchor nodes a path and a tree search are run; for every
single anchor a cycle search is run.  The resulting groups (deduplicated by
node set, size-bounded) are the candidate groups handed to TPGCL.

Every search is answered from one batched multi-source BFS via
:class:`repro.sampling.engine.MultiSourceSearchEngine`.  The seed per-pair
searches give identical candidates; they and the parity oracle built on
them live in ``tests/sampler_oracle.py`` (pinned by
``tests/test_sampler_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.graph import Graph, Group
from repro.sampling.engine import MultiSourceSearchEngine
from repro.seeding import resolve_seed


def merge_groups(groups: List[Group]) -> List[Group]:
    """Drop exact duplicates (same node set) while preserving order."""
    seen: Set[Tuple[int, ...]] = set()
    unique: List[Group] = []
    for group in groups:
        key = group.node_tuple()
        if key in seen:
            continue
        seen.add(key)
        unique.append(group)
    return unique


@dataclass
class SamplerConfig:
    """Candidate-group sampling hyperparameters.

    ``tree_depth`` is the ``t`` hyperparameter of Alg. 1; the size bounds
    keep candidate groups in the range where group-level anomalies live
    (tiny 1-node "groups" and giant hairballs are both uninformative).
    """

    tree_depth: int = 2
    max_path_length: int = 12
    max_group_size: int = 40
    min_group_size: int = 2
    max_cycle_length: int = 8
    max_cycles_per_anchor: int = 3
    max_anchor_pairs: int = 400
    max_candidates: int = 300
    # None means "unset": standalone use resolves to 0, while a parent
    # TPGrGADConfig fills it with a stream derived from its master seed.
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not 1 <= self.min_group_size <= self.max_group_size:
            raise ValueError(
                f"need 1 <= min_group_size <= max_group_size, got "
                f"{self.min_group_size} and {self.max_group_size}"
            )
        for name in ("max_candidates", "max_anchor_pairs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def search_depth(self) -> Optional[int]:
        """Hop radius a single search can explore from its anchor.

        This is the engine's BFS depth bound and, equally, the *dirty-ball*
        radius of the streaming subsystem: a change further than this many
        hops from an anchor cannot alter any of that anchor's searches.
        ``None`` (unbounded path search) means searches are only limited by
        connectivity.
        """
        if self.max_path_length is None:
            return None
        return max(self.max_path_length, self.tree_depth, self.max_cycle_length)


class CandidateGroupSampler:
    """Sample candidate anomaly groups from anchor nodes (Algorithm 1).

    The sampler owns one random stream, created lazily from
    ``config.seed`` and **advanced across calls**: the first
    :meth:`sample` call reproduces the historical single-call behaviour
    exactly, while repeated calls (e.g. over a batch of graphs) draw fresh
    pair/candidate subsamples instead of silently reusing the first
    call's indices.  Callers that need full control can thread an explicit
    ``rng`` through instead.
    """

    def __init__(self, config: Optional[SamplerConfig] = None) -> None:
        self.config = config or SamplerConfig()
        self._rng: Optional[np.random.Generator] = None

    @property
    def rng(self) -> np.random.Generator:
        """The sampler's persistent random stream (lazily seeded)."""
        if self._rng is None:
            self._rng = np.random.default_rng(resolve_seed(self.config.seed))
        return self._rng

    # ------------------------------------------------------------------
    def sample(
        self,
        graph: Graph,
        anchor_nodes: Sequence[int],
        rng: Optional[np.random.Generator] = None,
    ) -> List[Group]:
        """Return the candidate group set ``CG`` for the given anchors.

        Anchor pairs are enumerated in score order (the caller passes anchors
        sorted by decreasing anomaly score); if the quadratic pair count
        exceeds ``max_anchor_pairs`` a uniformly random subset of pairs is
        used instead, keeping the stage near-linear as argued in the paper's
        complexity analysis.  ``rng`` overrides the sampler's persistent
        stream for this call only.
        """
        anchors = [int(a) for a in anchor_nodes]
        if not anchors:
            return []
        rng = self.rng if rng is None else rng

        pairs = self.propose_pairs(anchors, rng)
        return self.finalize(self.collect(graph, anchors, pairs), rng)

    # ------------------------------------------------------------------
    # Structured stages (sample == propose_pairs -> collect -> finalize;
    # the streaming subsystem keeps its pairs between refits and calls
    # collect -> finalize on every tick).
    # ------------------------------------------------------------------
    def propose_pairs(
        self, anchors: Sequence[int], rng: Optional[np.random.Generator] = None
    ) -> List[Tuple[int, int]]:
        """Enumerate (and, over budget, subsample) the anchor pairs to search."""
        config = self.config
        rng = self.rng if rng is None else rng
        anchors = [int(a) for a in anchors]
        pairs = [(u, v) for i, u in enumerate(anchors) for v in anchors[i + 1:]]
        if len(pairs) > config.max_anchor_pairs:
            chosen = rng.choice(len(pairs), size=config.max_anchor_pairs, replace=False)
            pairs = [pairs[i] for i in chosen]
        return pairs

    def collect(
        self, graph: Graph, anchors: Sequence[int], pairs: Sequence[Tuple[int, int]]
    ) -> List[Group]:
        """Run every pair / cycle search; the raw candidates in canonical order.

        Per pair ``(u, v)`` (``u`` must be an anchor) its path then its tree
        group, then per anchor its cycle groups; searches that found nothing
        are skipped.  One batched BFS from all anchors answers every search.
        """
        config = self.config
        engine = MultiSourceSearchEngine(graph, list(anchors), max_depth=config.search_depth)

        candidates: List[Group] = []
        for u, v in pairs:
            path_group = engine.path_group(u, v, max_length=config.max_path_length)
            tree_group = engine.tree_group(u, v, depth=config.tree_depth, max_nodes=config.max_group_size)
            candidates.extend(group for group in (path_group, tree_group) if group is not None)
        for anchor in anchors:
            candidates.extend(
                engine.cycle_groups(
                    anchor,
                    max_cycle_length=config.max_cycle_length,
                    max_cycles=config.max_cycles_per_anchor,
                )
            )
        return candidates

    def finalize(
        self, candidates: Sequence[Group], rng: Optional[np.random.Generator] = None
    ) -> List[Group]:
        """Size-filter, dedupe and cap an ordered raw candidate list."""
        config = self.config
        rng = self.rng if rng is None else rng
        kept = [
            group
            for group in candidates
            if config.min_group_size <= len(group) <= config.max_group_size
        ]
        kept = merge_groups(kept)
        if len(kept) > config.max_candidates:
            chosen = rng.choice(len(kept), size=config.max_candidates, replace=False)
            kept = [kept[i] for i in sorted(chosen)]
        return kept
