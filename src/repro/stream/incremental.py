"""Incremental TP-GrGAD: dirty-region re-scoring over a graph stream.

:class:`IncrementalTPGrGAD` runs the stage functions of
:mod:`repro.core.pipeline` — :func:`~repro.core.pipeline.fit_stages` for
a refit, :func:`~repro.core.pipeline.warm_stages` for an artifact warm
start, :func:`~repro.core.pipeline.build_result` for every result — and
keeps their three stage outputs alive between deltas.  Its ``detector``
(a :class:`repro.core.TPGrGAD`) holds the fitted ``state`` of the latest
refit, or the loaded artifact's state until the first refit, which is
what ``detector.save`` exports.

* **Stage 1 (anchors)** is the expensive trained part (MH-GAE).  It is
  refit only when the *drift budget* is exceeded — the fraction of the
  graph dirtied since the last refit — or on every tick under
  ``refit_policy="always"`` (the exact-parity oracle mode).  Between
  refits the anchor set is frozen; optionally, the
  :data:`MAX_PROVISIONAL_ANCHORS` most recently arrived nodes are
  promoted to *provisional* anchors, each paired with its
  :data:`PROVISIONAL_PAIR_BUDGET` nearest scored anchors, so a burst
  planted mid-stream can be sampled before the next refit.
* **Stage 2 (candidate sampling)** is maintained exactly.  All of
  Algorithm 1's searches from an anchor ``a`` explore at most
  ``SamplerConfig.search_depth`` hops, so after a delta only anchors
  inside the **dirty ball** — the ``search_depth``-hop ball around the
  touched nodes (:meth:`Graph.k_hop_ball`, the union of the
  :meth:`Graph.multi_source_bfs` balls) — can see any changed edge (so
  the radius is always ``search_depth``: a smaller one would leave stale
  candidates).  Their cached per-pair / per-cycle results are recomputed
  from one batched BFS over just those sources; everything else is
  reused verbatim.  Because deltas are add-only, a clean anchor's cached
  result equals a fresh recomputation bit for bit (proved in DESIGN.md,
  tested in ``tests/test_stream.py``).
* **Stage 3 (discrimination)** re-embeds only candidate groups whose
  member nodes were touched (a group's TPGCL embedding depends only on
  its induced subgraph), with the encoder trained at the last refit, and
  re-runs the cheap outlier detector over all group embeddings.

``finalize()`` forces a refit when anything changed since the last one,
so the stream's final answer is *identical* to running the batch
``fit_detect`` on the final snapshot — the parity contract pinned by
``benchmarks/test_stream_replay.py``.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import TPGrGADConfig
from repro.core.pipeline import (
    StageOutputs,
    TPGrGAD,
    build_result,
    fit_stages,
    represent_groups,
    warm_stages,
)
from repro.core.result import GroupDetectionResult
from repro.obs.tracer import get_tracer
from repro.gcl import TPGCL
from repro.graph import Graph, Group
from repro.sampling import CandidateGroupSampler, MultiSourceSearchEngine, SampleCollection
from repro.seeding import resolve_seed
from repro.stream.delta import DeltaReport, GraphDelta, StreamingGraph

#: Most-recent cap on the provisional anchor set between refits.
MAX_PROVISIONAL_ANCHORS = 16
#: How many nearest scored anchors each provisional anchor is paired with.
PROVISIONAL_PAIR_BUDGET = 8


@dataclass
class StreamConfig:
    """Knobs of the incremental detector.

    Attributes
    ----------
    refit_policy:
        ``"budget"`` (default) refits the trained stages when the dirty
        fraction exceeds ``drift_budget``; ``"always"`` refits on every
        tick (exact batch parity, the oracle mode); ``"never"`` only
        refits when :meth:`IncrementalTPGrGAD.finalize` is called.
    drift_budget:
        Fraction of nodes allowed to change (arrive, gain an edge, have
        features rewritten) since the last refit before a full one is
        forced.
    promote_new_nodes:
        Between refits, treat freshly arrived nodes as provisional
        anchors so anomalies planted mid-stream are sampled before the
        next refit.  A stream-only augmentation: refits discard
        provisional anchors.  At most :data:`MAX_PROVISIONAL_ANCHORS`
        (the most recent) are kept, each paired with its
        :data:`PROVISIONAL_PAIR_BUDGET` nearest scored anchors.

    τ is re-derived as the ``1 - contamination`` quantile every tick, like
    the batch pipeline.
    """

    refit_policy: str = "budget"
    drift_budget: float = 0.25
    promote_new_nodes: bool = True

    def __post_init__(self) -> None:
        if self.refit_policy not in ("budget", "always", "never"):
            raise ValueError("refit_policy must be 'budget', 'always' or 'never'")
        if not 0.0 < self.drift_budget <= 1.0:
            raise ValueError("drift_budget must be in (0, 1]")


@dataclass
class TickReport:
    """Everything one :meth:`IncrementalTPGrGAD.update` did."""

    version: int
    mode: str                      # "refit" | "incremental"
    seconds: float
    n_touched: int
    dirty_ball: int                # nodes in this tick's dirty ball
    dirty_fraction: float          # accumulated dirty fraction since last refit
    n_dirty_anchors: int
    pairs_reused: int
    pairs_recomputed: int
    cycles_reused: int
    cycles_recomputed: int
    embeddings_reused: int
    embeddings_recomputed: int
    result: GroupDetectionResult


class IncrementalTPGrGAD:
    """Online TP-GrGAD over a delta stream (see module docstring)."""

    def __init__(
        self,
        base_graph: Graph,
        config: Optional[TPGrGADConfig] = None,
        stream_config: Optional[StreamConfig] = None,
        artifact: Optional[str] = None,
    ) -> None:
        if artifact is not None:
            # Warm start from a saved model artifact (see repro.persist) or
            # an already-fitted TPGrGAD: the initial detection state comes
            # from the trained weights via detect_only-style scoring
            # instead of a full training refit — a restarted stream process
            # resumes serving in seconds.  The artifact's config is used
            # unless the caller overrides it; an override applies to warm
            # scoring too (anchor fraction, sampler, TPGCL gating,
            # detector), while the trained models are bound under the
            # config they were trained with — warm results are approximate
            # by contract, and the first refit adopts the override fully.
            # The detector's fitted state is never rewritten: until that
            # refit, detector.save() exports the artifact exactly as
            # trained, under its own config.
            if isinstance(artifact, (str, os.PathLike)):
                self.detector = TPGrGAD.load(artifact)
            else:
                # Don't adopt the caller's detector object: stream refits
                # rebind its models and a config override must not leak
                # back into the caller's instance.
                self.detector = copy.copy(artifact)
            if config is not None:
                self.detector.config = config
        else:
            self.detector = TPGrGAD(config)
        self.config = self.detector.config
        self.stream_config = stream_config or StreamConfig()
        self.streaming = StreamingGraph(base_graph)

        # Lifetime counters (reported by the replay driver).
        self.n_refits = 0
        self.n_warm_starts = 0
        self.n_incremental_ticks = 0
        self.pair_hits = 0
        self.pair_misses = 0
        self.embed_hits = 0
        self.embed_misses = 0

        # Per-refit-generation state.
        self._anchors: List[int] = []
        self._pairs: List[Tuple[int, int]] = []
        self._collection = SampleCollection()
        self._provisional: List[int] = []
        self._provisional_pairs: Dict[int, List[Tuple[int, int]]] = {}
        self._embed_rows: Dict[Tuple[int, ...], np.ndarray] = {}
        self._tpgcl: Optional[TPGCL] = None
        self._node_scores: Optional[np.ndarray] = None
        self._dirty_mask = np.zeros(base_graph.n_nodes, dtype=bool)
        self._dirty_since_refit = False
        self._result: Optional[GroupDetectionResult] = None

        if artifact is not None:
            self._warm_start(self.graph)
        else:
            self._refit(self.graph)

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The current snapshot."""
        return self.streaming.graph

    def reuse_info(self) -> Dict[str, int]:
        """Reuse-cache statistics: pair and embedding hits/misses.

        The public read surface for the replay driver and operational
        metrics, so monitoring code never reaches into per-generation
        private state.
        """
        return {
            "pair_hits": self.pair_hits,
            "pair_misses": self.pair_misses,
            "embed_hits": self.embed_hits,
            "embed_misses": self.embed_misses,
        }

    @property
    def result(self) -> GroupDetectionResult:
        """The most recent detection result (refit or incremental)."""
        assert self._result is not None
        return self._result

    @property
    def dirty_fraction(self) -> float:
        """Accumulated dirty fraction of the graph since the last refit."""
        return float(self._dirty_mask.sum()) / float(self.graph.n_nodes)

    # ------------------------------------------------------------------
    # Generation starts: full refit, or warm start from a fitted state
    # ------------------------------------------------------------------
    def _refit(self, graph: Graph) -> TickReport:
        """Run the full three-stage pipeline and rebuild all cached state.

        The same :func:`fit_stages` call as :meth:`TPGrGAD.fit_detect`
        (same fresh seeded models, same rng streams), so the produced
        result is bit-identical to the batch pipeline on this snapshot —
        pinned by ``tests/test_stream.py::test_always_policy_matches_batch``.
        """
        start = time.perf_counter()
        outputs = fit_stages(self.config, graph)
        # Real training supersedes any loaded state: save() exports it.
        self.detector.state = outputs.state
        self.n_refits += 1
        return self._install_generation(graph, outputs, "refit", start)

    def _warm_start(self, graph: Graph) -> TickReport:
        """Build the initial detection state from the detector's fitted state.

        The same :func:`warm_stages` call as ``TPGrGAD.detect_only``: the
        loaded MH-GAE / TPGCL score this snapshot, nothing is trained.
        The result is not batch-parity (the weights were trained on the
        artifact's fitted graph), so the generation starts dirty and the
        first budget-triggered or flush refit restores exact parity.
        """
        start = time.perf_counter()
        state = self.detector.state
        if state is None:
            raise RuntimeError("artifact= needs a saved artifact or a fitted TPGrGAD: call fit_detect first")
        outputs = warm_stages(self.config, state, graph)
        self.n_warm_starts += 1
        return self._install_generation(graph, outputs, "warm", start)

    def _install_generation(
        self, graph: Graph, outputs: StageOutputs, mode: str, start: float
    ) -> TickReport:
        """Replace all cached per-generation state in one place."""
        self.detector.mhgae, self.detector.tpgcl = outputs.mhgae, outputs.tpgcl
        anchors = [int(a) for a in outputs.anchor_nodes]
        candidates = outputs.candidates
        self._anchors = anchors
        self._pairs = outputs.pairs
        self._collection = outputs.collection
        self._provisional = []
        self._provisional_pairs = {}
        self._tpgcl = outputs.tpgcl
        self._node_scores = outputs.node_scores
        self._embed_rows = (
            {group.node_tuple(): outputs.embeddings[i] for i, group in enumerate(candidates)}
            if outputs.embeddings is not None
            else {}
        )
        self._dirty_mask = np.zeros(graph.n_nodes, dtype=bool)
        # A warm result is an approximation, so finalize() must still run
        # one true refit to restore batch parity.
        self._dirty_since_refit = mode == "warm"
        self._result = self._score(graph, candidates, outputs.embeddings, anchors)
        return TickReport(
            version=self.streaming.version,
            mode=mode,
            seconds=time.perf_counter() - start,
            n_touched=0,
            dirty_ball=0,
            dirty_fraction=0.0,
            n_dirty_anchors=len(anchors),
            pairs_reused=0,
            pairs_recomputed=len(outputs.pairs),
            cycles_reused=0,
            cycles_recomputed=len(anchors),
            embeddings_reused=0,
            embeddings_recomputed=len(candidates),
            result=self._result,
        )

    def _score(
        self,
        graph: Graph,
        candidates: List[Group],
        embeddings: Optional[np.ndarray],
        anchors: List[int],
    ) -> GroupDetectionResult:
        """:func:`build_result` with padded node scores.

        Stage-1 scores are padded with NaN for nodes arrived since the
        last refit.
        """
        node_scores = self._node_scores
        if node_scores is not None and node_scores.shape[0] != graph.n_nodes:
            node_scores = np.full(graph.n_nodes, np.nan)
            node_scores[: self._node_scores.shape[0]] = self._node_scores
        return build_result(self.config, candidates, embeddings, anchors, node_scores)

    # ------------------------------------------------------------------
    # The streaming entry point
    # ------------------------------------------------------------------
    def update(self, delta: GraphDelta) -> TickReport:
        """Apply one delta and bring the detection result up to date."""
        tracer = get_tracer()
        with tracer.span("stream.tick") as span:
            tick = self._update(delta)
            if tracer.enabled:
                span.set("version", tick.version)
                span.set("mode", tick.mode)
                span.set("policy", self.stream_config.refit_policy)
                span.set("dirty_fraction", round(tick.dirty_fraction, 6))
                span.add("n_touched", tick.n_touched)
                span.add("pairs_reused", tick.pairs_reused)
                span.add("pairs_recomputed", tick.pairs_recomputed)
                span.add("embeddings_reused", tick.embeddings_reused)
                span.add("embeddings_recomputed", tick.embeddings_recomputed)
            return tick

    def _update(self, delta: GraphDelta) -> TickReport:
        start = time.perf_counter()
        report = self.streaming.apply(delta)
        graph = self.graph
        if report.touched_nodes.size:
            # (Duplicate-only / empty deltas change nothing; don't let them
            # force a flush refit from finalize().)
            self._dirty_since_refit = True

        # Drift accounting counts nodes that actually *changed* (arrived,
        # gained an edge, had features rewritten) — not the much larger
        # invalidation ball, which on small-world graphs quickly covers
        # everything without the trained models having drifted much.
        grown = np.zeros(graph.n_nodes, dtype=bool)
        grown[: self._dirty_mask.shape[0]] = self._dirty_mask
        grown[report.touched_nodes] = True
        self._dirty_mask = grown
        dirty_fraction = self.dirty_fraction

        policy = self.stream_config.refit_policy
        if policy == "always" or (policy == "budget" and dirty_fraction > self.stream_config.drift_budget):
            tick = self._refit(graph)
            return replace(
                tick,
                seconds=time.perf_counter() - start,
                n_touched=int(report.touched_nodes.shape[0]),
                dirty_fraction=dirty_fraction,
            )

        # The dirty ball is only needed (and only paid for) on the
        # incremental path; topology changes invalidate searches, feature-
        # only changes don't (paths/trees/cycles are purely structural).
        ball = graph.k_hop_ball(report.touched_topology, self.config.sampler.search_depth)
        return self._incremental_tick(graph, report, ball, dirty_fraction, start)

    # ------------------------------------------------------------------
    def _incremental_tick(
        self,
        graph: Graph,
        report: DeltaReport,
        ball: np.ndarray,
        dirty_fraction: float,
        start: float,
    ) -> TickReport:
        config = self.config
        sampler_config = config.sampler
        ball_set: Set[int] = set(int(n) for n in ball)
        touched_set: Set[int] = set(int(n) for n in report.touched_nodes)

        # ---- which sources must be re-searched -------------------------
        new_provisional: List[int] = []
        if self.stream_config.promote_new_nodes and report.n_new_nodes:
            new_provisional = list(range(graph.n_nodes - report.n_new_nodes, graph.n_nodes))
            self._provisional.extend(new_provisional)
            dropped = self._provisional[:-MAX_PROVISIONAL_ANCHORS]
            self._provisional = self._provisional[-MAX_PROVISIONAL_ANCHORS:]
            for node in dropped:
                for pair in self._provisional_pairs.pop(node, []):
                    self._collection.pair_groups.pop(pair, None)
                self._collection.anchor_cycles.pop(node, None)
            new_provisional = [p for p in new_provisional if p in set(self._provisional)]

        new_set = set(new_provisional)
        dirty_anchors = [a for a in self._anchors if a in ball_set]
        dirty_provisional = [p for p in self._provisional if p in ball_set and p not in new_set]
        sources = list(dict.fromkeys(dirty_anchors + dirty_provisional + new_provisional))
        engine: Optional[MultiSourceSearchEngine] = None
        if sources:
            engine = MultiSourceSearchEngine(graph, sources, max_depth=sampler_config.search_depth)

        # ---- stage 2: patch the collection -----------------------------
        pairs_recomputed = 0
        dirty_set = set(dirty_anchors) | set(dirty_provisional)
        for pair in self._pairs:
            if pair[0] in dirty_set:
                self._collection.pair_groups[pair] = self._search_pair(engine, pair)
                pairs_recomputed += 1
        for provisional in self._provisional:
            if provisional in new_provisional:
                self._provisional_pairs[provisional] = self._nearest_anchor_pairs(engine, provisional)
            if provisional in dirty_set or provisional in new_provisional:
                for pair in self._provisional_pairs.get(provisional, []):
                    self._collection.pair_groups[pair] = self._search_pair(engine, pair)
                    pairs_recomputed += 1

        cycles_recomputed = 0
        for source in sources:
            self._collection.anchor_cycles[source] = engine.cycle_groups(
                source,
                max_cycle_length=sampler_config.max_cycle_length,
                max_cycles=sampler_config.max_cycles_per_anchor,
            )
            cycles_recomputed += 1

        all_pairs = list(self._pairs)
        for provisional in self._provisional:
            all_pairs.extend(self._provisional_pairs.get(provisional, []))
        all_anchors = self._anchors + self._provisional
        pairs_reused = len(all_pairs) - pairs_recomputed
        cycles_reused = len(all_anchors) - cycles_recomputed
        self.pair_hits += pairs_reused
        self.pair_misses += pairs_recomputed

        sampler = CandidateGroupSampler(sampler_config)
        # Deterministic per-tick stream for the (rarely hit) candidate cap.
        cap_rng = np.random.default_rng(
            (resolve_seed(sampler_config.seed), self.streaming.version)
        )
        candidates = sampler.finalize(
            self._collection.ordered_candidates(all_pairs, all_anchors), rng=cap_rng
        )

        # ---- stage 3: re-embed touched groups, re-score everything ------
        # Drop every cached row whose group intersects the touched nodes —
        # including rows of groups *not* in the current candidate list, so a
        # group that leaves and later re-enters can never resurrect a row
        # computed against a pre-touch subgraph.
        if touched_set:
            for key in [k for k in self._embed_rows if touched_set.intersection(k)]:
                del self._embed_rows[key]
        embeddings: Optional[np.ndarray] = None
        embeddings_recomputed = 0
        if candidates:
            stale = [
                group for group in candidates if group.node_tuple() not in self._embed_rows
            ]
            embeddings_recomputed = len(stale)
            if stale:
                rows = represent_groups(self._tpgcl, graph, stale)
                for group, row in zip(stale, rows):
                    self._embed_rows[group.node_tuple()] = row
            embeddings = np.vstack([self._embed_rows[g.node_tuple()] for g in candidates])
        embeddings_reused = len(candidates) - embeddings_recomputed
        self.embed_hits += embeddings_reused
        self.embed_misses += embeddings_recomputed

        result = self._score(graph, candidates, embeddings, all_anchors)
        self._result = result
        self.n_incremental_ticks += 1

        return TickReport(
            version=self.streaming.version,
            mode="incremental",
            seconds=time.perf_counter() - start,
            n_touched=int(report.touched_nodes.shape[0]),
            dirty_ball=int(ball.shape[0]),
            dirty_fraction=dirty_fraction,
            n_dirty_anchors=len(dirty_anchors),
            pairs_reused=pairs_reused,
            pairs_recomputed=pairs_recomputed,
            cycles_reused=cycles_reused,
            cycles_recomputed=cycles_recomputed,
            embeddings_reused=embeddings_reused,
            embeddings_recomputed=embeddings_recomputed,
            result=result,
        )

    # ------------------------------------------------------------------
    def _search_pair(
        self, engine: Optional[MultiSourceSearchEngine], pair: Tuple[int, int]
    ) -> Tuple[Optional[Group], Optional[Group]]:
        assert engine is not None, "a dirty pair implies a dirty source"
        config = self.config.sampler
        u, v = pair
        path_group = engine.path_group(u, v, max_length=config.max_path_length)
        tree_group = engine.tree_group(u, v, depth=config.tree_depth, max_nodes=config.max_group_size)
        return (path_group, tree_group)

    def _nearest_anchor_pairs(
        self, engine: Optional[MultiSourceSearchEngine], provisional: int
    ) -> List[Tuple[int, int]]:
        """Pair a provisional anchor with its nearest reachable scored anchors.

        The provisional node is the *source* of each pair, so one BFS row
        answers all of its searches — scored anchors never become engine
        sources on account of a provisional pairing.
        """
        assert engine is not None
        if not self._anchors:
            return []
        dist_row = engine.distances(provisional)
        reachable = [(int(dist_row[a]), i, a) for i, a in enumerate(self._anchors) if dist_row[a] >= 0]
        reachable.sort()
        return [(provisional, a) for _, _, a in reachable[:PROVISIONAL_PAIR_BUDGET]]

    # ------------------------------------------------------------------
    def finalize(self) -> GroupDetectionResult:
        """Flush the stream: refit if anything changed since the last refit.

        After this call the result is exactly ``TPGrGAD(config).fit_detect``
        on the final snapshot.
        """
        tracer = get_tracer()
        with tracer.span("stream.finalize") as span:
            refit = self._dirty_since_refit
            if refit:
                self._refit(self.graph)
            if tracer.enabled:
                span.set("refit", refit)
            return self.result
