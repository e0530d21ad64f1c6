"""Incremental TP-GrGAD: re-scoring over a graph stream between refits.

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
  refits the anchor set is frozen, and the
  :data:`MAX_PROVISIONAL_ANCHORS` most recently arrived nodes are
  promoted to *provisional* anchors, each paired at arrival with its
  :data:`PROVISIONAL_PAIR_BUDGET` nearest scored anchors, so a burst
  planted mid-stream can be sampled before the next refit.  A refit
  discards them.
* **Stage 2 (candidate sampling)** is re-run every tick: one
  :meth:`CandidateGroupSampler.collect` over the refit's pairs plus the
  provisional pairs, and over the anchors plus the provisional anchors.
  Algorithm 1 is cheap next to the trained stages, and a per-pair cache
  patched from the dirty region reused too few pairs to pay for itself
  (DESIGN.md).  The pairs themselves stay frozen between refits: a
  provisional anchor keeps the pairing chosen when it arrived.
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
from typing import Dict, List, Optional, Tuple

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
from repro.sampling import CandidateGroupSampler
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

    τ is re-derived as the ``1 - contamination`` quantile every tick, like
    the batch pipeline.
    """

    refit_policy: str = "budget"
    drift_budget: float = 0.25

    def __post_init__(self) -> None:
        if self.refit_policy not in ("budget", "always", "never"):
            raise ValueError("refit_policy must be 'budget', 'always' or 'never'")
        if not 0.0 < self.drift_budget <= 1.0:
            raise ValueError("drift_budget must be in (0, 1]")


@dataclass
class TickReport:
    """Everything one :meth:`IncrementalTPGrGAD.update` did.

    Stage 2 is searched afresh every tick, so ``pairs_reused`` is always 0
    and ``pairs_recomputed`` counts every searched pair.
    """

    version: int
    mode: str                      # "refit" | "incremental"
    seconds: float
    n_touched: int
    dirty_ball: int                # nodes within search_depth of a topology change
    dirty_fraction: float          # accumulated dirty fraction since last refit
    pairs_reused: int
    pairs_recomputed: int
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
        self.embed_hits = 0
        self.embed_misses = 0

        # Per-refit-generation state.
        self._anchors: List[int] = []
        self._pairs: List[Tuple[int, int]] = []
        # Provisional anchor -> its nearest-anchor pairs, chosen at arrival;
        # insertion-ordered, so the most recent arrival is last.
        self._provisional: Dict[int, List[Tuple[int, int]]] = {}
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
        """Embedding-cache statistics: hits and misses.

        The public read surface for the replay driver and operational
        metrics, so monitoring code never reaches into per-generation
        private state.
        """
        return {
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
        self._provisional = {}
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
            pairs_reused=0,
            pairs_recomputed=len(outputs.pairs),
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
        # dirty ball, which on small-world graphs quickly covers
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

        # The dirty ball (every node within search_depth of a topology
        # change) only sizes the tick report; stage 2 is searched afresh.
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
        sampler_config = self.config.sampler
        touched_set = set(int(n) for n in report.touched_nodes)
        if report.n_new_nodes:
            self._promote(graph, report.n_new_nodes)

        # ---- stage 2: Algorithm 1 over the frozen pairs and anchors -----
        all_pairs = list(self._pairs)
        for pairs in self._provisional.values():
            all_pairs.extend(pairs)
        all_anchors = self._anchors + list(self._provisional)
        sampler = CandidateGroupSampler(sampler_config)
        # Deterministic per-tick stream for the candidate cap.
        cap_rng = np.random.default_rng(
            (resolve_seed(sampler_config.seed), self.streaming.version)
        )
        candidates = sampler.finalize(sampler.collect(graph, all_anchors, all_pairs), rng=cap_rng)

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
            pairs_reused=0,
            pairs_recomputed=len(all_pairs),
            embeddings_reused=embeddings_reused,
            embeddings_recomputed=embeddings_recomputed,
            result=result,
        )

    # ------------------------------------------------------------------
    def _promote(self, graph: Graph, n_new: int) -> None:
        """Make the newest arrivals provisional anchors, keeping the most recent.

        Each is paired with its :data:`PROVISIONAL_PAIR_BUDGET` nearest
        reachable scored anchors (ties by anchor rank), read off one BFS
        from the arrivals.  The provisional node is the *source* of each
        pair, so its own BFS row in the sampler answers all its searches.
        """
        arrivals = list(range(graph.n_nodes - n_new, graph.n_nodes))[-MAX_PROVISIONAL_ANCHORS:]
        dist = graph.multi_source_bfs(arrivals, depth=self.config.sampler.search_depth).dist
        for node, row in zip(arrivals, dist):
            reachable = sorted((int(row[a]), i, a) for i, a in enumerate(self._anchors) if row[a] >= 0)
            self._provisional[node] = [(node, a) for _, _, a in reachable[:PROVISIONAL_PAIR_BUDGET]]
        for node in list(self._provisional)[:-MAX_PROVISIONAL_ANCHORS]:
            del self._provisional[node]

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
