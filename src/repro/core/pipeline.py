"""The three-stage TP-GrGAD pipeline (Fig. 2 of the paper).

1. **Anchor node localization** — fit MH-GAE on the whole graph, take the
   top-``anchor_fraction`` of nodes by reconstruction error as anchors.
2. **Candidate group sampling** — run Algorithm 1 (path / tree / cycle
   searches) from the anchors to collect candidate groups.
3. **Candidate group discrimination** — train TPGCL on the candidates
   (PPA/PBA views, Eqn. 8 objective), embed each candidate, score the
   embeddings with an unsupervised outlier detector (ECOD by default) and
   flag groups whose score exceeds the threshold τ.

The stages are module-level functions shared by every surface:
:func:`fit_stages` (train MH-GAE → sample → train TPGCL and embed),
:func:`warm_stages` (bind a :class:`~repro.persist.PipelineState`'s
trained models → sample → embed, no training) and :func:`build_result`
(outlier scores → τ → :class:`GroupDetectionResult`).  Both stage paths
sample through ``propose_pairs → collect → finalize`` and hand back the
anchor pairs, which the streaming detector searches again every tick
until its next refit.

:class:`TPGrGAD` is a thin facade over them.  Its one fitted state is the
public ``state`` attribute, a :class:`~repro.persist.PipelineState`: set
by :meth:`TPGrGAD.fit_detect` or given by :meth:`TPGrGAD.from_state` /
:meth:`TPGrGAD.load`; read by :meth:`TPGrGAD.detect_only` and
:meth:`TPGrGAD.save`.  Besides the single-graph
:meth:`TPGrGAD.fit_detect`, the facade exposes a batched
:meth:`TPGrGAD.fit_detect_many`.  Every call trains from scratch: each
stage is seeded from the config, so the same ``(graph, config)`` always
reproduces the same result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TPGrGADConfig
from repro.core.result import GroupDetectionResult
from repro.gae import MultiHopGAE, select_anchor_nodes
from repro.gcl import TPGCL
from repro.graph import Graph, Group
from repro.obs.tracer import get_tracer
from repro.outlier import get_detector
from repro.persist import PipelineState
from repro.sampling import CandidateGroupSampler

_UNFITTED = "unfitted pipeline: call fit_detect (or load / from_state) first"


@dataclass
class StageOutputs:
    """What one pass of the stages produced for one graph.

    ``mhgae`` / ``tpgcl`` are the live models that scored the graph (the
    post-call inspection surface of :class:`TPGrGAD`); ``state`` is the
    fitted state they came from or were trained into.
    """

    anchor_nodes: np.ndarray
    node_scores: np.ndarray
    pairs: List[Tuple[int, int]]
    candidates: List[Group]
    embeddings: Optional[np.ndarray]
    mhgae: MultiHopGAE
    tpgcl: Optional[TPGCL]
    state: PipelineState


# ----------------------------------------------------------------------
# Stage functions
# ----------------------------------------------------------------------
def select_anchors(config: TPGrGADConfig, node_scores: np.ndarray) -> np.ndarray:
    """Stage 1 tail: anchor node indices, sorted by decreasing score."""
    return select_anchor_nodes(
        node_scores, fraction=config.anchor_fraction, maximum=config.max_anchors
    )


def sample_stage(
    config: TPGrGADConfig, graph: Graph, anchor_nodes: Sequence[int]
) -> Tuple[List[Tuple[int, int]], List[Group]]:
    """Stage 2: Algorithm 1 from the anchors as ``(pairs, candidates)``.

    The same ``propose_pairs → collect → finalize`` sequence as
    :meth:`CandidateGroupSampler.sample`, on a fresh seeded sampler, so
    every graph draws the same pair subsample however it is batched.
    """
    anchors = [int(a) for a in anchor_nodes]
    if not anchors:
        return [], []
    sampler = CandidateGroupSampler(config.sampler)
    pairs = sampler.propose_pairs(anchors)
    return pairs, sampler.finalize(sampler.collect(graph, anchors, pairs))


def represent_groups(tpgcl: Optional[TPGCL], graph: Graph, groups: Sequence[Group]) -> np.ndarray:
    """Stage-3 representation of ``groups``: TPGCL embedding ‖ mean features.

    The representation handed to the outlier detector keeps the group's
    aggregate attribute profile alongside the topology-pattern-sensitive
    TPGCL embedding (implementation note in DESIGN.md): the contrastive
    objective alone is free to discard attribute-level signal that the
    detector still needs.  Without an encoder (Table V, "w/o TPGCL") the
    mean node features are the whole representation.
    """
    features = np.vstack([graph.features[list(group.nodes)].mean(axis=0) for group in groups])
    if tpgcl is None:
        return features
    return np.hstack([tpgcl.embed_groups(graph, groups), features])


def _embed(
    config: TPGrGADConfig,
    graph: Graph,
    candidates: List[Group],
    encoder: Callable[[], Optional[TPGCL]],
) -> Tuple[Optional[TPGCL], Optional[np.ndarray]]:
    """Stage 3 embedding; ``encoder`` is called only when the TPGCL head applies.

    The single home of the head's gating rule (``use_tpgcl`` and at least
    two candidates), shared by the training and warm paths.
    """
    if not candidates:
        return None, None
    tpgcl = encoder() if config.use_tpgcl and len(candidates) >= 2 else None
    return tpgcl, represent_groups(tpgcl, graph, candidates)


def fit_anchors(config: TPGrGADConfig, graph: Graph) -> Tuple[MultiHopGAE, np.ndarray, np.ndarray]:
    """Stage 1: train MH-GAE on ``graph``; returns ``(mhgae, node_scores, anchors)``."""
    mhgae = MultiHopGAE(config.mhgae).fit(graph)
    node_scores = mhgae.score_nodes()
    return mhgae, node_scores, select_anchors(config, node_scores)


def fit_stages(config: TPGrGADConfig, graph: Graph) -> StageOutputs:
    """Train every stage on ``graph`` (anchors → sampling → embedding).

    Every model is seeded from ``config``, so the same ``(graph, config)``
    always reproduces the same outputs and the same fitted state.
    """
    tracer = get_tracer()
    with tracer.span("stage.anchors"):
        mhgae, node_scores, anchors = fit_anchors(config, graph)
    with tracer.span("stage.sampling") as span:
        pairs, candidates = sample_stage(config, graph, anchors)
        span.add("n_candidates", len(candidates))
    with tracer.span("stage.embed"):
        tpgcl, embeddings = _embed(
            config, graph, candidates, lambda: TPGCL(config.tpgcl).fit(graph, candidates)
        )
    return StageOutputs(
        anchor_nodes=anchors,
        node_scores=node_scores,
        pairs=pairs,
        candidates=candidates,
        embeddings=embeddings,
        mhgae=mhgae,
        tpgcl=tpgcl,
        state=PipelineState.from_models(config, graph, mhgae, tpgcl),
    )


def warm_stages(config: TPGrGADConfig, state: PipelineState, graph: Graph) -> StageOutputs:
    """Score ``graph`` with ``state``'s trained models (bind → sampling → warm embed).

    Nothing is trained.  The models are bound under the config they were
    trained with (``state.config``); ``config`` drives everything else
    (anchor fraction, sampler, TPGCL gating, detector).  The computation
    reads only ``state`` and locals, so concurrent calls on one state each
    produce their serial result.
    """
    tracer = get_tracer()
    with tracer.span("stage.warm_bind"):
        mhgae = state.bind_mhgae(graph)
        node_scores = mhgae.score_nodes()
        anchors = select_anchors(config, node_scores)
    with tracer.span("stage.sampling") as span:
        pairs, candidates = sample_stage(config, graph, anchors)
        span.add("n_candidates", len(candidates))
    with tracer.span("stage.warm_embed"):
        tpgcl, embeddings = _embed(config, graph, candidates, state.bind_tpgcl)
    return StageOutputs(
        anchor_nodes=anchors,
        node_scores=node_scores,
        pairs=pairs,
        candidates=candidates,
        embeddings=embeddings,
        mhgae=mhgae,
        tpgcl=tpgcl,
        state=state,
    )


def build_result(
    config: TPGrGADConfig,
    candidates: List[Group],
    embeddings: Optional[np.ndarray],
    anchor_nodes: Sequence[int],
    node_scores: Optional[np.ndarray],
    threshold: Optional[float] = None,
) -> GroupDetectionResult:
    """Outlier-score the candidate embeddings, set τ, flag the anomalous groups.

    ``threshold=None`` sets τ to the ``1 - contamination`` quantile of the
    scores.  Containers are copied at this boundary (Group objects
    themselves are frozen) so a caller mutating a returned result can
    never corrupt the state it came from or the results of later calls.
    """
    anchor_nodes = np.asarray(anchor_nodes, dtype=int).copy()
    node_scores = None if node_scores is None else node_scores.copy()
    if not candidates:
        return GroupDetectionResult(
            candidate_groups=[],
            scores=np.array([]),
            threshold=0.0,
            anomalous_groups=[],
            anchor_nodes=anchor_nodes,
            node_scores=node_scores,
        )
    with get_tracer().span("stage.score"):
        scores = get_detector(config.detector).fit_scores(embeddings)
    if threshold is None:
        threshold = float(np.quantile(scores, 1.0 - config.contamination))
    anomalous = [
        group.with_score(float(score))
        for group, score in zip(candidates, scores)
        if score >= threshold
    ]
    return GroupDetectionResult(
        candidate_groups=list(candidates),
        scores=scores,
        threshold=float(threshold),
        anomalous_groups=anomalous,
        anchor_nodes=anchor_nodes,
        embeddings=embeddings.copy(),
        node_scores=node_scores,
    )


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
class TPGrGAD:
    """Topology Pattern Enhanced Unsupervised Group-level Graph Anomaly Detection.

    ``state`` is the fitted pipeline (None until a fit, :meth:`load` or
    :meth:`from_state`); ``mhgae`` / ``tpgcl`` are the live models of the
    last call, kept for inspection only.

    Examples
    --------
    >>> from repro.datasets import make_example_graph
    >>> detector = TPGrGAD(TPGrGADConfig.fast())
    >>> result = detector.fit_detect(make_example_graph())
    >>> result.n_candidates > 0
    True
    """

    def __init__(self, config: Optional[TPGrGADConfig] = None) -> None:
        self.config = config or TPGrGADConfig()
        self.state: Optional[PipelineState] = None
        self.mhgae: Optional[MultiHopGAE] = None
        self.tpgcl: Optional[TPGCL] = None

    # ------------------------------------------------------------------
    # Individual stages (the Figure 6 experiment drives them one by one)
    # ------------------------------------------------------------------
    def locate_anchors(self, graph: Graph) -> np.ndarray:
        """Fit MH-GAE and return anchor node indices (sorted by error)."""
        self.mhgae, _, anchors = fit_anchors(self.config, graph)
        return anchors

    def sample_candidates(self, graph: Graph, anchor_nodes: Sequence[int]) -> List[Group]:
        """Run Algorithm 1 from the anchor nodes."""
        return sample_stage(self.config, graph, anchor_nodes)[1]

    def _result(self, outputs: StageOutputs, threshold: Optional[float]) -> GroupDetectionResult:
        # Rebind the inspection attributes to the models behind this result.
        self.mhgae, self.tpgcl = outputs.mhgae, outputs.tpgcl
        return build_result(
            self.config,
            outputs.candidates,
            outputs.embeddings,
            outputs.anchor_nodes,
            outputs.node_scores,
            threshold,
        )

    # ------------------------------------------------------------------
    # End-to-end
    # ------------------------------------------------------------------
    def fit_detect(self, graph: Graph, threshold: Optional[float] = None) -> GroupDetectionResult:
        """Run the full pipeline on ``graph`` and return scored groups.

        Afterwards ``state`` is the state freshly trained on this graph,
        superseding whatever state the detector held before.

        Parameters
        ----------
        graph:
            The attributed graph to analyse (ground-truth groups, if any,
            are ignored by the detector and only used for evaluation).
        threshold:
            Optional explicit score threshold τ; when omitted it is set to
            the ``1 - contamination`` quantile of the candidate scores.
        """
        tracer = get_tracer()
        with tracer.span("pipeline.fit_detect") as span:
            outputs = fit_stages(self.config, graph)
            self.state = outputs.state
            result = self._result(outputs, threshold)
            if tracer.enabled:
                span.set("n_nodes", graph.n_nodes)
                span.set("n_candidates", result.n_candidates)
                span.set("n_anomalous", result.n_anomalous)
            return result

    def fit_detect_many(
        self, graphs: Iterable[Graph], threshold: Optional[float] = None
    ) -> List[GroupDetectionResult]:
        """Score a list of graphs through one call (the batched API).

        Each graph is scored independently with this detector's config —
        the result for a graph does not depend on batch order or
        composition, so ``fit_detect_many(gs) == [fit_detect(g) for g in
        gs]``, and afterwards ``state`` is the batch's last graph's.
        :class:`repro.parallel.ParallelExecutor` shards such a batch
        across processes with serial-identical results.
        """
        return [self.fit_detect(graph, threshold=threshold) for graph in graphs]

    # ------------------------------------------------------------------
    # Warm inference + persistence
    # ------------------------------------------------------------------
    def _fitted_state(self) -> PipelineState:
        if self.state is None:
            raise RuntimeError(_UNFITTED)
        return self.state

    def detect_only(self, graph: Graph, threshold: Optional[float] = None) -> GroupDetectionResult:
        """Score ``graph`` with the fitted ``state`` (no training).

        On the graph the pipeline was fitted on this reproduces
        ``fit_detect`` exactly (same weights, same seeded sampler); on
        *new* graphs of the same feature dimensionality it is the
        warm-start serving path — anchors are scored by the trained
        MH-GAE and candidates embedded by the trained TPGCL encoder, with
        only the cheap sampling and outlier stages recomputed.  ``state``
        itself is left untouched.

        The computation reads only the config and ``state`` and keeps
        every per-call model binding in locals (:func:`warm_stages`), so
        overlapping ``detect_only`` calls on one warm detector from
        multiple threads each produce exactly their serial result.  The
        ``mhgae`` / ``tpgcl`` inspection attributes are rebound at the
        end; under concurrency they reflect *some* recent call.
        """
        state = self._fitted_state()
        tracer = get_tracer()
        with tracer.span("pipeline.detect_only") as top:
            outputs = warm_stages(self.config, state, graph)
            if tracer.enabled:
                top.set("n_nodes", graph.n_nodes)
            return self._result(outputs, threshold)

    def save(self, path) -> str:
        """Write ``state`` as an artifact directory.

        Encoder/MH-GAE parameters go to ``arrays.npz`` plus a JSON
        manifest (config, fitted-graph fingerprint, library versions); see
        :mod:`repro.persist.artifact` for the format.
        """
        return str(self._fitted_state().save(path))

    @classmethod
    def from_state(cls, state: PipelineState) -> "TPGrGAD":
        """Wrap a :class:`repro.persist.PipelineState` in a warm detector.

        The in-memory counterpart of :meth:`load`: the returned detector
        serves :meth:`detect_only` from ``state`` without retraining.
        This is the constructor the serve registry uses — it holds the
        ``PipelineState`` itself (for identity metadata) and builds the
        serving detector from it through this public seam.
        """
        detector = cls(state.config)
        detector.state = state
        return detector

    @classmethod
    def load(cls, path) -> "TPGrGAD":
        """Load an artifact saved by :meth:`save` into a warm detector.

        The returned detector serves :meth:`detect_only` immediately — no
        retraining — and reproduces the saved pipeline's in-memory
        ``fit_detect`` scores to machine precision on the fitted graph.
        """
        return cls.from_state(PipelineState.load(path))
