"""The TPGCL trainer (Sec. V-D, Eqn. 8).

Given candidate groups sampled from a graph, TPGCL:

1. extracts every group's induced subgraph in one columnar pass
   (:meth:`~repro.graph.Graph.induced_subgraphs`),
2. generates a positive view with PPA and a negative view with PBA (other
   augmentations can be plugged in for the Fig. 6 ablation),
3. embeds all views with a shared :class:`~repro.gcl.encoder.GroupEncoder`,
4. minimises the MINE estimate of the mutual information between positive
   and negative view embeddings (Eqn. 8),
5. afterwards produces an embedding per candidate group, to be scored by an
   unsupervised outlier detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.augment import (
    Augmentation,
    PatternBreakingAugmentation,
    PatternPreservingAugmentation,
    TopologyPatterns,
    find_topology_patterns,
)
from repro.gcl.encoder import GroupEncoder, GroupView
from repro.gcl.mine import MINEStatisticsNetwork, mine_mutual_information
from repro.graph import Graph, Group
from repro.nn import Adam
from repro.obs.tracer import get_tracer
from repro.seeding import resolve_seed
from repro.tensor import default_dtype, float_dtype, no_grad, tape_node_count


@dataclass
class TPGCLConfig:
    """TPGCL hyperparameters.

    The defaults follow Sec. VII-A4: a 2-layer GCN encoder with 64-d output
    embeddings; Adam; views regenerated every ``view_refresh_every`` epochs
    so the stochastic parts of PPA/PBA (cycle node choices) are resampled.

    ``dtype`` selects the training precision (``"float64"`` is the
    bit-reproducible reference, ``"float32"`` the fast mode).  Every view
    batch is encoded by the fused ``group_encode`` kernel
    (:meth:`~repro.gcl.encoder.GroupEncoder.encode_batch`) in either dtype.
    """

    hidden_dim: int = 64
    embedding_dim: int = 64
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.005
    weight_decay: float = 0.0
    view_refresh_every: int = 10
    positive_augmentation: str = "PPA"
    negative_augmentation: str = "PBA"
    dtype: str = "float64"
    # None means "unset": standalone use resolves to 0, while a parent
    # TPGrGADConfig fills it with a stream derived from its master seed.
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        # MINE contrasts each group with the others of its batch, so a
        # batch of one is skipped: batch_size 1 would never train.
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        float_dtype(self.dtype)


@dataclass
class TPGCLTrainingResult:
    """Per-epoch loss (the minimised MI estimate) recorded during training."""

    losses: List[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.losses)


class TPGCL:
    """Topology Pattern-based Graph Contrastive Learning.

    Examples
    --------
    >>> from repro.datasets import make_example_graph
    >>> from repro.graph import Group
    >>> graph = make_example_graph()
    >>> groups = [graph.groups[0], Group.from_nodes(range(5))]
    >>> model = TPGCL(TPGCLConfig(epochs=2, batch_size=2))
    >>> embeddings = model.fit(graph, groups).embed_groups(graph, groups)
    >>> embeddings.shape
    (2, 64)
    """

    def __init__(self, config: Optional[TPGCLConfig] = None) -> None:
        self.config = config or TPGCLConfig()
        self.encoder: Optional[GroupEncoder] = None
        self.statistics_network: Optional[MINEStatisticsNetwork] = None
        self.training_result = TPGCLTrainingResult()
        self._rng = np.random.default_rng(resolve_seed(self.config.seed))

    # ------------------------------------------------------------------
    # Augmentation resolution
    # ------------------------------------------------------------------
    def _augmentations(self) -> Tuple[Augmentation, Augmentation]:
        from repro.augment import get_augmentation

        config = self.config
        positive = (
            PatternPreservingAugmentation()
            if config.positive_augmentation.upper() == "PPA"
            else get_augmentation(config.positive_augmentation)
        )
        negative = (
            PatternBreakingAugmentation()
            if config.negative_augmentation.upper() == "PBA"
            else get_augmentation(config.negative_augmentation)
        )
        return positive, negative

    # ------------------------------------------------------------------
    # View generation
    # ------------------------------------------------------------------
    def _generate_views(
        self,
        subgraphs: Sequence[Graph],
        patterns: Sequence[Optional[TopologyPatterns]],
        augmentations: Tuple[Augmentation, Augmentation],
    ) -> Tuple[List[GroupView], List[GroupView]]:
        """Draw a (positive, negative) view per subgraph, prepared for the encoder."""
        # All positive views are drawn before any negative one: that order
        # of RNG draws is what keeps views reproducible.
        positive, negative = (
            self.encoder.prepare_many(
                [augmentation(sub, self._rng, found) for sub, found in zip(subgraphs, patterns)]
            )
            for augmentation in augmentations
        )
        return positive, negative

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, graph: Graph, groups: Sequence[Group]) -> "TPGCL":
        """Train the encoder and Φ on the candidate groups of ``graph``."""
        groups = list(groups)
        if len(groups) < 2:
            raise ValueError("TPGCL needs at least two candidate groups")
        config = self.config
        tracer = get_tracer()

        with tracer.span("tpgcl.fit") as fit_span:
            tape_before = tape_node_count()
            parameter_rng = np.random.default_rng(resolve_seed(config.seed))
            with default_dtype(np.dtype(config.dtype)):
                self.encoder = GroupEncoder(
                    graph.n_features, config.hidden_dim, config.embedding_dim, rng=parameter_rng
                )
                self.statistics_network = MINEStatisticsNetwork(
                    config.embedding_dim, config.hidden_dim, rng=parameter_rng
                )
                optimizer = Adam(
                    self.encoder.parameters() + self.statistics_network.parameters(),
                    lr=config.learning_rate,
                    weight_decay=config.weight_decay,
                )

                # One columnar pass yields every candidate's canonical induced
                # subgraph, equal to ``graph.group_subgraph(group)``.
                induced = graph.induced_subgraphs([group.nodes for group in groups])
                features, name = graph.features[induced.nodes], f"{graph.name}-group"
                subgraphs = [
                    Graph.from_canonical(rows.stop - rows.start, edges, features[rows], name=name)
                    for rows, edges in induced.parts()
                ]
                augmentations = self._augmentations()
                with tracer.span("tpgcl.augment") as view_span:
                    # Pattern search is deterministic and draws no randomness, so
                    # one pass serves both augmentations and every view refresh.
                    search = any(augmentation.uses_patterns for augmentation in augmentations)
                    patterns = [find_topology_patterns(sub) if search else None for sub in subgraphs]
                    positive_views, negative_views = self._generate_views(subgraphs, patterns, augmentations)
                    view_span.add("n_views", 2 * len(subgraphs))

                self.training_result = TPGCLTrainingResult()
                indices = np.arange(len(groups))
                for epoch in range(config.epochs):
                    if epoch > 0 and config.view_refresh_every > 0 and epoch % config.view_refresh_every == 0:
                        with tracer.span("tpgcl.augment") as view_span:
                            positive_views, negative_views = self._generate_views(
                                subgraphs, patterns, augmentations
                            )
                            view_span.add("n_views", 2 * len(subgraphs))

                    with tracer.span("tpgcl.epoch") as epoch_span:
                        self._rng.shuffle(indices)
                        batch_size = min(config.batch_size, len(groups))
                        epoch_losses = []
                        for start in range(0, len(indices), batch_size):
                            batch = indices[start : start + batch_size]
                            if len(batch) < 2:
                                continue
                            optimizer.zero_grad()
                            positive_batch = self.encoder.encode_batch([positive_views[i] for i in batch])
                            negative_batch = self.encoder.encode_batch([negative_views[i] for i in batch])
                            # Eqn. (8): minimise the estimated MI between view embeddings.
                            loss = mine_mutual_information(self.statistics_network, positive_batch, negative_batch)
                            loss.backward()
                            optimizer.step()
                            epoch_losses.append(loss.item())
                            fit_span.add("optimizer_steps")
                        if epoch_losses:
                            epoch_loss = float(np.mean(epoch_losses))
                            self.training_result.losses.append(epoch_loss)
                            if tracer.enabled:
                                epoch_span.set("loss", epoch_loss)
            if tracer.enabled:
                fit_span.add("tape_node_count", tape_node_count() - tape_before)
                fit_span.set("epochs_run", self.training_result.epochs_run)
        return self

    # ------------------------------------------------------------------
    # Warm start / persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Encoder (and, when present, MINE network) parameters.

        Keys are prefixed ``encoder.`` / ``statistics_network.`` so both
        sub-models round-trip through one flat mapping (the ``.npz`` layout
        of the artifact store).
        """
        if self.encoder is None:
            raise RuntimeError("call fit() before exporting state")
        state = {f"encoder.{k}": v for k, v in self.encoder.state_dict().items()}
        if self.statistics_network is not None:
            state.update(
                {f"statistics_network.{k}": v for k, v in self.statistics_network.state_dict().items()}
            )
        return state

    def warm_start(self, n_features: int, state: dict) -> "TPGCL":
        """Rebuild the fitted encoder (and MINE net) from :meth:`state_dict`.

        After this call :meth:`embed_groups` works without any training —
        the warm-start path of ``TPGrGAD.detect_only``.
        """
        config = self.config
        rng = np.random.default_rng(resolve_seed(config.seed))
        with default_dtype(np.dtype(config.dtype)):
            self.encoder = GroupEncoder(
                n_features, config.hidden_dim, config.embedding_dim, rng=rng
            )
            self.encoder.load_state_dict(
                {k[len("encoder."):]: v for k, v in state.items() if k.startswith("encoder.")}
            )
            stats_state = {
                k[len("statistics_network."):]: v
                for k, v in state.items()
                if k.startswith("statistics_network.")
            }
            if stats_state:
                self.statistics_network = MINEStatisticsNetwork(
                    config.embedding_dim, config.hidden_dim, rng=rng
                )
                self.statistics_network.load_state_dict(stats_state)
        return self

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def embed_groups(self, graph: Graph, groups: Sequence[Group]) -> np.ndarray:
        """Embeddings of the (unaugmented) candidate groups, ``(m, d)`` array."""
        if self.encoder is None:
            raise RuntimeError("call fit() before embedding groups")
        with no_grad():
            return self.encoder.encode_batch(self.encoder.prepare_groups(graph, groups)).numpy()
