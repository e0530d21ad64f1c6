"""Configuration of the full TP-GrGAD pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gae import MHGAEConfig
from repro.gcl import TPGCLConfig
from repro.sampling import SamplerConfig
from repro.seeding import derive_stage_seeds


@dataclass
class TPGrGADConfig:
    """All knobs of the three-stage pipeline in one place.

    Attributes
    ----------
    mhgae:
        Multi-Hop GAE hyperparameters (anchor localization stage).
    sampler:
        Candidate-group sampling hyperparameters (Algorithm 1).
    tpgcl:
        Contrastive-learning hyperparameters (Algorithm 2 + Eqn. 8).
    anchor_fraction:
        Fraction of highest-error nodes kept as anchors; the paper uses the
        top 10%.
    max_anchors:
        Hard cap on the anchor count so the quadratic pair enumeration in
        sampling stays cheap on large graphs; at least 1.
    detector:
        Name of the outlier detector applied to group embeddings
        (``ecod`` by default, as in the paper; see
        :func:`repro.outlier.available_detectors`).
    contamination:
        Expected fraction of candidate groups that are anomalous; used to
        derive the score threshold τ when none is given explicitly.
    use_tpgcl:
        When False the TPGCL stage is skipped and candidate groups are
        represented by their mean node features — the "w/o TPGCL" ablation
        of Table V.
    seed:
        Master random seed.  Stage configs whose ``seed`` was left unset
        (``None``) receive *distinct* per-stage streams derived from this
        master via :func:`repro.seeding.derive_stage_seeds`; a stage seed
        set explicitly — including ``0`` — always wins and is never
        rewritten.
    """

    mhgae: MHGAEConfig = field(default_factory=lambda: MHGAEConfig(epochs=60))
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    tpgcl: TPGCLConfig = field(default_factory=lambda: TPGCLConfig(epochs=20))
    anchor_fraction: float = 0.1
    max_anchors: int = 40
    detector: str = "ecod"
    contamination: float = 0.2
    use_tpgcl: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.anchor_fraction <= 1.0:
            raise ValueError("anchor_fraction must be in (0, 1]")
        if self.max_anchors < 1:
            raise ValueError(f"max_anchors must be >= 1, got {self.max_anchors}")
        if not 0.0 < self.contamination < 1.0:
            raise ValueError("contamination must be in (0, 1)")
        # Fill unset (None) stage seeds with distinct streams derived from
        # the master seed.  ``None`` is the unset sentinel: an explicit
        # stage seed — including 0 — always wins.
        derived = derive_stage_seeds(self.seed)
        for stage in ("mhgae", "sampler", "tpgcl"):
            if getattr(self, stage).seed is None:
                getattr(self, stage).seed = derived[stage]

    def content_hash(self) -> str:
        """Stable content hash of every hyperparameter of every stage.

        The digest is taken over the canonical JSON form of
        :func:`repro.persist.config_to_dict` — exactly what an artifact
        manifest stores — so two configs share a hash precisely when they
        would serialize to identical manifests (and therefore run
        identical pipelines).  It is the single config-identity key used
        by the artifact manifest, the serve registry and the job store;
        unlike ``repr(config)`` it is insensitive to dataclass
        field ordering cosmetics and stable across processes.
        """
        import hashlib
        import json

        from repro.persist import config_to_dict

        payload = json.dumps(config_to_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()

    @classmethod
    def fast(cls, seed: int = 0) -> "TPGrGADConfig":
        """A lightweight configuration for tests, examples and CI."""
        return cls(
            mhgae=MHGAEConfig(epochs=25, hidden_dim=32, embedding_dim=16),
            sampler=SamplerConfig(max_candidates=120, max_anchor_pairs=150),
            tpgcl=TPGCLConfig(epochs=8, hidden_dim=32, embedding_dim=32, batch_size=24),
            max_anchors=25,
            seed=seed,
        )

    def accelerated(self, dtype: str = "float32") -> "TPGrGADConfig":
        """A deep copy of this config switched to the fast training engine.

        Sets the training ``dtype`` on both learned stages.  The receiver is
        untouched: the float64 reference config and its accelerated twin can
        run side by side, which is exactly what the parity tests and the
        training benchmark do.  Note the two configs hash differently
        (``content_hash`` covers every field), so artifacts and job
        records of the two modes never collide.
        """
        import copy

        clone = copy.deepcopy(self)
        for stage in (clone.mhgae, clone.tpgcl):
            stage.dtype = dtype
        return clone
