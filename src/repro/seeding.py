"""Seed plumbing shared by the stage configs and the pipeline config.

Two rules keep every execution mode (serial, sharded, warm-started)
reproducible:

1. **``None`` means unset.**  Stage configs default their ``seed`` to
   ``None``; an explicitly passed value — including ``0`` — always wins
   and is never rewritten by a parent config.
2. **Unset stage seeds derive distinct streams.**  :func:`derive_stage_seeds`
   expands a master seed into one independent integer per pipeline stage
   via :class:`numpy.random.SeedSequence`, so the MH-GAE, sampler and
   TPGCL stages never consume the *same* stream (the old behaviour of
   copying the master seed verbatim into every stage).

A config's stage seeds are then the only seed fact: every graph of a
batch runs from them, whichever worker or chunk scores it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

#: Stage names, in the fixed order their derived seeds are generated.
STAGE_NAMES: Tuple[str, ...] = ("mhgae", "sampler", "tpgcl")


def resolve_seed(seed: Optional[int]) -> int:
    """Resolve an optional seed: ``None`` (unset) falls back to ``0``.

    Stage configs used standalone (outside a :class:`TPGrGADConfig`) keep
    the historical deterministic default this way, while ``None`` stays
    distinguishable from an explicit ``0`` during config composition.
    """
    return 0 if seed is None else int(seed)


def derive_stage_seeds(master: int) -> Dict[str, int]:
    """Distinct deterministic per-stage seeds derived from ``master``.

    The mapping is stable across sessions and platforms (SeedSequence's
    expansion is specified), and distinct stages get provably independent
    streams instead of re-consuming the identical master stream.
    """
    state = np.random.SeedSequence(int(master)).generate_state(len(STAGE_NAMES))
    return {stage: int(value) for stage, value in zip(STAGE_NAMES, state)}

