"""Candidate group sampling (Algorithm 1 of the paper).

Starting from the anchor nodes produced by MH-GAE, three pattern searches
are run for every (ordered) pair of anchors:

* **path search** — shortest path between the two anchors,
* **tree search** — a bounded-depth BFS tree rooted between them,
* **cycle search** — cycles through each anchor node.

The union of the discovered node sets forms the candidate groups fed into
TPGCL.  Overlapping / repeated groups are kept intentionally (the paper
notes they act as natural data augmentation), but exact duplicates are
deduplicated to bound the contrastive batch size.

All searches are answered by the vectorized
:class:`MultiSourceSearchEngine` (one batched BFS from every anchor); the
per-pair reference searches it must match live with the parity oracle in
``tests/sampler_oracle.py``.
"""

from repro.sampling.engine import MultiSourceSearchEngine
from repro.sampling.sampler import CandidateGroupSampler, SamplerConfig

__all__ = [
    "MultiSourceSearchEngine",
    "CandidateGroupSampler",
    "SamplerConfig",
]
