"""TP-GrGAD: Topology Pattern Enhanced Unsupervised Group-level Graph Anomaly Detection.

A pure-Python (numpy / scipy) reproduction of the ICDE 2024 paper
*"Graph Anomaly Detection at Group Level: A Topology Pattern Enhanced
Unsupervised Approach"*.

The package is organised around the three stages of the framework:

1. **Anchor node localization** — :mod:`repro.gae` (Multi-Hop Graph
   AutoEncoder, MH-GAE).
2. **Candidate group sampling** — :mod:`repro.sampling` (path / tree / cycle
   searches from anchor nodes, Algorithm 1 of the paper).
3. **Candidate group discrimination** — :mod:`repro.gcl` (Topology
   Pattern-based Graph Contrastive Learning, TPGCL) followed by the
   unsupervised outlier detectors in :mod:`repro.outlier`.

The end-to-end detector is :class:`repro.core.TPGrGAD`.  Baselines from the
paper's evaluation (DOMINANT, DeepAE, ComGA, ONE, DeepFD, AS-GAE) live in
:mod:`repro.baselines`, datasets in :mod:`repro.datasets`, and the
experiment harness that regenerates every table and figure in
:mod:`repro.experiments`.
"""

__version__ = "1.0.0"

# Public names are imported lazily (PEP 562) so that importing ``repro``
# stays cheap and sub-packages can be used independently.
_LAZY_ATTRS = {
    "TPGrGAD": ("repro.core", "TPGrGAD"),
    "TPGrGADConfig": ("repro.core", "TPGrGADConfig"),
    "GroupDetectionResult": ("repro.core", "GroupDetectionResult"),
    "Graph": ("repro.graph", "Graph"),
    "completeness_ratio": ("repro.metrics", "completeness_ratio"),
    "group_f1_score": ("repro.metrics", "group_f1_score"),
    "group_auc": ("repro.metrics", "group_auc"),
    "GraphDelta": ("repro.stream", "GraphDelta"),
    "StreamingGraph": ("repro.stream", "StreamingGraph"),
    "IncrementalTPGrGAD": ("repro.stream", "IncrementalTPGrGAD"),
    "StreamConfig": ("repro.stream", "StreamConfig"),
    "ParallelExecutor": ("repro.parallel", "ParallelExecutor"),
    "PipelineState": ("repro.persist", "PipelineState"),
    "to_native": ("repro.persist", "to_native"),
    "ModelRegistry": ("repro.serve", "ModelRegistry"),
    "ScoringServer": ("repro.serve", "ScoringServer"),
    "ScoringClient": ("repro.serve", "ScoringClient"),
    "ServeConfig": ("repro.serve", "ServeConfig"),
    "Tracer": ("repro.obs", "Tracer"),
    "get_tracer": ("repro.obs", "get_tracer"),
    "set_tracer": ("repro.obs", "set_tracer"),
    "use_tracer": ("repro.obs", "use_tracer"),
    "ProvenanceLog": ("repro.obs", "ProvenanceLog"),
    "verify_record": ("repro.obs", "verify_record"),
    "verify_log": ("repro.obs", "verify_log"),
}


def __getattr__(name):
    if name in _LAZY_ATTRS:
        import importlib

        module_name, attr = _LAZY_ATTRS[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module 'repro' has no attribute '{name}'")

__all__ = [
    "TPGrGAD",
    "TPGrGADConfig",
    "GroupDetectionResult",
    "Graph",
    "completeness_ratio",
    "group_f1_score",
    "group_auc",
    "GraphDelta",
    "StreamingGraph",
    "IncrementalTPGrGAD",
    "StreamConfig",
    "ParallelExecutor",
    "PipelineState",
    "to_native",
    "ModelRegistry",
    "ScoringServer",
    "ScoringClient",
    "ServeConfig",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "ProvenanceLog",
    "verify_record",
    "verify_log",
    "__version__",
]
