"""Dataset generators for the five evaluation datasets of the paper.

The original paper evaluates on two real-world datasets (AMLPublic,
Ethereum-TSGN) and three synthetic ones (simML, Cora-group, CiteSeer-group).
None of the raw files are redistributable or reachable offline, so each is
replaced by a generator that reproduces its published statistics (Table I),
its anomaly-group topology-pattern mix (Table II) and the injection recipe
described in Sec. VII-A1.  See DESIGN.md for the substitution rationale.

Every generator accepts ``scale`` (shrinks node counts proportionally so the
full pipeline runs in seconds during tests and benchmarks) and ``seed``.
"""

from repro.datasets.injection import GroupSpec, inject_groups
from repro.datasets.background import random_transaction_background, sbm_citation_background
from repro.datasets.amlsim import make_simml
from repro.datasets.amlpublic import make_amlpublic
from repro.datasets.ethereum import make_ethereum_tsgn
from repro.datasets.citation import make_cora_group, make_citeseer_group
from repro.datasets.example import make_example_graph
from repro.datasets.registry import load_dataset, available_datasets, DATASET_LOADERS

# Event-stream views (repro.datasets.stream) are exported lazily: they pull
# in the full streaming subsystem (and with it the pipeline stages), which
# plain dataset users should not pay for.
_LAZY_ATTRS = {
    "EventStream": ("repro.datasets.stream", "EventStream"),
    "make_event_stream": ("repro.datasets.stream", "make_event_stream"),
    "make_burst_stream": ("repro.datasets.stream", "make_burst_stream"),
}


def __getattr__(name):
    if name in _LAZY_ATTRS:
        import importlib

        module_name, attr = _LAZY_ATTRS[name]
        return getattr(importlib.import_module(module_name), attr)
    raise AttributeError(f"module 'repro.datasets' has no attribute '{name}'")


__all__ = [
    "EventStream",
    "make_event_stream",
    "make_burst_stream",
    "GroupSpec",
    "inject_groups",
    "random_transaction_background",
    "sbm_citation_background",
    "make_simml",
    "make_amlpublic",
    "make_ethereum_tsgn",
    "make_cora_group",
    "make_citeseer_group",
    "make_example_graph",
    "load_dataset",
    "available_datasets",
    "DATASET_LOADERS",
]
