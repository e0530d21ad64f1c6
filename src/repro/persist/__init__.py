"""Model-artifact persistence: save/load fitted pipelines, JSON coercion.

See :mod:`repro.persist.artifact` for the on-disk format and
:mod:`repro.persist.serialize` for the numpy-to-native JSON helper used
by every JSON boundary of the project.
"""

from repro.persist.artifact import (
    ARTIFACT_FORMAT_VERSION,
    PipelineState,
    config_from_dict,
    config_to_dict,
)
from repro.persist.serialize import dump_json, to_native

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "PipelineState",
    "config_from_dict",
    "config_to_dict",
    "dump_json",
    "to_native",
]
