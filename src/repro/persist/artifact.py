"""Model-artifact persistence for fitted TP-GrGAD pipelines.

An artifact is a directory with two files:

* ``arrays.npz`` — every trained parameter in its training dtype
  (float64 on the reference path, float32 in fast mode), keyed
  ``mhgae.<param>`` / ``tpgcl.encoder.<param>`` /
  ``tpgcl.statistics_network.<param>`` (the qualified names of
  :meth:`repro.nn.Module.state_dict`), saved uncompressed so the bytes
  round-trip exactly and a loaded pipeline reproduces in-memory scores
  bit for bit.
* ``manifest.json`` — the full pipeline config (its dataclass fields and
  nothing else, so ``config_hash`` is exactly the config's identity), the
  fingerprint of the graph the pipeline was fitted on, the feature
  dimensionality the encoder weights require, library versions, and the
  artifact format version (3 since the config dict holds only those
  fields; a manifest of any other version is refused on load).  All
  values pass through
  :func:`repro.persist.serialize.to_native`, so numpy scalars in configs
  can never corrupt the manifest.

:class:`PipelineState` is the in-memory form and the *only* fitted state
of a pipeline: ``TPGrGAD.state`` holds one (built from the trained
models by :meth:`PipelineState.from_models`, or read from disk by
:meth:`PipelineState.load`), and ``TPGrGAD.save`` writes it unchanged.
MLOps rationale in DESIGN.md: the artifact is the reproducible unit of
deployment — a worker (or a restarted stream process) loads it and
serves ``detect_only`` without retraining, and it records exactly the
config and graph its weights were trained under.

Module-level imports stay numpy-only: ``repro.core.result`` imports this
package for :func:`to_native`, so pulling ``repro.core`` in eagerly here
would create an import cycle.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.persist.serialize import to_native

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import TPGrGADConfig
    from repro.gae import MultiHopGAE
    from repro.gcl import TPGCL
    from repro.graph import Graph

ARTIFACT_FORMAT_VERSION = 3
MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"

_MHGAE_PREFIX = "mhgae."
_TPGCL_PREFIX = "tpgcl."


# ----------------------------------------------------------------------
# Config (de)serialisation
# ----------------------------------------------------------------------
def config_to_dict(config: "TPGrGADConfig") -> Dict:
    """The full pipeline config as a nested JSON-ready dict of its fields."""
    import dataclasses

    return to_native(dataclasses.asdict(config))


def config_from_dict(payload: Dict) -> "TPGrGADConfig":
    """Rebuild a :class:`TPGrGADConfig` written by :func:`config_to_dict`."""
    from repro.core.config import TPGrGADConfig
    from repro.gae import MHGAEConfig
    from repro.gcl import TPGCLConfig
    from repro.sampling import SamplerConfig

    payload = dict(payload)
    payload["mhgae"] = MHGAEConfig(**payload["mhgae"])
    payload["sampler"] = SamplerConfig(**payload["sampler"])
    payload["tpgcl"] = TPGCLConfig(**payload["tpgcl"])
    return TPGrGADConfig(**payload)


# ----------------------------------------------------------------------
# The in-memory artifact
# ----------------------------------------------------------------------
@dataclass
class PipelineState:
    """Everything needed to serve a fitted pipeline without retraining.

    This is the one fitted state of a pipeline (``TPGrGAD.state``): the
    trained weights plus the config and graph fingerprint they were
    trained under.  Serving binds models *from* it and never rebinds it.
    """

    config: "TPGrGADConfig"
    n_features: int
    mhgae_state: Optional[Dict[str, np.ndarray]] = None
    tpgcl_state: Optional[Dict[str, np.ndarray]] = None
    graph_fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_models(
        cls,
        config: "TPGrGADConfig",
        graph: "Graph",
        mhgae: "MultiHopGAE",
        tpgcl: Optional["TPGCL"],
    ) -> "PipelineState":
        """The state of stage models freshly trained on ``graph``.

        ``tpgcl`` is None when the TPGCL head never ran (``use_tpgcl``
        off, or fewer than two candidates).
        """
        return cls(
            config=config,
            n_features=int(graph.n_features),
            mhgae_state=mhgae.state_dict(),
            tpgcl_state=None if tpgcl is None else tpgcl.state_dict(),
            graph_fingerprint=graph.fingerprint(),
        )

    # ------------------------------------------------------------------
    # Warm model binding
    # ------------------------------------------------------------------
    def bind_mhgae(self, graph: "Graph") -> "MultiHopGAE":
        """A scoring-ready MH-GAE: loaded weights, bound to ``graph``."""
        from repro.gae import MultiHopGAE

        if self.mhgae_state is None:
            raise RuntimeError("artifact carries no MH-GAE state")
        if graph.n_features != self.n_features:
            raise ValueError(
                f"graph has {graph.n_features} features but the artifact was "
                f"fitted on {self.n_features}"
            )
        model = MultiHopGAE(self.config.mhgae)
        model.attach(graph, state=self.mhgae_state)
        return model

    def bind_tpgcl(self) -> Optional["TPGCL"]:
        """An embedding-ready TPGCL (None when the stage was never trained).

        The bound model is graph-independent, so it is built once and
        memoized — a serving loop does not reconstruct the encoder and
        re-copy every parameter array per request.  (The memo is dropped
        on pickling: live models hold unpicklable closures.)
        """
        from repro.gcl import TPGCL

        if self.tpgcl_state is None:
            return None
        bound = getattr(self, "_bound_tpgcl", None)
        if bound is None:
            bound = TPGCL(self.config.tpgcl).warm_start(self.n_features, self.tpgcl_state)
            self._bound_tpgcl = bound
        return bound

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_bound_tpgcl", None)
        return state

    # ------------------------------------------------------------------
    # Disk format
    # ------------------------------------------------------------------
    def config_hash(self) -> str:
        """The config's :meth:`~repro.core.TPGrGADConfig.content_hash`.

        One identity string shared by the manifest, the serve registry
        and the job store: equal hashes imply equal manifest
        config dicts (the hash is taken over exactly that dict).
        """
        return self.config.content_hash()

    def stage_dtypes(self) -> Dict[str, str]:
        """Canonical training dtype of each learned stage (from the config)."""
        return {
            "mhgae": str(np.dtype(self.config.mhgae.dtype)),
            "tpgcl": str(np.dtype(self.config.tpgcl.dtype)),
        }

    def manifest(self) -> Dict:
        """The JSON manifest describing this artifact."""
        import scipy

        return to_native(
            {
                "format_version": ARTIFACT_FORMAT_VERSION,
                "method": "TP-GrGAD",
                "config": config_to_dict(self.config),
                "config_hash": self.config_hash(),
                "dtype": self.stage_dtypes(),
                "n_features": self.n_features,
                "graph_fingerprint": self.graph_fingerprint,
                "has_mhgae": self.mhgae_state is not None,
                "has_tpgcl": self.tpgcl_state is not None,
                "versions": {
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                },
                "created_at_unix": int(time.time()),
            }
        )

    def save(self, path) -> Path:
        """Write ``manifest.json`` + ``arrays.npz`` under directory ``path``."""
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        arrays: Dict[str, np.ndarray] = {}
        if self.mhgae_state is not None:
            arrays.update({f"{_MHGAE_PREFIX}{k}": v for k, v in self.mhgae_state.items()})
        if self.tpgcl_state is not None:
            arrays.update({f"{_TPGCL_PREFIX}{k}": v for k, v in self.tpgcl_state.items()})
        # Uncompressed: exact float64 bytes, and np.load stays mmap-able.
        np.savez(root / ARRAYS_NAME, **arrays)
        from repro.persist.serialize import dump_json

        dump_json(root / MANIFEST_NAME, self.manifest())
        return root

    @classmethod
    def load(cls, path) -> "PipelineState":
        """Read an artifact directory written by :meth:`save`."""
        root = Path(path)
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(f"no pipeline artifact at '{root}' (missing {MANIFEST_NAME})")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        version = manifest.get("format_version")
        if version != ARTIFACT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported artifact format_version {version!r} "
                f"(this build reads {ARTIFACT_FORMAT_VERSION})"
            )
        config = config_from_dict(manifest["config"])
        recorded_hash = manifest.get("config_hash")
        if recorded_hash is not None and recorded_hash != config.content_hash():
            # A hand-edited manifest config no longer matches the identity
            # the artifact was published under; serving it would lie about
            # which model version produced the scores.
            raise ValueError(
                f"artifact at '{root}' has config_hash {recorded_hash!r} but its "
                f"config dict hashes to {config.content_hash()!r} (manifest edited?)"
            )

        expected_dtypes = {
            "mhgae": np.dtype(config.mhgae.dtype),
            "tpgcl": np.dtype(config.tpgcl.dtype),
        }
        recorded_dtypes = manifest.get("dtype")
        if recorded_dtypes is not None:
            # The dtype record is derived from the config at save time, so a
            # contradiction means the manifest was edited after publishing —
            # loading would silently reinterpret the stored weights.
            for stage, recorded in recorded_dtypes.items():
                expected = expected_dtypes.get(stage)
                if expected is not None and np.dtype(recorded) != expected:
                    raise ValueError(
                        f"artifact at '{root}' records {stage} dtype {recorded!r} but its "
                        f"config trains in {expected.name!r} (manifest edited?)"
                    )

        mhgae_state: Optional[Dict[str, np.ndarray]] = None
        tpgcl_state: Optional[Dict[str, np.ndarray]] = None
        with np.load(root / ARRAYS_NAME) as arrays:
            for key in arrays.files:
                if key.startswith(_MHGAE_PREFIX):
                    mhgae_state = mhgae_state or {}
                    mhgae_state[key[len(_MHGAE_PREFIX):]] = np.asarray(
                        arrays[key], dtype=expected_dtypes["mhgae"]
                    )
                elif key.startswith(_TPGCL_PREFIX):
                    tpgcl_state = tpgcl_state or {}
                    tpgcl_state[key[len(_TPGCL_PREFIX):]] = np.asarray(
                        arrays[key], dtype=expected_dtypes["tpgcl"]
                    )
        if manifest.get("has_mhgae") and mhgae_state is None:
            raise ValueError(f"artifact at '{root}' declares MH-GAE state but {ARRAYS_NAME} has none")
        if manifest.get("has_tpgcl") and tpgcl_state is None:
            raise ValueError(f"artifact at '{root}' declares TPGCL state but {ARRAYS_NAME} has none")
        return cls(
            config=config,
            n_features=int(manifest["n_features"]),
            mhgae_state=mhgae_state,
            tpgcl_state=tpgcl_state,
            graph_fingerprint=manifest.get("graph_fingerprint"),
        )

