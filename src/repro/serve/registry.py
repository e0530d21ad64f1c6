"""Versioned model registry backed by :mod:`repro.persist` artifacts.

The registry is the serving boundary's source of truth for *which model
produced a response*: every entry records the artifact path it was loaded
from, a monotonically increasing per-name version, and the two identity
hashes the rest of the project already uses — the config's
:meth:`~repro.core.TPGrGADConfig.content_hash` and the fitted graph's
fingerprint (both also stored in the artifact manifest).  ``/score``
responses echo ``(name, version, config_hash)`` so any result can be
traced back to the exact artifact directory that served it.

Hot swap is a load-then-replace: :meth:`ModelRegistry.load` reads the new
artifact fully *outside* the lock, then swaps the dict entry under it.
In-flight micro-batches captured the previous :class:`ModelEntry` before
the swap and finish scoring against it — requests are never dropped, and
a response is always attributed to the version that actually scored it.
A failed load (missing path, corrupt manifest) raises before the swap, so
the previous version keeps serving.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.core.pipeline import TPGrGAD
from repro.persist import PipelineState


class ModelEntry:
    """One loaded artifact: a warm serving detector plus identity metadata.

    ``detector`` serves ``detect_only`` (warm inference; thread-safe —
    pinned by ``tests/test_serve.py``).  It is the only thing the entry
    runs: serving never trains, so the fitted state the entry's
    identity advertises is the state that scored every response.
    """

    def __init__(self, name: str, version: int, path: str, state: PipelineState) -> None:
        self.name = name
        self.version = version
        self.path = path
        self.state = state
        self.detector = TPGrGAD.from_state(state)
        self.loaded_at_unix = int(time.time())
        # Serving counters (batch scoring runs in executor threads, so
        # they take their own lock, not the registry's).
        self._serve_lock = threading.Lock()
        self.requests_served = 0
        self.tape_nodes_total = 0

    def record_served(self, n_requests: int, tape_nodes: int = 0) -> None:
        """Account scored requests (and autodiff tape growth) to this entry."""
        with self._serve_lock:
            self.requests_served += int(n_requests)
            self.tape_nodes_total += max(0, int(tape_nodes))

    @property
    def config_hash(self) -> str:
        return self.state.config_hash()

    def identity(self) -> Dict:
        """The attribution triple every scoring surface echoes.

        Shared by ``/score`` responses, job dedup keys and job records,
        so the three can never disagree about which artifact answered.
        """
        return {"model": self.name, "version": self.version, "config_hash": self.config_hash}

    def describe(self) -> Dict:
        """The ``/models`` JSON row for this entry."""
        info = {
            "name": self.name,
            "version": self.version,
            "path": self.path,
            "config_hash": self.config_hash,
            "graph_fingerprint": self.state.graph_fingerprint,
            "n_features": self.state.n_features,
            "has_tpgcl": self.state.tpgcl_state is not None,
            "loaded_at_unix": self.loaded_at_unix,
        }
        with self._serve_lock:
            info["requests_served"] = self.requests_served
            info["tape_nodes_total"] = self.tape_nodes_total
        # Re-loading a name bumps its version, so swaps = version - 1.
        info["swap_count"] = self.version - 1
        return info


class ModelRegistry:
    """Name → :class:`ModelEntry` map with atomic hot swap."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._models: Dict[str, ModelEntry] = {}
        self._default: Optional[str] = None

    # ------------------------------------------------------------------
    def load(self, name: str, path: str, default: bool = False) -> ModelEntry:
        """Register ``name`` from an artifact directory, or hot-swap it.

        The artifact is read completely before the registry mutates, so a
        bad path or corrupt manifest leaves the currently served version
        untouched.  Re-loading an existing name bumps its version — even
        when the path is unchanged, since the directory contents may have
        been re-written in place by a training job.
        """
        name = str(name)
        if not name:
            raise ValueError("model name must be non-empty")
        state = PipelineState.load(path)  # may raise: nothing swapped yet
        with self._lock:
            previous = self._models.get(name)
            version = 1 if previous is None else previous.version + 1
            entry = ModelEntry(name, version, str(path), state)
            self._models[name] = entry
            if default or self._default is None:
                self._default = name
        return entry

    def get(self, name: Optional[str] = None) -> ModelEntry:
        """The entry for ``name``, or the default model when ``name`` is None."""
        with self._lock:
            if name is None:
                if self._default is None:
                    raise KeyError("registry is empty: no models loaded")
                return self._models[self._default]
            entry = self._models.get(str(name))
            if entry is None:
                raise KeyError(
                    f"unknown model {name!r}; loaded models: {sorted(self._models)}"
                )
            return entry

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._models)

    def describe(self) -> Dict:
        """The ``/models`` JSON body: every entry plus the default name."""
        with self._lock:
            entries = list(self._models.values())
            default = self._default
        return {
            "default": default,
            "models": [entry.describe() for entry in sorted(entries, key=lambda e: e.name)],
        }
