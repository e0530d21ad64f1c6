"""Minimal ``Module`` / ``Parameter`` abstraction.

Modules own named parameters and sub-modules, expose ``parameters()`` for
optimizers and ``state_dict()`` / ``load_state_dict()`` for artifacts.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural-network modules.

    Sub-classes assign :class:`Parameter` and :class:`Module` instances as
    attributes; both are discovered automatically by :meth:`parameters` and
    :meth:`named_parameters`.
    """

    # ------------------------------------------------------------------
    # Parameter discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs for this module and children."""
        for name, value in vars(self).items():
            qualified = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield qualified, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{qualified}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{qualified}.{index}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{qualified}.{index}.")

    def parameters(self) -> List[Parameter]:
        """Return the list of trainable parameters (depth-first order)."""
        return [param for _, param in self.named_parameters()]

    # ------------------------------------------------------------------
    # Gradient helpers and state
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear accumulated gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter keyed by its qualified name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, values in state.items():
            if own[name].data.shape != values.shape:
                raise ValueError(f"shape mismatch for '{name}': {own[name].data.shape} vs {values.shape}")
            own[name].data = np.asarray(values, dtype=own[name].data.dtype).copy()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
