"""Core :class:`Tensor` type and reverse-mode backpropagation.

The implementation follows the classic define-by-run tape design: every
operation returns a new tensor holding references to its parents and a
closure that, given the gradient of the output, accumulates gradients into
the parents.  Calling :meth:`Tensor.backward` performs a topological sort of
the recorded graph and applies the closures in reverse order.

Only the operations the models in this repository run are implemented:
matmul, ``+ - * **``, ``sum``/``mean``, ``exp``/``log``/``relu``/
``sigmoid``/``clip``, transpose, indexing and concatenation.  That keeps
the engine small and auditable.

Two engine-level properties matter for training throughput (see DESIGN.md,
"Fast training engine"):

* **dtype awareness** — tensors carry the dtype of their payload instead of
  force-casting everything to ``float64``.  Floating arrays keep their
  dtype, scalars and non-float inputs resolve to the thread-local default
  (:func:`get_default_dtype`, ``float64`` unless a :func:`default_dtype`
  context is active), and every binary op coerces wrapped scalar operands
  to the tensor's own dtype so a ``float32`` graph never silently promotes
  back to ``float64``.  The ``float64`` path is bit-identical to the
  original engine.
* **buffer reuse** — backward closures that compute a *fresh* gradient
  array hand it to :meth:`Tensor._accumulate` with ``owned=True`` so the
  tape takes ownership instead of copying; subsequent accumulations into
  the same parent are in-place ``+=``.  This removes one full-size
  allocation per op per step without changing any value.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_state = threading.local()

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def is_grad_enabled() -> bool:
    """Return whether gradient recording is currently enabled."""
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling gradient recording.

    Used by inference paths (anomaly scoring, embedding extraction) to avoid
    building a backward graph that would never be consumed.
    """
    previous = is_grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = previous


# ----------------------------------------------------------------------
# Default dtype (thread-local, like grad mode)
# ----------------------------------------------------------------------
def get_default_dtype() -> np.dtype:
    """The dtype given to tensors built from scalars / non-float inputs."""
    return getattr(_state, "default_dtype", np.dtype(np.float64))


def float_dtype(dtype) -> np.dtype:
    """``dtype`` as a numpy dtype; ``ValueError`` unless it is float32 or float64.

    ``None`` is refused too, although ``np.dtype(None)`` is float64: a
    config holding it would train in float64 under another content hash.
    A name numpy does not know (a hand-edited manifest) is a ``ValueError``
    as well, not numpy's ``TypeError``.
    """
    try:
        resolved = None if dtype is None else np.dtype(dtype)
    except TypeError:
        resolved = None
    if resolved is None or resolved not in _FLOAT_DTYPES:
        raise ValueError(f"dtype must be float32 or float64, got {dtype!r}")
    return resolved


def set_default_dtype(dtype) -> None:
    """Set the thread-local default floating dtype (``float32``/``float64``)."""
    _state.default_dtype = float_dtype(dtype)


@contextlib.contextmanager
def default_dtype(dtype):
    """Context manager scoping the default floating dtype.

    Model constructors resolve initialiser dtypes through
    :func:`get_default_dtype`, so wrapping construction (and training) in
    ``default_dtype("float32")`` is how the float32 fast mode flows from a
    config down to every parameter and kernel.
    """
    previous = get_default_dtype()
    set_default_dtype(dtype)
    try:
        yield
    finally:
        _state.default_dtype = previous


# ----------------------------------------------------------------------
# Tape instrumentation
# ----------------------------------------------------------------------
def tape_node_count() -> int:
    """Number of gradient-recording tape nodes created on this thread.

    A cheap sentinel for "does this code path build a backward graph?":
    inference paths wrapped in :func:`no_grad` must leave the counter
    untouched (see ``tests/test_train_engine.py``).
    """
    return getattr(_state, "tape_nodes", 0)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        data = value.data
        return data if dtype is None else np.asarray(data, dtype=dtype)
    if dtype is not None:
        return np.asarray(value, dtype=dtype)
    if isinstance(value, (np.ndarray, np.generic)) and value.dtype in _FLOAT_DTYPES:
        return np.asarray(value)
    return np.asarray(value, dtype=get_default_dtype())


def sigmoid_(array: np.ndarray) -> np.ndarray:
    """Logistic function in place: ``1 / (1 + exp(-clip(array, ±60)))``.

    One buffer instead of five temporaries — this is the inner-product
    decoder's hot path.  Each rewritten step applies the identical scalar
    operation (1.0 + t commutes), so values are bitwise equal to the
    allocating form.  Returns ``array``.
    """
    np.clip(array, -60.0, 60.0, out=array)
    np.negative(array, out=array)
    np.exp(array, out=array)
    array += 1.0
    np.divide(1.0, array, out=array)
    return array


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload.  Floating arrays keep their dtype; scalars,
        lists and integer arrays are cast to the thread-local default
        dtype (``float64`` unless a :func:`default_dtype` context says
        otherwise).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    dtype:
        Optional explicit dtype overriding the resolution above.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        _op: str = "leaf",
        dtype=None,
    ) -> None:
        self.data = _as_array(data, dtype=dtype)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple[Tensor, ...] = tuple(_parents) if is_grad_enabled() else ()
        self._backward_fn = _backward_fn if is_grad_enabled() else None
        self._op = _op

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    def _wrap(self, other: ArrayLike) -> "Tensor":
        """Wrap a non-tensor operand, coercing it to this tensor's dtype.

        Keeps mixed expressions dtype-stable: ``float32_tensor * 0.5`` (or
        ``- numpy_float64_scalar``) stays ``float32`` instead of numpy
        promoting through a ``float64`` 0-d wrapper.  For ``float64``
        tensors this is exactly the old always-float64 behaviour.
        """
        return other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        requires_grad = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires_grad, _parents=parents, _backward_fn=backward_fn, _op=op)
        if not out.requires_grad:
            out._parents = ()
            out._backward_fn = None
        else:
            _state.tape_nodes = getattr(_state, "tape_nodes", 0) + 1
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        ``owned=True`` promises the caller just allocated ``grad`` and will
        never read it again, so the first accumulation can take the array
        by reference instead of copying it.  Arrays that alias a child's
        gradient buffer (or any live view) must be passed unowned.
        """
        if not self.requires_grad:
            return
        arr = np.asarray(grad)
        if arr.dtype != self.data.dtype:
            arr = arr.astype(self.data.dtype)
            owned = True
        if arr.shape != self.data.shape:
            arr = _unbroadcast(arr, self.data.shape)
            owned = True
        if self.grad is None:
            self.grad = arr if owned else arr.copy()
        else:
            self.grad += arr

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = self._wrap(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other_t._accumulate(grad)

        return Tensor._make(data, (self, other_t), backward, "add")

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, owned=True)

        return Tensor._make(data, (self,), backward, "neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = self._wrap(other)
        data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other_t._accumulate(-grad, owned=True)

        return Tensor._make(data, (self, other_t), backward, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = self._wrap(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other_t.data, owned=True)
            other_t._accumulate(grad * self.data, owned=True)

        return Tensor._make(data, (self, other_t), backward, "mul")

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            # exponent == 2 is the reconstruction-loss hot case; x ** 1 is
            # bitwise x, so skip the full-size allocation it would make.
            base = self.data if exponent == 2 else self.data ** (exponent - 1)
            self._accumulate(grad * exponent * base, owned=True)

        return Tensor._make(data, (self,), backward, "pow")

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other).matmul(self)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product of two 1-D or 2-D tensors."""
        other_t = self._wrap(other)
        data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            a, b = self.data, other_t.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b, owned=True)
                other_t._accumulate(grad * a, owned=True)
            elif a.ndim == 2 and b.ndim == 2:
                self._accumulate(grad @ b.T, owned=True)
                other_t._accumulate(a.T @ grad, owned=True)
            elif a.ndim == 1 and b.ndim == 2:
                self._accumulate(grad @ b.T, owned=True)
                other_t._accumulate(np.outer(a, grad), owned=True)
            elif a.ndim == 2 and b.ndim == 1:
                self._accumulate(np.outer(grad, b), owned=True)
                other_t._accumulate(a.T @ grad, owned=True)
            else:  # pragma: no cover - unsupported rank combination
                raise ValueError("matmul backward supports 1-D/2-D operands only")

        return Tensor._make(data, (self, other_t), backward, "matmul")

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def transpose(self) -> "Tensor":
        data = self.data.T

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.asarray(grad).T)

        return Tensor._make(data, (self,), backward, "transpose")

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full, owned=True)

        return Tensor._make(data, (self,), backward, "getitem")

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along ``axis`` with gradient support."""
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad)
            offset = 0
            for t, size in zip(tensors, sizes):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(offset, offset + size)
                t._accumulate(grad[tuple(slicer)])
                offset += size

        return Tensor._make(data, tensors, backward, "concat")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if axis is None:
                self._accumulate(np.ones_like(self.data) * grad, owned=True)
            else:
                if not keepdims:
                    grad = np.expand_dims(grad, axis=axis)
                self._accumulate(np.broadcast_to(grad, self.data.shape))

        return Tensor._make(data, (self,), backward, "sum")

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            denom = self.data.size
        else:
            denom = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / denom)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data, owned=True)

        return Tensor._make(data, (self,), backward, "exp")

    def log(self, eps: float = 1e-12) -> "Tensor":
        data = np.log(self.data + eps)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / (self.data + eps), owned=True)

        return Tensor._make(data, (self,), backward, "log")

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0.0), owned=True)

        return Tensor._make(data, (self,), backward, "relu")

    def sigmoid(self) -> "Tensor":
        data = sigmoid_(np.copy(self.data))

        def backward(grad: np.ndarray) -> None:
            # Same pairing as grad * data * (1.0 - data), third product in place.
            out = grad * data
            out *= np.subtract(1.0, data)
            self._accumulate(out, owned=True)

        return Tensor._make(data, (self,), backward, "sigmoid")

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            mask = (self.data >= low) & (self.data <= high)
            self._accumulate(grad * mask, owned=True)

        return Tensor._make(data, (self,), backward, "clip")

    # ------------------------------------------------------------------
    # Backpropagation
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate gradients from this tensor to all ancestors.

        Parameters
        ----------
        grad:
            Gradient of some downstream scalar with respect to this tensor.
            Defaults to 1 for scalar tensors.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")

        # Topological sort (iterative to avoid recursion limits on deep graphs).
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        # Every operation's closure accumulates into its parents' ``.grad``;
        # iterating in reverse topological order guarantees a node's own
        # gradient is complete before it is propagated further.
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
