"""Unit tests for the autodiff engine (repro.tensor)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, is_grad_enabled, no_grad, sigmoid_


def numeric_gradient(fn, value: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function of an array."""
    gradient = np.zeros_like(value, dtype=np.float64)
    flat = value.reshape(-1)
    for index in range(flat.size):
        plus, minus = value.copy().reshape(-1), value.copy().reshape(-1)
        plus[index] += eps
        minus[index] -= eps
        gradient.reshape(-1)[index] = (fn(plus.reshape(value.shape)) - fn(minus.reshape(value.shape))) / (2 * eps)
    return gradient


class TestTensorBasics:
    def test_construction_from_list(self):
        tensor = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert tensor.shape == (2, 2)
        assert tensor.data.dtype == np.float64

    def test_requires_grad_default_false(self):
        assert Tensor([1.0]).requires_grad is False

    def test_item_scalar(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)

    def test_item_non_scalar_raises(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).backward()

    def test_len_and_size(self):
        tensor = Tensor(np.zeros((3, 4)))
        assert len(tensor) == 3
        assert tensor.size == 12
        assert tensor.ndim == 2

    def test_backward_without_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_zero_grad(self):
        tensor = Tensor([2.0], requires_grad=True)
        (tensor * 3.0).sum().backward()
        assert tensor.grad is not None
        tensor.zero_grad()
        assert tensor.grad is None


class TestNoGrad:
    def test_no_grad_disables_recording(self):
        with no_grad():
            assert not is_grad_enabled()
            tensor = Tensor([1.0], requires_grad=True)
            assert tensor.requires_grad is False
        assert is_grad_enabled()

    def test_no_grad_nested_restores(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestArithmeticGradients:
    """Analytic gradients must match central differences for every op."""

    @pytest.mark.parametrize(
        "name, fn",
        [
            ("add", lambda x: (x + 3.0).sum()),
            ("radd", lambda x: (3.0 + x).sum()),
            ("sub", lambda x: (x - 1.5).sum()),
            ("rsub", lambda x: (1.5 - x).sum()),
            ("mul", lambda x: (x * 2.5).sum()),
            ("neg", lambda x: (-x).sum()),
            ("pow2", lambda x: (x ** 2).sum()),
            ("pow3", lambda x: (x ** 3).mean()),
            ("exp", lambda x: x.exp().sum()),
            ("log", lambda x: x.log().sum()),
            ("relu", lambda x: x.relu().sum()),
            ("sigmoid", lambda x: x.sigmoid().sum()),
            ("mean", lambda x: x.mean()),
            ("sum_axis", lambda x: x.sum(axis=0).sum()),
            ("mean_axis", lambda x: x.mean(axis=1, keepdims=True).sum()),
            ("transpose", lambda x: (x.T * 2.0).sum()),
            ("getitem", lambda x: x[0].sum()),
            ("clip", lambda x: x.clip(0.3, 1.5).sum()),
            ("chain", lambda x: ((x * 2 + 1).sigmoid() * x).sum()),
        ],
    )
    def test_gradient_matches_numeric(self, name, fn):
        base = np.array([[0.5, 0.7, 1.2], [0.9, 1.1, 0.4]])
        tensor = Tensor(base.copy(), requires_grad=True)
        fn(tensor).backward()
        numeric = numeric_gradient(lambda arr: fn(Tensor(arr)).item(), base)
        assert tensor.grad == pytest.approx(numeric, abs=1e-5)

    def test_tensor_tensor_multiply_gradients(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        b = Tensor([[3.0, 4.0]], requires_grad=True)
        (a * b).sum().backward()
        assert a.grad == pytest.approx(b.data)
        assert b.grad == pytest.approx(a.data)

    def test_broadcast_add_gradient(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 2)
        assert b.grad == pytest.approx([3.0, 3.0])

    def test_gradient_accumulates_across_backward_calls(self):
        a = Tensor([2.0], requires_grad=True)
        (a * 1.0).sum().backward()
        (a * 1.0).sum().backward()
        assert a.grad == pytest.approx([2.0])

    def test_reused_tensor_in_graph(self):
        a = Tensor([3.0], requires_grad=True)
        (a * a).sum().backward()
        assert a.grad == pytest.approx([6.0])

    def test_pow_non_scalar_exponent_raises(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])


class TestInPlaceSigmoid:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_allocating_form_and_in_place(self, dtype):
        values = np.array([[-500.0, -60.5, -3.0, 0.0], [1e-8, 2.5, 60.5, 700.0]], dtype=dtype)
        expected = 1.0 / (1.0 + np.exp(-np.clip(values, -60.0, 60.0)))
        buffer = values.copy()
        out = sigmoid_(buffer)
        assert out is buffer and out.dtype == dtype
        assert np.array_equal(out, expected)
        assert np.array_equal(Tensor(values).sigmoid().numpy(), expected)


class TestMatmulGradients:
    def test_matmul_2d_2d(self):
        a_data = np.random.default_rng(0).normal(size=(3, 4))
        b_data = np.random.default_rng(1).normal(size=(4, 2))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad == pytest.approx(np.ones((3, 2)) @ b_data.T)
        assert b.grad == pytest.approx(a_data.T @ np.ones((3, 2)))

    def test_matmul_1d_1d(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0, 6.0], requires_grad=True)
        (a @ b).backward()
        assert a.grad == pytest.approx([4.0, 5.0, 6.0])
        assert b.grad == pytest.approx([1.0, 2.0, 3.0])

    def test_matmul_2d_1d(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad == pytest.approx(np.tile([1.0, 2.0, 3.0], (2, 1)))
        assert b.grad == pytest.approx([2.0, 2.0, 2.0])

    def test_matmul_1d_2d(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad == pytest.approx([3.0, 3.0])
        assert b.grad == pytest.approx(np.array([[1.0] * 3, [2.0] * 3]))

    def test_rmatmul_with_numpy_left_operand(self):
        b = Tensor(np.eye(2), requires_grad=True)
        out = np.array([[2.0, 0.0], [0.0, 2.0]]) @ b
        out.sum().backward()
        assert b.grad == pytest.approx(2.0 * np.ones((2, 2)))


class TestConcatenationAndStacking:
    def test_concatenate_forward_and_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((3, 2), 2.0), requires_grad=True)
        combined = Tensor.concatenate([a, b], axis=0)
        assert combined.shape == (5, 2)
        (combined * 3.0).sum().backward()
        assert a.grad == pytest.approx(np.full((2, 2), 3.0))
        assert b.grad == pytest.approx(np.full((3, 2), 3.0))

    def test_concatenate_axis1(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        combined = Tensor.concatenate([a, b], axis=1)
        assert combined.shape == (2, 5)
        combined.sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 3)
