"""Unit tests for layers, modules and optimizers (repro.nn)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, GCNConv, Linear, MLP, Parameter, glorot_uniform, zeros
from repro.tensor import Tensor


class TestInitializers:
    def test_glorot_bounds(self, rng):
        weights = glorot_uniform((50, 60), rng)
        limit = np.sqrt(6.0 / 110)
        assert weights.shape == (50, 60)
        assert np.abs(weights).max() <= limit

    def test_zeros(self):
        assert zeros((3, 2)).sum() == 0.0


class TestModule:
    def test_parameter_is_tensor_with_grad(self):
        parameter = Parameter(np.ones(3))
        assert isinstance(parameter, Tensor)
        assert parameter.requires_grad

    def test_named_parameters_nested(self, rng):
        mlp = MLP([4, 8, 2], rng)
        names = [name for name, _ in mlp.named_parameters()]
        assert "linears.0.weight" in names
        assert "linears.1.bias" in names
        assert len(names) == 4

    def test_state_dict_roundtrip(self, rng):
        source = MLP([3, 5, 2], rng)
        target = MLP([3, 5, 2], np.random.default_rng(99))
        target.load_state_dict(source.state_dict())
        inputs = Tensor(np.random.default_rng(3).normal(size=(4, 3)))
        assert target(inputs).numpy() == pytest.approx(source(inputs).numpy())

    def test_state_dict_mismatch_raises(self, rng):
        source = MLP([3, 5, 2], rng)
        target = MLP([3, 4, 2], rng)
        with pytest.raises((KeyError, ValueError)):
            target.load_state_dict(source.state_dict())

    def test_zero_grad_clears_all(self, rng):
        model = MLP([2, 3, 1], rng)
        loss = model(Tensor(np.ones((2, 2)))).sum()
        loss.backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestLinearAndMLP:
    def test_linear_forward_shape(self, rng):
        layer = Linear(4, 7, rng)
        assert layer(Tensor(np.ones((5, 4)))).shape == (5, 7)

    def test_linear_no_bias(self, rng):
        layer = Linear(3, 2, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_linear_invalid_dims(self, rng):
        with pytest.raises(ValueError):
            Linear(0, 3, rng)

    def test_mlp_needs_two_dims(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)

    def test_mlp_unknown_activation_raises(self, rng):
        with pytest.raises(ValueError):
            MLP([3, 2], rng, activation="swishish")

    def test_mlp_trains_to_fit_linear_function(self, rng):
        mlp = MLP([2, 16, 1], rng)
        optimizer = Adam(mlp.parameters(), lr=0.01)
        inputs = Tensor(rng.normal(size=(32, 2)))
        targets = Tensor(inputs.numpy()[:, :1] * 3.0 - inputs.numpy()[:, 1:] * 0.5)
        first_loss = None
        for _ in range(200):
            optimizer.zero_grad()
            loss = ((mlp(inputs) - targets) ** 2).mean()
            loss.backward()
            optimizer.step()
            if first_loss is None:
                first_loss = loss.item()
        assert loss.item() < first_loss * 0.05


class TestGraphLayers:
    def test_gcn_forward_shape(self, rng, tiny_graph):
        layer = GCNConv(2, 5, rng)
        out = layer(Tensor(tiny_graph.features), np.eye(6))
        assert out.shape == (6, 5)

    def test_gcn_identity_propagation_equals_linear_relu(self, rng):
        layer = GCNConv(3, 4, rng, activation="relu")
        inputs = np.random.default_rng(1).normal(size=(5, 3))
        out = layer(Tensor(inputs), np.eye(5)).numpy()
        manual = np.maximum(inputs @ layer.linear.weight.numpy() + layer.linear.bias.numpy(), 0.0)
        assert out == pytest.approx(manual)

    def test_gcn_propagation_mixes_neighbors(self, rng):
        layer = GCNConv(2, 2, rng, activation=None)
        propagation = np.array([[0.0, 1.0], [1.0, 0.0]])
        inputs = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = layer(Tensor(inputs), propagation).numpy()
        swapped = layer(Tensor(inputs[::-1]), np.eye(2)).numpy()
        assert out == pytest.approx(swapped)


class TestOptimizers:
    def _quadratic_step(self, optimizer_factory):
        parameter = Parameter(np.array([5.0]))
        optimizer = optimizer_factory([parameter])
        for _ in range(100):
            optimizer.zero_grad()
            loss = (parameter * parameter).sum()
            loss.backward()
            optimizer.step()
        return abs(parameter.data[0])

    def test_adam_converges_on_quadratic(self):
        assert self._quadratic_step(lambda p: Adam(p, lr=0.1)) < 5e-2

    def test_weight_decay_shrinks_parameters(self):
        parameter = Parameter(np.array([1.0]))
        optimizer = Adam([parameter], lr=0.1, weight_decay=0.5)
        optimizer.zero_grad()
        (parameter * 0.0).sum().backward()
        optimizer.step()
        assert abs(parameter.data[0]) < 1.0

    def test_empty_parameter_list_raises(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=0.0)

    def test_step_skips_parameters_without_grad(self):
        parameter = Parameter(np.array([1.0]))
        optimizer = Adam([parameter], lr=0.1)
        optimizer.step()  # no gradient accumulated yet; must not raise
        assert parameter.data[0] == pytest.approx(1.0)
