"""Benchmark T-1 — fast training engine on the 5k-node synthetic graph.

Pins the acceptance claim of the training-engine PR: end-to-end
``fit_detect`` in fast mode (float32 + in-place optimizers + fused
kernels) is **≥3× faster than the seed training loop**
on the ~5 000-node benchmark graph, while detecting the identical
anomalous groups.

Three arms are timed:

* ``seed_loop`` — float64 with the *pre-engine* MH-GAE training loop,
  kept verbatim below (unfused tape-built loss, allocating Adam), wired
  in by monkeypatching ``repro.core.pipeline.MultiHopGAE`` — the same
  kept-seed-baseline pattern as ``test_scaling_sparse.py``.
* ``float64`` — today's default path (fused loss + in-place optimizers,
  still bit-identical to the seed trajectory).
* ``float32`` — ``config.accelerated()``: float32 weights on both learned
  stages (TPGCL views go through the same fused encoder kernel as
  float64), in-place everything.

Each arm also records its CPU seconds and the load average around it
(``seed_loop_usage`` / ``float64_usage`` / ``float32_usage``, see
``hostinfo.arm_usage``), so a missed ratio shows whether an arm did extra
work or shared the cores.

Writes ``BENCH_train.json`` (the artifact the CI train job uploads);
``BENCH_OUT_DIR`` picks its directory (see ``conftest.py``).
"""

from __future__ import annotations

import time

import numpy as np

import repro.core.pipeline as pipeline_mod
from repro.core import TPGrGAD, TPGrGADConfig
from repro.gae import MultiHopGAE
from repro.gae.autoencoder import GAETrainingResult, _GAEModel
from repro.nn.optim import Optimizer
from repro.persist import dump_json
from repro.seeding import resolve_seed
from repro.tensor import Tensor

from hostinfo import arm_usage, host_facts
from test_scaling_sparse import _synthetic_graph

REQUIRED_SPEEDUP = 3.0


class _SeedAdam(Optimizer):
    """The pre-engine allocating Adam, kept verbatim as the timing baseline.

    The trajectory oracle lives in ``tests/test_train_engine.py``
    (``_ReferenceAdam``); change both or neither.
    """

    def __init__(self, parameters, lr=0.001, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class _SeedMultiHopGAE(MultiHopGAE):
    """MH-GAE with the pre-engine training loop (unfused loss, allocating Adam)."""

    def fit(self, graph):
        config = self.config
        rng = np.random.default_rng(resolve_seed(config.seed))
        self._graph = graph
        self._structure_target = self._build_structure_target(graph)
        self._propagation = self._build_propagation(graph)
        self._scaled_features = self._scale_features(graph.features)
        self._model = _GAEModel(graph.n_features, graph.n_nodes, config, rng)
        features = Tensor(self._scaled_features)
        structure_target = Tensor(self._structure_target.toarray())
        optimizer = _SeedAdam(
            self._model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
        )
        lam = config.structure_weight
        self.training_result = GAETrainingResult()
        for _ in range(config.epochs):
            optimizer.zero_grad()
            z = self._model.encode(features, self._propagation)
            structure_hat = self._model.decode_structure(z)
            attribute_hat = self._model.decode_attributes(z)
            structure_loss = ((structure_hat - structure_target) ** 2).mean()
            attribute_loss = ((attribute_hat - features) ** 2).mean()
            loss = structure_loss * lam + attribute_loss * (1.0 - lam)
            loss.backward()
            optimizer.step()
            self.training_result.losses.append(loss.item())
        return self


def _groups(result):
    return sorted(tuple(sorted(group.nodes)) for group in result.anomalous_groups)


def test_fast_mode_at_least_3x_faster_than_seed_loop(benchmark, bench_json_path):
    graph = _synthetic_graph()
    config = TPGrGADConfig.fast(seed=1)

    # Arm 1: the seed training loop (float64, unfused, allocating Adam).
    pipeline_mod.MultiHopGAE = _SeedMultiHopGAE
    try:
        with arm_usage() as seed_loop_usage:
            start = time.perf_counter()
            seed_detector = TPGrGAD(config)
            seed_result = seed_detector.fit_detect(graph)
            seed_seconds = time.perf_counter() - start
    finally:
        pipeline_mod.MultiHopGAE = MultiHopGAE

    # Arm 2: today's float64 default (fused loss, in-place optimizers) —
    # bit-identical trajectory to the seed loop, so same groups by construction.
    with arm_usage() as float64_usage:
        start = time.perf_counter()
        f64_detector = TPGrGAD(config)
        f64_result = f64_detector.fit_detect(graph)
        f64_seconds = time.perf_counter() - start

    # Arm 3: fast mode (float32 + everything above).
    with arm_usage() as float32_usage:
        start = time.perf_counter()
        fast_result = benchmark.pedantic(
            lambda: TPGrGAD(config.accelerated()).fit_detect(graph), rounds=1, iterations=1
        )
        fast_seconds = time.perf_counter() - start

    assert _groups(f64_result) == _groups(seed_result)
    groups_identical = _groups(fast_result) == _groups(seed_result)
    assert groups_identical

    speedup_vs_seed = seed_seconds / max(fast_seconds, 1e-12)
    speedup_vs_float64 = f64_seconds / max(fast_seconds, 1e-12)
    epochs = config.mhgae.epochs

    benchmark.extra_info["seed_loop_seconds"] = round(seed_seconds, 3)
    benchmark.extra_info["float64_seconds"] = round(f64_seconds, 3)
    benchmark.extra_info["speedup_vs_seed"] = round(speedup_vs_seed, 2)
    benchmark.extra_info["speedup_vs_float64"] = round(speedup_vs_float64, 2)

    dump_json(
        bench_json_path("BENCH_train.json"),
        {
            "host": host_facts(),
            "n_nodes": graph.n_nodes,
            "n_edges": graph.n_edges,
            "mhgae_epochs": epochs,
            "seed_loop_seconds": round(seed_seconds, 3),
            "float64_seconds": round(f64_seconds, 3),
            "float32_seconds": round(fast_seconds, 3),
            "seed_loop_usage": seed_loop_usage,
            "float64_usage": float64_usage,
            "float32_usage": float32_usage,
            "seed_loop_epoch_seconds": round(seed_seconds / epochs, 4),
            "float32_epoch_seconds": round(fast_seconds / epochs, 4),
            "speedup_vs_seed": round(speedup_vs_seed, 2),
            "speedup_vs_float64": round(speedup_vs_float64, 2),
            "required_speedup": REQUIRED_SPEEDUP,
            "groups_identical": groups_identical,
            "mhgae_epochs_run": {
                "seed_loop": seed_detector.mhgae.training_result.epochs_run,
                "float64": f64_detector.mhgae.training_result.epochs_run,
            },
        },
    )

    print(
        f"\nfit_detect on {graph.n_nodes} nodes: seed loop {seed_seconds:.1f}s, "
        f"float64 {f64_seconds:.1f}s, fast mode {fast_seconds:.1f}s "
        f"({speedup_vs_seed:.2f}x vs seed, {speedup_vs_float64:.2f}x vs float64)"
    )
    assert speedup_vs_seed >= REQUIRED_SPEEDUP, (
        f"expected >= {REQUIRED_SPEEDUP}x vs the seed loop, got {speedup_vs_seed:.2f}x"
    )
