"""Micro-benchmarks for the substrate: conv kernels, tuner, Fisher, search step.

These are conventional pytest-benchmark measurements (repeated timing) of
the building blocks the experiment drivers lean on; they make regressions
in the NumPy substrate visible independently of the paper-level results.
"""

from __future__ import annotations

import numpy as np

from repro.fisher import fisher_profile
from repro.hardware import estimate_latency, get_platform
from repro.models import resnet34
from repro.nn import Conv2d
from repro.poly import ConvolutionShape
from repro.tensor import Tensor, ops
from repro.tenir import AutoTuner, conv2d_compute, create_schedule, lower


def test_bench_conv2d_forward(benchmark, rng=np.random.default_rng(0)):
    x = Tensor(rng.normal(size=(4, 32, 16, 16)))
    conv = Conv2d(32, 64, 3, padding=1, rng=rng)
    result = benchmark(conv, x)
    assert result.shape == (4, 64, 16, 16)


def test_bench_conv2d_backward(benchmark, rng=np.random.default_rng(0)):
    conv = Conv2d(16, 32, 3, padding=1, rng=rng)

    def forward_backward():
        x = Tensor(rng.normal(size=(2, 16, 16, 16)), requires_grad=True)
        out = conv(x)
        out.sum().backward()
        return out

    result = benchmark(forward_backward)
    assert result.shape == (2, 32, 16, 16)


def test_bench_cost_model_single_estimate(benchmark):
    nest = lower(create_schedule(conv2d_compute(ConvolutionShape(64, 64, 32, 32, 3, 3))))
    platform = get_platform("cpu")
    estimate = benchmark(estimate_latency, nest, platform)
    assert estimate.seconds > 0


def test_bench_autotuner_single_operator(benchmark):
    computation = conv2d_compute(ConvolutionShape(64, 64, 16, 16, 3, 3))
    platform = get_platform("cpu")
    tuner = AutoTuner(trials=8, seed=0)
    result = benchmark(tuner.tune, computation, platform)
    assert result.seconds > 0


def test_bench_fisher_profile_small_resnet(benchmark, rng=np.random.default_rng(0)):
    model = resnet34(width_multiplier=0.125, rng=rng)
    images = rng.normal(size=(2, 3, 8, 8))
    labels = rng.integers(0, 10, size=2)
    profile = benchmark.pedantic(fisher_profile, args=(model, images, labels),
                                 rounds=2, iterations=1)
    assert profile.total > 0


def test_bench_resnet34_inference(benchmark, rng=np.random.default_rng(0)):
    model = resnet34(width_multiplier=0.125, rng=rng)
    model.eval()
    x = Tensor(rng.normal(size=(1, 3, 16, 16)))
    out = benchmark.pedantic(model, args=(x,), rounds=3, iterations=1)
    assert out.shape == (1, 10)


def test_bench_cross_entropy(benchmark, rng=np.random.default_rng(0)):
    logits = Tensor(rng.normal(size=(64, 10)), requires_grad=True)
    labels = rng.integers(0, 10, size=64)
    loss = benchmark(ops.cross_entropy, logits, labels)
    assert float(loss.data) > 0
