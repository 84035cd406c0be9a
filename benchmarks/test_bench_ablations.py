"""Ablation benchmarks for the design choices called out in DESIGN.md §5.

1. Fisher evaluation scope   — local (cached gradients) vs full re-profile.
2. Legality threshold        — the paper's >= original vs a relaxed fraction.
3. Search strategy           — random enumeration (paper) vs greedy vs evolutionary.
4. Cost-model fidelity       — roofline-only vs the full schedule-aware model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.search import UnifiedSearch
from repro.experiments.common import cifar_dataset, cifar_model_builders
from repro.fisher import FisherLegalityChecker, candidate_layer_fisher, fisher_profile
from repro.hardware import estimate_latency, estimate_roofline_bound, get_platform
from repro.models import resnet34
from repro.nn.convs import ConvTransformConfig, DerivedConv2d
from repro.poly import ConvolutionShape
from repro.tenir import AutoTuner, conv2d_compute, create_schedule, lower


def _search(scale, strategy: str, threshold: float = 1.0, seed: int = 0):
    dataset = cifar_dataset(scale, seed=seed)
    model = cifar_model_builders(scale)["ResNet-34"]()
    images, labels = dataset.random_minibatch(scale.pipeline.fisher_batch, seed=seed)
    search = UnifiedSearch(get_platform("cpu"), configurations=scale.pipeline.configurations,
                           tuner_trials=scale.pipeline.tuner_trials, strategy=strategy,
                           fisher_threshold=threshold, seed=seed)
    return search.search(model, images, labels, dataset.spec.image_shape)


def test_bench_ablation_fisher_scope(benchmark, scale):
    """Local candidate scoring vs a full-network re-profile of the same candidate."""
    dataset = cifar_dataset(scale, seed=0)
    model = resnet34(width_multiplier=scale.pipeline.width_multiplier)
    images, labels = dataset.random_minibatch(scale.pipeline.fisher_batch, seed=0)
    profile = fisher_profile(model, images, labels)
    layer = max(profile.layers.values(), key=lambda record: record.input_activation.size)
    candidate = DerivedConv2d(layer.in_channels, layer.out_channels, layer.kernel_size,
                              stride=layer.stride, padding=layer.padding,
                              config=ConvTransformConfig(group_factors=(2,)))

    local_score = benchmark(candidate_layer_fisher, layer, candidate)

    import time

    start = time.perf_counter()
    full_profile = fisher_profile(model, images, labels)
    full_seconds = time.perf_counter() - start
    assert np.isfinite(local_score)
    print(f"\nlocal candidate evaluation vs full re-profile: "
          f"full profile takes {full_seconds:.3f}s for the whole network; the local "
          f"evaluation scores one candidate layer in the benchmarked time above "
          f"(original layer score {layer.score:.4g}, candidate {local_score:.4g}, "
          f"network total {full_profile.total:.4g})")


def test_bench_ablation_threshold(benchmark, scale):
    """The paper's threshold (>= original) vs a relaxed 0.5x threshold."""
    def run_both():
        strict = _search(scale, "greedy", threshold=1.0)
        relaxed = _search(scale, "greedy", threshold=0.5)
        return strict, relaxed

    strict, relaxed = benchmark.pedantic(run_both, rounds=1, iterations=1)
    strict_neural = sum(strict.sequence_frequency().values())
    relaxed_neural = sum(relaxed.sequence_frequency().values())
    assert relaxed_neural >= strict_neural
    assert relaxed.speedup >= strict.speedup * 0.999
    print(f"\nthreshold 1.0: {strict_neural} neural layers, {strict.speedup:.2f}x, "
          f"rejection {strict.statistics.rejection_rate:.2f}")
    print(f"threshold 0.5: {relaxed_neural} neural layers, {relaxed.speedup:.2f}x, "
          f"rejection {relaxed.statistics.rejection_rate:.2f}")


def test_bench_ablation_search_strategy(benchmark, scale):
    """Random enumeration (the paper) vs greedy vs evolutionary construction."""
    def run_all():
        return {strategy: _search(scale, strategy) for strategy
                in ("random", "greedy", "evolutionary")}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for strategy, outcome in results.items():
        assert outcome.speedup >= 0.999, strategy
    assert results["greedy"].speedup >= results["random"].speedup * 0.9
    print()
    for strategy, outcome in results.items():
        print(f"{strategy:13s}: speedup {outcome.speedup:.2f}x, "
              f"rejection {outcome.statistics.rejection_rate:.2f}, "
              f"candidates {outcome.statistics.configurations_evaluated}")


def test_bench_ablation_cost_model(benchmark, scale):
    """Roofline-only vs the schedule-aware model: only the latter separates schedules."""
    shape = ConvolutionShape(32, 32, 16, 16, 3, 3)
    computation = conv2d_compute(shape)
    platform = get_platform("cpu")

    def evaluate():
        naive = lower(create_schedule(computation))
        tuned = AutoTuner(trials=scale.pipeline.tuner_trials, seed=0).tune(computation, platform)
        return {
            "roofline_naive": estimate_roofline_bound(naive, platform),
            "roofline_tuned": estimate_roofline_bound(tuned.nest, platform),
            "model_naive": estimate_latency(naive, platform).seconds,
            "model_tuned": tuned.seconds,
        }

    results = benchmark(evaluate)
    # The roofline cannot tell the two schedules apart (same flops, same
    # compulsory traffic); the full model can.
    assert results["roofline_naive"] == pytest.approx(results["roofline_tuned"], rel=0.2)
    assert results["model_tuned"] < results["model_naive"] * 0.5
    print(f"\n{results}")
