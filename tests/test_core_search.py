"""Tests for workload extraction, the unified search and the pipeline."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import nn
from repro.core import (
    EvaluationEngine,
    UnifiedSearch,
    extract_workloads,
    total_macs,
    unique_shapes,
)
from repro.core import search as search_module
from repro.core.search import SEARCH_STRATEGY_REGISTRY
from repro.data import SyntheticImageDataset
from repro.errors import SearchError
from repro.experiments.common import PipelineScale, compare_approaches, network_latency
from repro.hardware import get_platform
from repro.models import resnet34
from repro.tensor import Tensor


def _small_model(seed: int = 0) -> nn.Module:
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.ConvBNReLU(3, 8, 3, rng=rng),
        nn.BasicResidualBlock(8, 16, stride=2, rng=rng),
        nn.BasicResidualBlock(16, 16, rng=rng),
        nn.GlobalAvgPool2d(), nn.Linear(16, 10, rng=rng))


@pytest.fixture
def dataset():
    return SyntheticImageDataset.cifar10_like(train_size=32, test_size=16, image_size=8, seed=0)


@pytest.fixture
def minibatch(dataset):
    return dataset.random_minibatch(4, seed=0)


def _batch_one_workloads(model, input_shape):
    """Every recorded convolution's input size after a batch-1 pass on the tape,
    the way workload extraction read it before it ran an empty batch."""
    convs = [(name, module) for name, module in model.named_modules()
             if isinstance(module, nn.Conv2d)]
    for _, conv in convs:
        conv.record_activations = True
    model.eval()
    model(Tensor(np.zeros((1,) + tuple(input_shape))))
    sizes = {name: tuple(conv.last_input.shape[2:]) for name, conv in convs
             if conv.last_input is not None}
    for _, conv in convs:
        conv.record_activations = False
        conv.last_input = conv.last_output = None
    return sizes


def _substituted_resnet18():
    """resnet18 with operators that slice channels, group, and upsample."""
    model = repro.build_model("resnet18", width_multiplier=0.125)
    configs = [nn.ConvTransformConfig(bottleneck_in=2),
               nn.ConvTransformConfig(spatial_bottleneck=2, group_factors=(2,)),
               nn.ConvTransformConfig(bottleneck_out=2)]
    for (name, owner, conv), config in zip(nn.iter_replaceable_convs(model), configs):
        setattr(owner, name.split(".")[-1], nn.DerivedConv2d(
            conv.in_channels, conv.out_channels, conv.kernel_size, stride=conv.stride,
            padding=conv.padding, config=config, rng=np.random.default_rng(0)))
    return model


def _flattening_model(image_size: int) -> nn.Module:
    """A user module whose head flattens the feature map into a Linear layer."""
    rng = np.random.default_rng(0)
    return nn.Sequential(
        nn.ConvBNReLU(3, 8, 3, stride=2, rng=rng), nn.Conv2d(8, 4, 1, rng=rng),
        nn.Flatten(), nn.Linear(4 * (image_size // 2) ** 2, 10, rng=rng))


class TestWorkloadExtraction:
    @pytest.mark.parametrize("name", [*repro.MODEL_BUILDERS, "substituted", "flattening"])
    def test_an_empty_batch_sizes_every_layer_as_a_batch_of_one(self, name):
        for image_size in (8, 32):
            if name == "substituted":
                model = _substituted_resnet18()
            elif name == "flattening":
                model = _flattening_model(image_size)
            else:
                model = repro.build_model(name, width_multiplier=0.125)
            workloads = extract_workloads(model, (3, image_size, image_size))
            assert ({workload.name: workload.input_hw for workload in workloads}
                    == _batch_one_workloads(model, (3, image_size, image_size)))
            assert len(workloads) == sum(
                1 for _, module in model.named_modules() if isinstance(module, nn.Conv2d))

    def test_extracts_every_convolution(self):
        model = _small_model()
        workloads = extract_workloads(model, (3, 8, 8))
        conv_count = sum(1 for _, m in model.named_modules() if isinstance(m, nn.Conv2d))
        assert len(workloads) == conv_count

    def test_spatial_sizes_follow_strides(self):
        model = _small_model()
        workloads = {w.name: w for w in extract_workloads(model, (3, 8, 8))}
        assert workloads["layer0.conv"].shape.h_out == 8
        assert workloads["layer1.conv1"].shape.h_out == 4  # stride-2 block

    def test_total_macs_positive_and_additive(self):
        workloads = extract_workloads(_small_model(), (3, 8, 8))
        assert total_macs(workloads) == sum(w.macs for w in workloads)

    def test_unique_shapes_histogram(self):
        workloads = extract_workloads(_small_model(), (3, 8, 8))
        histogram = unique_shapes(workloads)
        assert sum(histogram.values()) == len(workloads)

    def test_resnet34_distinct_shapes_are_few(self):
        """Tuning work is shared: ResNet-34 has ~10 distinct conv shapes."""
        workloads = extract_workloads(resnet34(width_multiplier=0.125), (3, 16, 16))
        assert len(unique_shapes(workloads)) <= 12


class TestUnifiedSearch:
    @pytest.mark.parametrize("strategy", sorted(SEARCH_STRATEGY_REGISTRY))
    def test_strategies_never_regress_below_baseline(self, dataset, minibatch, strategy):
        model = _small_model()
        images, labels = minibatch
        search = UnifiedSearch(get_platform("cpu"), configurations=20, tuner_trials=3,
                               strategy=strategy, seed=0)
        result = search.search(model, images, labels, dataset.spec.image_shape)
        assert result.optimized_latency_seconds <= result.baseline_latency_seconds * 1.001
        assert result.speedup >= 0.999

    def test_search_produces_choice_per_layer(self, dataset, minibatch):
        model = _small_model()
        images, labels = minibatch
        search = UnifiedSearch(get_platform("cpu"), configurations=10, tuner_trials=3, seed=0)
        result = search.search(model, images, labels, dataset.spec.image_shape)
        assert len(result.choices) == len(extract_workloads(model, dataset.spec.image_shape))
        for choice in result.choices.values():
            assert choice.latency_seconds > 0
            assert choice.baseline_latency_seconds > 0

    def test_statistics_are_recorded(self, dataset, minibatch):
        model = _small_model()
        images, labels = minibatch
        search = UnifiedSearch(get_platform("cpu"), configurations=10, tuner_trials=3, seed=0)
        result = search.search(model, images, labels, dataset.spec.image_shape)
        stats = result.statistics
        assert stats.configurations_evaluated > 0
        assert 0.0 <= stats.rejection_rate <= 1.0
        assert stats.search_seconds > 0
        assert stats.unique_workloads >= 1

    def test_sequence_frequency_counts_neural_choices(self, dataset, minibatch):
        model = _small_model()
        images, labels = minibatch
        search = UnifiedSearch(get_platform("cpu"), configurations=10, tuner_trials=3, seed=0)
        result = search.search(model, images, labels, dataset.spec.image_shape)
        frequency = result.sequence_frequency()
        assert sum(frequency.values()) == sum(
            1 for c in result.choices.values() if c.sequence.is_neural)

    def test_materialize_substitutes_neural_choices(self, dataset, minibatch):
        model = _small_model()
        images, labels = minibatch
        search = UnifiedSearch(get_platform("cpu"), configurations=10, tuner_trials=3, seed=0)
        result = search.search(model, images, labels, dataset.spec.image_shape)
        optimized = search.materialize(_small_model(), result, seed=0)
        out = optimized(Tensor(images))
        assert out.shape == (4, 10)
        neural_layers = [n for n, c in result.choices.items() if c.sequence.is_neural]
        derived = [m for _, m in optimized.named_modules() if isinstance(m, nn.DerivedConv2d)]
        assert len(derived) <= len(neural_layers)

    def test_invalid_strategy_rejected(self):
        with pytest.raises(SearchError):
            UnifiedSearch(get_platform("cpu"), strategy="simulated-annealing")

    def test_invalid_configuration_count_rejected(self):
        with pytest.raises(SearchError):
            UnifiedSearch(get_platform("cpu"), configurations=0)

    @pytest.mark.parametrize("threshold", (0, -1, float("nan")))
    def test_invalid_fisher_threshold_rejected_before_profiling(
            self, monkeypatch, dataset, minibatch, threshold):
        """Refused when the search is built: no Fisher profile pass runs, and
        NaN, which every comparison fails, cannot reject every candidate."""
        profiles = []
        profile = search_module.fisher_profile

        def counted(*args):
            profiles.append(args)
            return profile(*args)

        monkeypatch.setattr(search_module, "fisher_profile", counted)
        with pytest.raises(SearchError, match="fisher_threshold"):
            search = UnifiedSearch(get_platform("cpu"), configurations=4, tuner_trials=2,
                                   fisher_threshold=threshold, seed=0)
            search.search(_small_model(), *minibatch, dataset.spec.image_shape)
        assert profiles == []

    def test_fisher_threshold_influences_aggressiveness(self, dataset, minibatch):
        model = _small_model()
        images, labels = minibatch
        strict = UnifiedSearch(get_platform("cpu"), configurations=10, tuner_trials=3,
                               fisher_threshold=10.0, seed=0)
        relaxed = UnifiedSearch(get_platform("cpu"), configurations=10, tuner_trials=3,
                                fisher_threshold=1e-6, seed=0)
        strict_result = strict.search(_small_model(), images, labels, dataset.spec.image_shape)
        relaxed_result = relaxed.search(model, images, labels, dataset.spec.image_shape)
        assert (sum(relaxed_result.sequence_frequency().values())
                >= sum(strict_result.sequence_frequency().values()))
        # An impossible threshold forces the program-only configuration.
        assert all(not c.sequence.is_neural for c in strict_result.choices.values())

    def test_greedy_takes_a_faster_program_only_candidate(self):
        """Every neural candidate of ``stage3_block0.conv2`` faster than a
        reordered schedule is refused, and the reordered schedule beats
        ``standard``: the layer gets it, not ``standard``."""
        result = repro.optimize("resnet18", strategy="greedy", seed=0,
                                configurations=4, tuner_trials=2,
                                width_multiplier=0.25, image_size=8)
        decision = {d.layer: d for d in result.layers}["stage3_block0.conv2"]
        assert not decision.is_neural
        assert decision.program.name == "compose[reorder]"
        assert decision.latency_seconds < decision.baseline_latency_seconds
        assert decision.fisher_score == decision.baseline_fisher_score


class TestPipeline:
    def test_network_latency_positive(self):
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=3)
        assert network_latency(_small_model(), (3, 8, 8), engine) > 0

    def test_compare_approaches_orders_results(self, dataset):
        scale = PipelineScale(width_multiplier=0.125, image_size=8, fisher_batch=4,
                              configurations=10, tuner_trials=3, train_size=32, test_size=16)
        with repro.OptimizationSession(tuner_trials=3) as session:
            result = compare_approaches("tiny-resnet",
                                        lambda: resnet34(width_multiplier=0.125),
                                        "cpu", session=session, scale=scale,
                                        dataset=dataset, seed=0)
        speedups = result.speedups()
        assert speedups["TVM"] == pytest.approx(1.0)
        assert speedups["Ours"] >= speedups["NAS"] * 0.9
        assert speedups["Ours"] >= 1.0
        assert result.optimization.layers and result.blockswap_result is not None

    def test_pipeline_scale_presets(self):
        assert PipelineScale.full().configurations == 1000
        assert PipelineScale.ci().configurations < PipelineScale.full().configurations
