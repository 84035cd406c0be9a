"""Tests for the NAS baselines: BlockSwap and the FBNet-like search."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.data import SyntheticImageDataset, train_loader
from repro.errors import SearchError
from repro.hardware import get_platform
from repro.models import resnet34
from repro.nas import (
    BlockSwap,
    FBNetSearch,
    MixedOp,
    build_cell_model,
    sample_cells,
    space_size,
)
from repro.nas.blockswap import _candidate_kinds_for
from repro.tensor import Tensor


@pytest.fixture
def small_resnet():
    return resnet34(width_multiplier=0.125, rng=np.random.default_rng(0))


@pytest.fixture
def dataset():
    return SyntheticImageDataset.cifar10_like(train_size=32, test_size=16, image_size=8, seed=0)


class TestCellSpaceSampling:
    def test_space_size(self):
        assert space_size() == 15625

    def test_sample_cells_distinct(self):
        cells = sample_cells(20, seed=1)
        assert len({c.operations for c in cells}) == 20

    def test_sampling_is_deterministic(self):
        assert [c.index for c in sample_cells(5, seed=7)] == [c.index for c in sample_cells(5, seed=7)]

    def test_build_cell_model_forward(self, rng):
        spec = sample_cells(1, seed=2)[0]
        model = build_cell_model(spec, num_cells=2, init_channels=4, seed=0)
        out = model(Tensor(rng.normal(size=(1, 3, 8, 8))))
        assert out.shape == (1, 10)


class TestBlockSwap:
    def test_compress_reduces_parameters(self, small_resnet, dataset):
        images, labels = dataset.random_minibatch(4, seed=0)
        original = small_resnet.num_parameters()
        result = BlockSwap(budget_ratio=0.6, seed=0).compress(small_resnet, images, labels)
        assert result.compressed_parameters < original
        assert result.compression_ratio > 1.0
        assert len(result.substitutions) > 0

    def test_substitution_plan_names_real_layers(self, small_resnet, dataset):
        images, labels = dataset.random_minibatch(4, seed=0)
        result = BlockSwap(budget_ratio=0.7, seed=0).compress(small_resnet, images, labels)
        module_names = {name for name, _ in small_resnet.named_modules()}
        for layer in result.plan():
            assert layer in module_names

    def test_model_still_runs_after_compression(self, small_resnet, dataset):
        images, labels = dataset.random_minibatch(4, seed=0)
        BlockSwap(budget_ratio=0.6, seed=0).compress(small_resnet, images, labels)
        out = small_resnet(Tensor(images))
        assert out.shape == (4, 10)

    def test_invalid_budget_rejected(self):
        with pytest.raises(SearchError):
            BlockSwap(budget_ratio=1.5)

    def test_candidate_filter_respects_divisibility(self):
        conv = nn.Conv2d(6, 6, 3)
        kinds = _candidate_kinds_for(conv, ("group4", "group2", "bottleneck2", "depthwise"))
        assert "group4" not in kinds and "group2" in kinds

    def test_candidate_filter_skips_grouped_convs(self):
        conv = nn.Conv2d(8, 8, 3, groups=2)
        assert _candidate_kinds_for(conv, ("group2", "bottleneck2")) == []


class TestFBNet:
    def test_mixed_op_weights_sum_to_one(self, rng):
        conv = nn.Conv2d(4, 4, 3, padding=1)
        mixed = MixedOp(conv, ["standard", "group2"], [1e-3, 5e-4], rng=rng)
        assert float(mixed.weights().data.sum()) == pytest.approx(1.0)

    def test_mixed_op_forward_shape(self, rng):
        conv = nn.Conv2d(4, 4, 3, padding=1)
        mixed = MixedOp(conv, ["standard", "group2"], [1e-3, 5e-4], rng=rng)
        out = mixed(Tensor(rng.normal(size=(2, 4, 6, 6))))
        assert out.shape == (2, 4, 6, 6)

    def test_search_selects_one_kind_per_layer(self, dataset):
        model = nn.Sequential(
            nn.ConvBNReLU(3, 8, 3), nn.BasicResidualBlock(8, 8),
            nn.GlobalAvgPool2d(), nn.Linear(8, 10))
        search = FBNetSearch(get_platform("cpu"), epochs=1, seed=0)
        loader = train_loader(dataset, batch_size=16, seed=0)
        result = search.search(model, loader, (8, 8))
        assert len(result.selections) >= 3
        assert all(kind in ("standard", "group2", "group4", "bottleneck2", "bottleneck4",
                            "depthwise") for kind in result.selections.values())
        assert result.expected_latency_seconds > 0

    def test_search_requires_replaceable_convs(self, dataset):
        model = nn.Sequential(nn.GlobalAvgPool2d(), nn.Linear(3, 10))
        with pytest.raises(SearchError):
            FBNetSearch(get_platform("cpu"), epochs=1).search(
                model, train_loader(dataset, batch_size=8), (8, 8))
