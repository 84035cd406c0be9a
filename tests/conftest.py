"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.data import SyntheticImageDataset
from repro.poly.statement import ConvolutionShape


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def small_conv_shape() -> ConvolutionShape:
    """A small standard convolution used across compiler-layer tests."""
    return ConvolutionShape(c_out=8, c_in=8, h_out=6, w_out=6, k_h=3, k_w=3)


@pytest.fixture
def tiny_dataset() -> SyntheticImageDataset:
    """A small CIFAR-like dataset shared by training-related tests."""
    return SyntheticImageDataset.cifar10_like(train_size=48, test_size=24, image_size=8, seed=0)


@pytest.fixture
def derivations(monkeypatch):
    """Record every operator the Fisher oracle builds and every one it scores."""
    calls = {"built": [], "scored": []}
    build, score = engine_module.DerivedConv2d, engine_module.candidate_layer_fisher

    def built(*args, config, **kwargs):
        calls["built"].append(config)
        return build(*args, config=config, **kwargs)

    def scored(record, candidate):
        calls["scored"].append(record.name)
        return score(record, candidate)

    monkeypatch.setattr(engine_module, "DerivedConv2d", built)
    monkeypatch.setattr(engine_module, "candidate_layer_fisher", scored)
    return calls
