"""Tests for the NAS convolution variants and the derived-operator module."""

from __future__ import annotations

import numpy as np
import pytest

import nas_reference
from repro import nn
from repro.core.sequences import predefined_program
from repro.errors import ModelError
from repro.poly.statement import ConvolutionShape
from repro.tensor import Tensor
from repro.utils import make_rng


@pytest.fixture
def feature_map(rng):
    return Tensor(rng.normal(size=(2, 8, 8, 8)))


class TestCandidateOperators:
    def test_grouped_preserves_interface(self, rng, feature_map):
        conv = nn.build_candidate("group4", 8, 16, 3, padding=1, rng=rng)
        assert conv(feature_map).shape == (2, 16, 8, 8)

    def test_grouped_has_fewer_parameters(self, rng):
        standard = nn.Conv2d(8, 16, 3, rng=rng)
        grouped = nn.build_candidate("group4", 8, 16, 3, rng=rng)
        assert grouped.num_parameters() * 4 == standard.num_parameters()

    def test_bottleneck_preserves_interface(self, rng, feature_map):
        conv = nn.build_candidate("bottleneck4", 8, 16, 3, padding=1, rng=rng)
        assert conv(feature_map).shape == (2, 16, 8, 8)

    def test_bottleneck_reduces_parameters(self, rng):
        standard = nn.Conv2d(8, 16, 3, rng=rng)
        bottlenecked = nn.build_candidate("bottleneck4", 8, 16, 3, rng=rng)
        assert bottlenecked.num_parameters() < standard.num_parameters()

    def test_input_bottleneck_uses_leading_channels(self, rng, feature_map):
        conv = nn.DerivedConv2d(8, 16, 3, padding=1, rng=rng,
                                config=nn.ConvTransformConfig(bottleneck_in=2))
        out = conv(feature_map)
        assert out.shape == (2, 16, 8, 8)
        assert conv.effective_in_channels == 4

    def test_depthwise_separable(self, rng, feature_map):
        conv = nn.DepthwiseSeparableConv2d(8, 16, 3, padding=1, rng=rng)
        assert conv(feature_map).shape == (2, 16, 8, 8)
        standard = nn.Conv2d(8, 16, 3, rng=rng)
        assert conv.num_parameters() < standard.num_parameters()

    def test_spatial_bottleneck_restores_resolution(self, rng, feature_map):
        conv = nn.build_candidate("spatial2", 8, 16, 3, padding=1, rng=rng)
        assert conv(feature_map).shape == (2, 16, 8, 8)

    def test_divisibility_validation(self):
        with pytest.raises(ModelError):
            nn.build_candidate("group4", 6, 8, 3)
        with pytest.raises(ModelError):
            nn.build_candidate("bottleneck4", 8, 6, 3)

    def test_build_candidate_all_kinds(self, rng, feature_map):
        for kind in nn.CANDIDATE_KINDS:
            candidate = nn.build_candidate(kind, 8, 16, 3, padding=1, rng=rng)
            assert candidate(feature_map).shape == (2, 16, 8, 8), kind

    def test_build_candidate_unknown_kind(self):
        with pytest.raises(ModelError):
            nn.build_candidate("winograd", 8, 8, 3)

    def test_candidate_kinds_keep_their_order(self):
        # BlockSwap draws one initialisation seed per kind in this order.
        assert nn.CANDIDATE_KINDS == ("standard", "group2", "group4", "bottleneck2",
                                      "bottleneck4", "depthwise", "spatial2")
        assert set(nn.CANDIDATE_CONFIGS) == set(nn.CANDIDATE_KINDS) - {"standard",
                                                                       "depthwise"}


#: Every config a NAS candidate used to have a class of its own for: the
#: frozen class, its keyword, and the predefined program deriving the config.
REFERENCE_OPERATORS = {
    "group2": (nas_reference.GroupedConv2d, {"groups": 2}, ("group", {"group": 2})),
    "group4": (nas_reference.GroupedConv2d, {"groups": 4}, ("group", {"group": 4})),
    "bottleneck2": (nas_reference.BottleneckConv2d, {"factor": 2},
                    ("bottleneck", {"bottleneck": 2})),
    "bottleneck4": (nas_reference.BottleneckConv2d, {"factor": 4},
                    ("bottleneck", {"bottleneck": 4})),
    "input_bottleneck2": (nas_reference.InputBottleneckConv2d, {"factor": 2},
                          ("input_bottleneck", {"bottleneck": 2})),
    "spatial2": (nas_reference.SpatialBottleneckConv2d, {"factor": 2},
                 ("spatial_bottleneck", {"spatial": 2})),
}


def _config(kind: str) -> nn.ConvTransformConfig:
    name, params = REFERENCE_OPERATORS[kind][2]
    return predefined_program(name, **params).conv_config(
        ConvolutionShape(16, 16, 8, 8, 3, 3))


def _builders(kind: str, in_channels: int, out_channels: int, **conv):
    """The frozen class, ``DerivedConv2d`` and (for a NAS kind) ``build_candidate``."""
    cls, keyword, _ = REFERENCE_OPERATORS[kind]
    builders = {
        "reference": lambda rng: cls(in_channels, out_channels, 3, **keyword, **conv,
                                     rng=rng),
        "derived": lambda rng: nn.DerivedConv2d(in_channels, out_channels, 3, **conv,
                                                config=_config(kind), rng=rng),
    }
    if kind in nn.CANDIDATE_CONFIGS:
        builders["candidate"] = lambda rng: nn.build_candidate(
            kind, in_channels, out_channels, 3, **conv, rng=rng)
    return builders


def _run(module, images: np.ndarray, upstream: np.ndarray):
    """Forward output and input gradient for a fixed upstream gradient."""
    x = Tensor(images, requires_grad=True)
    out = module(x)
    out.backward(upstream[tuple(slice(0, n) for n in out.shape)])
    return out.data, x.grad


class TestCandidatesAreDerivedOperators:
    """The NAS candidates are ``DerivedConv2d`` configs, bit for bit."""

    @pytest.mark.parametrize("padding", (0, 1))
    @pytest.mark.parametrize("stride", (1, 2))
    @pytest.mark.parametrize("kind", sorted(REFERENCE_OPERATORS))
    def test_matches_frozen_operator(self, kind, stride, padding):
        data = np.random.default_rng(1)
        images = data.normal(size=(2, 8, 9, 9))
        upstream = data.normal(size=(2, 16, 12, 12))
        reference, *others = [build(make_rng(7)) for build in
                              _builders(kind, 8, 16, stride=stride,
                                        padding=padding).values()]
        expected_output, expected_gradient = _run(reference, images, upstream)
        for module in others:
            assert module.num_parameters() == reference.num_parameters()
            weights = [p.data for p in module.parameters()]
            reference_weights = [p.data for p in reference.parameters()]
            assert len(weights) == len(reference_weights)
            for weight, reference_weight in zip(weights, reference_weights):
                assert weight.shape == reference_weight.shape
                assert np.array_equal(weight, reference_weight)
            output, gradient = _run(module, images, upstream)
            assert np.array_equal(output, expected_output)
            assert np.array_equal(gradient, expected_gradient)

    @pytest.mark.parametrize("kind", sorted(REFERENCE_OPERATORS))
    def test_refuses_the_same_channel_counts(self, kind):
        refused = []
        for in_channels in (2, 3, 4, 6, 8):
            for out_channels in (2, 3, 4, 6, 8):
                outcomes = set()
                for build in _builders(kind, in_channels, out_channels).values():
                    try:
                        build(make_rng(0))
                        outcomes.add(False)
                    except ModelError:
                        outcomes.add(True)
                assert len(outcomes) == 1, (kind, in_channels, out_channels)
                refused.extend(outcomes - {False})
        assert bool(refused) == (kind != "spatial2")

    def test_table_configs_are_predefined_programs(self):
        """The paper's "NAS operators are programs", stated as configs."""
        for kind, config in nn.CANDIDATE_CONFIGS.items():
            assert config == _config(kind), kind
        assert _config("input_bottleneck2") == nn.ConvTransformConfig(bottleneck_in=2)


class TestConvTransformConfig:
    def test_default_is_identity(self):
        config = nn.ConvTransformConfig()
        assert config.compute_reduction() == pytest.approx(1.0)
        assert config.describe() == "standard"

    def test_reduction_composition(self):
        config = nn.ConvTransformConfig(bottleneck_out=2, spatial_bottleneck=2,
                                        group_factors=(2,))
        assert config.compute_reduction() == pytest.approx(2 * 4 * 2)

    def test_mixed_group_reduction_is_harmonic(self):
        config = nn.ConvTransformConfig(group_factors=(2, 4))
        assert config.compute_reduction() == pytest.approx(2 / (0.5 + 0.25))

    def test_describe_mentions_active_parts(self):
        config = nn.ConvTransformConfig(bottleneck_in=2, group_factors=(4,))
        text = config.describe()
        assert "bottleneck_in=2" in text and "groups=[4]" in text


class TestDerivedConv2d:
    @pytest.mark.parametrize("config", [
        nn.ConvTransformConfig(),
        nn.ConvTransformConfig(group_factors=(2,)),
        nn.ConvTransformConfig(group_factors=(2, 4)),
        nn.ConvTransformConfig(bottleneck_out=2),
        nn.ConvTransformConfig(bottleneck_in=2),
        nn.ConvTransformConfig(spatial_bottleneck=2),
        nn.ConvTransformConfig(bottleneck_out=2, group_factors=(2,)),
    ])
    def test_preserves_interface(self, rng, feature_map, config):
        conv = nn.DerivedConv2d(8, 16, 3, padding=1, config=config, rng=rng)
        assert conv(feature_map).shape == (2, 16, 8, 8)

    def test_reduces_flops_according_to_config(self):
        standard = nn.Conv2d(8, 16, 3, padding=1)
        derived = nn.DerivedConv2d(8, 16, 3, padding=1,
                                   config=nn.ConvTransformConfig(group_factors=(2,)))
        assert derived.flops((8, 8)) * 2 == standard.flops((8, 8))

    def test_invalid_group_factor_rejected(self):
        with pytest.raises(ModelError):
            nn.DerivedConv2d(8, 16, 3, config=nn.ConvTransformConfig(group_factors=(3,)))

    def test_gradients_flow_through_derived_operator(self, rng):
        conv = nn.DerivedConv2d(4, 8, 3, padding=1,
                                config=nn.ConvTransformConfig(bottleneck_out=2), rng=rng)
        out = conv(Tensor(rng.normal(size=(1, 4, 4, 4))))
        out.sum().backward()
        grads = [p.grad for p in conv.parameters()]
        assert all(g is not None for g in grads)
