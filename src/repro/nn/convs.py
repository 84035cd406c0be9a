"""Convolution variants used by NAS and by the unified transformation space.

* :class:`DerivedConv2d`            — a convolution described by an arbitrary
  :class:`ConvTransformConfig`, i.e. the operator produced by a sequence of
  transformations from the unified search space.  Grouping, output- and
  input-channel bottlenecking and the §5.3 spatial bottleneck are all
  configs of it, and so are the NAS baselines' grouped, bottlenecked and
  spatial candidates (:func:`build_candidate`).
* :class:`DepthwiseSeparableConv2d` — a depthwise convolution followed by a
  1x1 pointwise one: the one NAS candidate no config describes.

Both preserve the (C_out, H, W) interface of the standard convolution they
replace so they can be dropped into an existing network without touching
its surrounding layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.nn.layers import Conv2d
from repro.nn.module import Module
from repro.tensor import ops
from repro.tensor.tensor import Tensor, concat
from repro.utils import make_rng


def _check_divisible(value: int, factor: int, what: str) -> None:
    if factor <= 0 or value % factor != 0:
        raise ModelError(f"{what}={value} must be divisible by factor {factor}")


class DepthwiseSeparableConv2d(Module):
    """Depthwise convolution followed by a pointwise (1x1) convolution."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: int = 0, rng: np.random.Generator | None = None):
        super().__init__()
        self.depthwise = Conv2d(in_channels, in_channels, kernel_size, stride=stride,
                                padding=padding, groups=in_channels, rng=rng)
        self.pointwise = Conv2d(in_channels, out_channels, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.pointwise(self.depthwise(x))


@dataclass(frozen=True)
class ConvTransformConfig:
    """Parameters of a derived convolution operator.

    The unified search space manipulates loop nests; this dataclass is the
    network-level summary of the resulting operator so it can be
    instantiated as a trainable module for Fisher / accuracy evaluation.
    It holds no schedule-only detail (unroll factors, loop orders), so two
    configs are equal exactly when they describe the same operator.

    ``group_factors`` may contain several factors: the output channels are
    split evenly and each split is grouped by its own factor (this is how
    the paper's Sequence 3 — ``split -> group -> interchange -> group`` —
    materialises as an operator).
    """

    bottleneck_out: int = 1
    bottleneck_in: int = 1
    spatial_bottleneck: int = 1
    group_factors: tuple[int, ...] = (1,)

    @classmethod
    def from_neural_transformations(cls, per_stage, *,
                                    source_in_channels: int) -> "ConvTransformConfig":
        """Fold the neural transformations of each produced loop nest into a
        network-level operator description.

        ``per_stage`` holds, for each loop nest the transform program
        produced, the neural transformations applied to it (the objects a
        :class:`~repro.tenir.schedule.Stage` records).  The fold keys on the
        canonical convolution iterators: shrinking ``co``/``ci`` is output/
        input bottlenecking, shrinking ``oh``/``ow`` is spatial
        bottlenecking, grouping contributes one group factor per nest and
        depthwise resolves to grouping by the effective input channels.
        Bottleneck factors are aggregated with ``max`` across nests, so
        per-nest asymmetries collapse to the strongest reduction.
        """
        # The polyhedral layer never imports nn, so pulling the concrete
        # transformation classes in here creates no cycle; keeping the
        # import local preserves the substrate's independence otherwise.
        from repro.poly.transforms import Bottleneck, Depthwise, Group

        bottleneck_out = bottleneck_in = 1
        spatial_h = spatial_w = 1
        group_factors: list[int | None] = []
        for transformations in per_stage:
            group: int | None = 1
            stage_out = stage_in = stage_h = stage_w = 1
            for transformation in transformations:
                if isinstance(transformation, Depthwise):
                    group = None  # resolved to the effective input channels below
                elif isinstance(transformation, Group):
                    # Only channel grouping has a network-level operator;
                    # groupings of other iterator pairs stay schedule-level.
                    if transformation.outer == "co" and transformation.inner == "ci":
                        group = (group or 1) * transformation.factor
                elif isinstance(transformation, Bottleneck):
                    if transformation.iterator == "co":
                        stage_out *= transformation.factor
                    elif transformation.iterator == "ci":
                        stage_in *= transformation.factor
                    elif transformation.iterator == "oh":
                        stage_h *= transformation.factor
                    elif transformation.iterator == "ow":
                        stage_w *= transformation.factor
            bottleneck_out = max(bottleneck_out, stage_out)
            bottleneck_in = max(bottleneck_in, stage_in)
            spatial_h = max(spatial_h, stage_h)
            spatial_w = max(spatial_w, stage_w)
            group_factors.append(group)
        effective_in = max(source_in_channels // bottleneck_in, 1)
        resolved = tuple(factor if factor is not None else effective_in
                         for factor in group_factors) or (1,)
        return cls(
            bottleneck_out=bottleneck_out,
            bottleneck_in=bottleneck_in,
            spatial_bottleneck=spatial_h if spatial_h == spatial_w else max(spatial_h,
                                                                            spatial_w),
            group_factors=resolved,
        )

    def compute_reduction(self) -> float:
        """Approximate factor by which multiply-accumulates are reduced."""
        group_reduction = len(self.group_factors) / sum(1.0 / g for g in self.group_factors)
        return (
            self.bottleneck_out
            * self.bottleneck_in
            * self.spatial_bottleneck ** 2
            * group_reduction
        )

    def describe(self) -> str:
        parts = []
        if self.bottleneck_out > 1:
            parts.append(f"bottleneck_out={self.bottleneck_out}")
        if self.bottleneck_in > 1:
            parts.append(f"bottleneck_in={self.bottleneck_in}")
        if self.spatial_bottleneck > 1:
            parts.append(f"spatial={self.spatial_bottleneck}")
        if any(g > 1 for g in self.group_factors):
            parts.append(f"groups={list(self.group_factors)}")
        return "standard" if not parts else ", ".join(parts)


class DerivedConv2d(Module):
    """A convolution operator synthesised by the unified transformation space.

    The module composes input-channel bottlenecking, spatial bottlenecking,
    per-split grouping and output-channel bottlenecking, preserving the
    interface of the standard convolution it replaces.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: int = 0,
                 config: ConvTransformConfig | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or make_rng()
        self.config = config or ConvTransformConfig()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

        cfg = self.config
        _check_divisible(in_channels, cfg.bottleneck_in, "in_channels")
        _check_divisible(out_channels, cfg.bottleneck_out, "out_channels")
        effective_in = in_channels // cfg.bottleneck_in
        effective_out = out_channels // cfg.bottleneck_out

        n_splits = len(cfg.group_factors)
        _check_divisible(effective_out, n_splits, "split out_channels")
        split_out = effective_out // n_splits
        self.splits = []
        for index, group in enumerate(cfg.group_factors):
            if effective_in % group != 0 or split_out % group != 0:
                raise ModelError(
                    f"group factor {group} does not divide channels "
                    f"({effective_in}->{split_out}) of split {index}"
                )
            conv = Conv2d(effective_in, split_out, kernel_size,
                          stride=stride * cfg.spatial_bottleneck, padding=padding,
                          groups=group, rng=rng)
            self.splits.append(conv)
            setattr(self, f"split{index}", conv)

        self.expand: Conv2d | None = None
        if cfg.bottleneck_out > 1:
            self.expand = Conv2d(effective_out, out_channels, 1, rng=rng)

    @property
    def effective_in_channels(self) -> int:
        return self.in_channels // self.config.bottleneck_in

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.config
        if cfg.bottleneck_in > 1:
            x = x[:, : self.effective_in_channels, :, :]
        pieces = [conv(x) for conv in self.splits]
        out = pieces[0] if len(pieces) == 1 else concat(pieces, axis=1)
        if cfg.spatial_bottleneck > 1:
            out = ops.upsample_nearest2d(out, cfg.spatial_bottleneck)
        if self.expand is not None:
            out = self.expand(out)
        return out

    def flops(self, input_hw: tuple[int, int]) -> int:
        """Multiply-accumulate count for one image, across all internal convs."""
        total = sum(conv.flops(input_hw) for conv in self.splits)
        if self.expand is not None:
            h, w = input_hw
            oh = ops.conv_output_size(h, self.kernel_size, self.stride, self.padding)
            ow = ops.conv_output_size(w, self.kernel_size, self.stride, self.padding)
            total += self.expand.flops((oh, ow))
        return total


#: The NAS baselines' candidates that a transform program derives, as the
#: configs of the predefined programs ``group`` (G = 2, 4), ``bottleneck``
#: (2, 4) and ``spatial_bottleneck`` (2).  ``depthwise`` is not here: the
#: NAS block adds a 1x1 pointwise convolution after the depthwise one, while
#: the IR's ``depthwise`` primitive is the single grouping G = C_o = C_i.
CANDIDATE_CONFIGS: dict[str, ConvTransformConfig] = {
    "group2": ConvTransformConfig(group_factors=(2,)),
    "group4": ConvTransformConfig(group_factors=(4,)),
    "bottleneck2": ConvTransformConfig(bottleneck_out=2),
    "bottleneck4": ConvTransformConfig(bottleneck_out=4),
    "spatial2": ConvTransformConfig(spatial_bottleneck=2),
}

#: Every candidate offered to the NAS baselines (BlockSwap / FBNet); the
#: unified search is *not* limited to this list.  BlockSwap draws one
#: initialisation seed per kind in this order.
CANDIDATE_KINDS: tuple[str, ...] = (
    "standard", "group2", "group4", "bottleneck2", "bottleneck4", "depthwise", "spatial2",
)


def build_candidate(kind: str, in_channels: int, out_channels: int, kernel_size: int, *,
                    stride: int = 1, padding: int = 0,
                    rng: np.random.Generator | None = None) -> Module:
    """Instantiate a named NAS candidate operator (one of :data:`CANDIDATE_KINDS`).

    ``standard`` is the convolution itself and ``depthwise`` a
    :class:`DepthwiseSeparableConv2d`; every other kind is the
    :class:`DerivedConv2d` of its :data:`CANDIDATE_CONFIGS` entry.
    """
    if kind == "standard":
        return Conv2d(in_channels, out_channels, kernel_size, stride=stride,
                      padding=padding, rng=rng)
    if kind == "depthwise":
        return DepthwiseSeparableConv2d(in_channels, out_channels, kernel_size,
                                        stride=stride, padding=padding, rng=rng)
    if kind not in CANDIDATE_CONFIGS:
        raise ModelError(f"unknown candidate operator kind '{kind}'")
    return DerivedConv2d(in_channels, out_channels, kernel_size, stride=stride,
                         padding=padding, config=CANDIDATE_CONFIGS[kind], rng=rng)
