"""Frozen reference: the NAS baselines' hand-written candidate operators — do not edit.

BlockSwap and FBNet once built their grouped, bottlenecked and spatially
bottlenecked candidates from these four classes, beside the
``DerivedConv2d`` that instantiates any operator the transformation IR
derives.  ``build_candidate`` now builds those candidates as
``DerivedConv2d`` from the configs their predefined programs derive; the
candidate tests pin it to these classes bit for bit: the same parameter
count, the same weights drawn in the same order, the same outputs and
input gradients, and the same ``ModelError`` on indivisible channels.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.layers import Conv2d
from repro.nn.module import Module
from repro.tensor import ops
from repro.tensor.tensor import Tensor


def _check_divisible(value: int, factor: int, what: str) -> None:
    if factor <= 0 or value % factor != 0:
        raise ModelError(f"{what}={value} must be divisible by factor {factor}")


class GroupedConv2d(Module):
    """Grouped convolution preserving the standard conv interface."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: int = 0, groups: int = 2,
                 rng: np.random.Generator | None = None):
        super().__init__()
        _check_divisible(in_channels, groups, "in_channels")
        _check_divisible(out_channels, groups, "out_channels")
        self.groups = groups
        self.conv = Conv2d(in_channels, out_channels, kernel_size, stride=stride,
                           padding=padding, groups=groups, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.conv(x)


class BottleneckConv2d(Module):
    """Output-channel bottlenecking followed by a pointwise expansion.

    The transformation reduces the number of filters by ``factor`` and a
    cheap 1x1 convolution restores the channel count so the operator can be
    substituted for a standard convolution.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: int = 0, factor: int = 2,
                 rng: np.random.Generator | None = None):
        super().__init__()
        _check_divisible(out_channels, factor, "out_channels")
        self.factor = factor
        reduced = out_channels // factor
        self.reduce = Conv2d(in_channels, reduced, kernel_size, stride=stride,
                             padding=padding, rng=rng)
        self.expand = Conv2d(reduced, out_channels, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.expand(self.reduce(x))


class InputBottleneckConv2d(Module):
    """Input-channel bottlenecking.

    Derived in the paper (§2.3) by interchanging the channel loops and
    re-applying bottlenecking: only the first ``C_in / factor`` input
    channels participate in the convolution.  This operator is *not*
    available in conventional NAS candidate lists.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: int = 0, factor: int = 2,
                 rng: np.random.Generator | None = None):
        super().__init__()
        _check_divisible(in_channels, factor, "in_channels")
        self.factor = factor
        self.kept_channels = in_channels // factor
        self.conv = Conv2d(self.kept_channels, out_channels, kernel_size,
                           stride=stride, padding=padding, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        kept = x[:, : self.kept_channels, :, :]
        return self.conv(kept)


class SpatialBottleneckConv2d(Module):
    """Spatial bottlenecking (§5.3): stride over H and W, convolve, upsample.

    The paper shows this operator is the composition
    ``interchange -> bottleneck(H) -> interchange -> bottleneck(W) -> interchange``;
    at the network level it computes the convolution on a grid reduced by
    ``factor`` in each spatial dimension and restores the resolution with
    nearest-neighbour upsampling.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: int = 0, factor: int = 2,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.factor = factor
        self.conv = Conv2d(in_channels, out_channels, kernel_size,
                           stride=stride * factor, padding=padding, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        reduced = self.conv(x)
        return ops.upsample_nearest2d(reduced, self.factor)
