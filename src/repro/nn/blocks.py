"""Composite blocks used by the model zoo.

Each block exposes its *modifiable convolutions* (the ones NAS and the
unified search are allowed to replace) through ``replaceable_convs()``,
which returns ``(attribute name, module)`` pairs.  The BlockSwap baseline
and the unified optimizer both work against this interface.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import BatchNorm2d, Conv2d, Identity, ReLU
from repro.nn.module import Module, Sequential
from repro.tensor.tensor import Tensor, concat
from repro.utils import make_rng


class ConvBNReLU(Module):
    """Convolution -> batch norm -> ReLU, the basic unit of every network."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if padding is None:
            padding = kernel_size // 2
        self.conv = Conv2d(in_channels, out_channels, kernel_size, stride=stride,
                           padding=padding, rng=rng)
        self.bn = BatchNorm2d(out_channels)

    def forward(self, x: Tensor) -> Tensor:
        return self.bn(self.conv(x)).relu()

    def replaceable_convs(self) -> list[tuple[str, Module]]:
        return [("conv", self.conv)]


class BasicResidualBlock(Module):
    """ResNet basic block: two 3x3 convolutions with an identity shortcut."""

    def __init__(self, in_channels: int, out_channels: int, stride: int = 1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or make_rng()
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Module = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out))
        return (out + self.shortcut(x)).relu()

    def replaceable_convs(self) -> list[tuple[str, Module]]:
        return [("conv1", self.conv1), ("conv2", self.conv2)]


class ResNeXtBlock(Module):
    """ResNeXt block: 1x1 reduce, grouped 3x3, 1x1 expand, with a shortcut.

    ``cardinality`` is the number of groups and ``base_width`` the per-group
    width, following ResNeXt-29 (2x64d means cardinality 2, base width 64).
    """

    def __init__(self, in_channels: int, out_channels: int, *, cardinality: int = 2,
                 base_width: int = 64, widen_factor: int = 4, stride: int = 1,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or make_rng()
        width_ratio = out_channels / (widen_factor * 64.0)
        inner = max(cardinality, cardinality * int(base_width * width_ratio))
        self.conv_reduce = Conv2d(in_channels, inner, 1, rng=rng)
        self.bn_reduce = BatchNorm2d(inner)
        self.conv_grouped = Conv2d(inner, inner, 3, stride=stride, padding=1,
                                   groups=cardinality, rng=rng)
        self.bn_grouped = BatchNorm2d(inner)
        self.conv_expand = Conv2d(inner, out_channels, 1, rng=rng)
        self.bn_expand = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Module = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn_reduce(self.conv_reduce(x)).relu()
        out = self.bn_grouped(self.conv_grouped(out)).relu()
        out = self.bn_expand(self.conv_expand(out))
        return (out + self.shortcut(x)).relu()

    def replaceable_convs(self) -> list[tuple[str, Module]]:
        return [("conv_grouped", self.conv_grouped)]


class DenseLayer(Module):
    """DenseNet layer: BN -> ReLU -> 1x1 conv -> BN -> ReLU -> 3x3 conv.

    The output (``growth_rate`` channels) is concatenated onto the input by
    the enclosing :class:`DenseBlock`.
    """

    def __init__(self, in_channels: int, growth_rate: int, *, bn_size: int = 4,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or make_rng()
        inner = bn_size * growth_rate
        self.bn1 = BatchNorm2d(in_channels)
        self.conv1 = Conv2d(in_channels, inner, 1, rng=rng)
        self.bn2 = BatchNorm2d(inner)
        self.conv2 = Conv2d(inner, growth_rate, 3, padding=1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        out = self.conv1(self.bn1(x).relu())
        out = self.conv2(self.bn2(out).relu())
        return out

    def replaceable_convs(self) -> list[tuple[str, Module]]:
        return [("conv1", self.conv1), ("conv2", self.conv2)]


class DenseBlock(Module):
    """A stack of dense layers with cumulative channel concatenation."""

    def __init__(self, num_layers: int, in_channels: int, growth_rate: int, *,
                 bn_size: int = 4, rng: np.random.Generator | None = None):
        super().__init__()
        self.layers = []
        channels = in_channels
        for index in range(num_layers):
            layer = DenseLayer(channels, growth_rate, bn_size=bn_size, rng=rng)
            self.layers.append(layer)
            setattr(self, f"denselayer{index}", layer)
            channels += growth_rate
        self.out_channels = channels

    def forward(self, x: Tensor) -> Tensor:
        features = x
        for layer in self.layers:
            new = layer(features)
            features = concat([features, new], axis=1)
        return features

    def replaceable_convs(self) -> list[tuple[str, Module]]:
        pairs = []
        for index, layer in enumerate(self.layers):
            for name, conv in layer.replaceable_convs():
                pairs.append((f"denselayer{index}.{name}", conv))
        return pairs


class TransitionLayer(Module):
    """DenseNet transition: BN -> ReLU -> 1x1 conv -> 2x2 average pool."""

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.bn = BatchNorm2d(in_channels)
        self.conv = Conv2d(in_channels, out_channels, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        from repro.tensor import ops

        out = self.conv(self.bn(x).relu())
        return ops.avg_pool2d(out, 2, 2)

    def replaceable_convs(self) -> list[tuple[str, Module]]:
        return [("conv", self.conv)]


def iter_replaceable_convs(model: Module) -> list[tuple[str, Module, Module]]:
    """Walk a model and collect every replaceable convolution.

    Returns ``(qualified name, owning block, conv module)`` triples.  The
    owning block is returned so callers can substitute the attribute.
    """
    found: list[tuple[str, Module, Module]] = []
    for prefix, module in model.named_modules():
        collector = getattr(module, "replaceable_convs", None)
        if collector is None or isinstance(module, (DenseBlock,)):
            # DenseBlock delegates to its DenseLayers, which are visited on
            # their own; skipping it avoids double-counting.
            continue
        for name, conv in collector():
            qualified = f"{prefix}.{name}" if prefix else name
            found.append((qualified, module, conv))
    return found
