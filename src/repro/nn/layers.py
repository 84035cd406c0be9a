"""Standard neural-network layers (conv, linear, batch norm, pooling).

``Conv2d`` is the layer the paper's transformations target: every NAS
operation (grouping, bottlenecking, depthwise, spatial bottlenecking) is a
re-parameterisation of this layer, and Fisher Potential is computed from
its recorded output activations and their gradients.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.module import Module, Parameter
from repro.tensor import init, ops
from repro.tensor.tensor import Tensor
from repro.utils import make_rng


class Identity(Module):
    """Pass-through layer (one of the NAS-Bench-201 edge operations)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Zeroize(Module):
    """Outputs zeros of the same shape (the NAS-Bench-201 ``zeroize`` edge)."""

    def forward(self, x: Tensor) -> Tensor:
        return x * Tensor(np.zeros((1,)))


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        # No -1: NumPy cannot infer it for a batch of zero examples.
        return x.reshape(x.shape[0], int(np.prod(x.shape[1:])))


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or make_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_normal((out_features, in_features), rng=rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """2-D convolution with optional grouping.

    ``record_activations`` keeps a reference to the layer's input and output
    tensors, and marks the output to keep its gradient through
    :meth:`Tensor.backward`, so that Fisher Potential (activation x
    gradient, per channel) can be read after a backward pass.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *,
                 stride: int = 1, padding: int = 0, groups: int = 1, bias: bool = False,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if in_channels % groups != 0 or out_channels % groups != 0:
            raise ModelError(
                f"Conv2d channels ({in_channels}->{out_channels}) must be divisible by "
                f"groups={groups}"
            )
        rng = rng or make_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        weight_shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(weight_shape, rng=rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None
        self.record_activations = False
        self.last_input: Tensor | None = None
        self.last_output: Tensor | None = None

    def forward(self, x: Tensor) -> Tensor:
        out = ops.conv2d(x, self.weight, self.bias, stride=self.stride,
                         padding=self.padding, groups=self.groups)
        if self.record_activations:
            out.retain_grad()
            self.last_input = x
            self.last_output = out
        return out

    # Used by the compiler bridge and cost model to describe this layer as a
    # tensor computation, independent of the autograd substrate.
    def workload(self, input_hw: tuple[int, int]) -> dict[str, int]:
        """Describe this convolution's loop-nest extents for a given input size."""
        h, w = input_hw
        oh = ops.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        ow = ops.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return {
            "c_out": self.out_channels,
            "c_in": self.in_channels,
            "h_out": oh,
            "w_out": ow,
            "k_h": self.kernel_size,
            "k_w": self.kernel_size,
            "groups": self.groups,
            "stride": self.stride,
        }

    def flops(self, input_hw: tuple[int, int]) -> int:
        """Multiply-accumulate count for one input image."""
        spec = self.workload(input_hw)
        per_output = (spec["c_in"] // spec["groups"]) * spec["k_h"] * spec["k_w"]
        outputs = spec["c_out"] * spec["h_out"] * spec["w_out"]
        return 2 * per_output * outputs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding}, g={self.groups})"
        )


class BatchNorm2d(Module):
    """Batch normalisation over channels with running statistics."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return ops.batch_norm2d(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            training=self.training, momentum=self.momentum, eps=self.eps,
        )


class MaxPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return ops.max_pool2d(x, self.kernel_size, self.stride, self.padding)


class AvgPool2d(Module):
    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return ops.avg_pool2d(x, self.kernel_size, self.stride, self.padding)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops.global_avg_pool2d(x)
