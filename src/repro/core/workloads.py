"""Extract per-layer convolution workloads from a network.

The compiler side of the system needs, for every convolution in a model,
the loop-nest extents it will lower and schedule (a
:class:`~repro.poly.statement.ConvolutionShape`).  The extents depend on
the activation sizes flowing through the network, so the extractor runs a
single recording forward pass and reads each convolution's input size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import Conv2d
from repro.nn.module import Module
from repro.poly.statement import ConvolutionShape
from repro.tensor.tensor import Tensor, no_grad


@dataclass(frozen=True)
class LayerWorkload:
    """One convolution layer as seen by the compiler."""

    name: str
    shape: ConvolutionShape
    input_hw: tuple[int, int]
    kernel_size: int
    stride: int
    padding: int
    parameters: int

    @property
    def macs(self) -> int:
        return self.shape.macs()


def extract_workloads(model: Module, input_shape: tuple[int, int, int]) -> list[LayerWorkload]:
    """Run a recording forward pass and return every convolution's workload.

    ``input_shape`` is (channels, height, width) of a single example.  All
    convolutions in the model are included — stems, shortcuts and the
    convolutions inside substituted candidate operators — because they all
    contribute to the measured inference time.  Only the shapes are read,
    so the pass records no tape and runs a batch of zero examples: every
    activation has its full channel and spatial extent and no data.
    """
    convs: list[tuple[str, Conv2d]] = []
    for name, module in model.named_modules():
        if isinstance(module, Conv2d):
            convs.append((name, module))
            module.record_activations = True
            module.last_input = None

    was_training = model.training
    model.eval()
    with no_grad():
        model(Tensor(np.zeros((0,) + tuple(input_shape))))
    model.train(was_training)

    workloads: list[LayerWorkload] = []
    for name, conv in convs:
        conv.record_activations = False
        if conv.last_input is None:
            continue
        h, w = int(conv.last_input.shape[2]), int(conv.last_input.shape[3])
        conv.last_input = None
        conv.last_output = None
        spec = conv.workload((h, w))
        shape = ConvolutionShape(
            c_out=spec["c_out"], c_in=spec["c_in"], h_out=spec["h_out"],
            w_out=spec["w_out"], k_h=spec["k_h"], k_w=spec["k_w"],
            groups=spec["groups"], stride=spec["stride"],
        )
        workloads.append(LayerWorkload(
            name=name, shape=shape, input_hw=(h, w), kernel_size=conv.kernel_size,
            stride=conv.stride, padding=conv.padding, parameters=conv.num_parameters(),
        ))
    return workloads


def total_macs(workloads: list[LayerWorkload]) -> int:
    """Multiply-accumulate count of all convolutions in a network."""
    return sum(workload.macs for workload in workloads)


def unique_shapes(workloads: list[LayerWorkload]) -> dict[ConvolutionShape, int]:
    """Histogram of distinct convolution shapes (tuning work is shared)."""
    counts: dict[ConvolutionShape, int] = {}
    for workload in workloads:
        counts[workload.shape] = counts.get(workload.shape, 0) + 1
    return counts
