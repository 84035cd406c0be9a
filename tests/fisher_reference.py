"""Frozen reference: Fisher scoring one operator at a time — do not edit.

The path the Fisher oracle ran before it scored a layer's operators as one
batch.  Each operator is a ``DerivedConv2d`` built from a fresh
``make_rng(seed)`` and scored the way ``candidate_layer_fisher`` read then:
its forward pass on the autograd tape, over im2col columns built for that
pass alone, rescaled to the original layer's channel deviations.  The batch
tests pin every oracle score to it bit for bit, and the Fisher scoring
benchmark times it as its baseline.  It shares only what the old code
shared (the operator, the convolution, eq. 4 and 5).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.fisher.potential import LayerFisherRecord, layer_fisher
from repro.nn.convs import ConvTransformConfig, DerivedConv2d
from repro.nn.module import Module
from repro.tensor.tensor import Tensor
from repro.utils import make_rng


def candidate_layer_fisher(record: LayerFisherRecord, candidate: Module) -> float:
    """A candidate's local Fisher score, forward pass on the tape."""
    candidate.train(True)
    output = candidate(Tensor(record.input_activation))
    if tuple(output.shape) != record.output_shape:
        raise ModelError(
            f"candidate output shape {tuple(output.shape)} does not match the original "
            f"layer's {record.output_shape}")
    activation = _match_channel_scale(output.data, record)
    return layer_fisher(activation, record.output_gradient)


def _match_channel_scale(activation: np.ndarray, record: LayerFisherRecord) -> np.ndarray:
    candidate_std = activation.std(axis=(0, 2, 3), keepdims=True)
    reference_std = record.output_reference_std.reshape(1, -1, 1, 1)
    safe = np.where(candidate_std > 1e-12, candidate_std, 1.0)
    return activation / safe * reference_std


def operator_fisher(record: LayerFisherRecord, config: ConvTransformConfig,
                    seed: int) -> float:
    """Score of the operator ``config`` derives for ``record``'s layer (``-inf`` if unbuildable)."""
    try:
        candidate = DerivedConv2d(
            record.in_channels, record.out_channels, record.kernel_size,
            stride=record.stride, padding=record.padding, config=config,
            rng=make_rng(seed))
        return candidate_layer_fisher(record, candidate)
    except ModelError:
        return -np.inf
