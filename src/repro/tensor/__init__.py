"""Tape-based autograd tensor engine (NumPy substrate for PyTorch)."""

from repro.tensor.tensor import Tensor, concat, no_grad, pad2d
from repro.tensor.ops import (
    avg_pool2d,
    batch_norm2d,
    conv2d,
    conv_output_size,
    cross_entropy,
    dropout,
    global_avg_pool2d,
    im2col,
    col2im,
    linear,
    log_softmax,
    max_pool2d,
    softmax,
)
from repro.tensor.gradcheck import check_gradients, numerical_gradient
from repro.tensor import init

__all__ = [
    "Tensor",
    "concat",
    "no_grad",
    "pad2d",
    "avg_pool2d",
    "batch_norm2d",
    "conv2d",
    "conv_output_size",
    "cross_entropy",
    "dropout",
    "global_avg_pool2d",
    "im2col",
    "col2im",
    "linear",
    "log_softmax",
    "max_pool2d",
    "softmax",
    "check_gradients",
    "numerical_gradient",
    "init",
]
