"""Neural-network library built on the autograd tensor engine."""

from repro.nn.module import Module, ModuleList, Parameter, Sequential
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
    Zeroize,
)
from repro.nn.convs import (
    CANDIDATE_CONFIGS,
    CANDIDATE_KINDS,
    ConvTransformConfig,
    DepthwiseSeparableConv2d,
    DerivedConv2d,
    build_candidate,
)
from repro.nn.blocks import (
    BasicResidualBlock,
    ConvBNReLU,
    DenseBlock,
    DenseLayer,
    ResNeXtBlock,
    TransitionLayer,
    iter_replaceable_convs,
)
from repro.nn.optim import SGD, CosineLR, MultiStepLR
from repro.nn.metrics import AverageMeter, top1_error, top_k_accuracy
from repro.nn.trainer import Trainer, TrainingConfig, TrainingResult, proxy_fit

__all__ = [
    "Module", "ModuleList", "Parameter", "Sequential",
    "AvgPool2d", "BatchNorm2d", "Conv2d", "Flatten", "GlobalAvgPool2d", "Identity",
    "Linear", "MaxPool2d", "ReLU", "Zeroize",
    "CANDIDATE_CONFIGS", "CANDIDATE_KINDS", "ConvTransformConfig",
    "DepthwiseSeparableConv2d", "DerivedConv2d", "build_candidate",
    "BasicResidualBlock", "ConvBNReLU", "DenseBlock", "DenseLayer", "ResNeXtBlock",
    "TransitionLayer", "iter_replaceable_convs",
    "SGD", "CosineLR", "MultiStepLR",
    "AverageMeter", "top1_error", "top_k_accuracy",
    "Trainer", "TrainingConfig", "TrainingResult", "proxy_fit",
]
