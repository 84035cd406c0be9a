"""Fisher Potential (§5.2): the paper's representational legality metric.

For a convolution channel ``c`` with activation tensor ``A`` (N x W x H)
and loss gradient ``g`` of the same shape, the channel score is

    Delta_c = 1/(2N) * sum_n ( - sum_ij A_nij * g_nij )^2        (eq. 4)

A layer's score is the sum over its output channels (eq. 5), and the
Fisher Potential of a network is the sum of layer scores computed on a
single random minibatch at initialisation.  Proposed architectures whose
potential falls below the original's are rejected without training.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError
from repro.nn.layers import Conv2d
from repro.nn.module import Module
from repro.tensor import ops
from repro.tensor.tensor import Tensor, no_grad


def channel_fisher(activation: np.ndarray, gradient: np.ndarray) -> np.ndarray:
    """Per-channel Fisher scores from an (N, C, H, W) activation/gradient pair."""
    if activation.shape != gradient.shape:
        raise ModelError(
            f"activation {activation.shape} and gradient {gradient.shape} shapes differ")
    if activation.ndim != 4:
        raise ModelError(f"expected NCHW activations, got shape {activation.shape}")
    batch = activation.shape[0]
    per_example = -(activation * gradient).sum(axis=(2, 3))   # (N, C)
    return (per_example ** 2).sum(axis=0) / (2.0 * batch)      # (C,)


def layer_fisher(activation: np.ndarray, gradient: np.ndarray) -> float:
    """Layer score: sum of channel scores (eq. 5)."""
    return float(channel_fisher(activation, gradient).sum())


@dataclass
class LayerFisherRecord:
    """Everything recorded about one convolution during the Fisher pass."""

    name: str
    score: float
    input_activation: np.ndarray
    output_gradient: np.ndarray
    output_reference_std: np.ndarray
    output_shape: tuple[int, ...]
    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int
    padding: int
    groups: int
    input_hw: tuple[int, int]


@dataclass
class FisherProfile:
    """Per-layer Fisher scores of a network on one minibatch."""

    layers: dict[str, LayerFisherRecord] = field(default_factory=dict)
    loss: float = 0.0

    @property
    def total(self) -> float:
        """The network's Fisher Potential."""
        return sum(record.score for record in self.layers.values())

    def score_of(self, name: str) -> float:
        return self.layers[name].score

    def layer_names(self) -> list[str]:
        return list(self.layers)

    def scores(self) -> "FisherScores":
        """The per-layer scores alone, in layer order."""
        return FisherScores({name: record.score
                             for name, record in self.layers.items()})


@dataclass
class FisherScores:
    """Per-layer Fisher scores without the tensors the profile pass recorded.

    What the legality check and the search read of a network; a profile
    persisted in the cache store comes back as one.  ``total`` sums in
    layer order, exactly as :attr:`FisherProfile.total` does.
    """

    layers: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """The network's Fisher Potential."""
        return sum(self.layers.values())

    def score_of(self, name: str) -> float:
        return self.layers[name]


#: Names the rule that turns a profile into a candidate operator's score
#: (:func:`candidate_layer_fisher`'s local evaluation).  Every persisted
#: Fisher score is keyed by it: a change that alters any score must
#: change it.
FISHER_CRITERION = "local"

_SCALARS = (bool, int, float, str, type(None), np.generic)


def _hash_array(digest, name: str, array) -> None:
    array = np.ascontiguousarray(array)
    digest.update(repr((name, array.dtype.str, array.shape)).encode("utf-8"))
    digest.update(array.data)


def network_digest(model: Module) -> str:
    """sha1 of everything a Fisher score reads from ``model``.

    Covers every parameter's and buffer's name, dtype, shape and bytes,
    and every module's name, class and scalar attributes, so changing a
    weight, a stride or a padding gives another digest.

    Example::

        before = network_digest(model)
    """
    digest = hashlib.sha1()
    for name, module in model.named_modules():
        scalars = sorted(
            (attribute, value) for attribute, value in vars(module).items()
            if isinstance(value, _SCALARS) or (
                isinstance(value, (tuple, list))
                and all(isinstance(item, _SCALARS) for item in value)))
        kind = f"{type(module).__module__}.{type(module).__qualname__}"
        digest.update(repr((name, kind, scalars)).encode("utf-8"))
    for name, param in model.named_parameters():
        _hash_array(digest, name, param.data)
    for name, buffer in model.named_buffers():
        _hash_array(digest, name, buffer)
    return digest.hexdigest()


def minibatch_digest(images: np.ndarray, labels: np.ndarray) -> str:
    """sha1 of the dtype, shape and bytes of a Fisher minibatch.

    Example::

        digest = minibatch_digest(images, labels)
    """
    digest = hashlib.sha1()
    _hash_array(digest, "images", images)
    _hash_array(digest, "labels", labels)
    return digest.hexdigest()


def fisher_key(model: Module, images: np.ndarray,
               labels: np.ndarray) -> tuple[str, str, str]:
    """``(criterion, network digest, minibatch digest)``: what a score depends on.

    The engine adds the layer, the operator and its seed to key one
    candidate's score.

    Example::

        key = fisher_key(model, images, labels)
    """
    return (FISHER_CRITERION, network_digest(model),
            minibatch_digest(images, labels))


def _conv_layers(model: Module) -> list[tuple[str, Conv2d]]:
    convs = []
    for name, module in model.named_modules():
        if isinstance(module, Conv2d):
            convs.append((name, module))
    return convs


def fisher_profile(model: Module, images: np.ndarray, labels: np.ndarray) -> FisherProfile:
    """Run one forward/backward pass and collect per-layer Fisher scores.

    The model is evaluated in training mode (batch statistics) as in the
    reference implementation.  The scores read only activation gradients,
    so the pass takes every parameter off the tape and puts the input on
    it: the backward pass computes no weight or BN gamma/beta gradient.
    The caller's model comes back as it went in: the parameters'
    ``requires_grad`` flags, the BN running statistics the training-mode
    pass updates, the recording flags and the training mode are restored,
    and no parameter's ``.grad`` is touched.  The records hold the arrays
    the tape made, not copies: nothing writes into a tensor's data, and
    every gradient is an array of its own.  Only the caller's images are
    copied, since they are the first convolution's input.
    """
    convs = _conv_layers(model)
    parameters = list(model.parameters())
    grad_flags = [param.requires_grad for param in parameters]
    recording_flags = [conv.record_activations for _, conv in convs]
    buffers = [(buffer, buffer.copy()) for _, buffer in model.named_buffers()]
    was_training = model.training
    try:
        for param in parameters:
            param.requires_grad = False
        for _, conv in convs:
            conv.record_activations = True
            conv.last_input = None
            conv.last_output = None
        model.train(True)
        logits = model(Tensor(np.array(images, dtype=np.float64), requires_grad=True))
        loss = ops.cross_entropy(logits, np.asarray(labels))
        loss.backward()

        profile = FisherProfile(loss=float(loss.data))
        for name, conv in convs:
            output = conv.last_output
            if output is None or output.grad is None or conv.last_input is None:
                continue
            in_hw = conv.last_input.shape[2:]
            profile.layers[name] = LayerFisherRecord(
                name=name,
                score=layer_fisher(output.data, output.grad),
                input_activation=conv.last_input.data,
                output_gradient=output.grad,
                output_reference_std=output.data.std(axis=(0, 2, 3)),
                output_shape=tuple(output.shape),
                in_channels=conv.in_channels,
                out_channels=conv.out_channels,
                kernel_size=conv.kernel_size,
                stride=conv.stride,
                padding=conv.padding,
                groups=conv.groups,
                input_hw=(int(in_hw[0]), int(in_hw[1])),
            )
    finally:
        for param, flag in zip(parameters, grad_flags):
            param.requires_grad = flag
        for (_, conv), flag in zip(convs, recording_flags):
            conv.record_activations = flag
            conv.last_input = None
            conv.last_output = None
        for buffer, saved in buffers:
            buffer[...] = saved
        model.train(was_training)
    return profile


def network_fisher_potential(model: Module, images: np.ndarray, labels: np.ndarray) -> float:
    """The scalar Fisher Potential of a network on one minibatch."""
    return fisher_profile(model, images, labels).total


def candidate_layer_fisher(record: LayerFisherRecord, candidate: Module) -> float:
    """Fisher score of a candidate replacement for one convolution layer.

    The candidate is evaluated *locally*: the original layer's recorded
    input activations are pushed through the candidate, and the original
    layer's output gradient stands in for the candidate's (both produce
    tensors of identical shape, and at initialisation the upstream loss
    geometry is unchanged to first order).

    Because every convolution in the evaluated networks is followed by
    batch normalisation, the full-network score is insensitive to the raw
    scale of the convolution output (BN's backward divides the gradient by
    the batch standard deviation).  The local evaluation reproduces that
    invariance by rescaling the candidate's activations channel-wise to the
    original layer's channel standard deviations before applying eq. 4;
    without this, candidates built from stacked convolutions would be
    favoured purely for their larger initial variance.  This is the cheap
    evaluation mode used during search; DESIGN.md discusses the
    full-network alternative, which :func:`fisher_profile` supports
    directly.  The forward pass records no tape (:func:`no_grad`): only
    its values are read.
    """
    candidate.train(True)
    with no_grad():
        output = candidate(Tensor(record.input_activation))
    if tuple(output.shape) != record.output_shape:
        raise ModelError(
            f"candidate output shape {tuple(output.shape)} does not match the original "
            f"layer's {record.output_shape}")
    activation = _match_channel_scale(output.data, record)
    return layer_fisher(activation, record.output_gradient)


def _match_channel_scale(activation: np.ndarray, record: LayerFisherRecord) -> np.ndarray:
    """Rescale activations channel-wise to the original layer's channel stds."""
    candidate_std = activation.std(axis=(0, 2, 3), keepdims=True)
    reference_std = record.output_reference_std.reshape(1, -1, 1, 1)
    safe = np.where(candidate_std > 1e-12, candidate_std, 1.0)
    return activation / safe * reference_std
