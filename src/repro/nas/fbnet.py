"""FBNet-like differentiable NAS baseline (§7.5, Figure 7).

The paper re-implements FBNet using the convolutional blocks of its NAS
candidate space and its three baseline networks as skeletons.  We do the
same: every replaceable convolution becomes a :class:`MixedOp` holding all
shape-compatible candidates; a softmax over per-layer architecture logits
weights the candidate outputs; the training loss is cross-entropy plus a
latency penalty computed from the analytic cost model.  After supernet
training the argmax candidate is selected per layer.

This captures the two properties the paper contrasts against: FBNet needs
(proxy) training to make decisions, and it can only choose from the
pre-designed candidate list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data import DataLoader
from repro.errors import ModelError, SearchError
from repro.hardware.platform import PlatformSpec
from repro.nas.blockswap import _candidate_kinds_for
from repro.nn.blocks import iter_replaceable_convs
from repro.nn.convs import CANDIDATE_KINDS, build_candidate
from repro.nn.layers import Conv2d
from repro.nn.module import Module, Parameter
from repro.nn.optim import SGD
from repro.tensor import ops
from repro.tensor.tensor import Tensor
from repro.utils import make_rng


def _candidate_latency(kind: str, conv: Conv2d, input_hw: tuple[int, int],
                       platform: PlatformSpec) -> float:
    """Analytic latency of one candidate operator for the latency penalty."""
    from repro.poly.statement import ConvolutionShape
    from repro.tenir.autotune import AutoTuner
    from repro.tenir.expr import conv2d_compute, grouped_conv2d_compute

    spec = conv.workload(input_hw)
    shape = ConvolutionShape(
        c_out=spec["c_out"], c_in=spec["c_in"], h_out=spec["h_out"], w_out=spec["w_out"],
        k_h=spec["k_h"], k_w=spec["k_w"], stride=spec["stride"],
    )
    tuner = AutoTuner(trials=4, seed=0)
    if kind.startswith("group"):
        computation = grouped_conv2d_compute(shape, int(kind[len("group"):]))
    elif kind.startswith("bottleneck"):
        factor = int(kind[len("bottleneck"):])
        reduced = ConvolutionShape(shape.c_out // factor, shape.c_in, shape.h_out,
                                   shape.w_out, shape.k_h, shape.k_w, stride=shape.stride)
        computation = conv2d_compute(reduced)
    elif kind == "depthwise":
        depth = ConvolutionShape(shape.c_in, shape.c_in, shape.h_out, shape.w_out,
                                 shape.k_h, shape.k_w, groups=shape.c_in, stride=shape.stride)
        computation = grouped_conv2d_compute(depth, depth.c_in)
    elif kind == "spatial2":
        reduced = ConvolutionShape(shape.c_out, shape.c_in, max(shape.h_out // 2, 1),
                                   max(shape.w_out // 2, 1), shape.k_h, shape.k_w,
                                   stride=shape.stride)
        computation = conv2d_compute(reduced)
    else:
        computation = conv2d_compute(shape)
    return tuner.tune(computation, platform).seconds


class MixedOp(Module):
    """Weighted mixture of candidate operators with learnable logits."""

    def __init__(self, conv: Conv2d, kinds: list[str], latencies: list[float],
                 rng: np.random.Generator | None = None):
        super().__init__()
        if not kinds:
            raise ModelError("a MixedOp needs at least one candidate")
        rng = rng or make_rng()
        self.kinds = kinds
        self.latencies = np.asarray(latencies)
        self.alpha = Parameter(np.zeros(len(kinds)))
        self.candidates = []
        for index, kind in enumerate(kinds):
            candidate = build_candidate(kind, conv.in_channels, conv.out_channels,
                                        conv.kernel_size, stride=conv.stride,
                                        padding=conv.padding,
                                        rng=make_rng(int(rng.integers(0, 2 ** 31))))
            self.candidates.append(candidate)
            setattr(self, f"candidate{index}", candidate)

    def weights(self) -> Tensor:
        return ops.softmax(self.alpha.reshape(1, -1), axis=1).reshape(-1)

    def forward(self, x: Tensor) -> Tensor:
        # Summed in candidate order: the tape keeps the K outputs, and
        # neither a (K, N, C, H, W) stack nor a product per candidate.
        return ops.weighted_sum([candidate(x) for candidate in self.candidates],
                                self.weights())

    def expected_latency(self) -> Tensor:
        return (self.weights() * Tensor(self.latencies)).sum()

    def best_kind(self) -> str:
        return self.kinds[int(np.argmax(self.alpha.data))]


@dataclass
class FBNetResult:
    """Per-layer selections of the FBNet-like search."""

    selections: dict[str, str] = field(default_factory=dict)
    expected_latency_seconds: float = 0.0
    supernet_parameters: int = 0
    epochs_trained: int = 0

    def plan(self) -> dict[str, str]:
        return dict(self.selections)


class FBNetSearch:
    """Differentiable operator selection with a latency-aware loss."""

    def __init__(self, platform: PlatformSpec, *, latency_weight: float = 0.2,
                 epochs: int = 2, lr: float = 0.05,
                 candidate_kinds: tuple[str, ...] = CANDIDATE_KINDS,
                 seed: int | None = None):
        if epochs < 1:
            raise SearchError("FBNet needs at least one supernet training epoch")
        self.platform = platform
        self.latency_weight = latency_weight
        self.epochs = epochs
        self.lr = lr
        self.candidate_kinds = candidate_kinds
        self.seed = seed

    # ------------------------------------------------------------------
    def build_supernet(self, model: Module, input_hw: tuple[int, int]) -> dict[str, MixedOp]:
        """Replace every compatible convolution with a MixedOp, in place."""
        rng = make_rng(self.seed)
        mixed_ops: dict[str, MixedOp] = {}
        for name, owner, conv in iter_replaceable_convs(model):
            if not isinstance(conv, Conv2d):
                continue
            kinds = ["standard"] + _candidate_kinds_for(conv, self.candidate_kinds)
            kinds = [k for k in kinds if k != "spatial2"]  # shape-fragile in mixtures
            latencies = [_candidate_latency(kind, conv, input_hw, self.platform)
                         for kind in kinds]
            mixed = MixedOp(conv, kinds, latencies, rng=rng)
            setattr(owner, name.split(".")[-1], mixed)
            mixed_ops[name] = mixed
        if not mixed_ops:
            raise SearchError("the model exposes no replaceable convolutions")
        return mixed_ops

    def search(self, model: Module, loader: DataLoader,
               input_hw: tuple[int, int]) -> FBNetResult:
        """Train the supernet briefly and read off per-layer selections."""
        mixed_ops = self.build_supernet(model, input_hw)
        optimizer = SGD(model.parameters(), lr=self.lr, momentum=0.9)
        model.train()
        for _ in range(self.epochs):
            for images, labels in loader:
                logits = model(Tensor(images))
                loss = ops.cross_entropy(logits, labels)
                latency = None
                for mixed in mixed_ops.values():
                    term = mixed.expected_latency()
                    latency = term if latency is None else latency + term
                total = loss + latency * (self.latency_weight / max(len(mixed_ops), 1) * 1e3)
                optimizer.zero_grad()
                total.backward()
                optimizer.step()

        result = FBNetResult(supernet_parameters=model.num_parameters(),
                             epochs_trained=self.epochs)
        expected = 0.0
        for name, mixed in mixed_ops.items():
            result.selections[name] = mixed.best_kind()
            expected += float(mixed.expected_latency().data)
        result.expected_latency_seconds = expected
        return result
