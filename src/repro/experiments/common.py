"""Shared infrastructure for the experiment drivers.

Every driver accepts a ``scale`` ("ci" or "full").  The CI scale keeps the
network structure and every code path of the paper-scale experiment but
shrinks widths, image sizes and candidate counts so the whole suite runs on
the NumPy substrate in minutes; the full scale uses the paper's settings.
README.md's Experiments section lists the drivers, and DESIGN.md §4 gives
the scale knobs.

A driver is a client of one :class:`~repro.api.OptimizationSession` per
run: it reads baseline latencies from the session's engines and runs the
unified search through :meth:`~repro.api.OptimizationSession.search`, on a
request :func:`search_request` builds from the scale.  The Figure-4
comparison of the three approaches (:func:`compare_approaches`) lives here,
beside the drivers that report it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.api import OptimizationRequest, OptimizationResult, OptimizationSession
from repro.core.workloads import extract_workloads
from repro.data import SyntheticImageDataset
from repro.errors import ReproError
from repro.models import densenet161, densenet169, densenet201, resnet18, resnet34, resnext29_2x64d
from repro.nas.blockswap import BlockSwap, BlockSwapResult
from repro.nn.module import Module

#: Platform names in the order used by Figure 4.
FIGURE4_PLATFORMS = ("cpu", "gpu", "mcpu", "mgpu")

#: The three CIFAR-10 evaluation networks of the paper.
CIFAR_NETWORKS = ("ResNet-34", "ResNeXt-29-2x64d", "DenseNet-161")


@dataclass(frozen=True)
class PipelineScale:
    """Knobs that trade fidelity for runtime (see DESIGN.md §4)."""

    width_multiplier: float = 0.5
    image_size: int = 32
    fisher_batch: int = 4
    configurations: int = 150
    tuner_trials: int = 6
    blockswap_budget: float = 0.45
    train_size: int = 96
    test_size: int = 48

    @classmethod
    def ci(cls) -> "PipelineScale":
        """Small settings used by the benchmark harness."""
        return cls()

    @classmethod
    def full(cls) -> "PipelineScale":
        """Paper-scale settings (hours of NumPy compute; shapes unchanged)."""
        return cls(width_multiplier=1.0, image_size=32,
                   fisher_batch=32, configurations=1000, tuner_trials=32,
                   blockswap_budget=0.5, train_size=50000, test_size=10000)


@dataclass(frozen=True)
class ExperimentScale:
    """Scale knobs shared by the experiment drivers."""

    name: str
    pipeline: PipelineScale
    cell_samples: int = 8
    cell_epochs: int = 2
    proxy_epochs: int = 2
    proxy_batch: int = 32
    fbnet_epochs: int = 1
    imagenet_image_size: int = 24
    imagenet_width: float = 0.25
    imagenet_depth: float = 0.25
    interpolation_steps: int = 2

    @classmethod
    def ci(cls) -> "ExperimentScale":
        return cls(name="ci", pipeline=PipelineScale.ci())

    @classmethod
    def full(cls) -> "ExperimentScale":
        return cls(
            name="full", pipeline=PipelineScale.full(), cell_samples=15625,
            cell_epochs=200, proxy_epochs=200, proxy_batch=128, fbnet_epochs=90,
            imagenet_image_size=224, imagenet_width=1.0, imagenet_depth=1.0,
            interpolation_steps=6,
        )


def get_scale(scale: str | ExperimentScale) -> ExperimentScale:
    if isinstance(scale, ExperimentScale):
        return scale
    if scale == "ci":
        return ExperimentScale.ci()
    if scale == "full":
        return ExperimentScale.full()
    raise ReproError(f"unknown scale '{scale}'; expected 'ci' or 'full'")


def cifar_model_builders(scale: ExperimentScale) -> dict[str, Callable[[], Module]]:
    """Builders for the three CIFAR-10 networks at the requested scale."""
    width = scale.pipeline.width_multiplier
    dense_depth = 0.5 if scale.name == "ci" else 1.0
    return {
        "ResNet-34": lambda: resnet34(width_multiplier=width),
        "ResNeXt-29-2x64d": lambda: resnext29_2x64d(width_multiplier=width),
        "DenseNet-161": lambda: densenet161(width_multiplier=width,
                                            depth_multiplier=dense_depth),
    }


def imagenet_model_builders(scale: ExperimentScale) -> dict[str, Callable[[], Module]]:
    """Builders for the Figure-8 ImageNet model family."""
    width = scale.imagenet_width
    depth = scale.imagenet_depth
    classes = 1000 if scale.name == "full" else 20
    return {
        "ResNet-18": lambda: resnet18(width_multiplier=width, num_classes=classes,
                                      imagenet_stem=True),
        "ResNet-34": lambda: resnet34(width_multiplier=width, num_classes=classes,
                                      imagenet_stem=True),
        "DenseNet-161": lambda: densenet161(width_multiplier=width, depth_multiplier=depth,
                                            num_classes=classes),
        "DenseNet-169": lambda: densenet169(width_multiplier=width, depth_multiplier=depth,
                                            num_classes=classes),
        "DenseNet-201": lambda: densenet201(width_multiplier=width, depth_multiplier=depth,
                                            num_classes=classes),
    }


def cifar_dataset(scale: ExperimentScale, seed: int = 0) -> SyntheticImageDataset:
    pipeline = scale.pipeline
    return SyntheticImageDataset.cifar10_like(
        train_size=pipeline.train_size, test_size=pipeline.test_size,
        image_size=pipeline.image_size, seed=seed)


def imagenet_dataset(scale: ExperimentScale, seed: int = 0) -> SyntheticImageDataset:
    classes = 1000 if scale.name == "full" else 20
    return SyntheticImageDataset.imagenet_like(
        train_size=scale.pipeline.train_size, test_size=scale.pipeline.test_size,
        image_size=scale.imagenet_image_size, num_classes=classes, seed=seed)


def search_request(scale: PipelineScale, model: Module, platform: str,
                   seed: int, strategy: str = "greedy") -> OptimizationRequest:
    """The request a driver's unified search of ``model`` runs under.

    The search knobs are the scale's.  The drivers build their networks
    themselves, so the request names ``model`` by its instance marker.
    """
    return OptimizationRequest(
        model=f"instance:{type(model).__name__}", platform=platform,
        strategy=strategy, configurations=scale.configurations,
        tuner_trials=scale.tuner_trials, seed=seed,
        width_multiplier=scale.width_multiplier, image_size=scale.image_size,
        fisher_batch=scale.fisher_batch)


# ---------------------------------------------------------------------------
# Figure 4: one network compiled three ways
# ---------------------------------------------------------------------------
@dataclass
class ApproachMeasurement:
    """Latency of one approach on one platform."""

    name: str
    latency_seconds: float
    parameters: int

    @property
    def latency_ms(self) -> float:
        return self.latency_seconds * 1e3


@dataclass
class ComparisonResult:
    """TVM vs NAS vs Ours for one network / platform pair (one Figure 4 panel)."""

    network: str
    platform: str
    tvm: ApproachMeasurement
    nas: ApproachMeasurement
    ours: ApproachMeasurement
    #: the unified search behind ``ours``
    optimization: OptimizationResult
    blockswap_result: BlockSwapResult

    def speedups(self) -> dict[str, float]:
        """Speedup over the TVM baseline (the y-axis of Figure 4)."""
        base = self.tvm.latency_seconds
        return {
            "TVM": 1.0,
            "NAS": base / self.nas.latency_seconds,
            "Ours": base / self.ours.latency_seconds,
        }


def network_latency(model: Module, input_shape: tuple[int, int, int],
                    engine) -> float:
    """Auto-tuned latency of every convolution in ``model``, summed.

    ``engine`` is a session's (:meth:`~repro.api.OptimizationSession.engine`).
    """
    return engine.workloads_latency(extract_workloads(model, input_shape))


def compare_approaches(network: str, model_builder: Callable[[], Module],
                       platform: str, *, session: OptimizationSession,
                       scale: PipelineScale, dataset: SyntheticImageDataset,
                       seed: int = 0) -> ComparisonResult:
    """Produce one Figure-4 panel: TVM vs NAS vs Ours for one network/platform.

    * ``TVM``  — the original network, every convolution compiled with the
      auto-tuned default schedule;
    * ``NAS``  — the BlockSwap-compressed network, compiled the same way;
    * ``Ours`` — the session's unified search, interleaving neural and
      program transformations with Fisher-Potential legality.

    All three read their latencies from the session's engine for
    ``(platform, scale.tuner_trials, seed)``, so each unique workload is
    tuned once per platform across every panel the session runs.
    """
    engine = session.engine(platform, tuner_trials=scale.tuner_trials, seed=seed)
    input_shape = dataset.spec.image_shape
    images, labels = dataset.random_minibatch(scale.fisher_batch, seed=seed)

    # --- TVM baseline: original model, tuned default schedules.
    tvm_model = model_builder()
    tvm_latency = network_latency(tvm_model, input_shape, engine)
    tvm = ApproachMeasurement("TVM", tvm_latency, tvm_model.num_parameters())

    # --- NAS baseline: BlockSwap compression, then the same compilation.
    nas_model = model_builder()
    blockswap = BlockSwap(budget_ratio=scale.blockswap_budget, seed=seed)
    blockswap_result = blockswap.compress(nas_model, images, labels)
    nas_latency = network_latency(nas_model, input_shape, engine)
    nas = ApproachMeasurement("NAS", nas_latency, nas_model.num_parameters())

    # --- Ours: the unified search.
    ours_model = model_builder()
    optimization = session.search(
        ours_model, images, labels,
        search_request(scale, ours_model, platform, seed))
    # Convolutions outside the search's layers cost the same under every
    # approach.
    searched = optimization.programs()
    non_searched = engine.workloads_latency(
        w for w in extract_workloads(ours_model, input_shape)
        if w.name not in searched)
    ours_latency = optimization.optimized_latency_seconds + non_searched
    tvm_equivalent = optimization.baseline_latency_seconds + non_searched
    # Both totals come from identical engine cache entries; they can differ
    # only by floating-point summation order.
    if not np.isclose(tvm_latency, tvm_equivalent, rtol=1e-9, atol=1e-15):
        raise ReproError(
            f"latency accounting drift: the TVM baseline measured "
            f"{tvm_latency!r}s but the search's TVM-equivalent total is "
            f"{tvm_equivalent!r}s for {network} on {platform}")
    ours = ApproachMeasurement(
        "Ours", ours_latency,
        optimization.apply_to(model_builder()).num_parameters())

    return ComparisonResult(
        network=network, platform=platform, tvm=tvm, nas=nas, ours=ours,
        optimization=optimization, blockswap_result=blockswap_result)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a plain-text table (the experiment drivers' report format)."""
    cells = [[str(h) for h in headers]] + [[_format_cell(c) for c in row] for row in rows]
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
