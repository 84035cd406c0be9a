"""Shared infrastructure for the experiment drivers.

Every driver accepts a ``scale`` ("ci" or "full").  The CI scale keeps the
network structure and every code path of the paper-scale experiment but
shrinks widths, image sizes and candidate counts so the whole suite runs on
the NumPy substrate in minutes; the full scale uses the paper's settings.
README.md's Experiments section lists the drivers, and DESIGN.md §4 gives
the scale knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.engine import EvaluationEngine
from repro.core.pipeline import PipelineScale
from repro.data import SyntheticImageDataset
from repro.errors import ReproError
from repro.hardware.platform import PlatformSpec, get_platform
from repro.models import densenet161, densenet169, densenet201, resnet18, resnet34, resnext29_2x64d
from repro.nn.module import Module

#: Platform names in the order used by Figure 4.
FIGURE4_PLATFORMS = ("cpu", "gpu", "mcpu", "mgpu")

#: The three CIFAR-10 evaluation networks of the paper.
CIFAR_NETWORKS = ("ResNet-34", "ResNeXt-29-2x64d", "DenseNet-161")


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


def evaluation_engine(platform: str | PlatformSpec, scale: ExperimentScale,
                      seed: int = 0) -> EvaluationEngine:
    """One shared evaluation engine for a driver's work on one platform.

    Every latency query of a driver should go through a single engine per
    platform so tuning work is shared across approaches, networks and
    repeated runs.
    """
    spec = get_platform(platform) if isinstance(platform, str) else platform
    return EvaluationEngine(spec, tuner_trials=scale.pipeline.tuner_trials,
                            seed=seed)


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


def first_search_optimization(panels, strategy: str = "greedy", seed: int = 0):
    """The first panel's unified-search outcome as a façade result (or None).

    Shared ``primary`` extractor for registry specs built on
    :func:`~repro.core.pipeline.compare_approaches` panels; the registry
    passes the run's actual seed through.  ``strategy`` is the
    :class:`~repro.core.search.UnifiedSearch` default the pipeline uses.
    """
    from repro.api import OptimizationResult

    for panel in panels:
        if panel.search_result is not None:
            return OptimizationResult.from_search(panel.search_result,
                                                  strategy=strategy, seed=seed)
    return None


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
