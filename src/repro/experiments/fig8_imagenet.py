"""Figure 8: ImageNet accuracy vs inference time (original vs Ours).

The paper applies the unified method to ResNet-18/34 and DenseNet-161/169/
201 trained on ImageNet, and plots accuracy against (log) inference time on
the Intel i7: every optimised network sits far to the left (much faster) at
essentially the same accuracy (within 2%).

The driver reproduces the series with the ImageNet-shaped synthetic
dataset: for every model it reports original and optimised inference time
(auto-tuned cost-model latency) and original vs optimised proxy accuracy.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.api import OptimizationSession
from repro.data import test_loader, train_loader
from repro.experiments.common import (
    ExperimentScale,
    format_table,
    get_scale,
    imagenet_dataset,
    imagenet_model_builders,
    network_latency,
    search_request,
)
from repro.experiments.registry import (
    ExperimentSpec,
    main as registry_main,
    register_experiment,
)
from repro.nn.trainer import proxy_fit


@dataclass
class Fig8Point:
    model: str
    original_latency_ms: float
    optimized_latency_ms: float
    original_accuracy: float
    optimized_accuracy: float
    original_parameters: int
    optimized_parameters: int

    @property
    def speedup(self) -> float:
        return self.original_latency_ms / max(self.optimized_latency_ms, 1e-9)

    @property
    def accuracy_drop(self) -> float:
        return self.original_accuracy - self.optimized_accuracy


@dataclass
class Fig8Result:
    points: list[Fig8Point] = field(default_factory=list)

    def all_faster(self) -> bool:
        return all(point.speedup > 1.0 for point in self.points)

    def max_accuracy_drop(self) -> float:
        return max((point.accuracy_drop for point in self.points), default=0.0)


def run(scale: str | ExperimentScale = "ci", seed: int = 0, platform: str = "cpu",
        models: tuple[str, ...] | None = None) -> Fig8Result:
    scale = get_scale(scale)
    builders = imagenet_model_builders(scale)
    if models is not None:
        builders = {name: builders[name] for name in models}
    dataset = imagenet_dataset(scale, seed=seed)
    # The search knobs are the pipeline's; the network is the ImageNet one.
    pipeline = dataclasses.replace(scale.pipeline, width_multiplier=scale.imagenet_width,
                                   image_size=scale.imagenet_image_size)
    images, labels = dataset.random_minibatch(pipeline.fisher_batch, seed=seed)
    loader = train_loader(dataset, batch_size=scale.proxy_batch, seed=seed)
    held_out = test_loader(dataset)

    result = Fig8Result()
    # One session, so one engine for the whole model family: the ResNets and
    # DenseNets share many convolution shapes, so the later models tune
    # almost nothing new.
    with OptimizationSession(platform, tuner_trials=pipeline.tuner_trials,
                             seed=seed) as session:
        for name, builder in builders.items():
            original = builder()
            original_latency = network_latency(original, dataset.spec.image_shape,
                                               session.engine())
            original_fit = proxy_fit(builder(), loader, held_out,
                                     epochs=scale.proxy_epochs)

            search_model = builder()
            optimization = session.search(
                search_model, images, labels,
                search_request(pipeline, search_model, platform, seed))
            optimized = optimization.apply_to(builder())
            # Latency accounting mirrors Figure 4: the compiled network consists
            # of the transformed loop nests the search selected, so its latency
            # is the original's with the searched layers' baseline cost swapped
            # for the optimised cost.  The materialised module is used for
            # accuracy and parameter counting only.
            optimized_latency = (original_latency
                                 - optimization.baseline_latency_seconds
                                 + optimization.optimized_latency_seconds)
            optimized_fit = proxy_fit(optimized, loader, held_out,
                                      epochs=scale.proxy_epochs)

            result.points.append(Fig8Point(
                model=name,
                original_latency_ms=original_latency * 1e3,
                optimized_latency_ms=optimized_latency * 1e3,
                original_accuracy=100.0 * original_fit.final_accuracy,
                optimized_accuracy=100.0 * optimized_fit.final_accuracy,
                original_parameters=builder().num_parameters(),
                optimized_parameters=optimized.num_parameters(),
            ))
    return result


def format_report(result: Fig8Result) -> str:
    rows = [(p.model, p.original_latency_ms, p.optimized_latency_ms, p.speedup,
             p.original_accuracy, p.optimized_accuracy) for p in result.points]
    table = format_table(
        ["model", "orig ms", "ours ms", "speedup", "orig acc %", "ours acc %"], rows)
    notes = (f"every optimised model is faster: {result.all_faster()}\n"
             f"largest accuracy drop: {result.max_accuracy_drop():.2f} points")
    return f"Figure 8: ImageNet accuracy vs inference time (Intel i7)\n{table}\n{notes}"


def to_payload(result: Fig8Result) -> dict:
    return {
        "points": [{"model": p.model,
                    "original_latency_ms": p.original_latency_ms,
                    "optimized_latency_ms": p.optimized_latency_ms,
                    "speedup": p.speedup,
                    "original_accuracy": p.original_accuracy,
                    "optimized_accuracy": p.optimized_accuracy,
                    "original_parameters": p.original_parameters,
                    "optimized_parameters": p.optimized_parameters}
                   for p in result.points],
        "all_faster": result.all_faster(),
        "max_accuracy_drop": result.max_accuracy_drop(),
    }


register_experiment(ExperimentSpec(
    name="fig8",
    title="Figure 8: ImageNet accuracy vs inference time (original vs Ours)",
    description=__doc__.strip().splitlines()[0],
    run=run, report=format_report, payload=to_payload,
    options=("platform", "models"),
))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(registry_main("fig8"))
