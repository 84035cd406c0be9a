"""§7.2 analysis: accuracy, size, and search time of the unified approach.

The paper reports that (i) CIFAR-10 accuracy changes stay under 1% in
absolute terms, (ii) networks compress 2-3x in size, and (iii) the search
explores 1000 configurations in under five minutes on a CPU, discarding
roughly 90% of candidate transformation sequences through the Fisher
Potential legality check.  The driver measures all three for one network.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import OptimizationSession
from repro.data import test_loader, train_loader
from repro.experiments.common import (
    ExperimentScale,
    cifar_dataset,
    cifar_model_builders,
    format_table,
    get_scale,
    search_request,
)
from repro.experiments.registry import (
    ExperimentSpec,
    main as registry_main,
    register_experiment,
)
from repro.nn.trainer import proxy_fit


@dataclass
class AnalysisResult:
    network: str
    original_accuracy: float
    optimized_accuracy: float
    original_parameters: int
    optimized_parameters: int
    search_seconds: float
    configurations_evaluated: int
    rejection_rate: float
    speedup: float
    #: which primitive (or the network Fisher check) killed rejected
    #: candidates — the differentiated face of ``rejection_rate``
    rejections_by_primitive: dict[str, int] | None = None

    @property
    def accuracy_delta(self) -> float:
        return self.optimized_accuracy - self.original_accuracy

    @property
    def compression_ratio(self) -> float:
        return self.original_parameters / max(self.optimized_parameters, 1)


def run(scale: str | ExperimentScale = "ci", seed: int = 0,
        network: str = "ResNet-34", platform: str = "cpu",
        strategy: str = "greedy") -> AnalysisResult:
    scale = get_scale(scale)
    builder = cifar_model_builders(scale)[network]
    dataset = cifar_dataset(scale, seed=seed)
    images, labels = dataset.random_minibatch(scale.pipeline.fisher_batch, seed=seed)
    loader = train_loader(dataset, batch_size=scale.proxy_batch, seed=seed)
    held_out = test_loader(dataset)

    original_fit = proxy_fit(builder(), loader, held_out, epochs=scale.proxy_epochs)

    search_model = builder()
    request = search_request(scale.pipeline, search_model, platform, seed,
                             strategy=strategy)
    with OptimizationSession(tuner_trials=scale.pipeline.tuner_trials,
                             seed=seed) as session:
        optimization = session.search(search_model, images, labels, request)
    optimized = optimization.apply_to(builder())
    optimized_fit = proxy_fit(optimized, loader, held_out, epochs=scale.proxy_epochs)
    statistics = optimization.search_statistics

    return AnalysisResult(
        network=network,
        original_accuracy=100.0 * original_fit.final_accuracy,
        optimized_accuracy=100.0 * optimized_fit.final_accuracy,
        original_parameters=builder().num_parameters(),
        optimized_parameters=optimized.num_parameters(),
        search_seconds=statistics["search_seconds"],
        configurations_evaluated=statistics["configurations_evaluated"],
        rejection_rate=statistics["rejection_rate"],
        speedup=optimization.speedup,
        rejections_by_primitive=dict(statistics["rejections_by_primitive"]),
    )


def format_report(result: AnalysisResult) -> str:
    rows = [
        ("accuracy (original -> ours)", f"{result.original_accuracy:.1f}% -> "
                                        f"{result.optimized_accuracy:.1f}%"),
        ("accuracy delta", f"{result.accuracy_delta:+.2f} points"),
        ("parameters (original -> ours)", f"{result.original_parameters} -> "
                                          f"{result.optimized_parameters}"),
        ("compression", f"{result.compression_ratio:.2f}x"),
        ("estimated speedup", f"{result.speedup:.2f}x"),
        ("search time", f"{result.search_seconds:.1f}s"),
        ("candidates evaluated", str(result.configurations_evaluated)),
        ("rejection rate", f"{100 * result.rejection_rate:.0f}%"),
        ("rejections by primitive", ", ".join(
            f"{name}:{count}" for name, count in
            sorted((result.rejections_by_primitive or {}).items(),
                   key=lambda item: -item[1])) or "none"),
    ]
    table = format_table(["quantity", "value"], rows)
    return f"Search analysis ({result.network})\n{table}"


def to_payload(result: AnalysisResult) -> dict:
    return {
        "network": result.network,
        "original_accuracy": result.original_accuracy,
        "optimized_accuracy": result.optimized_accuracy,
        "accuracy_delta": result.accuracy_delta,
        "original_parameters": result.original_parameters,
        "optimized_parameters": result.optimized_parameters,
        "compression_ratio": result.compression_ratio,
        "search_seconds": result.search_seconds,
        "configurations_evaluated": result.configurations_evaluated,
        "rejection_rate": result.rejection_rate,
        "speedup": result.speedup,
        "rejections_by_primitive": dict(result.rejections_by_primitive or {}),
    }


register_experiment(ExperimentSpec(
    name="analysis",
    title="§7.2 analysis: accuracy, size and search time of the unified approach",
    description=__doc__.strip().splitlines()[0],
    run=run, report=format_report, payload=to_payload,
    options=("network", "platform", "strategy"),
))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(registry_main("analysis"))
