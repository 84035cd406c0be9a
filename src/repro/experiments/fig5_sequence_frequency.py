"""Figure 5: frequency of operation application.

The paper counts how often the Table-1 operations appear in the
best-performing networks found by the unified search, per network:
ResNeXt-29 has the fewest instances (fewest layers) and DenseNet-161 the
most.  The driver runs the unified search on the three networks (on the
Intel i7 platform, as in the case studies) and reports, for every network,
how often each primitive was applied — derived directly from the chosen
transform programs' primitive applications in the sequence IR.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.api import OptimizationSession
from repro.experiments.common import (
    CIFAR_NETWORKS,
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


@dataclass
class Fig5Result:
    #: per network: primitive name -> number of applications in the chosen
    #: configuration (a five-step program contributes five counts)
    frequencies: dict[str, dict[str, int]] = field(default_factory=dict)
    #: per network: how many layers received a neural program
    neural_layer_counts: dict[str, int] = field(default_factory=dict)
    layer_counts: dict[str, int] = field(default_factory=dict)

    def count(self, network: str, primitive: str) -> int:
        return self.frequencies.get(network, {}).get(primitive, 0)

    def total(self, network: str) -> int:
        return sum(self.frequencies.get(network, {}).values())


def run(scale: str | ExperimentScale = "ci", seed: int = 0,
        networks: tuple[str, ...] = CIFAR_NETWORKS, platform: str = "cpu") -> Fig5Result:
    scale = get_scale(scale)
    builders = cifar_model_builders(scale)
    dataset = cifar_dataset(scale, seed=seed)
    images, labels = dataset.random_minibatch(scale.pipeline.fisher_batch, seed=seed)
    result = Fig5Result()
    with OptimizationSession(tuner_trials=scale.pipeline.tuner_trials,
                             seed=seed) as session:
        for network in networks:
            model = builders[network]()
            optimization = session.search(
                model, images, labels,
                search_request(scale.pipeline, model, platform, seed))
            neural = [decision.program for decision in optimization.layers
                      if decision.is_neural]
            result.frequencies[network] = dict(Counter(
                name for program in neural for name in program.primitive_names()))
            result.neural_layer_counts[network] = len(neural)
            result.layer_counts[network] = len(optimization.layers)
    return result


def format_report(result: Fig5Result) -> str:
    primitives = sorted({name for counts in result.frequencies.values()
                         for name in counts})
    rows = []
    for network, counts in result.frequencies.items():
        rows.append([network, result.layer_counts[network]]
                    + [counts.get(p, 0) for p in primitives])
    table = format_table(["network", "layers"] + primitives, rows)
    return f"Figure 5: frequency of operation application\n{table}"


def to_payload(result: Fig5Result) -> dict:
    return {
        "frequencies": {network: dict(counts)
                        for network, counts in result.frequencies.items()},
        "neural_layer_counts": dict(result.neural_layer_counts),
        "layer_counts": dict(result.layer_counts),
    }


register_experiment(ExperimentSpec(
    name="fig5",
    title="Figure 5: frequency of operation application in the best networks",
    description=__doc__.strip().splitlines()[0],
    run=run, report=format_report, payload=to_payload,
    options=("networks", "platform"),
))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(registry_main("fig5"))
