"""Deployment study: one trained network, all four targets.

This is the workload the paper's introduction motivates: the same network
must be deployed on a server CPU, a server GPU, a mobile CPU and a mobile
GPU, and the right combination of neural and program transformations
differs per target.  The driver mirrors one row of Figure 4 across every
platform, reporting — per target — the TVM-baseline latency, the NAS and
unified-search speedups, the Fisher rejection rate and the sequences the
search chose, so the per-target divergence the paper argues for is
directly visible.  ``examples/deploy_across_platforms.py`` delegates here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.api import OptimizationSession
from repro.experiments.common import (
    CIFAR_NETWORKS,
    FIGURE4_PLATFORMS,
    ComparisonResult,
    ExperimentScale,
    cifar_dataset,
    cifar_model_builders,
    compare_approaches,
    format_table,
    get_scale,
)
from repro.experiments.registry import (
    ExperimentSpec,
    main as registry_main,
    register_experiment,
)


@dataclass
class DeployResult:
    """Per-platform comparison for one network."""

    network: str = ""
    panels: dict[str, ComparisonResult] = field(default_factory=dict)

    def chosen_sequences(self, platform: str, top: int = 3) -> list[tuple[str, int]]:
        """The ``top`` neural programs the search chose most often, by kind."""
        layers = self.panels[platform].optimization.layers
        return Counter(decision.program.kind for decision in layers
                       if decision.is_neural).most_common(top)

    def best_platform_for_ours(self) -> str:
        """The target where the unified search wins the most over TVM."""
        return max(self.panels, key=lambda p: self.panels[p].speedups()["Ours"])

    def rows(self) -> list[tuple]:
        rows = []
        for platform, panel in self.panels.items():
            speedups = panel.speedups()
            top = ", ".join(f"{kind}x{count}"
                            for kind, count in self.chosen_sequences(platform))
            rows.append((platform, panel.tvm.latency_ms, speedups["NAS"],
                         speedups["Ours"],
                         panel.optimization.search_statistics["rejection_rate"],
                         top))
        return rows


def run(scale: str | ExperimentScale = "ci", seed: int = 0,
        network: str = "ResNet-34",
        platforms: tuple[str, ...] = FIGURE4_PLATFORMS) -> DeployResult:
    scale = get_scale(scale)
    builders = cifar_model_builders(scale)
    if network not in builders:
        raise KeyError(f"unknown network '{network}'; expected one of "
                       f"{sorted(CIFAR_NETWORKS)}")
    dataset = cifar_dataset(scale, seed=seed)
    result = DeployResult(network=network)
    with OptimizationSession(tuner_trials=scale.pipeline.tuner_trials,
                             seed=seed) as session:
        for platform in platforms:
            result.panels[platform] = compare_approaches(
                network, builders[network], platform, session=session,
                scale=scale.pipeline, dataset=dataset, seed=seed)
    return result


def format_report(result: DeployResult) -> str:
    table = format_table(
        ["platform", "TVM ms", "NAS x", "Ours x", "rejected", "chosen sequences"],
        [(platform, f"{tvm:.2f}", f"{nas:.2f}", f"{ours:.2f}",
          f"{100 * rejected:.0f}%", top)
         for platform, tvm, nas, ours, rejected, top in result.rows()])
    notes = ("the right transformation mix differs per target, which is the "
             "point of unifying the two search spaces\n"
             f"largest unified-search win: {result.best_platform_for_ours()}")
    return (f"Deployment study: {result.network} on every target\n"
            f"{table}\n{notes}")


def to_payload(result: DeployResult) -> dict:
    return {
        "network": result.network,
        "platforms": [
            {"platform": platform,
             "tvm_latency_ms": panel.tvm.latency_ms,
             "speedups": panel.speedups(),
             "rejection_rate":
                 panel.optimization.search_statistics["rejection_rate"],
             "rejections_by_primitive": dict(
                 panel.optimization.search_statistics["rejections_by_primitive"]),
             "chosen_sequences": dict(result.chosen_sequences(platform, top=10))}
            for platform, panel in result.panels.items()
        ],
        "best_platform_for_ours": result.best_platform_for_ours(),
    }


def primary_optimization(result: DeployResult):
    """The first target's unified-search result (None without targets)."""
    return next((panel.optimization for panel in result.panels.values()), None)


register_experiment(ExperimentSpec(
    name="deploy",
    title="Deployment study: one network across all four targets (§1)",
    description=__doc__.strip().splitlines()[0],
    run=run, report=format_report, payload=to_payload,
    primary=primary_optimization,
    options=("network", "platforms"),
))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(registry_main("deploy"))
