"""Figure 4: end-to-end speedup of TVM vs NAS vs Ours.

Three networks (ResNet-34, ResNeXt-29-2x64d, DenseNet-161), four platforms
(CPU, GPU, mCPU, mGPU), CIFAR-10-shaped inputs.  Every panel reports the
speedup of the three approaches relative to the TVM baseline.
"""

from __future__ import annotations

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
class Fig4Result:
    panels: dict[tuple[str, str], ComparisonResult] = field(default_factory=dict)

    def speedup(self, network: str, platform: str, approach: str) -> float:
        return self.panels[(network, platform)].speedups()[approach]

    def rows(self) -> list[tuple[str, str, float, float, float]]:
        rows = []
        for (network, platform), panel in self.panels.items():
            speedups = panel.speedups()
            rows.append((network, platform, speedups["TVM"], speedups["NAS"], speedups["Ours"]))
        return rows

    def ours_beats_nas_everywhere(self) -> bool:
        return all(panel.speedups()["Ours"] >= panel.speedups()["NAS"] * 0.999
                   for panel in self.panels.values())


def run(scale: str | ExperimentScale = "ci", seed: int = 0,
        networks: tuple[str, ...] = CIFAR_NETWORKS,
        platforms: tuple[str, ...] = FIGURE4_PLATFORMS) -> Fig4Result:
    scale = get_scale(scale)
    builders = cifar_model_builders(scale)
    dataset = cifar_dataset(scale, seed=seed)
    result = Fig4Result()
    # One session, so one engine per platform shared across the networks:
    # identical workloads appearing in several panels are tuned once.
    with OptimizationSession(tuner_trials=scale.pipeline.tuner_trials,
                             seed=seed) as session:
        for network in networks:
            for platform in platforms:
                result.panels[(network, platform)] = compare_approaches(
                    network, builders[network], platform, session=session,
                    scale=scale.pipeline, dataset=dataset, seed=seed)
    return result


def format_report(result: Fig4Result) -> str:
    table = format_table(["network", "platform", "TVM x", "NAS x", "Ours x"], result.rows())
    summary = f"Ours >= NAS on every panel: {result.ours_beats_nas_everywhere()}"
    return f"Figure 4: end-to-end speedup over the TVM baseline\n{table}\n{summary}"


def to_payload(result: Fig4Result) -> dict:
    return {
        "panels": [
            {
                "network": network, "platform": platform,
                "speedups": panel.speedups(),
                "latency_ms": {label: measurement.latency_ms
                               for label, measurement in (
                                   ("TVM", panel.tvm), ("NAS", panel.nas),
                                   ("Ours", panel.ours))},
                "parameters": {"TVM": panel.tvm.parameters,
                               "NAS": panel.nas.parameters,
                               "Ours": panel.ours.parameters},
                # Rejection accounting rides along per panel so --json
                # output differentiates *why* candidates died, not just
                # the headline speedups.
                "rejection_rate":
                    panel.optimization.search_statistics["rejection_rate"],
                "rejections_by_primitive": dict(
                    panel.optimization.search_statistics["rejections_by_primitive"]),
            }
            for (network, platform), panel in result.panels.items()
        ],
        "ours_beats_nas_everywhere": result.ours_beats_nas_everywhere(),
    }


def primary_optimization(result: Fig4Result):
    """The first panel's unified-search result (None without panels)."""
    return next((panel.optimization for panel in result.panels.values()), None)


register_experiment(ExperimentSpec(
    name="fig4",
    title="Figure 4: end-to-end speedup, TVM vs NAS vs Ours (3 nets x 4 targets)",
    description=__doc__.strip().splitlines()[0],
    run=run, report=format_report, payload=to_payload,
    primary=primary_optimization,
    options=("networks", "platforms"),
))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(registry_main("fig4"))
