"""Figure 7: comparison against FBNet on the Intel i7.

The paper re-implements FBNet over its own candidate blocks and baseline
skeletons and finds that FBNet modestly improves over the NAS (BlockSwap)
baseline at a large training cost (~3 GPU-days per network), while the
unified approach outperforms it with no training.  The driver reproduces
the four bars per network: TVM, NAS, FBNet, Ours.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import OptimizationSession
from repro.data import train_loader
from repro.experiments.common import (
    CIFAR_NETWORKS,
    ExperimentScale,
    cifar_dataset,
    cifar_model_builders,
    compare_approaches,
    format_table,
    get_scale,
    network_latency,
)
from repro.experiments.registry import (
    ExperimentSpec,
    main as registry_main,
    register_experiment,
)
from repro.hardware import get_platform
from repro.nas.fbnet import FBNetSearch
from repro.nn.blocks import iter_replaceable_convs
from repro.nn.convs import build_candidate
from repro.nn.layers import Conv2d


@dataclass
class Fig7Row:
    network: str
    tvm: float = 1.0
    nas: float = 1.0
    fbnet: float = 1.0
    ours: float = 1.0
    fbnet_epochs: int = 0


@dataclass
class Fig7Result:
    rows: list[Fig7Row] = field(default_factory=list)

    def ours_beats_fbnet(self) -> bool:
        return all(row.ours >= row.fbnet * 0.999 for row in self.rows)

    def fbnet_needs_training(self) -> bool:
        return all(row.fbnet_epochs > 0 for row in self.rows)


def _apply_fbnet_plan(model, plan: dict[str, str]):
    """Substitute the FBNet-selected candidate operators into a fresh model."""
    replaceable = {name: (owner, conv) for name, owner, conv in iter_replaceable_convs(model)
                   if isinstance(conv, Conv2d)}
    for name, kind in plan.items():
        if kind == "standard" or name not in replaceable:
            continue
        owner, conv = replaceable[name]
        candidate = build_candidate(kind, conv.in_channels, conv.out_channels,
                                    conv.kernel_size, stride=conv.stride, padding=conv.padding)
        setattr(owner, name.split(".")[-1], candidate)
    return model


def run(scale: str | ExperimentScale = "ci", seed: int = 0,
        networks: tuple[str, ...] = CIFAR_NETWORKS, platform: str = "cpu") -> Fig7Result:
    scale = get_scale(scale)
    builders = cifar_model_builders(scale)
    dataset = cifar_dataset(scale, seed=seed)
    plat = get_platform(platform)
    result = Fig7Result()
    with OptimizationSession(tuner_trials=scale.pipeline.tuner_trials,
                             seed=seed) as session:
        for network in networks:
            comparison = compare_approaches(network, builders[network], platform,
                                            session=session, scale=scale.pipeline,
                                            dataset=dataset, seed=seed)
            speedups = comparison.speedups()

            fbnet_model = builders[network]()
            fbnet = FBNetSearch(plat, epochs=scale.fbnet_epochs, seed=seed)
            loader = train_loader(dataset, batch_size=scale.proxy_batch, seed=seed)
            hw = dataset.spec.image_shape[1:]
            outcome = fbnet.search(fbnet_model, loader, hw)
            selected = _apply_fbnet_plan(builders[network](), outcome.plan())
            fbnet_latency = network_latency(selected, dataset.spec.image_shape,
                                            session.engine(platform))
            result.rows.append(Fig7Row(
                network=network, tvm=1.0, nas=speedups["NAS"],
                fbnet=comparison.tvm.latency_seconds / fbnet_latency,
                ours=speedups["Ours"], fbnet_epochs=outcome.epochs_trained))
    return result


def format_report(result: Fig7Result) -> str:
    rows = [(r.network, r.tvm, r.nas, r.fbnet, r.ours) for r in result.rows]
    table = format_table(["network", "TVM x", "NAS x", "FBNet x", "Ours x"], rows)
    notes = (f"Ours >= FBNet on every network: {result.ours_beats_fbnet()}\n"
             f"FBNet required supernet training: {result.fbnet_needs_training()} "
             f"(Ours requires none)")
    return f"Figure 7: Intel i7 comparison against FBNet\n{table}\n{notes}"


def to_payload(result: Fig7Result) -> dict:
    return {
        "rows": [{"network": row.network, "TVM": row.tvm, "NAS": row.nas,
                  "FBNet": row.fbnet, "Ours": row.ours,
                  "fbnet_epochs": row.fbnet_epochs}
                 for row in result.rows],
        "ours_beats_fbnet": result.ours_beats_fbnet(),
        "fbnet_needs_training": result.fbnet_needs_training(),
    }


register_experiment(ExperimentSpec(
    name="fig7",
    title="Figure 7: comparison against FBNet on the Intel i7",
    description=__doc__.strip().splitlines()[0],
    run=run, report=format_report, payload=to_payload,
    options=("networks", "platform"),
))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(registry_main("fig7"))
