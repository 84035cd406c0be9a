"""Figure 6: layer-wise transformation sequences for ResNet-34 on the i7.

The paper takes the distinct convolution layers of ResNet-34 (the 11-layer
configuration of the original TVM paper's experiment), applies NAS grouping
(G=2) and the three case-study sequences to each, and reports the per-layer
speedup over the TVM baseline.  Some layers show no improvement because
Fisher Potential marks them too sensitive to compress.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import OptimizationSession
from repro.core.program import TransformProgram
from repro.core.sequences import paper_sequences, predefined_program
from repro.core.workloads import extract_workloads, unique_shapes
from repro.experiments.common import (
    ExperimentScale,
    cifar_dataset,
    format_table,
    get_scale,
)
from repro.experiments.registry import (
    ExperimentSpec,
    main as registry_main,
    register_experiment,
)
from repro.fisher import fisher_profile
from repro.models import resnet34
from repro.poly.statement import ConvolutionShape


@dataclass
class LayerRow:
    layer_index: int
    shape: ConvolutionShape
    baseline_seconds: float
    speedups: dict[str, float] = field(default_factory=dict)
    sensitive: bool = False


@dataclass
class Fig6Result:
    rows: list[LayerRow] = field(default_factory=list)
    sequences: tuple[str, ...] = ()

    def best_speedup(self, layer_index: int) -> float:
        row = self.rows[layer_index]
        return max(row.speedups.values()) if row.speedups else 1.0

    def sensitive_layers(self) -> list[int]:
        return [row.layer_index for row in self.rows if row.sensitive]


def run(scale: str | ExperimentScale = "ci", seed: int = 0, max_layers: int = 11,
        platform: str = "cpu") -> Fig6Result:
    scale = get_scale(scale)
    dataset = cifar_dataset(scale, seed=seed)
    model = resnet34(width_multiplier=scale.pipeline.width_multiplier)
    images, labels = dataset.random_minibatch(scale.pipeline.fisher_batch, seed=seed)
    profile = fisher_profile(model, images, labels)
    workloads = [w for w in extract_workloads(model, dataset.spec.image_shape)
                 if w.kernel_size == 3 and w.name in profile.layers]

    # Distinct layer configurations, mirroring the 11-layer TVM experiment.
    seen: dict[ConvolutionShape, str] = {}
    for workload in workloads:
        seen.setdefault(workload.shape, workload.name)
    distinct = list(seen.items())[:max_layers]

    # Layers in the top Fisher quartile are "sensitive": the paper reports
    # that 4 of the 11 layers receive no transformation for this reason.
    scores = sorted(profile.score_of(name) for _shape, name in distinct)
    cutoff = scores[int(len(scores) * 0.6)] if scores else 0.0

    sequences: dict[str, TransformProgram] = {
        "NAS (G=2)": predefined_program("group", group=2)}
    sequences.update({f"Seq.{i}": seq for i, seq in
                      enumerate(paper_sequences().values(), start=1)})

    result = Fig6Result(sequences=tuple(sequences))
    standard = predefined_program("standard")
    with OptimizationSession(platform, tuner_trials=scale.pipeline.tuner_trials,
                             seed=seed) as session:
        engine = session.engine()
        for index, (shape, name) in enumerate(distinct):
            baseline = engine.tuned_latency(shape, standard)
            row = LayerRow(layer_index=index, shape=shape, baseline_seconds=baseline,
                           sensitive=profile.score_of(name) >= cutoff)
            for label, sequence in sequences.items():
                if row.sensitive or not sequence.applicable(shape):
                    row.speedups[label] = 1.0
                    continue
                seconds = engine.tuned_latency(shape, sequence)
                row.speedups[label] = baseline / max(seconds, 1e-12)
            result.rows.append(row)
    return result


def format_report(result: Fig6Result) -> str:
    headers = ["layer", "C_out x C_in x HxW", "sensitive"] + list(result.sequences)
    rows = []
    for row in result.rows:
        shape = row.shape
        rows.append([row.layer_index, f"{shape.c_out}x{shape.c_in}x{shape.h_out}x{shape.w_out}",
                     "yes" if row.sensitive else "no"]
                    + [row.speedups.get(label, 1.0) for label in result.sequences])
    table = format_table(headers, rows)
    return "Figure 6: layer-wise speedup over TVM (ResNet-34, Intel i7)\n" + table


def to_payload(result: Fig6Result) -> dict:
    import dataclasses

    return {
        "sequences": list(result.sequences),
        "rows": [{"layer_index": row.layer_index,
                  "shape": dataclasses.asdict(row.shape),
                  "baseline_seconds": row.baseline_seconds,
                  "speedups": dict(row.speedups),
                  "sensitive": row.sensitive}
                 for row in result.rows],
        "sensitive_layers": result.sensitive_layers(),
    }


register_experiment(ExperimentSpec(
    name="fig6",
    title="Figure 6: layer-wise transformation sequences (ResNet-34 on i7)",
    description=__doc__.strip().splitlines()[0],
    run=run, report=format_report, payload=to_payload,
    options=("platform", "max_layers"),
))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(registry_main("fig6"))
