"""Interpolating between NAS models via parameterised transformations (§7.7).

Figure 9 of the paper starts from two BlockSwap models — NAS-A built from
grouped blocks with G=2 and NAS-B with G=4 — and shows that a chain of
parameterised transformations in the unified framework generates
intermediate operators (and therefore intermediate models) that a
traditional NAS could not express without a human adding each block type.
The intermediate points trade parameters against error and expose a Pareto
point between the two endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.program import TransformProgram
from repro.core.search import substitute_programs
from repro.core.sequences import predefined_program
from repro.data import SyntheticImageDataset, test_loader, train_loader
from repro.nn.blocks import iter_replaceable_convs
from repro.nn.layers import Conv2d
from repro.nn.trainer import proxy_fit


@dataclass(frozen=True)
class InterpolationPoint:
    """One model on the NAS-A ... NAS-B interpolation path."""

    label: str
    parameters: int
    error: float
    is_endpoint: bool
    blend: float                 # 0.0 = NAS-A (G=2) ... 1.0 = NAS-B (G=4)

    @property
    def accuracy(self) -> float:
        return 100.0 - self.error


@dataclass
class InterpolationResult:
    points: list[InterpolationPoint] = field(default_factory=list)

    def pareto_front(self) -> list[InterpolationPoint]:
        """Points not dominated in (parameters, error)."""
        front = []
        for point in self.points:
            dominated = any(
                other.parameters <= point.parameters and other.error < point.error
                or other.parameters < point.parameters and other.error <= point.error
                for other in self.points if other is not point
            )
            if not dominated:
                front.append(point)
        return sorted(front, key=lambda p: p.parameters)

    def has_new_pareto_point(self) -> bool:
        """True when an interpolated (non-endpoint) model sits on the front."""
        return any(not point.is_endpoint for point in self.pareto_front())


def interpolate_between_groupings(model_builder, dataset: SyntheticImageDataset, *,
                                  steps: int = 3, epochs: int = 2, batch_size: int = 32,
                                  seed: int = 0) -> InterpolationResult:
    """Reproduce Figure 9: NAS-A (G=2), NAS-B (G=4) and interpolated models.

    Endpoints apply a single grouping factor everywhere.  Interpolated
    models blend the two block types: a fraction of the layers keeps G=2,
    the rest uses G=4, and the midpoint uses the Sequence-3 operator (a
    per-layer split with G=2 on one half of the output channels and G=4 on
    the other) — an operator that only exists in the unified space.
    """
    result = InterpolationResult()
    group_a = predefined_program("group", group=2)
    group_b = predefined_program("group", group=4)
    mixed = predefined_program("seq3", group=2, group_second=4)

    def evaluate(label: str, chooser, blend: float, endpoint: bool) -> None:
        # Every ungrouped convolution gets the chooser's program for its
        # position among the replaceable convolutions.
        model = model_builder()
        decisions = [(name, chooser(index, conv), None) for index, (name, _owner, conv)
                     in enumerate(iter_replaceable_convs(model))
                     if isinstance(conv, Conv2d) and conv.groups == 1]
        substitute_programs(model, decisions, seed=seed)
        fit = proxy_fit(model, train_loader(dataset, batch_size=batch_size, seed=seed),
                        test_loader(dataset), epochs=epochs)
        result.points.append(InterpolationPoint(
            label=label, parameters=model.num_parameters(), error=fit.final_error,
            is_endpoint=endpoint, blend=blend))

    evaluate("NAS-A (G=2)", lambda index, conv: group_a, 0.0, True)
    evaluate("NAS-B (G=4)", lambda index, conv: group_b, 1.0, True)

    total_layers = sum(1 for _n, _o, conv in iter_replaceable_convs(model_builder())
                       if isinstance(conv, Conv2d) and conv.groups == 1)
    for step in range(1, steps + 1):
        blend = step / (steps + 1)
        cutoff = int(round(blend * total_layers))

        def chooser(index: int, conv: Conv2d, cutoff: int = cutoff) -> TransformProgram:
            return group_b if index < cutoff else group_a

        evaluate(f"interp-{blend:.2f}", chooser, blend, False)

    evaluate("seq3 (G=2|G=4)", lambda index, conv: mixed, 0.5, False)
    return result
