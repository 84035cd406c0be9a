"""The NAS-Bench-201-style cell search space (paper §3.2, Figure 2/3).

The space has exactly ``5^6 = 15625`` cells: four nodes, six forward edges,
five candidate operations per edge.  This module provides sampling and
enumeration utilities over the space plus the proxy evaluation (short
training on synthetic CIFAR) used to reproduce Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data import SyntheticImageDataset, test_loader, train_loader
from repro.models.skeleton import CellSkeleton, CellSpec, enumerate_cell_space
from repro.nn.trainer import proxy_fit
from repro.utils import make_rng


@dataclass(frozen=True)
class CellEvaluation:
    """Proxy-training outcome for one cell."""

    spec: CellSpec
    fisher_potential: float
    final_error: float
    parameters: int


def space_size() -> int:
    """15625 for the standard 4-node / 5-operation space."""
    return enumerate_cell_space()


def sample_cells(count: int, seed: int | None = None) -> list[CellSpec]:
    """Sample ``count`` distinct cells uniformly from the space."""
    rng = make_rng(seed)
    total = space_size()
    count = min(count, total)
    indices = rng.choice(total, size=count, replace=False)
    return [CellSpec.from_index(int(index)) for index in indices]


def build_cell_model(spec: CellSpec, *, num_cells: int = 3, init_channels: int = 8,
                     num_classes: int = 10, seed: int | None = None) -> CellSkeleton:
    """Instantiate a cell into the ResNet-like skeleton."""
    return CellSkeleton(spec, num_cells=num_cells, init_channels=init_channels,
                        num_classes=num_classes, rng=make_rng(seed))


def evaluate_cell(spec: CellSpec, dataset: SyntheticImageDataset, *,
                  epochs: int = 2, batch_size: int = 32, num_cells: int = 3,
                  init_channels: int = 8, seed: int | None = None) -> CellEvaluation:
    """Proxy-train one cell and report its final error and Fisher Potential.

    This is the workhorse of the Figure 3 reproduction: Fisher Potential is
    computed at initialisation on a single random minibatch; final error
    comes from the short proxy training run.
    """
    from repro.fisher import network_fisher_potential

    model = build_cell_model(spec, num_cells=num_cells, init_channels=init_channels,
                             num_classes=dataset.spec.num_classes, seed=seed)
    images, labels = dataset.random_minibatch(batch_size, seed=seed)
    potential = network_fisher_potential(model, images, labels)
    result = proxy_fit(model, train_loader(dataset, batch_size=batch_size, seed=seed),
                       test_loader(dataset), epochs=epochs)
    return CellEvaluation(
        spec=spec,
        fisher_potential=potential,
        final_error=result.final_error,
        parameters=model.num_parameters(),
    )
