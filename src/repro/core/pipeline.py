"""End-to-end pipeline: compile a network three ways and compare (Figure 4).

For a given network and platform the pipeline produces the paper's three
columns:

* ``TVM``  — the original network, every convolution compiled with the
  auto-tuned default schedule;
* ``NAS``  — the BlockSwap-compressed network, compiled the same way;
* ``Ours`` — the unified search interleaving neural and program
  transformations with Fisher-Potential legality.

All three approaches draw their latencies from one shared
:class:`~repro.core.engine.EvaluationEngine`, so each unique
(shape, sequence) pair is tuned exactly once per platform regardless of
how many approaches, networks or repeated runs ask for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.engine import EvaluationEngine
from repro.core.search import UnifiedSearch, UnifiedSearchResult
from repro.core.workloads import LayerWorkload, extract_workloads
from repro.data import SyntheticImageDataset
from repro.errors import ReproError
from repro.hardware.platform import PlatformSpec, get_platform
from repro.nas.blockswap import BlockSwap, BlockSwapResult
from repro.nn.module import Module


@dataclass(frozen=True)
class PipelineScale:
    """Knobs that trade fidelity for runtime (see DESIGN.md §4)."""

    width_multiplier: float = 0.5
    image_size: int = 32
    fisher_batch: int = 4
    configurations: int = 150
    tuner_trials: int = 6
    blockswap_budget: float = 0.45
    train_size: int = 96
    test_size: int = 48

    @classmethod
    def ci(cls) -> "PipelineScale":
        """Small settings used by the benchmark harness."""
        return cls()

    @classmethod
    def full(cls) -> "PipelineScale":
        """Paper-scale settings (hours of NumPy compute; shapes unchanged)."""
        return cls(width_multiplier=1.0, image_size=32,
                   fisher_batch=32, configurations=1000, tuner_trials=32,
                   blockswap_budget=0.5, train_size=50000, test_size=10000)


@dataclass
class ApproachMeasurement:
    """Latency of one approach on one platform."""

    name: str
    latency_seconds: float
    parameters: int
    details: dict = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        return self.latency_seconds * 1e3


@dataclass
class ComparisonResult:
    """TVM vs NAS vs Ours for one network / platform pair (one Figure 4 panel)."""

    network: str
    platform: str
    tvm: ApproachMeasurement
    nas: ApproachMeasurement
    ours: ApproachMeasurement
    search_result: UnifiedSearchResult | None = None
    blockswap_result: BlockSwapResult | None = None

    def speedups(self) -> dict[str, float]:
        """Speedup over the TVM baseline (the y-axis of Figure 4)."""
        base = self.tvm.latency_seconds
        return {
            "TVM": 1.0,
            "NAS": base / self.nas.latency_seconds,
            "Ours": base / self.ours.latency_seconds,
        }

    def rows(self) -> list[tuple[str, float, float]]:
        speedups = self.speedups()
        return [(name, measurement.latency_ms, speedups[label])
                for label, name, measurement in (
                    ("TVM", "TVM", self.tvm), ("NAS", "NAS", self.nas),
                    ("Ours", "Ours", self.ours))]


# ---------------------------------------------------------------------------
# Latency of a concrete model
# ---------------------------------------------------------------------------
def network_latency(model: Module, input_shape: tuple[int, int, int],
                    platform: PlatformSpec, tuner_trials: int = 6, *,
                    engine: EvaluationEngine | None = None,
                    seed: int | None = 0) -> float:
    """Auto-tuned latency of every convolution in ``model``, summed."""
    workloads = extract_workloads(model, input_shape)
    return workload_latency(workloads, platform, tuner_trials, engine=engine, seed=seed)


def workload_latency(workloads: list[LayerWorkload], platform: PlatformSpec,
                     tuner_trials: int = 6, *,
                     engine: EvaluationEngine | None = None,
                     seed: int | None = 0) -> float:
    """Auto-tuned latency of a list of convolution workloads.

    With ``engine`` given, latencies come from (and warm) its shared cache;
    otherwise a throwaway engine seeded by ``seed`` is used.
    """
    if engine is not None and engine.platform.name != platform.name:
        raise ReproError(
            f"engine is bound to platform '{engine.platform.name}', "
            f"the measurement targets '{platform.name}'")
    engine = engine or EvaluationEngine(platform, tuner_trials=tuner_trials, seed=seed)
    return engine.workloads_latency(workloads)


# ---------------------------------------------------------------------------
# The three approaches
# ---------------------------------------------------------------------------
def compare_approaches(network: str, model_builder: Callable[[], Module],
                       platform_name: str, *, scale: PipelineScale | None = None,
                       dataset: SyntheticImageDataset | None = None,
                       seed: int = 0,
                       engine: EvaluationEngine | None = None) -> ComparisonResult:
    """Produce one Figure-4 panel: TVM vs NAS vs Ours for one network/platform.

    The three approaches share ``engine`` (one is created when not given),
    so each unique workload is tuned exactly once per platform — across a
    whole Figure-4 driver when the caller passes a per-platform engine.
    """
    scale = scale or PipelineScale.ci()
    platform = get_platform(platform_name)
    engine = engine or EvaluationEngine(platform, tuner_trials=scale.tuner_trials,
                                        seed=seed)
    dataset = dataset or SyntheticImageDataset.cifar10_like(
        train_size=scale.train_size, test_size=scale.test_size,
        image_size=scale.image_size, seed=seed)
    input_shape = dataset.spec.image_shape
    images, labels = dataset.random_minibatch(scale.fisher_batch, seed=seed)

    # --- TVM baseline: original model, tuned default schedules.
    tvm_model = model_builder()
    tvm_latency = network_latency(tvm_model, input_shape, platform, engine=engine)
    tvm = ApproachMeasurement("TVM", tvm_latency, tvm_model.num_parameters())

    # --- NAS baseline: BlockSwap compression, then the same compilation.
    nas_model = model_builder()
    blockswap = BlockSwap(budget_ratio=scale.blockswap_budget, seed=seed)
    blockswap_result = blockswap.compress(nas_model, images, labels)
    nas_latency = network_latency(nas_model, input_shape, platform, engine=engine)
    nas = ApproachMeasurement(
        "NAS", nas_latency, nas_model.num_parameters(),
        details={"substitutions": len(blockswap_result.substitutions),
                 "compression": blockswap_result.compression_ratio})

    # --- Ours: the unified search.
    ours_model = model_builder()
    search = UnifiedSearch(platform, configurations=scale.configurations,
                           seed=seed, engine=engine)
    search_result = search.search(ours_model, images, labels, input_shape)
    # Non-convolution-layer costs (none here — only convolutions are timed) are
    # identical across approaches, so the comparison uses the conv totals.
    non_replaceable = _non_searched_latency(ours_model, search_result, input_shape,
                                            platform, engine)
    ours_latency = search_result.optimized_latency_seconds + non_replaceable
    tvm_equivalent = search_result.baseline_latency_seconds + non_replaceable
    # Both totals come from identical engine cache entries; they can differ
    # only by floating-point summation order.
    if not np.isclose(tvm_latency, tvm_equivalent, rtol=1e-9, atol=1e-15):
        raise ReproError(
            f"latency accounting drift: the TVM baseline measured "
            f"{tvm_latency!r}s but the search's TVM-equivalent total is "
            f"{tvm_equivalent!r}s for {network} on {platform_name}")
    ours = ApproachMeasurement(
        "Ours", ours_latency, ours_model.num_parameters(),
        details={"rejection_rate": search_result.statistics.rejection_rate,
                 "search_seconds": search_result.statistics.search_seconds})

    return ComparisonResult(
        network=network, platform=platform_name, tvm=tvm, nas=nas, ours=ours,
        search_result=search_result, blockswap_result=blockswap_result)


def _non_searched_latency(model: Module, result: UnifiedSearchResult,
                          input_shape: tuple[int, int, int], platform: PlatformSpec,
                          engine: EvaluationEngine) -> float:
    """Latency of convolutions the search did not touch (stems, shortcuts)."""
    searched = set(result.choices)
    workloads = [w for w in extract_workloads(model, input_shape) if w.name not in searched]
    if not workloads:
        return 0.0
    return engine.workloads_latency(workloads)
