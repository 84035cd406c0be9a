"""Predictor-guided search analysis: tuned evaluations vs. search quality.

The model-based NAS literature (BANANAS, DeepHyper's asynchronous
model-based search) promises an order of magnitude fewer real evaluations
for the same search quality.  This driver measures that trade-off inside
the unified space: every registered strategy runs the same search on the
same network/platform pair — each in its own fresh session, so tuning
work is attributable — and the table reports, per strategy, the achieved
latency next to the candidate tunings it paid for, plus the surrogate's
verified prediction error and the evaluations it screened
(``model_guided``).  ``tools/strategy_study.py`` runs the same comparison
over many seeds, models and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import OptimizationResult, OptimizationSession
from repro.core.predictor import LatencyPredictor
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
from repro.hardware import get_platform

#: Strategies compared by default: the paper's procedure, the classic
#: evolutionary baseline, and the surrogate-guided search.
DEFAULT_STRATEGIES = ("random", "evolutionary", "model_guided")


def full_trial_tunings(engine) -> int:
    """Unique candidate pairs ``engine`` tuned at its trial budget.

    Counts distinct cache entries at the engine's ``tuner_trials`` whose
    program is not the ``standard`` baseline (which every strategy tunes
    once per shape), so the number is the per-strategy *candidate*
    evaluation bill — the cost axis the surrogate is supposed to shrink.
    On a fresh engine it equals the search's ``full_tunings``.
    """
    from repro.core.sequences import predefined_program

    standard = predefined_program("standard")
    return sum(1 for _platform, _shape, program, trials, _seed
               in engine.cache_keys()
               if trials == engine.tuner_trials and program != standard)


@dataclass
class StrategyRow:
    """One strategy's outcome and its evaluation bill."""

    strategy: str
    optimized_latency_seconds: float
    speedup: float
    configurations_evaluated: int
    #: unique (shape, program) pairs tuned at the engine's trial budget —
    #: the cost axis the surrogate reduces
    tuned_evaluations: int
    tuner_calls: int
    predictor_mae: float
    evaluations_saved: int
    search_seconds: float


@dataclass
class PredictorAnalysisResult:
    """All strategies on one network/platform pair, same seed and budget."""

    network: str
    platform: str
    rows: list[StrategyRow] = field(default_factory=list)
    outcomes: dict[str, OptimizationResult] = field(default_factory=dict)

    def row(self, strategy: str) -> StrategyRow:
        for entry in self.rows:
            if entry.strategy == strategy:
                return entry
        raise KeyError(f"strategy '{strategy}' was not part of this analysis")

    def evaluation_reduction(self, strategy: str = "model_guided",
                             baseline: str = "evolutionary") -> float:
        """How many times fewer full tunings ``strategy`` paid than ``baseline``."""
        return (self.row(baseline).tuned_evaluations
                / max(self.row(strategy).tuned_evaluations, 1))


def run(scale: str | ExperimentScale = "ci", seed: int = 0,
        network: str = "ResNet-34", platform: str = "cpu",
        strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
        transfer_from: str = "") -> PredictorAnalysisResult:
    scale = get_scale(scale)
    builder = cifar_model_builders(scale)[network]
    dataset = cifar_dataset(scale, seed=seed)
    images, labels = dataset.random_minibatch(scale.pipeline.fisher_batch,
                                              seed=seed)

    def search(target: str, strategy: str, predictor=None):
        """One search, and the candidate tunings it paid for.

        Each search runs in a session of its own: the point is the
        per-strategy evaluation bill, so no strategy may ride another's
        cache.
        """
        model = builder()
        request = search_request(scale.pipeline, model, target, seed,
                                 strategy=strategy)
        with OptimizationSession(tuner_trials=scale.pipeline.tuner_trials,
                                 seed=seed) as session:
            optimization = session.search(model, images, labels, request,
                                          predictor=predictor)
            return optimization, full_trial_tunings(session.engine(target))

    # Cross-platform transfer (the paper's "one network, many targets"
    # study): train a surrogate on transfer_from's platform first, then
    # warm-start model_guided's predictor from it — the cold-start
    # tunings it skips surface as evaluations_saved in the table.
    warm = None
    if transfer_from:
        warm = LatencyPredictor()
        search(transfer_from, "model_guided", predictor=warm)
    result = PredictorAnalysisResult(network=network,
                                     platform=get_platform(platform).name)
    for strategy in strategies:
        predictor = None
        if warm is not None and strategy == "model_guided":
            predictor = LatencyPredictor()
            predictor.warm_start_from(warm)
        optimization, tuned_evaluations = search(platform, strategy, predictor)
        statistics = optimization.search_statistics
        result.outcomes[strategy] = optimization
        result.rows.append(StrategyRow(
            strategy=strategy,
            optimized_latency_seconds=optimization.optimized_latency_seconds,
            speedup=optimization.speedup,
            configurations_evaluated=statistics["configurations_evaluated"],
            tuned_evaluations=tuned_evaluations,
            tuner_calls=optimization.engine_statistics["tuner_calls"],
            predictor_mae=statistics["predictor_mae"],
            evaluations_saved=statistics["evaluations_saved"],
            search_seconds=statistics["search_seconds"],
        ))
    return result


def format_report(result: PredictorAnalysisResult) -> str:
    table = format_table(
        ["strategy", "latency ms", "speedup", "tuned", "tuner calls",
         "saved", "MAE", "seconds"],
        [(row.strategy, row.optimized_latency_seconds * 1e3,
          f"{row.speedup:.2f}x", row.tuned_evaluations, row.tuner_calls,
          row.evaluations_saved,
          f"{100 * row.predictor_mae:.1f}%" if row.predictor_mae else "-",
          row.search_seconds)
         for row in result.rows])
    lines = [f"Predictor-guided search analysis "
             f"({result.network} on {result.platform})", table]
    try:
        reduction = result.evaluation_reduction()
        lines.append(f"model_guided pays {reduction:.1f}x fewer full-trial "
                     f"tunings than evolutionary")
    except KeyError:
        pass
    return "\n".join(lines)


def to_payload(result: PredictorAnalysisResult) -> dict:
    payload = {
        "network": result.network,
        "platform": result.platform,
        "strategies": [
            {
                "strategy": row.strategy,
                "optimized_latency_seconds": row.optimized_latency_seconds,
                "speedup": row.speedup,
                "configurations_evaluated": row.configurations_evaluated,
                "tuned_evaluations": row.tuned_evaluations,
                "tuner_calls": row.tuner_calls,
                "predictor_mae": row.predictor_mae,
                "evaluations_saved": row.evaluations_saved,
                "search_seconds": row.search_seconds,
                "rejections_by_primitive": dict(
                    result.outcomes[row.strategy]
                    .search_statistics["rejections_by_primitive"]),
            }
            for row in result.rows
        ],
    }
    try:
        payload["evaluation_reduction"] = result.evaluation_reduction()
    except KeyError:
        pass
    return payload


def primary_optimization(result: PredictorAnalysisResult):
    """The model_guided run's result (or None)."""
    return result.outcomes.get("model_guided")


register_experiment(ExperimentSpec(
    name="analysis_predictor",
    title="Predictor-guided search: tuned evaluations vs. strategy quality",
    description=__doc__.strip().splitlines()[0],
    run=run, report=format_report, payload=to_payload,
    primary=primary_optimization,
    options=("network", "platform", "strategies", "transfer_from"),
))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    raise SystemExit(registry_main("analysis_predictor"))
