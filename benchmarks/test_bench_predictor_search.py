"""Benchmark: the predictor-guided search vs. the evolutionary baseline.

Pins the headline of the predictor subsystem on the Figure-6 CI-scale
search (ResNet-34 on the i7-class CPU model): ``model_guided`` must reach
within 5% of ``evolutionary``'s best end-to-end latency while paying for
at least 3x fewer full-trial candidate tunings.  Each strategy runs
against its own fresh engine so the evaluation bill is attributable; the
tuning count is read from the engine's cache keys (unique full-fidelity
entries, baselines excluded), not from the strategies' own bookkeeping.
"""

from __future__ import annotations

from repro.core.engine import EvaluationEngine
from repro.core.search import UnifiedSearch
from repro.core.unified_space import UnifiedSpaceConfig
from repro.experiments.analysis_predictor import full_trial_tunings
from repro.experiments.common import cifar_dataset
from repro.hardware import get_platform
from repro.models import resnet34


def _run_strategy(strategy: str, scale, seed: int = 0):
    pipeline = scale.pipeline
    platform = get_platform("cpu")
    dataset = cifar_dataset(scale, seed=seed)
    images, labels = dataset.random_minibatch(pipeline.fisher_batch, seed=seed)
    engine = EvaluationEngine(platform, tuner_trials=pipeline.tuner_trials,
                              seed=seed)
    search = UnifiedSearch(platform, configurations=pipeline.configurations,
                           strategy=strategy,
                           space=UnifiedSpaceConfig(seed=seed), seed=seed,
                           engine=engine)
    model = resnet34(width_multiplier=pipeline.width_multiplier)
    outcome = search.search(model, images, labels, dataset.spec.image_shape)
    return outcome, engine


def test_bench_predictor_search_vs_evolutionary(benchmark, scale):
    """model_guided: within 5% of evolutionary at >= 3x fewer tunings."""
    evolutionary, evolutionary_engine = _run_strategy("evolutionary", scale)
    evolutionary_tunings = full_trial_tunings(evolutionary_engine)

    result = benchmark.pedantic(
        lambda: _run_strategy("model_guided", scale), rounds=1, iterations=1)
    guided, guided_engine = result
    guided_tunings = full_trial_tunings(guided_engine)

    reduction = evolutionary_tunings / max(guided_tunings, 1)
    ratio = (guided.optimized_latency_seconds
             / evolutionary.optimized_latency_seconds)
    print(f"\nevolutionary: {evolutionary.optimized_latency_seconds * 1e3:.3f}ms "
          f"({evolutionary.speedup:.2f}x) at {evolutionary_tunings} tunings; "
          f"model_guided: {guided.optimized_latency_seconds * 1e3:.3f}ms "
          f"({guided.speedup:.2f}x) at {guided_tunings} tunings "
          f"({reduction:.1f}x fewer, latency ratio {ratio:.3f}, "
          f"predictor MAE {100 * guided.statistics.predictor_mae:.1f}%)")

    assert ratio <= 1.05, (
        f"model_guided must reach within 5% of evolutionary's latency, "
        f"got {guided.optimized_latency_seconds:.6g}s vs "
        f"{evolutionary.optimized_latency_seconds:.6g}s ({ratio:.3f})")
    assert reduction >= 3.0, (
        f"model_guided must pay >= 3x fewer full-trial tunings, got "
        f"{guided_tunings} vs {evolutionary_tunings} ({reduction:.2f}x)")
    assert guided.statistics.evaluations_saved > 0
    assert guided.statistics.full_tunings == guided_tunings


def test_bench_hyperband_fidelity_ladder(benchmark, scale):
    """hyperband: full-trial tuning is a strict subset of the bottom rung."""
    from repro.core.sequences import predefined_program

    result = benchmark.pedantic(
        lambda: _run_strategy("hyperband", scale), rounds=1, iterations=1)
    outcome, engine = result
    tunings = full_trial_tunings(engine)
    standard = predefined_program("standard")
    fidelities = sorted({key[3] for key in engine.cache_keys()})
    lowest = fidelities[0]
    screened = sum(1 for _p, _s, program, trials, _seed in engine.cache_keys()
                   if trials == lowest and program != standard)
    print(f"\nhyperband: {outcome.optimized_latency_seconds * 1e3:.3f}ms "
          f"({outcome.speedup:.2f}x) at {tunings} full-trial tunings; "
          f"{screened} candidates screened at {lowest} trial(s), "
          f"{outcome.statistics.evaluations_saved} configurations eliminated "
          f"below the top rung")
    # The search must never regress below the always-legal baseline ...
    assert outcome.speedup >= 0.999
    # ... and when the trial ladder has a low rung, full-fidelity tuning
    # must cover strictly fewer candidates than the rung that screened
    # them — promotion, not brute force.
    if lowest < engine.tuner_trials:
        assert 0 < tunings < screened, (tunings, screened)
        assert outcome.statistics.evaluations_saved > 0
