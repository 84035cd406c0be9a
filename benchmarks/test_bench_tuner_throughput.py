"""Throughput benchmark for the auto-tuner fast path.

Reports the two rates the §7.2 claim leans on — tuner **trials/sec** and
engine **configurations/sec** — and pins the headline of the fast-path
work: ``AutoTuner.tune`` at 64 trials is at least 3x faster than main.

The baseline is ``reference_tune`` (the pre-fast-path loop, kept
verbatim in ``tests/tuning_oracle.py``) measured with the shared-layer
speedups of the same change
— the memoised ``divisors`` and the affine-substitution short-circuits —
monkeypatched back to main's implementations, so the comparison is
against what main actually executed, not against a baseline that already
enjoys half of the optimisations.  Tuned latencies must match the fast
path bit for bit.
"""

from __future__ import annotations

import importlib.util
import math
import time
from pathlib import Path

import numpy as np

import repro.core.program as program_module
import repro.hardware.cost_model as cost_model
import repro.tenir.autotune as autotune_module
from repro.core import compile_cache
from repro.core.engine import EvaluationEngine
from repro.core.program import TransformProgram
from repro.core.sequences import paper_sequences, predefined_program
from repro.hardware import get_platform
from repro.poly.affine import AffineExpr, AffineMap
from repro.poly.statement import ConvolutionShape
from repro.tenir import AutoTuner, TuningContext, conv2d_compute

TRIALS = 64
PLATFORM_NAMES = ("cpu", "gpu", "mcpu", "mgpu")
SHAPE = ConvolutionShape(64, 64, 16, 16, 3, 3)


def _load_oracle():
    """The frozen pre-fast-path tuner, by path: ``tests/`` may be off sys.path."""
    spec = importlib.util.spec_from_file_location(
        "tuning_oracle",
        Path(__file__).resolve().parents[1] / "tests" / "tuning_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


# ---------------------------------------------------------------------------
# Main's implementations of the shared helpers this change also memoised,
# restored for the baseline measurement only.
# ---------------------------------------------------------------------------
def _legacy_divisors(n: int) -> list[int]:
    if n <= 0:
        raise ValueError(f"divisors() requires a positive integer, got {n}")
    small, large = [], []
    for candidate in range(1, int(math.isqrt(n)) + 1):
        if n % candidate == 0:
            small.append(candidate)
            if candidate != n // candidate:
                large.append(n // candidate)
    return small + large[::-1]


def _legacy_expr_substitute(self, mapping):
    result = AffineExpr.constant(self.const)
    for name, value in self.coeffs:
        replacement = mapping.get(name, AffineExpr.var(name))
        result = result + replacement * value
    return result


def _legacy_map_substitute(self, mapping):
    return AffineMap(tuple(expr.substitute(mapping) for expr in self.exprs))


def test_bench_tuner_throughput_64_trials(benchmark, monkeypatch, perf_record):
    """Fast-path AutoTuner.tune vs main's loop, 64 trials, all platforms."""
    computation = conv2d_compute(SHAPE)
    platforms = [get_platform(name) for name in PLATFORM_NAMES]

    baseline_seconds: dict[str, float] = {}
    baseline_results: list[float] = []
    with monkeypatch.context() as patched:
        patched.setattr(AffineExpr, "substitute", _legacy_expr_substitute)
        patched.setattr(AffineMap, "substitute", _legacy_map_substitute)
        patched.setattr(oracle, "divisors", _legacy_divisors)
        for platform in platforms:
            oracle.reference_tune(computation, platform, trials=TRIALS, seed=0)  # warm-up
            rounds = []
            for _ in range(3):
                start = time.perf_counter()
                result = oracle.reference_tune(computation, platform,
                                               trials=TRIALS, seed=0)
                rounds.append(time.perf_counter() - start)
            baseline_seconds[platform.name] = min(rounds)
            baseline_results.append(result.seconds)

    def tune_all_platforms():
        return [AutoTuner(trials=TRIALS, seed=0).tune(computation, platform).seconds
                for platform in platforms]

    fast_results = benchmark(tune_all_platforms)
    assert fast_results == baseline_results, \
        "fast-path tuned latencies must match main's bit for bit"

    fast_seconds = benchmark.stats.stats.mean
    baseline_total = sum(baseline_seconds.values())
    speedup = baseline_total / fast_seconds
    trials_per_second = TRIALS * len(platforms) / fast_seconds
    per_platform = ", ".join(f"{name}={seconds * 1e3:.1f}ms"
                             for name, seconds in baseline_seconds.items())
    print(f"\n{TRIALS} trials x {len(platforms)} platforms: "
          f"fast {fast_seconds * 1e3:.1f}ms vs main {baseline_total * 1e3:.1f}ms "
          f"({speedup:.2f}x, {trials_per_second:,.0f} trials/sec; "
          f"main per platform: {per_platform})")
    assert speedup >= 3.0, (
        f"AutoTuner.tune at {TRIALS} trials must be >= 3x faster than main, "
        f"got {speedup:.2f}x")
    perf_record(wall_seconds=fast_seconds, trials=TRIALS * len(platforms),
                speedup=speedup, baseline_wall_seconds=baseline_total)


# ---------------------------------------------------------------------------
# Engine throughput: the incremental-compilation headline
# ---------------------------------------------------------------------------
def _clear_process_caches():
    """Reset every process-global cache the fast path leans on.

    Run before each measured pass so both the baseline and the fast path
    start cold — the compile trie, the shared tuning contexts and the
    legality/conv-config memos all persist across engines by design.
    """
    compile_cache.COMPILE_CACHE.clear()
    compile_cache.prefix_digests.cache_clear()
    autotune_module.clear_tuning_contexts()
    program_module._structural_legality.cache_clear()
    program_module._conv_config.cache_clear()
    return (), {}


def _vectorised_dram_traffic(nest, cache_bytes: int) -> float:
    """Main's per-candidate traffic over the nest's memoised locality arrays."""
    arrays = nest.traffic_arrays()
    fits = arrays.working_set_bytes <= cache_bytes
    depth = int(np.argmax(fits)) if fits.any() else len(nest.loops)
    per_access = arrays.tensor_footprints[depth] * arrays.refetch[depth] * nest.element_bytes
    per_access = np.maximum(per_access, arrays.compulsory_bytes)
    return float(np.sum(per_access * arrays.write_factor))


def _legacy_traffic_batch(nests, cache_bytes):
    """Main's batch traffic: one numpy round-trip per candidate."""
    return np.array([_vectorised_dram_traffic(nest, cache_bytes) for nest in nests])


def test_bench_engine_configurations_per_second(benchmark, scale, monkeypatch,
                                                perf_record):
    """Engine batch-tuning rate over a multi-budget request stream.

    The stream models what the searches actually submit: repeated engine
    sessions (the experiment drivers re-run the same pinned-seed search
    when replicating and when resuming), each tuning every
    (shape, sequence) pair on one engine per rung of a trial ladder, so
    most compiles share a program prefix with an earlier sibling and most
    tunes revisit an operator at a new trial budget.  The baseline restores
    main's behaviour — from-scratch ``compile`` per candidate, a fresh
    ``TuningContext`` per tune call and per-candidate traffic evaluation
    — and the fast path must return bit-identical latencies at >= 3x
    the rate.
    """
    platform = get_platform("cpu")
    shapes = [ConvolutionShape(16 * (1 + i % 3), 16, 6 + 2 * (i % 4), 6 + 2 * (i % 4), 3, 3)
              for i in range(8)]
    sequences = [predefined_program("standard")] + list(paper_sequences().values())
    items = [(shape, sequence) for shape in shapes for sequence in sequences
             if sequence.applicable(shape)]
    trials = scale.pipeline.tuner_trials
    ladder = sorted({1, max(1, trials // 2), trials})
    sessions = 3

    def run_stream():
        results = []
        for _ in range(sessions):
            for rung in ladder:
                with EvaluationEngine(platform, tuner_trials=rung, seed=0) as engine:
                    results.extend(engine.tune_many(items))
        return results

    baseline_rounds = []
    baseline_results: list[float] = []
    with monkeypatch.context() as patched:
        patched.setattr(TransformProgram, "compile", TransformProgram.compile_uncached)
        patched.setattr(autotune_module, "shared_tuning_context", TuningContext.build)
        patched.setattr(cost_model, "estimate_dram_traffic_batch",
                        _legacy_traffic_batch)
        for _ in range(2):
            _clear_process_caches()
            start = time.perf_counter()
            baseline_results = run_stream()
            baseline_rounds.append(time.perf_counter() - start)

    fast_results = benchmark.pedantic(run_stream, setup=_clear_process_caches,
                                      rounds=2, iterations=1)
    assert fast_results == baseline_results, \
        "incremental compilation must not change a single tuned latency"
    assert all(seconds > 0 for seconds in fast_results)

    requests = sessions * len(ladder) * len(items)
    total_trials = sessions * len(items) * sum(ladder)
    fast_seconds = benchmark.stats.stats.min
    baseline_seconds = min(baseline_rounds)
    speedup = baseline_seconds / fast_seconds
    print(f"\n{requests} configurations ({len(items)} pairs x {sessions} sessions "
          f"x ladder {ladder}) in {fast_seconds:.3f}s "
          f"({requests / fast_seconds:,.0f} configurations/sec, "
          f"{total_trials / fast_seconds:,.0f} trials/sec) "
          f"vs main {baseline_seconds:.3f}s -> {speedup:.2f}x")
    perf_record(wall_seconds=fast_seconds, configurations=requests,
                trials=total_trials, speedup=speedup,
                baseline_wall_seconds=baseline_seconds)
    assert speedup >= 3.0, (
        f"the multi-fidelity stream must run >= 3x faster than main, "
        f"got {speedup:.2f}x")
