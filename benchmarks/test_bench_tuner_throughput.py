"""Throughput benchmark for the auto-tuner fast path.

Reports the two rates the §7.2 claim leans on — tuner **trials/sec** and
engine **configurations/sec** — and pins the headline of the fast-path
work: ``AutoTuner.tune`` at 64 trials is at least 3x faster than main.

The baseline is ``reference_tune`` (the pre-fast-path loop, kept
verbatim in ``tests/tuning_oracle.py``) measured with the memoised
``divisors`` of the same change monkeypatched back to main's
implementation, so the comparison is against what main actually
executed, not against a baseline that already enjoys half of the
optimisations.  (Main's affine-substitution loops need no patch: access
maps are integer matrices now, and no transformation substitutes
symbolic expressions, so the baseline runs the faster matrix rewrites,
which only makes the gate stricter.)  Tuned latencies must match the
fast path bit for bit.
"""

from __future__ import annotations

import importlib.util
import math
import statistics
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


def test_bench_tuner_throughput_64_trials(benchmark, monkeypatch, perf_record):
    """Fast-path AutoTuner.tune vs main's loop, 64 trials, all platforms."""
    computation = conv2d_compute(SHAPE)
    platforms = [get_platform(name) for name in PLATFORM_NAMES]

    baseline_seconds: dict[str, float] = {}
    baseline_results: list[float] = []
    with monkeypatch.context() as patched:
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


#: Alternating baseline/fast repeats of the engine stream; the speedup
#: compares their medians, so one slow repeat on a loaded machine moves
#: neither side.
ENGINE_REPEATS = 5


def _engine_stream(trials: int):
    """The multi-budget request stream, as ``(items, ladder, run)``.

    The stream models what the searches actually submit: repeated engine
    sessions (the experiment drivers re-run the same pinned-seed search
    when replicating and when resuming), each tuning every
    (shape, sequence) pair on one engine per rung of a trial ladder, so
    most compiles share a program prefix with an earlier sibling and most
    tunes revisit an operator at a new trial budget.
    """
    platform = get_platform("cpu")
    shapes = [ConvolutionShape(16 * (1 + i % 3), 16, 6 + 2 * (i % 4), 6 + 2 * (i % 4), 3, 3)
              for i in range(8)]
    sequences = [predefined_program("standard")] + list(paper_sequences().values())
    items = [(shape, sequence) for shape in shapes for sequence in sequences
             if sequence.applicable(shape)]
    ladder = sorted({1, max(1, trials // 2), trials})

    def run_stream():
        results = []
        for _ in range(ENGINE_SESSIONS):
            for rung in ladder:
                with EvaluationEngine(platform, tuner_trials=rung, seed=0) as engine:
                    results.extend(engine.tune_many(items))
        return results

    return items, ladder, run_stream


ENGINE_SESSIONS = 3


def _baseline_patches(patched) -> None:
    """Main's behaviour: from-scratch ``compile`` per candidate, a fresh
    ``TuningContext`` per tune call and per-candidate traffic evaluation."""
    patched.setattr(TransformProgram, "compile", TransformProgram.compile_uncached)
    patched.setattr(autotune_module, "shared_tuning_context", TuningContext.build)
    patched.setattr(cost_model, "estimate_dram_traffic_batch", _legacy_traffic_batch)


def test_bench_engine_configurations_per_second(scale, monkeypatch, perf_record):
    """Engine batch-tuning rate over a multi-budget request stream.

    The baseline restores main's behaviour (:func:`_baseline_patches`) and
    the fast path must return bit-identical latencies at >= 3x the rate.
    Each of :data:`ENGINE_REPEATS` repeats times one cold baseline pass
    and then one cold fast pass, and the speedup is the ratio of their
    medians: alternating puts both sides under the same machine load.
    """
    items, ladder, run_stream = _engine_stream(scale.pipeline.tuner_trials)

    def timed() -> tuple[float, list[float]]:
        _clear_process_caches()
        start = time.perf_counter()
        results = run_stream()
        return time.perf_counter() - start, results

    baseline_rounds, fast_rounds = [], []
    for _ in range(ENGINE_REPEATS):
        with monkeypatch.context() as patched:
            _baseline_patches(patched)
            seconds, baseline_results = timed()
        baseline_rounds.append(seconds)
        seconds, fast_results = timed()
        fast_rounds.append(seconds)
        assert fast_results == baseline_results, \
            "incremental compilation must not change a single tuned latency"
    assert all(seconds > 0 for seconds in fast_results)

    requests = ENGINE_SESSIONS * len(ladder) * len(items)
    total_trials = ENGINE_SESSIONS * len(items) * sum(ladder)
    fast_seconds = statistics.median(fast_rounds)
    baseline_seconds = statistics.median(baseline_rounds)
    speedup = baseline_seconds / fast_seconds
    print(f"\n{requests} configurations ({len(items)} pairs x {ENGINE_SESSIONS} sessions "
          f"x ladder {ladder}) in {fast_seconds:.3f}s "
          f"({requests / fast_seconds:,.0f} configurations/sec, "
          f"{total_trials / fast_seconds:,.0f} trials/sec) "
          f"vs main {baseline_seconds:.3f}s -> {speedup:.2f}x "
          f"(medians of {ENGINE_REPEATS} alternating repeats)")
    perf_record(wall_seconds=fast_seconds, configurations=requests,
                trials=total_trials, speedup=speedup,
                baseline_wall_seconds=baseline_seconds)
    assert speedup >= 3.0, (
        f"the multi-fidelity stream must run >= 3x faster than main, "
        f"got {speedup:.2f}x")


#: Work of one cold pass over the engine stream at 4 tuner trials (the
#: full-mode ladder 1, 2, 4): program steps applied by compiles,
#: ``TuningContext`` builds and schedule instantiations.
ENGINE_STREAM_WORK = {
    "baseline": {"steps_applied": 960, "context_builds": 360, "instantiations": 840},
    "fast": {"steps_applied": 96, "context_builds": 40, "instantiations": 160},
}


def test_engine_stream_work_counts(monkeypatch):
    """The work the fast path skips on the engine stream, as exact counts.

    Deterministic, unlike the timing above: the compile trie replays only
    unseen step suffixes, and the shared tuning contexts build each
    operator's template analysis once and instantiate each schedule key
    once, across sessions and trial budgets.
    """
    _, _, run_stream = _engine_stream(4)
    counts: dict[str, int] = {}

    def counting(function, key):
        def counted(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return counted

    observed = {}
    for side in ("baseline", "fast"):
        counts = dict.fromkeys(ENGINE_STREAM_WORK[side], 0)
        with monkeypatch.context() as patched:
            patched.setattr(program_module, "apply_step",
                            counting(program_module.apply_step, "steps_applied"))
            patched.setattr(TuningContext, "build", classmethod(
                counting(TuningContext.build.__func__, "context_builds")))
            patched.setattr(TuningContext, "trial",
                            counting(TuningContext.trial, "instantiations"))
            if side == "baseline":
                _baseline_patches(patched)
            _clear_process_caches()
            run_stream()
        observed[side] = counts
    assert observed == ENGINE_STREAM_WORK
