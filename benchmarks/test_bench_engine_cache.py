"""Micro-benchmarks for the shared evaluation engine.

Reports the two numbers the engine exists for: the cache hit rate a
Figure-4-style workload stream achieves (every repeated (shape, sequence)
query is free), and the wall-clock speedup of parallel batch tuning over
serial tuning for the cache misses.
"""

from __future__ import annotations

import time

from repro.core.engine import EvaluationEngine
from repro.core.sequences import (nas_candidate_sequences, paper_sequences,
                                  predefined_program)
from repro.core.workloads import extract_workloads
from repro.hardware import get_platform
from repro.models import resnet34


def _workload_stream(scale):
    """The (shape, sequence) queries a Figure-4 panel makes, in order."""
    model = resnet34(width_multiplier=scale.pipeline.width_multiplier)
    workloads = extract_workloads(model, (3, scale.pipeline.image_size,
                                          scale.pipeline.image_size))
    sequences = [predefined_program("standard")]
    sequences += list(paper_sequences().values())
    sequences += list(nas_candidate_sequences().values())
    return [(w.shape, s) for w in workloads for s in sequences if s.applicable(w.shape)]


def test_bench_engine_cache_hit_rate(benchmark, scale):
    """A warm engine answers a full workload stream without tuning."""
    engine = EvaluationEngine(get_platform("cpu"),
                              tuner_trials=scale.pipeline.tuner_trials, seed=0)
    stream = _workload_stream(scale)
    engine.tune_many(stream)  # cold pass: tune every unique pair once

    def warm_pass():
        return sum(engine.tune_many(stream))

    total = benchmark(warm_pass)
    stats = engine.statistics
    assert total > 0
    assert stats.latency_hit_rate > 0.9
    print(f"\n{len(stream)} queries over {engine.cache_size} unique entries; "
          f"hit rate {100 * stats.latency_hit_rate:.1f}% "
          f"({stats.tuner_calls} tuner calls total)")


def test_bench_engine_parallel_tuning(benchmark, scale):
    """Parallel tune_many vs serial on a cold cache, identical results."""
    platform = get_platform("cpu")
    unique = list(dict.fromkeys(_workload_stream(scale)))

    start = time.perf_counter()
    serial_engine = EvaluationEngine(platform,
                                     tuner_trials=scale.pipeline.tuner_trials, seed=0)
    serial = serial_engine.tune_many(unique)
    serial_seconds = time.perf_counter() - start

    def parallel_pass():
        engine = EvaluationEngine(platform,
                                  tuner_trials=scale.pipeline.tuner_trials, seed=0,
                                  parallel="process", max_workers=4)
        return engine.tune_many(unique)

    parallel = benchmark.pedantic(parallel_pass, rounds=1, iterations=1)
    assert parallel == serial, "parallel tuning must match serial bit-for-bit"
    parallel_seconds = benchmark.stats.stats.mean
    print(f"\n{len(unique)} unique workloads: serial {serial_seconds:.3f}s, "
          f"process-parallel {parallel_seconds:.3f}s "
          f"({serial_seconds / max(parallel_seconds, 1e-9):.2f}x)")
