"""Tests for the tuning fast path: context, batch cost model, engine pool.

The contract under test is *bit-identical results, much less work*:

* ``estimate_latency_batch`` must equal the frozen oracle's scalar
  ``estimate_latency`` exactly on arbitrary lowered nests;
* ``AutoTuner.tune`` must return the same ``TuningResult.seconds`` (and
  parameters, and nest) as the oracle's ``reference_tune`` — the
  pre-fast-path loop kept verbatim in ``tests/tuning_oracle.py`` — for
  any seed, while instantiating far fewer schedules;
* the engine's persistent pool changes no observable latency, only the
  wall clock.
"""

from __future__ import annotations

import pickle

import pytest

import repro.hardware.cost_model as cost_model
import repro.tenir.autotune as autotune_module
import tuning_oracle
from repro.core.engine import EvaluationEngine
from repro.core.sequences import predefined_program
from repro.hardware import estimate_latency_batch, get_platform
from repro.poly import AffineExpr, AffineMap, Domain
from repro.poly.statement import Access, ConvolutionShape, Statement
from repro.tenir import (
    AutoTuner,
    Computation,
    TuningContext,
    conv2d_compute,
    create_schedule,
    dense_compute,
    lower,
)
from repro.utils import divisors, make_rng

PLATFORMS = ("cpu", "gpu", "mcpu", "mgpu")

SHAPES = [
    ConvolutionShape(8, 8, 6, 6, 3, 3),
    ConvolutionShape(64, 64, 16, 16, 3, 3),
    ConvolutionShape(16, 32, 8, 8, 1, 1),
    ConvolutionShape(32, 32, 14, 14, 5, 5),
    ConvolutionShape(12, 24, 10, 10, 3, 3),
]


def _random_nests(platform, count: int = 24, seed: int = 0):
    """Random scheduled-and-lowered nests: naive, tuned-template and dense."""
    rng = make_rng(seed)
    nests = [lower(create_schedule(dense_compute(32, 10, 64)))]
    for shape in SHAPES:
        computation = conv2d_compute(shape)
        nests.append(lower(create_schedule(computation)))
        while len(nests) < count and len(nests) % len(SHAPES) != 0:
            params = tuning_oracle.sample_parameters(computation, platform, rng)
            nests.append(lower(tuning_oracle.default_schedule(computation, platform,
                                                              params)))
    return nests[:count]


class TestBatchCostModelEquivalence:
    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_batch_matches_scalar_exactly(self, platform_name):
        """Property-style: random nests, every estimate field bit-identical."""
        platform = get_platform(platform_name)
        for seed in (0, 1, 2):
            nests = _random_nests(platform, seed=seed)
            batch = estimate_latency_batch(nests, platform)
            assert len(batch) == len(nests)
            for nest, batched in zip(nests, batch):
                scalar = tuning_oracle.estimate_latency(nest, platform)
                # Frozen-dataclass equality covers every field, including
                # the seconds, the traffic and the quality factors.
                assert batched == scalar

    def test_empty_batch(self):
        assert estimate_latency_batch([], get_platform("cpu")) == []

    def test_footprint_bytes_matches_python_reference(self):
        """The memoised per-depth footprint table equals the direct loop."""
        platform = get_platform("cpu")
        for nest in _random_nests(platform, count=8):
            for depth in range(len(nest.loops) + 1):
                unique = tuning_oracle._tensor_footprints(nest, depth)
                expected = sum(unique.values()) * nest.element_bytes
                assert nest.footprint_bytes(depth) == expected

    def test_traffic_arrays_dropped_on_pickle(self):
        nest = _random_nests(get_platform("cpu"), count=2)[1]
        nest.traffic_arrays()
        clone = pickle.loads(pickle.dumps(nest))
        assert clone == nest
        assert "_traffic_arrays" not in clone.__dict__


class TestTunerFastPath:
    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_seed_pinned_equivalence_with_reference(self, platform_name):
        """The fast path returns the legacy tuner's exact results."""
        platform = get_platform(platform_name)
        for shape in SHAPES[:3]:
            computation = conv2d_compute(shape)
            for trials, seed in ((1, 0), (8, 0), (24, 1), (24, None)):
                fast = AutoTuner(trials=trials, seed=seed).tune(computation, platform)
                reference = tuning_oracle.reference_tune(
                    computation, platform, trials=trials, seed=seed)
                assert fast.seconds == reference.seconds
                assert fast.parameters == reference.parameters
                assert fast.nest == reference.nest
                assert fast.estimate == reference.estimate

    @pytest.mark.parametrize("platform_name", ("cpu", "gpu"))
    def test_stage_primitive_path_matches_reference(self, platform_name):
        """Templates the integer-array path leaves to the Stage primitives
        (a flow dependence; a single output-parallel loop) tune — or fail —
        exactly like the oracle."""
        def outcome(tune):
            try:
                result = tune()
            except Exception as error:  # noqa: BLE001 - compared below
                return type(error), str(error)
            return result.seconds, result.parameters, result.nest

        i, j, k = (AffineExpr.var(name) for name in "ijk")
        stencil = Statement.create(
            "stencil", Domain.of(i=8, j=8),
            writes=[Access("A", AffineMap((i, j)), is_write=True)],
            reads=[Access("A", AffineMap((AffineExpr.of({"i": 1}, 1),
                                          AffineExpr.of({"j": 1}, -1))))])
        row_sums = Statement.create(
            "row_sums", Domain.of(i=16, k=4),
            writes=[Access("O", AffineMap((i,)), is_write=True)],
            reads=[Access("A", AffineMap((i, k))), Access("O", AffineMap((i,)))])
        platform = get_platform(platform_name)
        for statement in (stencil, row_sums):
            computation = Computation(statement.name, statement)
            for trials, seed in ((1, 0), (12, 0), (12, 3)):
                assert outcome(lambda: AutoTuner(trials=trials, seed=seed).tune(
                    computation, platform)) == outcome(lambda: tuning_oracle.reference_tune(
                        computation, platform, trials=trials, seed=seed))

    @pytest.mark.parametrize("platform_name", ("cpu", "gpu"))
    def test_context_sampling_matches_legacy_stream(self, platform_name):
        """TuningContext.sample consumes the RNG like the oracle's sampler."""
        platform = get_platform(platform_name)
        computation = conv2d_compute(SHAPES[1])
        context = TuningContext.build(computation, platform)
        rng_fast, rng_legacy = make_rng(3), make_rng(3)
        for _ in range(50):
            assert context.sample(rng_fast) == tuning_oracle.sample_parameters(
                computation, platform, rng_legacy)
        # Both generators end in the same state.
        assert rng_fast.random() == rng_legacy.random()

    def test_duplicate_parameters_instantiated_once(self, monkeypatch):
        """Trials mapping to one schedule key share a single instantiation."""
        from repro.tenir import clear_tuning_contexts

        clear_tuning_contexts()  # start from a cold shared-context store
        platform = get_platform("cpu")
        computation = conv2d_compute(ConvolutionShape(8, 8, 4, 4, 3, 3))
        calls = {"count": 0}
        original = TuningContext.trial

        def counted(self, params, *args):
            calls["count"] += 1
            return original(self, params, *args)

        monkeypatch.setattr(TuningContext, "trial", counted)
        trials = 64
        AutoTuner(trials=trials, seed=0).tune(computation, platform)
        assert 0 < calls["count"] < trials, (
            "the small parameter space must dedupe most of the 64 trials")

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_oracle_never_runs_the_production_path(self, platform_name,
                                                   monkeypatch):
        """The oracle (the benchmark baseline) tunes with the fast path disabled."""
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle called the production tuning path")

        monkeypatch.setattr(cost_model, "estimate_latency_batch", forbidden)
        monkeypatch.setattr(cost_model, "estimate_dram_traffic_batch", forbidden)
        monkeypatch.setattr(autotune_module, "estimate_latency_batch", forbidden)
        monkeypatch.setattr(autotune_module, "shared_tuning_context", forbidden)
        monkeypatch.setattr(TuningContext, "build", forbidden)
        result = tuning_oracle.reference_tune(conv2d_compute(SHAPES[1]),
                                              get_platform(platform_name),
                                              trials=8, seed=0)
        assert result.seconds > 0


class TestEngineFastPath:
    def test_duplicate_missing_requests_count_as_misses(self):
        """Per-request accounting against the pre-call cache state."""
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=2, seed=0)
        shape = ConvolutionShape(8, 8, 6, 6, 3, 3)
        standard = predefined_program("standard")
        engine.tune_many([(shape, standard), (shape, standard)])
        assert engine.statistics.latency_misses == 2
        assert engine.statistics.latency_hits == 0
        # A repeat of the same batch is now all hits.
        engine.tune_many([(shape, standard), (shape, standard)])
        assert engine.statistics.latency_misses == 2
        assert engine.statistics.latency_hits == 2

    def test_cached_latency_reads_do_not_double_count(self):
        """Strategy read-backs after a batched submission leave stats alone."""
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=2, seed=0)
        shape = ConvolutionShape(8, 8, 6, 6, 3, 3)
        standard = predefined_program("standard")
        tuned = engine.tune_many([(shape, standard)])
        before = (engine.statistics.latency_hits, engine.statistics.latency_misses)
        assert engine.cached_latency(shape, standard) == tuned[0]
        assert (engine.statistics.latency_hits,
                engine.statistics.latency_misses) == before
        # A genuine miss falls back to the counting (and tuning) path.
        grouped = predefined_program("group", group=2)
        assert engine.cached_latency(shape, grouped) > 0
        assert engine.statistics.latency_misses == before[1] + 1

    def test_persistent_pool_reused_and_closed(self):
        shapes = SHAPES[:3]
        standard = predefined_program("standard")
        grouped = predefined_program("group", group=2)
        with EvaluationEngine(get_platform("cpu"), tuner_trials=2, seed=0,
                              parallel="process", max_workers=2) as engine:
            engine.tune_many([(s, standard) for s in shapes])
            first = engine._pool
            assert first is not None
            engine.tune_many([(s, grouped) for s in shapes])
            assert engine._pool is first, (
                "the executor must be reused across tune_many calls")
        assert engine._pool is None
        # close() is idempotent and a closed engine still works (serially
        # or by recreating a pool on demand).
        engine.close()
        extra = engine.tune_many([(ConvolutionShape(8, 8, 4, 4, 3, 3), standard)])
        assert extra[0] > 0

    def test_parallel_modes_identical_through_persistent_pool(self):
        items = [(shape, predefined_program("standard")) for shape in SHAPES[:4]]
        platform = get_platform("cpu")
        reference = EvaluationEngine(platform, tuner_trials=3, seed=0).tune_many(items)
        with EvaluationEngine(platform, tuner_trials=3, seed=0,
                              parallel="process", max_workers=2) as engine:
            # Two batches through the same persistent pool.
            half = len(items) // 2
            first = engine.tune_many(items[:half])
            second = engine.tune_many(items[half:])
            assert first + second == reference


class TestDivisorsMemoisation:
    def test_results_are_fresh_lists(self):
        first = divisors(360)
        first.append(-1)
        assert divisors(360) == [1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20, 24,
                                 30, 36, 40, 45, 60, 72, 90, 120, 180, 360]

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            divisors(0)
        with pytest.raises(ValueError):
            divisors(-4)
