"""Tests for the shared evaluation engine and the strategy registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro import OptimizationSession, nn
from repro.core.engine import EvaluationEngine
from repro.core.program import TransformProgram, step
from repro.core.sequences import predefined_program
from repro.core.search import (
    SEARCH_STRATEGY_REGISTRY,
    UnifiedSearch,
    get_strategy,
    register_strategy,
)
from repro.core.workloads import extract_workloads
from repro.data import SyntheticImageDataset
from repro.errors import EngineError, SearchError
from repro.experiments.common import PipelineScale, compare_approaches
from repro.fisher import fisher_key, fisher_profile
from repro.hardware import get_platform
from repro.models import resnet34
from repro.poly.statement import ConvolutionShape
from repro.tenir.autotune import AutoTuner


def _small_model(seed: int = 0) -> nn.Module:
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.ConvBNReLU(3, 8, 3, rng=rng),
        nn.BasicResidualBlock(8, 16, stride=2, rng=rng),
        nn.BasicResidualBlock(16, 16, rng=rng),
        nn.GlobalAvgPool2d(), nn.Linear(16, 10, rng=rng))


@pytest.fixture
def dataset():
    return SyntheticImageDataset.cifar10_like(train_size=32, test_size=16, image_size=8, seed=0)


@pytest.fixture
def minibatch(dataset):
    return dataset.random_minibatch(4, seed=0)


@pytest.fixture
def tune_counter(monkeypatch):
    """Count every AutoTuner.tune call made anywhere in the process."""
    calls = {"count": 0}
    original = AutoTuner.tune

    def counted(self, computation, platform):
        calls["count"] += 1
        return original(self, computation, platform)

    monkeypatch.setattr(AutoTuner, "tune", counted)
    return calls


def _fisher_oracle(minibatch):
    """A fresh Fisher oracle over the small model, plus its workloads by name."""
    model = _small_model()
    images, labels = minibatch
    oracle = EvaluationEngine(get_platform("cpu")).fisher_oracle(
        fisher_key(model, images, labels),
        lambda: fisher_profile(model, images, labels))
    return oracle, {w.name: w for w in extract_workloads(model, images.shape[1:])}


def _items(n: int = 6) -> list[tuple[ConvolutionShape, TransformProgram]]:
    shapes = [ConvolutionShape(8 * (1 + i % 2), 8, 4 + 2 * (i % 3), 4 + 2 * (i % 3), 3, 3)
              for i in range(n)]
    sequences = [predefined_program("standard"), predefined_program("group", group=2)]
    return [(shape, sequences[i % 2]) for i, shape in enumerate(shapes)]


class TestEngineCache:
    def test_tuned_latency_is_memoised(self, tune_counter):
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=3, seed=0)
        shape = ConvolutionShape(8, 8, 6, 6, 3, 3)
        first = engine.tuned_latency(shape, predefined_program("standard"))
        calls = tune_counter["count"]
        second = engine.tuned_latency(shape, predefined_program("standard"))
        assert first == second
        assert tune_counter["count"] == calls
        assert engine.statistics.latency_hits == 1
        assert engine.statistics.latency_misses == 1

    def test_more_tuner_trials_never_report_a_worse_latency(self):
        shape = ConvolutionShape(16, 16, 8, 8, 3, 3)
        standard = predefined_program("standard")
        full = EvaluationEngine(get_platform("cpu"), tuner_trials=8,
                                seed=0).tuned_latency(shape, standard)
        low = EvaluationEngine(get_platform("cpu"), tuner_trials=2,
                               seed=0).tuned_latency(shape, standard)
        # More trials can only improve (or match) the tuned schedule.
        assert full <= low

    def test_second_search_on_warm_engine_does_zero_tuner_calls(
            self, dataset, minibatch, tune_counter):
        images, labels = minibatch
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=3, seed=0)
        search = UnifiedSearch(get_platform("cpu"), configurations=10,
                               seed=0, engine=engine)
        first = search.search(_small_model(), images, labels, dataset.spec.image_shape)
        warm = tune_counter["count"]
        assert warm > 0
        second = search.search(_small_model(), images, labels, dataset.spec.image_shape)
        assert tune_counter["count"] == warm, "warm engine must not re-tune anything"
        assert second.optimized_latency_seconds == first.optimized_latency_seconds

    def test_tune_many_parallel_matches_serial_bit_for_bit(self):
        platform = get_platform("cpu")
        serial = EvaluationEngine(platform, tuner_trials=3, seed=0)
        reference = serial.tune_many(_items())
        with EvaluationEngine(platform, tuner_trials=3, seed=0,
                              parallel="process", max_workers=2) as engine:
            assert engine.tune_many(_items()) == reference

    def test_tune_many_deduplicates_and_orders(self, tune_counter):
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=3, seed=0)
        shape = ConvolutionShape(8, 8, 6, 6, 3, 3)
        standard = predefined_program("standard")
        results = engine.tune_many([(shape, standard)] * 4)
        assert len(results) == 4 and len(set(results)) == 1
        assert tune_counter["count"] == 1
        assert engine.cache_size == 1

    def test_seed_is_part_of_the_key(self):
        platform = get_platform("cpu")
        engine_a = EvaluationEngine(platform, tuner_trials=4, seed=0)
        engine_b = EvaluationEngine(platform, tuner_trials=4, seed=7)
        shape = ConvolutionShape(16, 16, 8, 8, 3, 3)
        standard = predefined_program("standard")
        engine_a.tuned_latency(shape, standard)
        engine_b.tuned_latency(shape, standard)
        assert engine_a.cache_keys() != engine_b.cache_keys()

    def test_rejects_bad_configuration(self):
        with pytest.raises(EngineError):
            EvaluationEngine(get_platform("cpu"), tuner_trials=0)
        for mode in ("gpu", "thread"):
            with pytest.raises(EngineError):
                EvaluationEngine(get_platform("cpu"), parallel=mode)


class TestFisherOracle:
    @pytest.mark.parametrize("first,second", [
        (predefined_program("seq2", unroll=8), predefined_program("seq2", unroll=16)),
        (TransformProgram("group", (step("group", factor=2),)),
         TransformProgram("group", (step("group", factor=2), step("reorder", front=("g",))))),
    ], ids=["unroll", "reorder"])
    def test_programs_deriving_one_operator_share_its_score(
            self, minibatch, derivations, first, second):
        oracle, workloads = _fisher_oracle(minibatch)
        workload = workloads["layer2.conv1"]
        assert first != second
        assert first.conv_config(workload.shape) == second.conv_config(workload.shape)
        scores = [oracle.candidate_fisher(workload, first),
                  oracle.candidate_fisher(workload, second)]
        assert np.isfinite(scores[0]) and scores[0] == scores[1]
        assert derivations["scored"] == ["layer2.conv1"]
        statistics = oracle.engine.statistics
        assert (statistics.fisher_hits, statistics.fisher_misses) == (0, 2)
        oracle.candidate_fisher(workload, second)
        assert (statistics.fisher_hits, statistics.fisher_misses) == (1, 2)
        # The shared score is the one the second program earns on its own.
        alone, _ = _fisher_oracle(minibatch)
        assert alone.candidate_fisher(workload, second) == scores[1]

    def test_infeasible_operator_scores_minus_inf_for_both_programs(
            self, minibatch, derivations):
        # The loop nests accept this split, but its operator cannot be built:
        # bottleneck factors fold across nests by max, so each split maps
        # 8 -> 2 channels and the second cannot group by 8.
        steps = (step("split", parts=2),
                 step("bottleneck", iterator="co", factor=4, nest=0),
                 step("group", factor=8, nest=1))
        first = TransformProgram("split", steps)
        second = TransformProgram("split", steps + (step("unroll", iterator="kw", factor=3),))
        oracle, workloads = _fisher_oracle(minibatch)
        workload = workloads["layer1.conv1"]
        assert first.conv_config(workload.shape) == second.conv_config(workload.shape)
        assert [oracle.candidate_fisher(workload, first),
                oracle.candidate_fisher(workload, second)] == [-np.inf, -np.inf]
        assert len(derivations["built"]) == 1 and derivations["scored"] == []
        assert oracle.engine.statistics.fisher_misses == 2

    def test_store_serves_scores_to_later_engines(self, minibatch, derivations,
                                                  tmp_path):
        model = _small_model()
        images, labels = minibatch
        workloads = {w.name: w for w in extract_workloads(model, images.shape[1:])}
        builds = []

        def build():
            builds.append(len(builds))
            return fisher_profile(model, images, labels)

        def oracle(seed: int):
            engine = EvaluationEngine(get_platform("cpu"), seed=seed,
                                      cache_store=tmp_path)
            return engine.fisher_oracle(fisher_key(model, images, labels), build)

        grouped = TransformProgram("group", (step("group", factor=2),))
        # bottleneck folds by max across nests, so the second split cannot
        # group by 8: the operator cannot be built and scores -inf
        infeasible = TransformProgram("split", (
            step("split", parts=2),
            step("bottleneck", iterator="co", factor=4, nest=0),
            step("group", factor=8, nest=1)))
        requests = [(workloads["layer2.conv1"], grouped),
                    (workloads["layer1.conv1"], infeasible)]
        cold = oracle(0)
        scores = cold.candidate_fisher_many(requests)
        assert np.isfinite(scores[0]) and scores[1] == -np.inf
        cold.engine.save_cache()
        assert len(builds) == 1 and len(derivations["built"]) == 2

        warm = oracle(0)
        assert warm.candidate_fisher_many(requests) == scores
        assert warm.scores == cold.scores
        assert len(builds) == 1 and len(derivations["built"]) == 2
        statistics = warm.engine.statistics
        assert (statistics.fisher_profiles, statistics.fisher_scored) == (0, 0)
        assert (statistics.fisher_hits, statistics.fisher_misses) == (0, 2)

        # Another engine seed initialises every operator differently: the
        # per-layer scores still come from the store, and the profile pass
        # runs only when the first operator has to be derived.
        reseeded = oracle(7)
        assert len(builds) == 1 and reseeded.scores == cold.scores
        reseeded.candidate_fisher(*requests[0])
        assert len(builds) == 2 and len(derivations["built"]) == 3
        statistics = reseeded.engine.statistics
        assert (statistics.fisher_profiles, statistics.fisher_scored) == (1, 1)


class TestDiskCache:
    def test_round_trip(self, tmp_path, tune_counter):
        platform = get_platform("cpu")
        engine = EvaluationEngine(platform, tuner_trials=3, seed=0, cache_store=tmp_path)
        reference = engine.tune_many(_items())
        engine.save_cache()
        cold_calls = tune_counter["count"]

        warm = EvaluationEngine(platform, tuner_trials=3, seed=0, cache_store=tmp_path)
        assert warm.statistics.loaded_entries == engine.cache_size
        assert warm.tune_many(_items()) == reference
        assert tune_counter["count"] == cold_calls, "persisted entries must not re-tune"

    def test_different_trials_do_not_collide(self, tmp_path):
        platform = get_platform("cpu")
        engine = EvaluationEngine(platform, tuner_trials=3, seed=0, cache_store=tmp_path)
        engine.tune_many(_items(2))
        engine.save_cache()
        other = EvaluationEngine(platform, tuner_trials=5, seed=0, cache_store=tmp_path)
        shape, sequence = _items(2)[0]
        other.tuned_latency(shape, sequence)
        assert other.statistics.tuner_calls > 0, "other trial count is a different key"

    def test_save_without_path_raises(self):
        engine = EvaluationEngine(get_platform("cpu"))
        with pytest.raises(EngineError):
            engine.save_cache()


class TestStrategyRegistry:
    def test_unknown_strategy_rejected_at_construction(self):
        with pytest.raises(SearchError):
            UnifiedSearch(get_platform("cpu"), strategy="simulated-annealing")

    def test_get_strategy_rejects_unknown(self):
        with pytest.raises(SearchError):
            get_strategy("does-not-exist")

    def test_builtin_strategies_registered(self):
        for name in ("greedy", "random", "evolutionary", "model_guided"):
            assert name in SEARCH_STRATEGY_REGISTRY
            assert get_strategy(name).name == name

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SearchError):
            @register_strategy("greedy")
            class Duplicate:  # pragma: no cover - rejected before use
                def run(self, search, context):
                    return None, float("inf")

    def test_custom_strategy_plugs_in(self, dataset, minibatch):
        name = "test-standard-only"

        @register_strategy(name)
        class StandardOnly:
            """Trivially returns the program-only configuration."""

            def run(self, search, context):
                assignment = {w.name: context.standard for w in context.workloads}
                return assignment, search._assignment_latency(context, assignment)

        try:
            images, labels = minibatch
            search = UnifiedSearch(get_platform("cpu"), configurations=5,
                                   tuner_trials=3, strategy=name, seed=0)
            result = search.search(_small_model(), images, labels, dataset.spec.image_shape)
            assert result.optimized_latency_seconds == pytest.approx(
                result.baseline_latency_seconds)
            assert all(not c.sequence.is_neural for c in result.choices.values())
        finally:
            SEARCH_STRATEGY_REGISTRY.pop(name)

    def test_engine_platform_mismatch_rejected(self):
        engine = EvaluationEngine(get_platform("gpu"))
        with pytest.raises(SearchError):
            UnifiedSearch(get_platform("cpu"), engine=engine)


class TestPipelineAccounting:
    def test_compare_approaches_tunes_each_unique_workload_once(self, dataset, tune_counter):
        scale = PipelineScale(width_multiplier=0.125, image_size=8, fisher_batch=4,
                              configurations=10, tuner_trials=3, train_size=32, test_size=16)
        with OptimizationSession(tuner_trials=3, seed=0) as session:
            result = compare_approaches("tiny-resnet",
                                        lambda: resnet34(width_multiplier=0.125),
                                        "cpu", session=session, scale=scale,
                                        dataset=dataset, seed=0)
            # The three approaches shared the session's one cpu engine.
            assert len(session.engines) == 1
            engine = session.engine("cpu")
            # Exactly one AutoTuner.tune per loop nest of each unique
            # (shape, sequence) pair — seq3 builds two nests, the rest one.
            expected = sum(len(sequence.build_computations(shape))
                           for _platform, shape, sequence, _trials, _seed
                           in engine.cache_keys())
            assert tune_counter["count"] == expected
            assert engine.statistics.tuner_calls == expected

            # The shared oracle makes the TVM totals agree without rescaling.
            assert result.speedups()["TVM"] == pytest.approx(1.0)

            # A repeated comparison in the warm session re-tunes nothing.
            compare_approaches("tiny-resnet", lambda: resnet34(width_multiplier=0.125),
                               "cpu", session=session, scale=scale, dataset=dataset,
                               seed=0)
            assert tune_counter["count"] == expected
