"""Tests for the candidate encoding, the latency surrogate and the
predictor-guided / multi-fidelity search strategies."""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro import nn
from repro.core.acquisition import ACQUISITIONS
from repro.core.encoding import (
    ENCODINGS,
    FEATURE_NAMES,
    encode_batch,
    encode_candidate,
    feature_dict,
)
from repro.core.engine import EvaluationEngine
from repro.core.predictor import LEARNERS, LatencyPredictor
from repro.core.search import UnifiedSearch
from repro.core.sequences import paper_sequences, predefined_program
from repro.core.unified_space import UnifiedSpaceConfig
from repro.data import SyntheticImageDataset
from repro.errors import SearchError
from repro.hardware import get_platform
from repro.poly.statement import ConvolutionShape

SHAPE = ConvolutionShape(16, 16, 8, 8, 3, 3)
STANDARD = predefined_program("standard")


def _small_model(seed: int = 0) -> nn.Module:
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.ConvBNReLU(3, 8, 3, rng=rng),
        nn.BasicResidualBlock(8, 16, stride=2, rng=rng),
        nn.BasicResidualBlock(16, 16, rng=rng),
        nn.GlobalAvgPool2d(), nn.Linear(16, 10, rng=rng))


class TestEncoding:
    def test_fixed_width_and_deterministic(self):
        for program in [STANDARD, *paper_sequences().values()]:
            first = encode_candidate(SHAPE, program)
            second = encode_candidate(SHAPE, program)
            assert first.shape == (len(FEATURE_NAMES),)
            assert np.array_equal(first, second)

    def test_standard_program_has_no_primitive_counts(self):
        features = feature_dict(encode_candidate(SHAPE, STANDARD))
        assert features["steps_total"] == 0.0
        assert features["is_neural"] == 0.0
        assert all(features[f"count_{name}"] == 0.0
                   for name in ("tile", "split", "group", "bottleneck"))

    def test_neural_program_sets_flags_and_factors(self):
        program = predefined_program("group", group=2)
        features = feature_dict(encode_candidate(SHAPE, program))
        assert features["is_neural"] == 1.0
        assert features["count_group"] >= 1.0
        assert features["log2_group_factor"] == 1.0
        # Grouping by 2 halves the MACs.
        assert features["log2_mac_reduction"] == pytest.approx(1.0)

    def test_shape_features_track_extents(self):
        small = feature_dict(encode_candidate(SHAPE, STANDARD))
        big_shape = ConvolutionShape(32, 16, 8, 8, 3, 3)
        big = feature_dict(encode_candidate(big_shape, STANDARD))
        assert big["log2_c_out"] == small["log2_c_out"] + 1.0
        assert big["log2_macs"] == small["log2_macs"] + 1.0

    def test_encode_batch_stacks_rows(self):
        programs = [STANDARD, *paper_sequences().values()]
        matrix = encode_batch([(SHAPE, program) for program in programs])
        assert matrix.shape == (len(programs), len(FEATURE_NAMES))
        assert encode_batch([]).shape == (0, len(FEATURE_NAMES))


class TestLatencyPredictor:
    def _observations(self):
        """Candidates labelled by a deterministic function of the encoding."""
        rng = np.random.default_rng(7)
        weights = rng.normal(scale=0.05, size=len(FEATURE_NAMES))
        entries = []
        for c_out in (8, 16, 32):
            shape = ConvolutionShape(c_out, 16, 8, 8, 3, 3)
            for program in [STANDARD, *paper_sequences().values()]:
                vector = encode_candidate(shape, program)
                entries.append((shape, program,
                                1e-4 * float(np.exp(vector @ weights))))
        return entries

    def test_cold_start_refuses_predictions(self):
        predictor = LatencyPredictor(min_observations=4)
        assert not predictor.ready
        with pytest.raises(SearchError):
            predictor.predict(SHAPE, STANDARD)

    def test_fit_and_predict_recovers_synthetic_latencies(self):
        predictor = LatencyPredictor(min_observations=4, l2=1e-8)
        entries = self._observations()
        predictor.observe_many(entries, trials=4)
        assert predictor.fit()
        assert not predictor.fit()  # lazy: nothing new to learn
        predicted = predictor.predict_batch(
            [(shape, program) for shape, program, _ in entries], trials=4)
        actual = np.array([latency for _, _, latency in entries])
        assert np.abs(np.log(predicted) - np.log(actual)).max() < 0.2

    def test_mae_tracks_verified_predictions(self):
        predictor = LatencyPredictor(min_observations=4)
        entries = self._observations()
        predictor.observe_many(entries[:-1], trials=4)
        shape, program, latency = entries[-1]
        predictor.predict(shape, program, trials=4)
        assert predictor.statistics.verified_predictions == 0
        predictor.observe(shape, program, latency, trials=4)
        assert predictor.statistics.verified_predictions == 1
        assert predictor.statistics.mean_absolute_error >= 0.0

    def test_duplicate_observations_are_ignored(self):
        predictor = LatencyPredictor(min_observations=2)
        predictor.observe(SHAPE, STANDARD, 1e-4, trials=4)
        predictor.observe(SHAPE, STANDARD, 5e-4, trials=4)
        assert predictor.statistics.observations == 1

    def test_reference_scales_predictions(self):
        predictor = LatencyPredictor(min_observations=2, l2=1e-8)
        programs = list(paper_sequences().values())
        predictor.set_reference(SHAPE, 2e-4)
        for program, ratio in zip(programs, (0.5, 0.25, 0.75)):
            predictor.observe(SHAPE, program, 2e-4 * ratio, trials=4)
        predicted = predictor.predict(SHAPE, programs[0], trials=4)
        assert 0.0 < predicted < 2e-4

    def test_ensemble_is_deterministic(self):
        entries = self._observations()
        results = []
        for _ in range(2):
            predictor = LatencyPredictor(min_observations=4, ensemble_size=3,
                                         seed=11)
            predictor.observe_many(entries, trials=4)
            results.append(predictor.predict_batch(
                [(shape, program) for shape, program, _ in entries], trials=4))
        assert np.array_equal(results[0], results[1])

    def test_attach_trains_from_engine_tune_results(self):
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=3, seed=0)
        predictor = LatencyPredictor(min_observations=2)
        predictor.attach(engine)
        items = [(SHAPE, program) for program in paper_sequences().values()
                 if program.applicable(SHAPE)]
        latencies = engine.tune_many(items)
        assert predictor.statistics.observations == len(items)
        # Cache hits tune nothing, so nothing new is observed ...
        engine.tune_many(items)
        assert predictor.statistics.observations == len(items)
        # ... and the observed latencies equal the engine's own results.
        predictor.detach(engine)
        engine.tune_many([(SHAPE, STANDARD)])
        assert predictor.statistics.observations == len(items)
        assert all(latency > 0 for latency in latencies)


class TestModelGuidedDeterminism:
    """Same seed ⇒ identical search trajectory across engine modes."""

    @staticmethod
    def _run(strategy: str, parallel: str):
        dataset = SyntheticImageDataset.cifar10_like(
            train_size=32, test_size=16, image_size=8, seed=0)
        images, labels = dataset.random_minibatch(4, seed=0)
        with EvaluationEngine(get_platform("cpu"), tuner_trials=3, seed=0,
                              parallel=parallel, max_workers=2) as engine:
            search = UnifiedSearch(get_platform("cpu"), configurations=16,
                                   strategy=strategy,
                                   space=UnifiedSpaceConfig(seed=0), seed=0,
                                   engine=engine)
            result = search.search(_small_model(), images, labels,
                                   dataset.spec.image_shape)
            return result, tuple(sorted(map(repr, engine.cache_keys())))

    @pytest.mark.parametrize("strategy", ["model_guided", "hyperband"])
    def test_trajectory_identical_across_engine_modes(self, strategy):
        reference, reference_keys = self._run(strategy, "serial")
        for parallel in ("thread", "process"):
            result, keys = self._run(strategy, parallel)
            assert keys == reference_keys, f"{parallel} tuned different keys"
            assert result.optimized_latency_seconds == \
                reference.optimized_latency_seconds
            assert set(result.choices) == set(reference.choices)
            for name, choice in reference.choices.items():
                other = result.choices[name]
                assert other.sequence == choice.sequence, (parallel, name)
                assert other.latency_seconds == choice.latency_seconds
                assert other.fisher_score == choice.fisher_score
            reference_stats = dataclasses.asdict(reference.statistics)
            other_stats = dataclasses.asdict(result.statistics)
            # Wall clock and compile-trie telemetry are observability, not
            # search state: the trie is process-global (warm from earlier
            # runs, per-worker under process pools), so its counters are
            # mode- and history-dependent by design.
            for volatile in ("search_seconds", "compile_hits",
                             "compile_misses", "prefix_depth_saved"):
                reference_stats.pop(volatile)
                other_stats.pop(volatile)
            assert other_stats == reference_stats

    def test_repeated_runs_identical(self):
        first, first_keys = self._run("model_guided", "serial")
        second, second_keys = self._run("model_guided", "serial")
        assert first_keys == second_keys
        assert first.optimized_latency_seconds == second.optimized_latency_seconds
        assert {n: c.sequence for n, c in first.choices.items()} == \
            {n: c.sequence for n, c in second.choices.items()}


#: The full learner × acquisition × encoding matrix is the CI
#: ``predictor-matrix`` job's territory (REPRO_PREDICTOR_MATRIX=1);
#: the default tier-1 run keeps a covering subset — every learner, every
#: acquisition and every encoding appears at least once.
FULL_MATRIX = bool(os.environ.get("REPRO_PREDICTOR_MATRIX"))
PORTFOLIO_COMBOS = ([(learner, acquisition, encoding)
                     for learner in LEARNERS
                     for acquisition in ACQUISITIONS
                     for encoding in ENCODINGS]
                    if FULL_MATRIX else
                    [("ridge", "ei", "flat"),
                     ("ridge", "pi", "flat"),
                     ("ridge", "lcb", "flat"),
                     ("ridge", "thompson", "flat"),
                     ("ridge", "rank", "path"),
                     ("random_forest", "ei", "flat"),
                     ("gbrt", "lcb", "flat"),
                     ("gp", "thompson", "path")])
CHECKPOINT_COMBOS = (PORTFOLIO_COMBOS if FULL_MATRIX else
                     [("random_forest", "ei", "flat"),
                      ("gp", "lcb", "path")])


class TestPortfolioDeterminismMatrix:
    """Same seed ⇒ identical trajectory for every (learner, acquisition,
    encoding) — across engine modes and through checkpoint/resume."""

    @staticmethod
    def _run(learner: str, acquisition: str, encoding: str, parallel: str):
        dataset = SyntheticImageDataset.cifar10_like(
            train_size=32, test_size=16, image_size=8, seed=0)
        images, labels = dataset.random_minibatch(4, seed=0)
        with EvaluationEngine(get_platform("cpu"), tuner_trials=3, seed=0,
                              parallel=parallel, max_workers=2) as engine:
            search = UnifiedSearch(get_platform("cpu"), configurations=16,
                                   strategy="model_guided",
                                   space=UnifiedSpaceConfig(seed=0), seed=0,
                                   engine=engine, learner=learner,
                                   acquisition=acquisition, encoding=encoding)
            result = search.search(_small_model(), images, labels,
                                   dataset.spec.image_shape)
            return result, tuple(sorted(map(repr, engine.cache_keys())))

    @staticmethod
    def _fingerprint(result) -> dict:
        statistics = dataclasses.asdict(result.statistics)
        for volatile in ("search_seconds", "compile_hits", "compile_misses",
                         "prefix_depth_saved"):
            statistics.pop(volatile)
        return {"latency": result.optimized_latency_seconds,
                "choices": {name: (choice.sequence, choice.latency_seconds,
                                   choice.fisher_score)
                            for name, choice in result.choices.items()},
                "statistics": statistics}

    @pytest.mark.parametrize("learner,acquisition,encoding",
                             PORTFOLIO_COMBOS)
    def test_trajectory_identical_across_engine_modes(self, learner,
                                                      acquisition, encoding):
        reference, reference_keys = self._run(learner, acquisition,
                                              encoding, "serial")
        modes = ("serial", "thread", "process") if FULL_MATRIX \
            else ("serial", "thread")
        for parallel in modes:
            result, keys = self._run(learner, acquisition, encoding, parallel)
            assert keys == reference_keys, f"{parallel} tuned different keys"
            assert self._fingerprint(result) == self._fingerprint(reference), \
                f"{parallel} diverged for {learner}/{acquisition}/{encoding}"

    @pytest.mark.parametrize("learner,acquisition,encoding",
                             CHECKPOINT_COMBOS)
    def test_checkpoint_resume_bit_identical(self, learner, acquisition,
                                             encoding, tmp_path):
        import repro
        from repro.core.checkpoint import read_checkpoint

        from test_faults import stripped

        class AbortAfter:
            def __init__(self, batches: int):
                self.remaining = batches

            def __call__(self, event) -> None:
                if event.kind == "tune_batch":
                    self.remaining -= 1
                    if self.remaining <= 0:
                        raise KeyboardInterrupt("simulated kill")

        kwargs = dict(model="resnet18", platform="cpu",
                      strategy="model_guided", budget=10, trials=2, seed=3,
                      image_size=8, fisher_batch=2, learner=learner,
                      acquisition=acquisition, encoding=encoding)
        golden = repro.optimize(**kwargs)
        path = tmp_path / f"{learner}-{acquisition}-{encoding}.ckpt.json"
        with pytest.raises(KeyboardInterrupt):
            repro.optimize(**kwargs, checkpoint=path,
                           observer=AbortAfter(2))
        checkpoint = read_checkpoint(path)
        assert not checkpoint.completed
        # The portfolio selection survives the checkpoint round trip ...
        assert checkpoint.request_document["learner"] == learner
        assert checkpoint.request_document["acquisition"] == acquisition
        assert checkpoint.request_document["encoding"] == encoding
        # ... and the resumed run continues to the uninterrupted result.
        resumed = repro.resume_checkpoint(path)
        assert stripped(resumed) == stripped(golden)


class TestStrategyBehaviour:
    @pytest.fixture
    def minibatch(self):
        dataset = SyntheticImageDataset.cifar10_like(
            train_size=32, test_size=16, image_size=8, seed=0)
        return dataset, dataset.random_minibatch(4, seed=0)

    def test_model_guided_saves_evaluations(self, minibatch):
        dataset, (images, labels) = minibatch
        search = UnifiedSearch(get_platform("cpu"), configurations=16,
                               tuner_trials=3, strategy="model_guided",
                               space=UnifiedSpaceConfig(seed=0), seed=0)
        result = search.search(_small_model(), images, labels,
                               dataset.spec.image_shape)
        stats = result.statistics
        assert result.speedup >= 0.999
        assert stats.evaluations_saved > 0
        assert stats.full_tunings > 0
        assert stats.full_tunings <= search.configurations
        # The search keeps its surrogate for inspection and reuse.
        assert search.predictor is not None
        assert search.predictor.statistics.observations > 0

    def test_hyperband_uses_lower_fidelities(self, minibatch):
        dataset, (images, labels) = minibatch
        with EvaluationEngine(get_platform("cpu"), tuner_trials=6,
                              seed=0) as engine:
            search = UnifiedSearch(get_platform("cpu"), configurations=16,
                                   strategy="hyperband",
                                   space=UnifiedSpaceConfig(seed=0), seed=0,
                                   engine=engine)
            result = search.search(_small_model(), images, labels,
                                   dataset.spec.image_shape)
            fidelities = {key[3] for key in engine.cache_keys()}
            assert result.speedup >= 0.999
            assert min(fidelities) < engine.tuner_trials
            assert engine.tuner_trials in fidelities

    def test_facade_accepts_model_guided(self):
        import repro

        result = repro.optimize("resnet18", platform="cpu",
                                strategy="model_guided", budget=10, trials=2,
                                width=0.125, image_size=8)
        assert result.strategy == "model_guided"
        assert result.speedup >= 0.999
        statistics = result.search_statistics
        assert "predictor_mae" in statistics
        assert "evaluations_saved" in statistics
        assert "full_tunings" in statistics
        # The statistics survive the JSON round-trip.
        import json

        from repro.api import OptimizationResult

        document = json.loads(json.dumps(result.to_dict()))
        restored = OptimizationResult.from_dict(document)
        assert restored.search_statistics["evaluations_saved"] == \
            statistics["evaluations_saved"]

    def test_engine_trials_override_keys_fidelity_separately(self):
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=8, seed=0)
        full = engine.tuned_latency(SHAPE, STANDARD)
        low = engine.tuned_latency(SHAPE, STANDARD, trials=2)
        assert engine.latency_key(SHAPE, STANDARD)[3] == 8
        assert engine.latency_key(SHAPE, STANDARD, trials=2)[3] == 2
        assert engine.cache_size == 2
        # More trials can only improve (or match) the tuned schedule.
        assert full <= low


class TestConstantLiar:
    """Pending-point imputation (cl_min/cl_max/cl_mean) on the surrogate."""

    def _warm_predictor(self) -> LatencyPredictor:
        predictor = LatencyPredictor(min_observations=4, l2=1e-8)
        programs = list(paper_sequences().values())
        predictor.set_reference(SHAPE, 2e-4)
        for program, ratio in zip(programs, (0.5, 0.25, 0.75)):
            predictor.observe(SHAPE, program, 2e-4 * ratio, trials=4)
        predictor.observe(SHAPE, STANDARD, 2e-4, trials=4)
        return predictor

    def test_lie_values_follow_their_strategy(self):
        values = {}
        for strategy in ("cl_min", "cl_max", "cl_mean"):
            predictor = self._warm_predictor()
            values[strategy] = predictor.lie(SHAPE, STANDARD, trials=4,
                                             strategy=strategy)
        assert values["cl_min"] <= values["cl_mean"] <= values["cl_max"]
        assert values["cl_min"] < values["cl_max"]

    def test_lies_are_not_observations(self):
        predictor = self._warm_predictor()
        before = predictor.statistics.observations
        predictor.lie(SHAPE, STANDARD, trials=4, strategy="cl_mean")
        assert predictor.lies == 1
        assert predictor.statistics.observations == before
        assert predictor.retract_lies() == 1
        assert predictor.lies == 0

    def test_unknown_strategy_and_cold_lie_raise(self):
        predictor = self._warm_predictor()
        with pytest.raises(SearchError, match="liar"):
            predictor.lie(SHAPE, STANDARD, trials=4, strategy="cl_median")
        with pytest.raises(SearchError):
            LatencyPredictor().lie(SHAPE, STANDARD, trials=4,
                                   strategy="cl_mean")

    def test_lie_fits_do_not_clear_the_verification_ledger(self):
        predictor = self._warm_predictor()
        assert predictor.fit()
        assert predictor.statistics.fits == 1
        # A lie dirties the model; the refit it forces is a liar fit.
        predictor.lie(SHAPE, STANDARD, trials=4, strategy="cl_mean")
        predictor.predict(SHAPE, STANDARD, trials=4)
        assert predictor.statistics.fits == 1
        assert predictor.statistics.liar_fits == 1
        # Liar-biased predictions never enter the MAE ledger: tuning the
        # same key later verifies nothing.
        predictor.retract_lies()
        predictor.observe(ConvolutionShape(32, 16, 8, 8, 3, 3), STANDARD,
                          3e-4, trials=4)
        assert predictor.statistics.verified_predictions == 0
        # Real data arrived: the next fit is a real fit again.
        predictor.predict(SHAPE, STANDARD, trials=4)
        assert predictor.statistics.fits == 2

    def test_lies_bias_predictions_until_retracted(self):
        predictor = self._warm_predictor()
        program = list(paper_sequences().values())[0]
        honest = predictor.predict(SHAPE, program, trials=4)
        lying = self._warm_predictor()
        for _ in range(4):
            lying.lie(SHAPE, program, trials=4, strategy="cl_max")
        biased = lying.predict(SHAPE, program, trials=4)
        assert biased != honest
        lying.retract_lies()
        assert lying.predict(SHAPE, program, trials=4) == \
            pytest.approx(honest)


class TestLiarBatchSearch:
    """model_guided's batch-concurrent rounds under constant-liar."""

    @staticmethod
    def _run(liar: str, seed: int = 0):
        dataset = SyntheticImageDataset.cifar10_like(
            train_size=32, test_size=16, image_size=8, seed=0)
        images, labels = dataset.random_minibatch(4, seed=0)
        events = []
        search = UnifiedSearch(get_platform("cpu"), configurations=16,
                               tuner_trials=3, strategy="model_guided",
                               space=UnifiedSpaceConfig(seed=seed), seed=seed,
                               observer=lambda event: events.append(event.kind),
                               liar=liar)
        result = search.search(_small_model(), images, labels,
                               dataset.spec.image_shape)
        return search, result, events

    def test_unknown_liar_rejected(self):
        with pytest.raises(SearchError, match="liar"):
            UnifiedSearch(get_platform("cpu"), liar="cl_median")

    def test_refits_on_real_data_once_per_round(self):
        search, result, events = self._run("cl_mean")
        statistics = search.predictor.statistics
        assert result.speedup >= 0.999
        # Liar selection refits the surrogate between picks, but every
        # fit that consumes real observations is one of the once-per-round
        # top-of-round fits — exactly the predictor_fitted events.
        assert statistics.liar_fits > 0
        assert statistics.fits == events.count("predictor_fitted")
        assert statistics.fits < statistics.predictions
        # All lies were retracted before the round's real tunings.
        assert search.predictor.lies == 0

    def test_static_ranking_keeps_old_behaviour(self):
        search, result, _events = self._run("none")
        assert result.speedup >= 0.999
        assert search.predictor.statistics.liar_fits == 0

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_static_ranking_breaks_ties_to_the_first_candidate(self, seed,
                                                              monkeypatch):
        """With every prediction tied, each round tunes the first untuned
        candidate of each shape, whatever sort kernel numpy dispatches to."""
        log = []

        def tied(self, items, *, trials=1):
            items = list(items)
            log.append(("predict", items))
            return np.ones(len(items)), np.zeros(len(items))

        tune_many = EvaluationEngine.tune_many

        def recorded(self, items, *args, **kwargs):
            items = list(items)
            log.append(("tune", items))
            return tune_many(self, items, *args, **kwargs)

        monkeypatch.setattr(LatencyPredictor, "predict_batch_with_std", tied)
        monkeypatch.setattr(EvaluationEngine, "tune_many", recorded)
        self._run("none", seed=seed)
        rounds = [(untuned, batch) for (kind, untuned), (_, batch)
                  in zip(log, log[1:]) if kind == "predict"]
        assert rounds
        for untuned, batch in rounds:
            first: dict = {}
            for shape, program in untuned:
                first.setdefault(shape, (shape, program))
            assert batch and all(pair == first[pair[0]] for pair in batch)

    def test_liar_runs_are_deterministic(self):
        first_search, first, _ = self._run("cl_mean")
        second_search, second, _ = self._run("cl_mean")
        assert first.optimized_latency_seconds == \
            second.optimized_latency_seconds
        assert {n: c.sequence for n, c in first.choices.items()} == \
            {n: c.sequence for n, c in second.choices.items()}
        assert first_search.predictor.statistics.fits == \
            second_search.predictor.statistics.fits
