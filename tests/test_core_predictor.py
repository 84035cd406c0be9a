"""Tests for the candidate encoding, the latency surrogate and the
predictor-guided / multi-fidelity search strategies."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro import nn
from repro.core.encoding import (
    FEATURE_NAMES,
    encode_batch,
    encode_candidate,
    feature_dict,
)
from repro.core.engine import EvaluationEngine
from repro.core.predictor import LatencyPredictor
from repro.core.program import program_to_dict
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


def _predict(predictor: LatencyPredictor, shape, program, *,
             trials: int = 4) -> float:
    return float(predictor.predict_batch([(shape, program)], trials=trials)[0])


def _observe_all(predictor: LatencyPredictor, entries, *, trials: int = 4):
    for shape, program, seconds in entries:
        predictor.observe(shape, program, seconds, trials=trials)


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
            _predict(predictor, SHAPE, STANDARD)

    def test_fit_and_predict_recovers_synthetic_latencies(self):
        predictor = LatencyPredictor(min_observations=4, l2=1e-8)
        entries = self._observations()
        _observe_all(predictor, entries)
        assert predictor.fit()
        assert not predictor.fit()  # lazy: nothing new to learn
        predicted = predictor.predict_batch(
            [(shape, program) for shape, program, _ in entries], trials=4)
        actual = np.array([latency for _, _, latency in entries])
        assert np.abs(np.log(predicted) - np.log(actual)).max() < 0.2

    def test_mae_tracks_verified_predictions(self):
        predictor = LatencyPredictor(min_observations=4)
        entries = self._observations()
        _observe_all(predictor, entries[:-1])
        shape, program, latency = entries[-1]
        _predict(predictor, shape, program)
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
        predicted = _predict(predictor, SHAPE, programs[0])
        assert 0.0 < predicted < 2e-4

    def test_refit_depends_only_on_the_observations(self):
        """A model refit after more data equals one fit once on all of it,
        bit for bit: no state carries over from an earlier fit."""
        entries = self._observations()
        pairs = [(shape, program) for shape, program, _ in entries]
        incremental = LatencyPredictor(min_observations=4)
        _observe_all(incremental, entries[:6])
        incremental.predict_batch(pairs, trials=4)
        _observe_all(incremental, entries[6:])
        once = LatencyPredictor(min_observations=4)
        _observe_all(once, entries)
        assert np.array_equal(incremental.predict_batch(pairs, trials=4),
                              once.predict_batch(pairs, trials=4))
        assert incremental.statistics.fits == 2
        assert once.statistics.fits == 1

    def test_predict_batch_with_std_reports_zero_spread(self):
        predictor = LatencyPredictor(min_observations=4)
        entries = self._observations()
        _observe_all(predictor, entries)
        pairs = [(shape, program) for shape, program, _ in entries]
        mean, std = predictor.predict_batch_with_std(pairs, trials=4)
        assert np.array_equal(mean, predictor.predict_batch(pairs, trials=4))
        assert np.array_equal(std, np.zeros(len(pairs)))


class TestModelGuidedDeterminism:
    """Same seed ⇒ identical search trajectory across engine modes."""

    @staticmethod
    def _run(strategy: str, parallel: str, liar: str = "cl_mean"):
        dataset = SyntheticImageDataset.cifar10_like(
            train_size=32, test_size=16, image_size=8, seed=0)
        images, labels = dataset.random_minibatch(4, seed=0)
        with EvaluationEngine(get_platform("cpu"), tuner_trials=3, seed=0,
                              parallel=parallel, max_workers=2) as engine:
            search = UnifiedSearch(get_platform("cpu"), configurations=16,
                                   strategy=strategy,
                                   space=UnifiedSpaceConfig(seed=0), seed=0,
                                   engine=engine, liar=liar)
            result = search.search(_small_model(), images, labels,
                                   dataset.spec.image_shape)
            return result, tuple(sorted(map(repr, engine.cache_keys())))

    def _assert_modes_agree(self, strategy: str, liar: str = "cl_mean"):
        reference, reference_keys = self._run(strategy, "serial", liar)
        for parallel in ("thread", "process"):
            result, keys = self._run(strategy, parallel, liar)
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

    @pytest.mark.parametrize("strategy", ["model_guided", "hyperband"])
    def test_trajectory_identical_across_engine_modes(self, strategy):
        self._assert_modes_agree(strategy)

    @pytest.mark.parametrize("liar", ["cl_min", "cl_max", "none"])
    def test_liar_trajectory_identical_across_engine_modes(self, liar):
        """The other liar values (cl_mean is the default above) pick the
        same batches whether the engine tunes serially, on threads or in
        worker processes."""
        self._assert_modes_agree("model_guided", liar)

    def test_repeated_runs_identical(self):
        first, first_keys = self._run("model_guided", "serial")
        second, second_keys = self._run("model_guided", "serial")
        assert first_keys == second_keys
        assert first.optimized_latency_seconds == second.optimized_latency_seconds
        assert {n: c.sequence for n, c in first.choices.items()} == \
            {n: c.sequence for n, c in second.choices.items()}


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
        _predict(predictor, SHAPE, STANDARD)
        assert predictor.statistics.fits == 1
        assert predictor.statistics.liar_fits == 1
        # Liar-biased predictions never enter the MAE ledger: tuning the
        # same key later verifies nothing.
        predictor.retract_lies()
        predictor.observe(ConvolutionShape(32, 16, 8, 8, 3, 3), STANDARD,
                          3e-4, trials=4)
        assert predictor.statistics.verified_predictions == 0
        # Real data arrived: the next fit is a real fit again.
        _predict(predictor, SHAPE, STANDARD)
        assert predictor.statistics.fits == 2

    def test_lies_bias_predictions_until_retracted(self):
        predictor = self._warm_predictor()
        program = list(paper_sequences().values())[0]
        honest = _predict(predictor, SHAPE, program)
        lying = self._warm_predictor()
        for _ in range(4):
            lying.lie(SHAPE, program, trials=4, strategy="cl_max")
        biased = _predict(lying, SHAPE, program)
        assert biased != honest
        lying.retract_lies()
        assert _predict(lying, SHAPE, program) == pytest.approx(honest)


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

    def _rounds(self, liar: str, seed: int, monkeypatch, predicted):
        """Run a search whose surrogate answers ``predicted(items)``; return
        each ready round's untuned candidates and the batch it tuned."""
        log = []

        def patched(self, items, *, trials=1):
            items = list(items)
            log.append(("predict", items))
            return predicted(items)

        tune_many = EvaluationEngine.tune_many

        def recorded(self, items, *args, **kwargs):
            items = list(items)
            log.append(("tune", items))
            return tune_many(self, items, *args, **kwargs)

        monkeypatch.setattr(LatencyPredictor, "predict_batch", patched)
        monkeypatch.setattr(EvaluationEngine, "tune_many", recorded)
        self._run(liar, seed=seed)
        # A round's first prediction covers every untuned candidate; the
        # next tune_many call is the round's batch.
        rounds, untuned = [], None
        for kind, items in log:
            if kind == "predict" and untuned is None:
                untuned = items
            elif kind == "tune" and untuned is not None:
                rounds.append((untuned, items))
                untuned = None
        assert rounds
        return rounds

    def _assert_ties_go_to_the_first_candidate(self, liar: str, seed: int,
                                               monkeypatch):
        rounds = self._rounds(liar, seed, monkeypatch,
                              lambda items: np.ones(len(items)))
        for untuned, batch in rounds:
            first: dict = {}
            for shape, program in untuned:
                first.setdefault(shape, (shape, program))
            assert batch and all(pair == first[pair[0]] for pair in batch)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_static_ranking_breaks_ties_to_the_first_candidate(self, seed,
                                                              monkeypatch):
        """With every prediction tied, each round tunes the first untuned
        candidate of each shape, whatever sort kernel numpy dispatches to."""
        self._assert_ties_go_to_the_first_candidate("none", seed, monkeypatch)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_liar_picks_break_ties_to_the_first_candidate(self, seed,
                                                          monkeypatch):
        """The constant-liar picks resolve ties the same way."""
        self._assert_ties_go_to_the_first_candidate("cl_mean", seed,
                                                    monkeypatch)

    @pytest.mark.parametrize("liar", ("none", "cl_mean"))
    def test_nan_predictions_are_picked_last(self, liar, monkeypatch):
        """A NaN prediction loses to every finite one, within its shape
        and across shapes, in both selection branches."""

        def first_of_each_shape_nan(items):
            predicted, seen = np.ones(len(items)), set()
            for index, (shape, _program) in enumerate(items):
                if shape not in seen:
                    seen.add(shape)
                    predicted[index] = np.nan
            return predicted

        rounds = self._rounds(liar, 0, monkeypatch, first_of_each_shape_nan)
        contested = 0
        for untuned, batch in rounds:
            candidates: dict = {}
            for pair in untuned:
                candidates.setdefault(pair[0], []).append(pair)
            finite = {shape for shape, pairs in candidates.items()
                      if len(pairs) > 1}
            for shape, program in batch:
                # The second candidate is the first finite one of its shape.
                expected = candidates[shape][1 if shape in finite else 0]
                assert (shape, program) == expected
            if any(shape not in finite for shape, _program in batch):
                # A NaN-only shape was picked: no finite shape was skipped.
                assert finite <= {shape for shape, _program in batch}
            contested += len(finite & {shape for shape, _program in batch})
        assert contested > 0

    def test_liar_runs_are_deterministic(self):
        first_search, first, _ = self._run("cl_mean")
        second_search, second, _ = self._run("cl_mean")
        assert first.optimized_latency_seconds == \
            second.optimized_latency_seconds
        assert {n: c.sequence for n, c in first.choices.items()} == \
            {n: c.sequence for n, c in second.choices.items()}
        assert first_search.predictor.statistics.fits == \
            second_search.predictor.statistics.fits


class TestTransfer:
    """Cross-platform warm start (LatencyPredictor.warm_start_from)."""

    @staticmethod
    def _trained(ratios):
        predictor = LatencyPredictor(min_observations=2)
        predictor.set_reference(SHAPE, 2e-4)
        programs = [STANDARD, *paper_sequences().values()]
        for program, ratio in zip(programs, ratios):
            predictor.observe(SHAPE, program, 2e-4 * ratio, trials=4)
        return predictor

    def test_transferred_rows_count_toward_ready_not_observations(self):
        source = self._trained((1.0, 0.5, 0.25, 0.75))
        destination = LatencyPredictor(min_observations=4)
        assert not destination.ready
        assert destination.warm_start_from(source) == 4
        assert destination.ready
        assert destination.statistics.observations == 0
        assert destination.statistics.transferred == 4
        assert destination.fit()
        assert _predict(destination, SHAPE, STANDARD) > 0.0

    def test_zscores_map_into_the_destination_distribution(self):
        source = self._trained((1.0, 0.5, 0.25, 0.75))
        source_targets = np.array(source._targets)
        destination = self._trained((1.0, 0.9))
        destination.warm_start_from(source)
        native = np.array(destination._targets)
        mapped = np.array(destination._mapped_transfer_targets())
        expected = ((source_targets - source_targets.mean())
                    / source_targets.std() * native.std() + native.mean())
        np.testing.assert_allclose(mapped, expected, rtol=1e-12, atol=1e-15)
        assert mapped.mean() == pytest.approx(native.mean())
        assert mapped.std() == pytest.approx(native.std())

    def test_fewer_than_two_native_targets_pass_zscores_through(self):
        source = self._trained((1.0, 0.5, 0.25, 0.75))
        source_targets = np.array(source._targets)
        destination = LatencyPredictor(min_observations=2)
        destination.warm_start_from(source)
        np.testing.assert_allclose(
            destination._mapped_transfer_targets(),
            (source_targets - source_targets.mean()) / source_targets.std())

    def test_self_transfer_raises(self):
        predictor = self._trained((1.0, 0.5))
        with pytest.raises(SearchError, match="itself"):
            predictor.warm_start_from(predictor)

    def test_warm_predictor_credits_skipped_cold_start_tunings(self):
        dataset = SyntheticImageDataset.cifar10_like(
            train_size=32, test_size=16, image_size=8, seed=0)
        images, labels = dataset.random_minibatch(4, seed=0)

        def run(platform: str, configurations: int, predictor=None):
            search = UnifiedSearch(get_platform(platform),
                                   configurations=configurations,
                                   tuner_trials=3, strategy="model_guided",
                                   space=UnifiedSpaceConfig(seed=0), seed=0,
                                   predictor=predictor)
            result = search.search(_small_model(), images, labels,
                                   dataset.spec.image_shape)
            return search, result

        source, _ = run("cpu", 16)
        warm = LatencyPredictor()
        assert warm.warm_start_from(source.predictor) > 0
        # A one-configuration budget stops after the seeding picks, which
        # come from the search RNG alone: both runs tune the same pairs, so
        # the only difference in evaluations_saved is the transfer credit.
        _, cold = run("mgpu", 1)
        _, guided = run("mgpu", 1, predictor=warm)
        assert guided.statistics.full_tunings == cold.statistics.full_tunings
        credit = warm.min_observations - warm.statistics.observations
        assert credit > 0
        assert (guided.statistics.evaluations_saved
                - cold.statistics.evaluations_saved) == credit


#: model_guided's trajectory on the small model, recorded before the
#: surrogate portfolio was removed: (tune_many items, sha256 prefix of the
#: ordered tuned pairs and final choices, optimized latency as float.hex).
MODEL_GUIDED_PINS = {
    "cpu-cl_mean-0": (22, "6db80504476dc8d4", "0x1.c95de5b989e78p-17"),
    "cpu-cl_mean-1": (22, "7146ec4d0d62d4ce", "0x1.ddd1035bde36ep-17"),
    "cpu-cl_mean-2": (22, "03de6b92f7231147", "0x1.d01afb4feaed0p-17"),
    "cpu-none-0": (22, "6db80504476dc8d4", "0x1.c95de5b989e78p-17"),
    "cpu-none-1": (22, "6ad57522be01abd2", "0x1.ddd1035bde36ep-17"),
    "cpu-none-2": (22, "03de6b92f7231147", "0x1.d01afb4feaed0p-17"),
    "mgpu-cl_mean-0": (22, "e4127c4d9999fef6", "0x1.063b708d38fbdp-13"),
    "mgpu-cl_mean-1": (22, "8fa8779d67586a1e", "0x1.f814dba78da6ap-14"),
    "mgpu-cl_mean-2": (22, "ab0ad057dc2ff7b9", "0x1.f814dba78da6ap-14"),
    "mgpu-none-0": (22, "e4127c4d9999fef6", "0x1.063b708d38fbdp-13"),
    "mgpu-none-1": (22, "bd183b5459320c1e", "0x1.f814dba78da6ap-14"),
    "mgpu-none-2": (22, "1c63abc50043b696", "0x1.f814dba78da6ap-14"),
}


class TestModelGuidedPicks:
    """Every tuned pair, in order, and every final choice stay pinned."""

    @pytest.mark.parametrize("pin", sorted(MODEL_GUIDED_PINS))
    def test_trajectory_matches_pin(self, pin, monkeypatch):
        platform, liar, seed = pin.split("-")
        tuned = []
        tune_many = EvaluationEngine.tune_many

        def recorded(self, items, *args, **kwargs):
            items = list(items)
            tuned.extend(items)
            return tune_many(self, items, *args, **kwargs)

        monkeypatch.setattr(EvaluationEngine, "tune_many", recorded)
        dataset = SyntheticImageDataset.cifar10_like(
            train_size=32, test_size=16, image_size=8, seed=0)
        images, labels = dataset.random_minibatch(4, seed=0)
        search = UnifiedSearch(get_platform(platform), configurations=16,
                               tuner_trials=3, strategy="model_guided",
                               space=UnifiedSpaceConfig(seed=int(seed)),
                               seed=int(seed), liar=liar)
        result = search.search(_small_model(), images, labels,
                               dataset.spec.image_shape)
        document = {
            "tuned": [[list(dataclasses.astuple(shape)),
                       program_to_dict(program)] for shape, program in tuned],
            "choices": {name: program_to_dict(choice.sequence)
                        for name, choice in sorted(result.choices.items())},
        }
        digest = hashlib.sha256(json.dumps(document, sort_keys=True)
                                .encode()).hexdigest()[:16]
        assert (len(tuned), digest,
                result.optimized_latency_seconds.hex()) == \
            MODEL_GUIDED_PINS[pin]
