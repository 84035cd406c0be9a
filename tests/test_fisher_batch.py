"""The Fisher oracle's per-layer batch: replayed weights and shared columns.

Every score the oracle computes must equal the frozen per-operator path
(``tests/fisher_reference.py``: a fresh ``make_rng(seed)`` operator scored
on the tape) bit for bit, and scoring a layer's operators together must not
change what the engine counts or what its store holds.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import fisher_reference
from repro.api import build_model
from repro.core.cache_store import (
    CacheStore,
    fisher_profile_digest,
    fisher_score_digest,
)
from repro.core.engine import EvaluationEngine
from repro.core.program import TransformProgram, step
from repro.core.sequences import predefined_program
from repro.core.unified_space import UnifiedSpace
from repro.core.workloads import extract_workloads
from repro.data import SyntheticImageDataset
from repro.errors import TransformError
from repro.fisher import fisher_key, fisher_profile
from repro.hardware import get_platform
from repro.nn.convs import ConvTransformConfig, DerivedConv2d
from repro.tensor.init import NormalStream, kaiming_normal
from repro.utils import make_rng

#: Programs added to every layer's candidates so each operator kind is scored.
EXTRA_PROGRAMS = (
    predefined_program("input_bottleneck", bottleneck=2),
    predefined_program("bottleneck", bottleneck=4),
    predefined_program("spatial_bottleneck", spatial=2),
    predefined_program("seq3", group=2, group_second=4),
    predefined_program("depthwise"),
    # bottleneck folds by max across nests, so on 8 channels the second
    # split maps 8 -> 2 channels and cannot group by 8: unbuildable
    TransformProgram("split", (step("split", parts=2),
                               step("bottleneck", iterator="co", factor=4, nest=0),
                               step("group", factor=8, nest=1))),
)


def _bits(scores) -> bytes:
    return np.asarray(scores, dtype=np.float64).tobytes()


def _network(name: str):
    """A test-scale network, its Fisher minibatch and its profiled workloads."""
    model = build_model(name, width_multiplier=0.125)
    dataset = SyntheticImageDataset.cifar10_like(train_size=32, test_size=16,
                                                  image_size=8, seed=0)
    images, labels = dataset.random_minibatch(4, seed=0)
    profile = fisher_profile(model, images, labels)
    workloads = [w for w in extract_workloads(model, dataset.spec.image_shape)
                 if w.name in profile.layers]
    return model, images, labels, profile, workloads


@pytest.fixture(scope="module", params=["resnet18", "densenet161"])
def network(request):
    return _network(request.param)


def _generation(workloads) -> list:
    """Every layer's candidate programs plus one program of each operator kind."""
    space = UnifiedSpace(0)
    rng = space.fresh_rng()
    items = []
    for workload in workloads:
        items += [(workload, program) for program in
                  space.candidate_sequences(workload.shape, rng=rng)]
        items += [(workload, program) for program in EXTRA_PROGRAMS
                  if program.legality(workload.shape).legal]
    return items


def _oracle(model, images, labels, profile, *, seed: int = 0, cache_store=None):
    engine = EvaluationEngine(get_platform("cpu"), seed=seed, cache_store=cache_store)
    return engine.fisher_oracle(fisher_key(model, images, labels), lambda: profile)


def _reference_scores(profile, items, seed: int) -> list[float]:
    scores, memo = [], {}
    for workload, program in items:
        if not program.is_neural:
            scores.append(profile.layers[workload.name].score)
            continue
        try:
            config = program.conv_config(workload.shape)
        except TransformError:
            scores.append(-np.inf)
            continue
        key = (workload.name, config)
        if key not in memo:
            memo[key] = fisher_reference.operator_fisher(
                profile.layers[workload.name], config, seed)
        scores.append(memo[key])
    return scores


def _kinds(configs, profile) -> set[str]:
    kinds = set()
    for layer, config in configs:
        effective_in = profile.layers[layer].in_channels // config.bottleneck_in
        kinds.update(kind for kind, present in (
            ("bottleneck_in", config.bottleneck_in > 1),
            ("bottleneck_out", config.bottleneck_out > 1),
            ("spatial", config.spatial_bottleneck > 1),
            ("multi_split_groups", len(config.group_factors) > 1
             and max(config.group_factors) > 1),
            ("depthwise_like", effective_in > 1
             and effective_in in config.group_factors)) if present)
    return kinds


class TestNormalStream:
    SHAPES = ((8, 3, 3, 3), (16, 8, 1, 1), (4, 2, 5, 5), (10, 7), (32, 16, 3, 3))

    @pytest.mark.parametrize("order", [1, -1], ids=["growing", "shrinking"])
    def test_replay_equals_fresh_generator_draws(self, order):
        stream = NormalStream(5)
        for start in range(len(self.SHAPES)):
            # each replay starts at the first draw; the growing order makes
            # the stream extend in the middle of a replay
            replay, fresh = stream.replay(), make_rng(5)
            for shape in self.SHAPES[::order][start:]:
                drawn = kaiming_normal(shape, rng=replay)
                expected = kaiming_normal(shape, rng=fresh)
                assert drawn.shape == expected.shape
                assert drawn.tobytes() == expected.tobytes()

    def test_the_stream_extends_only_past_its_end(self):
        stream = NormalStream(0)
        first = stream.take(0, 100)
        assert stream.take(0, 50).base is first.base
        longer = stream.take(0, 1000)
        assert longer[:100].tobytes() == first.tobytes()
        assert longer.tobytes() == make_rng(0).standard_normal(1000).tobytes()

    @pytest.mark.parametrize("config", [
        ConvTransformConfig(),
        ConvTransformConfig(bottleneck_out=2, bottleneck_in=2),
        ConvTransformConfig(spatial_bottleneck=2, group_factors=(2, 4)),
        ConvTransformConfig(group_factors=(8,)),
    ], ids=["standard", "bottlenecks", "split-groups", "depthwise"])
    def test_derived_operator_weights_equal_a_fresh_generator(self, config):
        stream = NormalStream(3)
        stream.take(0, 10)  # a short stream that has to grow
        replayed = DerivedConv2d(8, 16, 3, padding=1, config=config,
                                 rng=stream.replay())
        fresh = DerivedConv2d(8, 16, 3, padding=1, config=config, rng=make_rng(3))
        pairs = list(zip(replayed.named_parameters(), fresh.named_parameters()))
        assert pairs
        for (name, got), (expected_name, expected) in pairs:
            assert name == expected_name
            assert got.data.tobytes() == expected.data.tobytes()


class TestOracleMatchesReference:
    def test_every_operator_kind_scores_bit_identically(self, network):
        model, images, labels, profile, workloads = network
        items = _generation(workloads)
        configs = set()
        for workload, program in items:
            if program.is_neural:
                try:
                    configs.add((workload.name, program.conv_config(workload.shape)))
                except TransformError:
                    pass
        assert _kinds(configs, profile) == {
            "bottleneck_in", "bottleneck_out", "spatial", "multi_split_groups",
            "depthwise_like"}
        oracle = _oracle(model, images, labels, profile)
        scores = oracle.candidate_fisher_many(items)
        assert -np.inf in scores  # the unbuildable split
        assert _bits(scores) == _bits(_reference_scores(profile, items, 0))

    def test_another_engine_seed_matches_its_reference(self):
        model, images, labels, profile, workloads = _network("resnet18")
        items = _generation(workloads[:6])
        oracle = _oracle(model, images, labels, profile, seed=7)
        assert _bits(oracle.candidate_fisher_many(items)) == _bits(
            _reference_scores(profile, items, 7))


class TestBatchAccounting:
    def test_counts_equal_the_per_operator_path(self, derivations):
        model, images, labels, profile, workloads = _network("resnet18")
        items = _generation(workloads)
        # layers interleave, and some requests repeat (memo hits)
        order = make_rng(1).permutation(len(items))
        generation = [items[int(index)] for index in order]
        generation += generation[: len(generation) // 3]

        single = _oracle(model, images, labels, profile)
        single_scores = [single.candidate_fisher(*item) for item in generation]
        single_derivations = {key: Counter(calls)
                              for key, calls in derivations.items()}
        derivations["built"].clear()
        derivations["scored"].clear()

        batched = _oracle(model, images, labels, profile)
        assert _bits(batched.candidate_fisher_many(generation)) == _bits(single_scores)
        assert {key: Counter(calls)
                for key, calls in derivations.items()} == single_derivations
        fields = ("fisher_hits", "fisher_misses", "fisher_scored", "fisher_profiles")
        counts = [{name: getattr(oracle.engine.statistics, name) for name in fields}
                  for oracle in (single, batched)]
        assert counts[0] == counts[1]
        assert counts[1]["fisher_hits"] > 0 and counts[1]["fisher_scored"] > 0

    def test_both_paths_persist_the_same_rows(self, tmp_path):
        model, images, labels, profile, workloads = _network("resnet18")
        items = _generation(workloads)
        single = _oracle(model, images, labels, profile,
                         cache_store=tmp_path / "single")
        for item in items:
            single.candidate_fisher(*item)
        batched = _oracle(model, images, labels, profile,
                          cache_store=tmp_path / "batched")
        batched.candidate_fisher_many(items)
        for oracle in (single, batched):
            oracle.engine.save_cache()
        rows = [CacheStore(tmp_path / name).load_fisher()
                for name in ("single", "batched")]
        assert rows[0] == rows[1] and rows[0][1]

    def test_a_store_filled_by_the_reference_serves_the_oracle(
            self, tmp_path, derivations):
        model, images, labels, profile, workloads = _network("resnet18")
        items = _generation(workloads)
        expected = _reference_scores(profile, items, 0)
        key = fisher_key(model, images, labels)
        operators = {}
        for (workload, program), score in zip(items, expected):
            if program.is_neural:
                try:
                    config = program.conv_config(workload.shape)
                except TransformError:
                    continue
                operators[fisher_score_digest(key, workload.name, config, 0)] = score
        CacheStore(tmp_path).append_fisher(
            {fisher_profile_digest(key): tuple(
                (name, record.score) for name, record in profile.layers.items())},
            operators)

        def no_profile():
            raise AssertionError("a filled store needs no profile pass")

        engine = EvaluationEngine(get_platform("cpu"), seed=0, cache_store=tmp_path)
        oracle = engine.fisher_oracle(key, no_profile)
        assert _bits(oracle.candidate_fisher_many(items)) == _bits(expected)
        assert derivations == {"built": [], "scored": []}
        assert (engine.statistics.fisher_profiles, engine.statistics.fisher_scored) == (0, 0)
