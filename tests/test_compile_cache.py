"""Golden tests for the incremental compile trie (core/compile_cache).

The contract: :meth:`TransformProgram.compile` (prefix-memoised) is
bit-identical to :meth:`TransformProgram.compile_uncached` (the
from-scratch loop kept verbatim as the golden reference) for every
program, and prefix sharing never aliases mutable state between
siblings.  On top of the stage-level goldens, whole searches must be
unaffected: every registered strategy, across seeds and engine modes,
returns the same result with the trie on or off.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import nn
from repro.core import compile_cache
from repro.core.engine import EvaluationEngine
from repro.core.program import TransformProgram
from repro.core.search import SEARCH_STRATEGY_REGISTRY, UnifiedSearch
from repro.core.sequences import (
    SEQUENCE_KINDS,
    nas_candidate_sequences,
    paper_sequences,
    predefined_program,
    random_sequence,
)
from repro.data import SyntheticImageDataset
from repro.errors import LegalityError
from repro.hardware import get_platform
from repro.poly.statement import ConvolutionShape
from repro.utils import make_rng

SHAPES = (
    ConvolutionShape(16, 16, 8, 8, 3, 3),
    ConvolutionShape(32, 16, 10, 10, 3, 3),
    ConvolutionShape(8, 8, 6, 6, 1, 1),
)


def _stage_state(stage) -> tuple:
    """Every observable field of a compiled stage, for exact comparison."""
    return (stage.computation.name, stage.statement,
            dict(stage.annotations), list(stage.history),
            list(stage.neural_transformations))


def _compile_states(program: TransformProgram, shape: ConvolutionShape,
                    *, uncached: bool = False):
    compiled = (program.compile_uncached(shape) if uncached
                else program.compile(shape))
    return [_stage_state(stage) for stage in compiled]


def _catalogue() -> list[TransformProgram]:
    programs = [predefined_program("standard")]
    programs.extend(paper_sequences().values())
    programs.extend(nas_candidate_sequences().values())
    return programs


class TestGoldenCompileEquality:
    def test_catalogue_matches_uncached(self):
        """Every predefined program compiles identically via the trie."""
        compile_cache.COMPILE_CACHE.clear()
        for program in _catalogue():
            for shape in SHAPES:
                if not program.applicable(shape):
                    continue
                assert _compile_states(program, shape) == \
                    _compile_states(program, shape, uncached=True), \
                    (program.name, shape)

    def test_random_programs_match_uncached(self):
        """Random sequences, seeds {0, 1, 2}: trie == from-scratch."""
        for seed in (0, 1, 2):
            rng = make_rng(seed)
            for _ in range(8):
                program = random_sequence(rng)
                for shape in SHAPES:
                    if not program.applicable(shape):
                        continue
                    try:
                        expected = _compile_states(program, shape,
                                                   uncached=True)
                    except LegalityError:
                        with pytest.raises(LegalityError):
                            program.compile(shape)
                        continue
                    assert _compile_states(program, shape) == expected

    def test_repeated_compile_is_stable(self):
        """A snapshot-clone re-compile equals the first compile exactly."""
        program = next(iter(paper_sequences().values()))
        shape = SHAPES[0]
        compile_cache.COMPILE_CACHE.clear()
        first = _compile_states(program, shape)
        hits_before = compile_cache.COMPILE_CACHE.statistics.compile_hits
        second = _compile_states(program, shape)
        assert second == first
        assert compile_cache.COMPILE_CACHE.statistics.compile_hits > hits_before


class TestLruBound:
    def test_bound_holds_and_evicted_prefixes_recompile_identically(
            self, monkeypatch):
        """A 3-snapshot trie compiles every predefined program exactly."""
        cache = compile_cache.COMPILE_CACHE
        sizes = []
        store = cache.store

        def store_and_measure(*args):
            store(*args)
            sizes.append(len(cache))

        monkeypatch.setattr(cache, "store", store_and_measure)
        shape = SHAPES[0]
        compile_cache.invalidate()
        cache.max_entries = 3
        try:
            # The second pass compiles against prefixes the first evicted.
            for _ in range(2):
                for kind in SEQUENCE_KINDS:
                    program = predefined_program(kind)
                    if not program.applicable(shape):
                        continue
                    assert _compile_states(program, shape) == \
                        _compile_states(program, shape, uncached=True), kind
        finally:
            cache.max_entries = compile_cache.MAX_ENTRIES
            compile_cache.invalidate()
        assert max(sizes) == 3


class TestStatistics:
    """The three counters a search reports count what the trie did."""

    def test_hits_misses_and_saved_depth(self):
        program = paper_sequences()["seq3"]
        prefix = dataclasses.replace(program, steps=program.steps[:-1])
        shape = SHAPES[0]
        depth = len(program.steps)
        compile_cache.invalidate()
        stats = compile_cache.COMPILE_CACHE.statistics
        baseline = stats.snapshot()
        # Cold prefix: a miss that builds the root and saves nothing.
        assert _compile_states(prefix, shape) == \
            _compile_states(prefix, shape, uncached=True)
        assert stats.delta(baseline) == compile_cache.CompileCacheStatistics(
            compile_hits=0, compile_misses=1, prefix_depth_saved=0)
        # The full program resumes from the prefix: one step replayed.
        assert _compile_states(program, shape) == \
            _compile_states(program, shape, uncached=True)
        assert stats.delta(baseline) == compile_cache.CompileCacheStatistics(
            compile_hits=0, compile_misses=2, prefix_depth_saved=depth - 1)
        # Compiled again, it is a hit that saves every step.
        assert _compile_states(program, shape) == \
            _compile_states(program, shape, uncached=True)
        assert stats.delta(baseline) == compile_cache.CompileCacheStatistics(
            compile_hits=1, compile_misses=2,
            prefix_depth_saved=2 * depth - 1)

    def test_disabled_trie_compiles_uncached_and_counts_nothing(self):
        compile_cache.invalidate()
        baseline = compile_cache.COMPILE_CACHE.statistics.snapshot()
        compile_cache.configure(enabled=False)
        try:
            for program in _catalogue():
                for shape in SHAPES:
                    if not program.applicable(shape):
                        continue
                    assert _compile_states(program, shape) == \
                        _compile_states(program, shape, uncached=True), \
                        (program.name, shape)
        finally:
            compile_cache.configure(enabled=True)
        assert len(compile_cache.COMPILE_CACHE) == 0
        assert compile_cache.COMPILE_CACHE.statistics.delta(baseline) == \
            compile_cache.CompileCacheStatistics()


class TestPrefixAliasing:
    """Prefix sharing must never leak mutable state between siblings."""

    @staticmethod
    def _poison(stages) -> None:
        """Mutate every mutable container/field of a compiled result."""
        for stage in stages:
            stage.annotations.clear()
            stage.history.append("poisoned")
            stage.neural_transformations.append("poisoned")
            stage.statement = None

    def test_random_prefix_pairs_never_alias(self):
        for seed in (0, 1, 2):
            rng = make_rng(seed)
            for _ in range(6):
                program = random_sequence(rng)
                if len(program.steps) < 2:
                    continue
                sibling = TransformProgram(
                    name=f"{program.name}-prefix",
                    steps=program.steps[:len(program.steps) - 1])
                for shape in SHAPES[:2]:
                    if not program.applicable(shape):
                        continue
                    try:
                        expected_full = _compile_states(program, shape,
                                                        uncached=True)
                        expected_prefix = _compile_states(sibling, shape,
                                                          uncached=True)
                    except LegalityError:
                        continue
                    # Compile the full program (warming the shared
                    # prefix), then vandalise the returned stages.
                    self._poison(program.compile(shape))
                    # The sibling replaying from the shared prefix and a
                    # re-compile of the full program are both unaffected.
                    assert _compile_states(sibling, shape) == expected_prefix
                    assert _compile_states(program, shape) == expected_full

    def test_returned_snapshots_are_private(self):
        """Two compiles of the same program share no mutable objects."""
        program = next(iter(paper_sequences().values()))
        shape = SHAPES[0]
        first = program.compile(shape)
        second = program.compile(shape)
        for a, b in zip(first, second):
            assert a is not b
            assert a.annotations is not b.annotations
            assert a.history is not b.history
            assert a.neural_transformations is not b.neural_transformations


def _tiny_model(seed: int = 0) -> nn.Module:
    rng = np.random.default_rng(seed)
    return nn.Sequential(nn.ConvBNReLU(3, 8, 3, rng=rng),
                         nn.GlobalAvgPool2d(), nn.Linear(8, 10, rng=rng))


def _run_search(strategy: str, seed: int, parallel: str = "serial"):
    dataset = SyntheticImageDataset.cifar10_like(
        train_size=20, test_size=10, image_size=8, seed=0)
    images, labels = dataset.random_minibatch(4, seed=0)
    with EvaluationEngine(get_platform("cpu"), tuner_trials=2, seed=seed,
                          parallel=parallel, max_workers=2) as engine:
        search = UnifiedSearch(get_platform("cpu"), configurations=6,
                               strategy=strategy, seed=seed, engine=engine)
        return search.search(_tiny_model(), images, labels,
                             dataset.spec.image_shape)


def _comparable(result) -> dict:
    """Search state without wall clock / compile-trie telemetry."""
    statistics = dataclasses.asdict(result.statistics)
    for volatile in ("search_seconds", "compile_hits", "compile_misses",
                     "prefix_depth_saved"):
        statistics.pop(volatile)
    return {
        "latency": result.optimized_latency_seconds,
        "choices": {name: (choice.sequence, choice.latency_seconds,
                           choice.fisher_score)
                    for name, choice in result.choices.items()},
        "statistics": statistics,
    }


class TestSearchesUnchangedByTrie:
    """Strategy-level golden: trie on == trie off, per seed and mode."""

    @pytest.mark.parametrize("strategy", sorted(SEARCH_STRATEGY_REGISTRY))
    def test_all_strategies_all_seeds_serial(self, strategy):
        for seed in (0, 1, 2):
            compile_cache.configure(enabled=False)
            try:
                reference = _comparable(_run_search(strategy, seed))
            finally:
                compile_cache.configure(enabled=True)
            compile_cache.COMPILE_CACHE.clear()
            assert _comparable(_run_search(strategy, seed)) == reference, \
                (strategy, seed)

    def test_engine_modes_with_trie(self):
        reference = _comparable(_run_search("evolutionary", 0))
        assert _comparable(_run_search("evolutionary", 0, "process")) == reference
