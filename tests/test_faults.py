"""Fault injection and the recovery paths it exercises.

Every test here runs a failure branch that production would otherwise hit
first: worker crashes retried with backoff, broken/stuck pools healed,
corrupt, full or unusable cache stores quarantined, the compile trie
disabled.  The one invariant everything asserts: faults change
wall clock and statistics, never results.
"""

from __future__ import annotations

import os
import pickle
import shutil
import warnings

import pytest

import repro
from repro.core import faults
from repro.core.cache_store import FISHER_SEGMENT
from repro.core.compile_cache import COMPILE_CACHE, configure
from repro.core.engine import EvaluationEngine, SupervisionPolicy
from repro.core.faults import FAULTS, FaultPlan, InjectedFault
from repro.core.search import SEARCH_STRATEGY_REGISTRY
from repro.core.sequences import predefined_program
from repro.errors import (
    DegradedExecutionWarning,
    EngineError,
    LegalityError,
    ReproError,
)
from repro.hardware import get_platform
from repro.poly.statement import ConvolutionShape

#: search_statistics keys that depend on wall clock or on the process-global
#: compile trie's warmth, not on the search's decisions.
VOLATILE_STATISTICS = (
    "search_seconds", "compile_hits", "compile_misses", "prefix_depth_saved",
)


def stripped(result: repro.OptimizationResult) -> dict:
    """A result document with only deterministic, decision-bearing fields."""
    document = result.to_dict()
    document.pop("engine_statistics")
    for key in VOLATILE_STATISTICS:
        document["search_statistics"].pop(key, None)
    return document


def _items(n: int = 6):
    programs = (predefined_program("standard"),
                predefined_program("group", group=2))
    return [(ConvolutionShape(8 * (1 + i % 2), 8, 4 + 2 * (i % 3),
                              4 + 2 * (i % 3), 3, 3), programs[i % 2])
            for i in range(n)]


@pytest.fixture(autouse=True)
def _clean_registry():
    """Leave no installed plan or disabled trie behind, whatever a test does."""
    yield
    FAULTS.install(None)
    configure(enabled=True)


# ---------------------------------------------------------------------------
# The plan and the deterministic draws
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_from_text_parses_rates(self):
        plan = FaultPlan.from_text("worker_crash:0.1, tune_timeout:0.05")
        assert plan.rates == {"worker_crash": 0.1, "tune_timeout": 0.05}
        assert plan.active

    def test_bare_kind_defaults_to_certainty(self):
        assert FaultPlan.from_text("cache_poison").rates == {"cache_poison": 1.0}

    def test_bad_rate_is_rejected(self):
        with pytest.raises(ReproError, match="kind:rate"):
            FaultPlan.from_text("worker_crash:lots")
        with pytest.raises(ReproError, match=r"\[0, 1\]"):
            FaultPlan(rates={"worker_crash": 2.0})

    def test_environment_configuration(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "worker_crash:0.25")
        monkeypatch.setenv(faults.FAULTS_SEED_ENV, "9")
        plan = faults.active_plan()
        assert plan is not None and plan.seed == 9
        assert plan.rates == {"worker_crash": 0.25}
        with faults.suppressed():
            assert not FAULTS.active
        assert FAULTS.active

    def test_draws_are_deterministic_per_seed(self):
        def schedule(seed):
            with faults.inject(worker_crash=0.5, seed=seed) as registry:
                plan = registry.plan()
                return [registry._should_fire(plan, "worker_crash", "tune")
                        for _ in range(16)]
        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)


# ---------------------------------------------------------------------------
# Supervised execution: retries, timeouts, pool healing
# ---------------------------------------------------------------------------
class TestSupervisedSerial:
    def _engine(self, **kw):
        return EvaluationEngine(get_platform("cpu"), tuner_trials=2, seed=0,
                                supervision=SupervisionPolicy(
                                    backoff_seconds=0.001, **kw))

    def test_crashes_are_retried_to_identical_results(self):
        golden = self._engine().tune_many(_items())
        engine = self._engine()
        events = []
        engine.subscribe(events.append)
        with faults.inject(worker_crash=0.5, seed=0):
            assert engine.tune_many(_items()) == golden
        assert engine.statistics.task_retries > 0
        failed = [e for e in events if e.kind == "task_failed"]
        assert failed and all(e.data["will_retry"] for e in failed)
        assert faults.statistics()["worker_crash"] > 0

    def test_exhausted_retries_abort_with_engine_error(self):
        engine = self._engine(max_retries=2)
        with faults.inject(worker_crash=1.0):
            with pytest.raises(EngineError, match="failed 3 times"):
                engine.tuned_latency(ConvolutionShape(8, 8, 6, 6, 3, 3),
                                     predefined_program("standard"))

    def test_library_errors_are_not_retried(self):
        engine = self._engine()
        with pytest.raises(LegalityError):
            engine.tuned_latency(ConvolutionShape(8, 8, 6, 6, 3, 3),
                                 predefined_program("group", group=3))
        assert engine.statistics.task_retries == 0

    def test_injected_fault_is_picklable(self):
        fault = InjectedFault("injected worker_crash at site 'tune'")
        clone = pickle.loads(pickle.dumps(fault))
        assert str(clone) == str(fault)


class TestSupervisedParallel:
    def test_timeout_recycles_the_process_pool(self, monkeypatch):
        golden = EvaluationEngine(get_platform("cpu"), tuner_trials=2,
                                  seed=0).tune_many(_items())
        # seed 2 hangs every worker's second task and never its first:
        # each fresh pool finishes at least one task per worker, and the
        # straggler the parent waits on times out and recycles the pool.
        monkeypatch.setenv(faults.FAULTS_ENV, "tune_timeout:0.4")
        monkeypatch.setenv(faults.FAULTS_SEED_ENV, "2")
        monkeypatch.setenv(faults.FAULTS_HANG_ENV, "1.0")
        engine = EvaluationEngine(
            get_platform("cpu"), tuner_trials=2, seed=0, parallel="process",
            max_workers=2,
            supervision=SupervisionPolicy(task_timeout_seconds=0.2,
                                          backoff_seconds=0.001))
        events = []
        engine.subscribe(events.append)
        with engine:
            assert engine.tune_many(_items()) == golden
        assert engine.statistics.pool_recoveries >= 1
        assert any(e.kind == "pool_recovered" for e in events)
        assert any(e.kind == "task_failed" for e in events)

    def test_worker_exit_heals_the_process_pool(self, monkeypatch):
        golden = EvaluationEngine(get_platform("cpu"), tuner_trials=2,
                                  seed=0).tune_many(_items())
        # seed 7 fires worker_exit on each worker's third draw: every pool
        # worker completes two tasks then dies, so with 6 tasks on 2
        # workers at least one BrokenProcessPool round is guaranteed and
        # the retried remainder fits within the fresh workers' safe draws.
        monkeypatch.setenv(faults.FAULTS_ENV, "worker_exit:0.5")
        monkeypatch.setenv(faults.FAULTS_SEED_ENV, "7")
        engine = EvaluationEngine(
            get_platform("cpu"), tuner_trials=2, seed=0, parallel="process",
            max_workers=2, supervision=SupervisionPolicy(backoff_seconds=0.001))
        with engine, faults.suppressed():
            pass  # prove suppression is per-process state, not env mutation
        with engine:
            assert engine.tune_many(_items()) == golden
            assert engine.statistics.pool_recoveries >= 1
            # the healed pool must be live: a fault-free batch reuses it
            monkeypatch.delenv(faults.FAULTS_ENV)
            extra = [(ConvolutionShape(24, 8, 6, 6, 3, 3),
                      predefined_program("standard"))] * 2
            assert engine.tune_many(extra)

    def test_unbounded_pool_breakage_aborts(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "worker_exit:1.0")
        engine = EvaluationEngine(
            get_platform("cpu"), tuner_trials=2, seed=0, parallel="process",
            max_workers=2,
            supervision=SupervisionPolicy(max_pool_recoveries=2,
                                          backoff_seconds=0.001))
        with engine, pytest.raises(EngineError, match="max_pool_recoveries"):
            engine.tune_many(_items())

    def test_heal_pool_evicts_the_dead_executor(self):
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=2, seed=0,
                                  parallel="process", max_workers=2)
        with engine:
            first = engine._executor()
            engine._heal_pool()
            assert engine._pool is None
            second = engine._executor()
            assert second is not first


# ---------------------------------------------------------------------------
# Graceful degradation: quarantined store, disabled trie
# ---------------------------------------------------------------------------
class TestDegradation:
    def _warm_store(self, directory):
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=2, seed=0,
                                  cache_store=directory)
        engine.tuned_latency(ConvolutionShape(8, 8, 6, 6, 3, 3),
                             predefined_program("standard"))
        return engine

    def test_poisoned_shard_quarantines_instead_of_aborting(self, tmp_path):
        engine = self._warm_store(tmp_path)
        with faults.inject(cache_poison=1.0):
            engine.save_cache()  # the append poisons the shard header
        with pytest.warns(DegradedExecutionWarning, match="quarantined"):
            cold = EvaluationEngine(get_platform("cpu"), tuner_trials=2,
                                    seed=0, cache_store=tmp_path)
        assert cold.store_quarantined
        assert cold.statistics.loaded_entries == 0
        # degraded, not dead: tuning and saving still work (save is a no-op)
        assert cold.tuned_latency(ConvolutionShape(8, 8, 6, 6, 3, 3),
                                  predefined_program("standard")) > 0
        assert cold.save_cache() == tmp_path

    def test_torn_tail_is_healed_silently(self, tmp_path):
        with faults.inject(cache_torn_tail=1.0):
            engine = self._warm_store(tmp_path)
            engine.save_cache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reader = EvaluationEngine(get_platform("cpu"), tuner_trials=2,
                                      seed=0, cache_store=tmp_path)
        assert not reader.store_quarantined  # torn ≠ corrupt

    def test_enospc_during_store_append_quarantines(self, tmp_path):
        engine = self._warm_store(tmp_path)
        with faults.inject(cache_enospc=1.0):
            with pytest.warns(DegradedExecutionWarning, match="quarantined"):
                engine.save_cache()
        assert engine.store_quarantined
        assert engine.save_cache() == tmp_path  # later saves stay silent

    def test_unusable_store_directory_quarantines(self, tmp_path):
        # the store "directory" sits under a plain file, so every read and
        # write fails with NotADirectoryError (works even when running as
        # root, where chmod 0o500 would not stop us)
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        with pytest.warns(DegradedExecutionWarning, match="quarantined"):
            engine = EvaluationEngine(get_platform("cpu"), tuner_trials=2,
                                      seed=0, cache_store=blocker / "store")
        assert engine.store_quarantined
        assert engine.tuned_latency(ConvolutionShape(8, 8, 6, 6, 3, 3),
                                    predefined_program("standard")) > 0
        assert engine.save_cache() == blocker / "store"  # a silent no-op
        assert blocker.read_text() == "in the way"
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_compile_poison_disables_the_trie(self):
        shape = ConvolutionShape(8, 8, 6, 6, 3, 3)
        program = predefined_program("standard")
        golden = program.compile_uncached(shape)
        with faults.inject(compile_poison=1.0):
            with pytest.warns(DegradedExecutionWarning,
                              match="compile cache disabled"):
                from repro.core.compile_cache import compile_program
                stages = compile_program(program, shape)
        assert not COMPILE_CACHE.enabled
        assert len(stages) == len(golden)
        assert [s.computation.name for s in stages] == \
               [s.computation.name for s in golden]
        configure(enabled=True)

    def test_quarantine_emits_degraded_event(self, tmp_path):
        engine = self._warm_store(tmp_path)
        events = []
        engine.subscribe(events.append)
        with faults.inject(cache_enospc=1.0), \
                pytest.warns(DegradedExecutionWarning):
            engine.save_cache()
        assert [e.kind for e in events] == ["degraded"]
        assert events[0].data["component"] == "cache_store"


# ---------------------------------------------------------------------------
# The Fisher segment degrades like a shard
# ---------------------------------------------------------------------------
class TestFisherSegmentFaults:
    REQUEST = dict(model="resnet18", platform="cpu", strategy="greedy",
                   configurations=4, tuner_trials=2, seed=0, image_size=8,
                   fisher_batch=2)

    def _golden(self):
        with faults.suppressed():
            return stripped(repro.optimize(**self.REQUEST))

    def _optimize(self, directory, events=None):
        """One session on ``directory``; ``events`` collects the engine's."""
        with repro.OptimizationSession("cpu", tuner_trials=2, seed=0,
                                       cache_dir=directory) as session:
            if events is not None:
                session.engine().subscribe(events.append)
            return session.optimize(**self.REQUEST)

    def test_torn_tail_is_skipped_then_healed(self, tmp_path):
        golden = self._golden()
        with faults.inject(cache_torn_tail=1.0):
            torn = self._optimize(tmp_path)
        assert FAULTS.statistics()["cache_torn_tail"] >= 2  # shard + segment
        with faults.suppressed(), warnings.catch_warnings():
            warnings.simplefilter("error")
            # the torn rows are recomputed and appended, healing the tail
            healing = self._optimize(tmp_path)
            warm = self._optimize(tmp_path)
        assert healing.engine_statistics["fisher_scored"] > 0
        assert (warm.engine_statistics["fisher_profiles"],
                warm.engine_statistics["fisher_scored"]) == (0, 0)
        for result in (torn, healing, warm):
            assert stripped(result) == golden

    def _latency_warm_store(self, tmp_path):
        """A store whose latencies are warm and whose Fisher rows are not,
        so a session's only append is the Fisher one."""
        with faults.suppressed():
            self._optimize(tmp_path / "warm")
        (tmp_path / "store").mkdir()
        shutil.copy(tmp_path / "warm" / "shard-cpu.rcs", tmp_path / "store")
        return tmp_path / "store"

    def test_poisoned_segment_degrades_once(self, tmp_path):
        golden = self._golden()
        store = self._latency_warm_store(tmp_path)
        with faults.inject(cache_poison=1.0):
            self._optimize(store)  # the Fisher append poisons the header
        events = []
        with faults.suppressed(), pytest.warns(DegradedExecutionWarning,
                                               match="Fisher") as caught:
            result = self._optimize(store, events)
        assert len([w for w in caught
                    if issubclass(w.category, DegradedExecutionWarning)]) == 1
        assert [e.kind for e in events].count("degraded") == 1
        assert stripped(result) == golden
        # only the Fisher segment is quarantined: latencies stay warm
        assert result.engine_statistics["tuner_calls"] == 0
        assert result.engine_statistics["fisher_profiles"] == 1

    def test_unwritable_segment_degrades_once(self, tmp_path):
        golden = self._golden()
        store = self._latency_warm_store(tmp_path)
        events = []
        with faults.inject(cache_enospc=1.0), pytest.warns(
                DegradedExecutionWarning, match="Fisher") as caught:
            result = self._optimize(store, events)
        assert len([w for w in caught
                    if issubclass(w.category, DegradedExecutionWarning)]) == 1
        assert [e.kind for e in events].count("degraded") == 1
        assert stripped(result) == golden
        assert not (store / FISHER_SEGMENT).exists()


# ---------------------------------------------------------------------------
# The acceptance matrix: faults never change results
# ---------------------------------------------------------------------------
#: Seeds per strategy: the quick tier-1 pass runs one, the CI
#: fault-injection job sets REPRO_FAULT_MATRIX=1 for the full three.
MATRIX_SEEDS = (0, 1, 2) if os.environ.get("REPRO_FAULT_MATRIX") else (0,)


@pytest.mark.parametrize("strategy", sorted(SEARCH_STRATEGY_REGISTRY))
def test_faulty_search_is_bit_identical(strategy):
    for seed in MATRIX_SEEDS:
        kwargs = dict(model="resnet18", platform="cpu", strategy=strategy,
                      configurations=4, tuner_trials=2, seed=seed, image_size=8,
                      fisher_batch=2)
        with faults.suppressed():
            golden = repro.optimize(**kwargs)
        with faults.inject(worker_crash=0.1, tune_timeout=0.1, seed=seed,
                           hang_seconds=0.01):
            faulty = repro.optimize(**kwargs)
        assert stripped(faulty) == stripped(golden), (
            f"strategy {strategy} seed {seed} diverged under faults")
