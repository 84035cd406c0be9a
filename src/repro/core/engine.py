"""The shared evaluation engine: one oracle pair for the whole system.

Every layer of the codebase asks the same two questions:

* *how fast is this convolution under this transformation sequence on this
  platform?* — answered by auto-tuning the sequence's loop nests and
  reading the analytic cost model (:meth:`EvaluationEngine.tuned_latency`);
* *how much representational capacity does this substitution keep?* —
  answered by the Fisher Potential of the candidate operator
  (:meth:`FisherOracle.candidate_fisher`).

Both are expensive relative to everything around them, and both are pure
functions of a small key, so the engine memoises them and is shared across
searches, Figure 4's three approaches and the experiment drivers.
This is what keeps the paper's §7.2 claim honest in the reproduction:
~1000 configurations stay cheap *because* each unique (shape, sequence)
pair is tuned exactly once per platform.

Latency entries are keyed by ``(platform.name, shape, program,
tuner_trials, seed)`` — everything the tuned latency depends on — so a
cache can be persisted to disk (:meth:`EvaluationEngine.save_cache`) and
safely reloaded by later runs, even runs against other platforms or tuner
settings.  Persistence is the sharded, content-addressed
:class:`~repro.core.cache_store.CacheStore` (``cache_store=...``; any
number of processes can share one warm directory); an engine without a
store keeps its entries in memory.  Fisher scores depend on the network
and minibatch instead of the platform, so the engine keeps them in a
second table keyed by ``(criterion, network digest, minibatch digest)``
— plus ``(layer, ConvTransformConfig, seed)`` for an operator's score —
that the store persists beside the latency shards.  A :class:`FisherOracle`
memoises per ``(layer, program)``, which the hit statistics count; behind
a miss it reads the engine's table, so programs that derive the same
operator, later searches of the same network and later processes build
and score that operator once, and a search whose scores are all stored
runs no Fisher pass at all.

The engine also enforces stage 1 of the staged legality: every latency
query is pre-screened through the transform program's structural legality
(:meth:`EvaluationEngine.prescreen`) so illegal programs are rejected —
with the failing primitive named — *before* any tuner work is spent on
them, not after.

See DESIGN.md §2–§3 and §7 for the architecture and the cache-key scheme.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as PoolTimeout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.core.cache_store import (
    CacheStore,
    FisherProfileKey,
    LatencyKey,
    fisher_profile_digest,
    fisher_score_digest,
)
from repro.core.events import Observable
from repro.core.faults import FAULTS
from repro.core.program import LegalityReport, TransformProgram
from repro.core.sequences import predefined_program
from repro.core.workloads import LayerWorkload
from repro.errors import (
    CacheStoreError,
    DegradedExecutionWarning,
    EngineError,
    LegalityError,
    ModelError,
    ReproError,
    TransformError,
)
from repro.fisher import FisherProfile, FisherScores, candidate_layer_fisher
from repro.hardware.platform import PlatformSpec
from repro.nn.convs import ConvTransformConfig, DerivedConv2d
from repro.poly.statement import ConvolutionShape
from repro.tenir.autotune import AutoTuner
from repro.tensor.init import NormalStream
from repro.tensor.ops import shared_columns
from repro.utils import make_rng

#: Executor choices for :meth:`EvaluationEngine.tune_many`, fixed per engine.
PARALLEL_MODES = ("serial", "process")


@dataclass(frozen=True)
class SupervisionPolicy:
    """How :meth:`EvaluationEngine.tune_many` survives failing tasks.

    Every tuning task is a pure function of its key, so a failed or
    timed-out task can be re-executed without changing any result — the
    policy only bounds how hard the engine tries before giving up.

    * ``task_timeout_seconds`` — per-task watchdog on the process pool
      (``None`` disables; serial execution cannot preempt a running
      task).  A timed-out pool is recycled, since a stuck worker cannot
      be cancelled.
    * ``max_retries`` — failed attempts allowed *per task* beyond the
      first, before the whole batch aborts with :class:`EngineError`.
    * ``backoff_seconds`` / ``backoff_multiplier`` / ``jitter_fraction``
      — the exponential backoff slept between retry rounds; the jitter is
      drawn from the engine's dedicated retry RNG (never the search's
      streams, so supervision cannot perturb results).
    * ``max_pool_recoveries`` — broken/recycled pools tolerated per
      ``tune_many`` call before aborting (a pool can break without any
      single task being chargeable, so this is bounded separately).

    Example::

        engine = EvaluationEngine(platform, supervision=SupervisionPolicy(
            task_timeout_seconds=30.0, max_retries=5))
    """

    task_timeout_seconds: float | None = None
    max_retries: int = 5
    backoff_seconds: float = 0.01
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.25
    max_pool_recoveries: int = 16

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise EngineError("max_retries must be >= 0")
        if self.task_timeout_seconds is not None and self.task_timeout_seconds <= 0:
            raise EngineError("task_timeout_seconds must be positive (or None)")
        if self.max_pool_recoveries < 0:
            raise EngineError("max_pool_recoveries must be >= 0")


@dataclass
class EngineStatistics:
    """Counters for the engine's oracle traffic (hit rates, tuner work)."""

    tuner_calls: int = 0
    latency_hits: int = 0
    latency_misses: int = 0
    fisher_hits: int = 0
    fisher_misses: int = 0
    #: Fisher work the engine's table could not answer: profile passes run
    #: and candidate operators derived and scored
    fisher_profiles: int = 0
    fisher_scored: int = 0
    #: latency entries loaded from the store or absorbed (not Fisher rows)
    loaded_entries: int = 0
    prescreen_checks: int = 0
    prescreen_rejections: int = 0
    #: supervised-execution traffic: failed task attempts that were
    #: retried, and executor pools recycled after a break or timeout
    task_retries: int = 0
    pool_recoveries: int = 0

    @property
    def latency_queries(self) -> int:
        return self.latency_hits + self.latency_misses

    @property
    def latency_hit_rate(self) -> float:
        queries = self.latency_queries
        return self.latency_hits / queries if queries else 0.0


def _tune_entry(args: tuple[PlatformSpec, ConvolutionShape, TransformProgram, int, int],
                ) -> tuple[float, int]:
    """Tune one (shape, program) pair; picklable for process executors.

    Returns the summed latency of the program's loop nests and the number
    of ``AutoTuner.tune`` calls made, so the parent can keep exact counts.
    """
    platform, shape, program, trials, seed = args
    FAULTS.on_task("tune")
    tuner = AutoTuner(trials=trials, seed=seed)
    total, calls = 0.0, 0
    for computation in program.build_computations(shape):
        total += tuner.tune(computation, platform).seconds
        calls += 1
    return total, calls


class FisherOracle:
    """Memoised candidate Fisher scores of one network on one minibatch.

    ``key`` is the network's :func:`~repro.fisher.fisher_key`; ``build``
    runs its Fisher profile pass.  The per-layer scores (:attr:`scores`)
    and every operator score come from the engine's Fisher table when it
    holds them, so ``build`` runs at most once — when the first score is
    missing — and never on a search whose scores are all stored.

    :meth:`candidate_fisher` memoises per ``(layer, program)``, which is
    what ``fisher_hits`` / ``fisher_misses`` count.  A miss on a neural
    program reads the engine's table by ``(layer, ConvTransformConfig)``:
    many programs differ only in schedule steps (an unroll factor, a
    reorder) and derive the same operator, so they share one
    :class:`~repro.nn.convs.DerivedConv2d` construction and one forward
    pass.  The operator key is sound because every candidate gets the
    draws of a fresh engine-seeded RNG: a score is a pure function of the
    layer's record, the config and the engine seed, and skipping a
    construction consumes no draw another candidate sees.

    A layer's operators are scored as one batch: the first table miss of
    a layer inside :meth:`candidate_fisher_many` derives every operator of
    that layer the generation misses.  Their weights are replayed from one
    stream of the engine seed's standard-normal draws
    (:class:`~repro.tensor.init.NormalStream`, the values a fresh
    ``make_rng(seed)`` gives), and their forward passes share the im2col
    columns of the recorded input (:func:`~repro.tensor.ops.shared_columns`),
    so every score is bit-identical to building and scoring the operator
    alone.
    """

    def __init__(self, engine: "EvaluationEngine", key: FisherProfileKey,
                 build: Callable[[], FisherProfile]):
        self.engine = engine
        self.key = key
        self._build = build
        self._profile: FisherProfile | None = None
        self._cache: dict[tuple[str, TransformProgram], float] = {}
        #: the generation candidate_fisher_many is answering, and the
        #: operators it misses in the table by layer (found on its first miss)
        self._batch: list[tuple[LayerWorkload, TransformProgram]] = []
        self._queued: dict[str, dict[ConvTransformConfig, bytes]] | None = None
        #: the draws every derived operator's weights are replayed from
        self._normals = NormalStream(engine.seed)
        stored = engine._fisher_table()[0].get(fisher_profile_digest(key))
        self.scores = (FisherScores(dict(stored)) if stored is not None
                       else self.profile().scores())

    def profile(self) -> FisherProfile:
        """The network's full Fisher profile, built on first use."""
        if self._profile is None:
            self._profile = self._build()
            self.engine.statistics.fisher_profiles += 1
            layers = tuple((name, record.score)
                           for name, record in self._profile.layers.items())
            self.engine._remember_fisher(
                {fisher_profile_digest(self.key): layers}, {})
        return self._profile

    def candidate_fisher(self, workload: LayerWorkload,
                         program: TransformProgram) -> float:
        """Fisher score of ``workload`` after substituting ``program``.

        Program-only sequences keep the original layer's score; neural
        programs instantiate the derived operator and score it locally
        against the recorded activations/gradients.  Infeasible candidates
        score ``-inf`` (always rejected by the legality check).
        """
        key = (workload.name, program)
        if key in self._cache:
            self.engine.statistics.fisher_hits += 1
            return self._cache[key]
        self.engine.statistics.fisher_misses += 1
        if not program.is_neural:
            score = self.scores.score_of(workload.name)
        else:
            try:
                config = program.conv_config(workload.shape)
            except TransformError:
                score = -np.inf
            else:
                score = self._operator_fisher(workload.name, config)
        self._cache[key] = score
        return score

    def _operator_fisher(self, layer: str, config: ConvTransformConfig) -> float:
        """Score of the operator ``config`` derives for ``layer``.

        A table miss scores the operator together with every other
        operator of ``layer`` the current generation misses.
        """
        digest = fisher_score_digest(self.key, layer, config, self.engine.seed)
        scores = self.engine._fisher_table()[1]
        if digest not in scores:
            if self._queued is None:
                self._queued = self._table_misses(self._batch)
            operators = self._queued.pop(layer, {})
            operators.setdefault(config, digest)
            self._score_layer(layer, operators)
        return scores[digest]

    def _table_misses(self, items: Iterable[tuple[LayerWorkload, TransformProgram]],
                      ) -> dict[str, dict[ConvTransformConfig, bytes]]:
        """The operators ``items`` derive that the table lacks, by layer, with digests."""
        scores = self.engine._fisher_table()[1]
        misses: dict[str, dict[ConvTransformConfig, bytes]] = {}
        seen: set[tuple[str, ConvTransformConfig]] = set()
        for workload, program in items:
            if (workload.name, program) in self._cache or not program.is_neural:
                continue
            try:
                config = program.conv_config(workload.shape)
            except TransformError:
                continue
            if (workload.name, config) in seen:
                continue
            seen.add((workload.name, config))
            digest = fisher_score_digest(self.key, workload.name, config,
                                         self.engine.seed)
            if digest not in scores:
                misses.setdefault(workload.name, {})[config] = digest
        return misses

    def _score_layer(self, layer: str,
                     operators: Mapping[ConvTransformConfig, bytes]) -> None:
        """Derive and score ``operators`` of ``layer``; add them to the table.

        Operators that keep the same input channels at the same stride
        convolve the same columns of the recorded input, so they are scored
        together while those columns are shared; one set of columns is
        alive at a time.
        """
        record = self.profile().layers[layer]
        by_columns: dict[tuple[int, int], list[ConvTransformConfig]] = {}
        for config in operators:
            by_columns.setdefault((config.bottleneck_in, config.spatial_bottleneck),
                                  []).append(config)
        scores: dict[ConvTransformConfig, float] = {}
        for configs in by_columns.values():
            with shared_columns(record.input_activation):
                for config in configs:
                    try:
                        candidate = DerivedConv2d(
                            record.in_channels, record.out_channels,
                            record.kernel_size, stride=record.stride,
                            padding=record.padding, config=config,
                            rng=self._normals.replay())
                        scores[config] = candidate_layer_fisher(record, candidate)
                    except ModelError:
                        scores[config] = -np.inf
        self.engine.statistics.fisher_scored += len(scores)
        self.engine._remember_fisher(
            {}, {digest: scores[config] for config, digest in operators.items()})

    def candidate_fisher_many(self, items: Iterable[tuple[LayerWorkload,
                                                          TransformProgram]],
                              ) -> list[float]:
        """Batch form of :meth:`candidate_fisher`: one call per generation.

        Every score is a pure, memoised function of ``(workload.name,
        program)`` — neural candidates get the draws of a fresh
        engine-seeded RNG — so evaluating a whole generation through one
        call returns exactly the per-candidate results with exactly the
        sequential hit/miss accounting.  The random and evolutionary
        strategies score each generation through one call and decide its
        legality from the returned scores, and the model_guided prefilter
        scores one layer of every undecided pair per call.  The
        generation's first table miss groups its missing operators by
        layer, so each layer's are derived and scored together; a
        generation the table answers does no extra work.
        """
        self._batch = list(items)
        try:
            return [self.candidate_fisher(workload, program)
                    for workload, program in self._batch]
        finally:
            self._batch, self._queued = [], None


class EvaluationEngine(Observable):
    """Shared latency / Fisher oracles with a persistent cross-search cache.

    A ``parallel="process"`` engine owns one persistent
    ``ProcessPoolExecutor``: the first :meth:`tune_many` call that has
    more than one task to run creates it and every later call reuses it,
    so batch tuning does not pay pool spin-up per generation.  Call
    :meth:`close` — or use the engine as a context manager — to shut the
    workers down; a closed engine transparently recreates the pool if it
    is used again.

    The engine is :class:`~repro.core.events.Observable`: subscribers
    receive one ``tune_batch`` event per :meth:`tune_many` submission,
    so long searches can stream tuning progress (see ``repro.api``).

    Example::

        with EvaluationEngine(get_platform("cpu"), tuner_trials=8,
                              cache_store="~/.cache/repro") as engine:
            latencies = engine.tune_many([(shape, program)])
            engine.save_cache()
    """

    def __init__(self, platform: PlatformSpec, *, tuner_trials: int = 8,
                 seed: int | None = 0,
                 cache_store: CacheStore | str | Path | None = None,
                 parallel: str = "serial", max_workers: int | None = None,
                 supervision: SupervisionPolicy | None = None):
        super().__init__()
        if tuner_trials < 1:
            raise EngineError("the engine needs at least one tuner trial")
        if parallel not in PARALLEL_MODES:
            raise EngineError(
                f"unknown parallel mode '{parallel}'; expected one of {PARALLEL_MODES}")
        self.platform = platform
        self.tuner_trials = tuner_trials
        self.seed = 0 if seed is None else int(seed)
        self.parallel = parallel
        self.max_workers = max_workers
        if cache_store is not None and not isinstance(cache_store, CacheStore):
            cache_store = CacheStore(cache_store)
        self.cache_store: CacheStore | None = cache_store
        self.supervision = supervision or SupervisionPolicy()
        self.statistics = EngineStatistics()
        self._latency_cache: dict[LatencyKey, float] = {}
        #: keys added since the store was last synchronised (the sharded
        #: backend appends exactly these instead of rewriting everything).
        self._pending: list[LatencyKey] = []
        self._pool = None
        #: set when the sharded store turned out unusable: the engine
        #: keeps running (slower, cold) and stops touching the store.
        self._store_quarantined = False
        #: the Fisher table (see FisherOracle): per-layer scores and
        #: operator scores by content digest, loaded from the store on
        #: first use; rows added since the last save are pending too.
        self._fisher_profiles: dict[bytes, tuple[tuple[str, float], ...]] | None = None
        self._fisher_scores: dict[bytes, float] = {}
        self._pending_profiles: dict[bytes, tuple[tuple[str, float], ...]] = {}
        self._pending_scores: dict[bytes, float] = {}
        #: set when the store's Fisher segment turned out unusable: scores
        #: are still computed and kept in memory, but no longer persisted.
        self._fisher_quarantined = False
        #: jitter for retry backoff; dedicated so supervision never
        #: consumes from (or perturbs) any result-bearing random stream.
        self._retry_rng = make_rng(self.seed)
        self.load_cache()

    # ------------------------------------------------------------------
    # Graceful degradation: a broken store quarantines, never aborts
    # ------------------------------------------------------------------
    def _quarantine_store(self, exc: Exception, *, fisher: bool = False) -> None:
        if fisher:
            self._fisher_quarantined = True
            message = (f"the cache store's Fisher segment is unusable and has "
                       f"been quarantined; Fisher scores are computed without "
                       f"persistence ({exc})")
        else:
            self._store_quarantined = True
            message = (f"cache store for platform '{self.platform.name}' is "
                       f"unreadable and has been quarantined; tuning continues "
                       f"without persistence ({exc})")
        warnings.warn(DegradedExecutionWarning(
            message, component="cache_store", reason=str(exc)), stacklevel=3)
        self.emit("degraded", component="cache_store", reason=str(exc))

    @property
    def store_quarantined(self) -> bool:
        """True when the sharded store was corrupt and is no longer used."""
        return self._store_quarantined

    # ------------------------------------------------------------------
    # Supervised execution: retry, backoff, pool healing
    # ------------------------------------------------------------------
    def _retry_delay(self, failure_count: int) -> float:
        """Exponential backoff with jitter for the ``failure_count``-th failure.

        The jitter comes from the engine's dedicated retry RNG, so
        supervision never consumes from — and therefore never perturbs —
        any random stream that feeds results.
        """
        policy = self.supervision
        delay = (policy.backoff_seconds
                 * policy.backoff_multiplier ** max(0, failure_count - 1))
        jitter = 1.0 + policy.jitter_fraction * float(self._retry_rng.random())
        return delay * jitter

    def _task_failed(self, exc: Exception, failures: int) -> bool:
        """Account one charged task failure; True when a retry is allowed.

        Raises :class:`EngineError` (chaining the last error) once the
        task has failed more than ``max_retries`` times — tuning tasks are
        pure functions of their keys, so a task that keeps failing is a
        real defect, not transient noise.
        """
        policy = self.supervision
        will_retry = failures <= policy.max_retries
        self.emit("task_failed", error=str(exc), failures=failures,
                  will_retry=will_retry)
        if not will_retry:
            raise EngineError(
                f"tuning task failed {failures} times "
                f"(max_retries={policy.max_retries}); last error: {exc}") from exc
        self.statistics.task_retries += 1
        return True

    def _attempt_serial(self, task) -> tuple[float, int]:
        """Run one tuning task inline, retrying transient failures.

        Library errors (:class:`~repro.errors.ReproError`) re-raise
        immediately — they are deterministic misuse, and retrying a pure
        function cannot change its answer.  Anything else is treated as
        transient (a crashed worker dependency, an injected fault) and
        retried under the supervision policy's backoff.
        """
        failures = 0
        while True:
            try:
                return _tune_entry(task)
            except ReproError:
                raise
            except Exception as exc:
                failures += 1
                self._task_failed(exc, failures)
                time.sleep(self._retry_delay(failures))

    def _heal_pool(self) -> None:
        """Evict and tear down a broken/stuck executor so it is rebuilt.

        This is the fix for the dead-pool bug: the engine used to keep
        serving a pool whose workers had died, failing every later
        ``tune_many`` on it.  Healing drops the pool, so the next round
        lazily creates a fresh one with live workers.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - teardown of a dead pool
                pass

    def _run_supervised(self, tasks: list) -> list[tuple[float, int]]:
        """Run ``tasks`` to completion under the supervision policy.

        Each round submits every unfinished task to the persistent pool
        and harvests results with the per-task timeout.  Three failure
        classes are handled differently:

        * a **broken pool** (``BrokenExecutor``) cannot be blamed on any
          single task — every unfinished task is requeued *without* an
          attempt charge and the pool is healed; the blast radius is
          bounded by ``max_pool_recoveries`` instead;
        * a **timeout** charges the task being waited on (and heals the
          pool, since a stuck worker cannot be cancelled);
        * an ordinary **task exception** charges that task and retries it
          after backoff, up to ``max_retries``.

        Results are bit-exact regardless of failures: tasks are pure
        functions of their keys, so a retried task returns exactly what
        the first attempt would have.
        """
        if self.parallel == "serial" or len(tasks) == 1:
            return [self._attempt_serial(task) for task in tasks]
        policy = self.supervision
        results: dict[int, tuple[float, int]] = {}
        failures = [0] * len(tasks)
        queue = list(range(len(tasks)))
        recoveries = 0
        while queue:
            pool = self._executor()
            futures: dict[int, object] = {}
            requeue: list[int] = []
            pool_broken = False
            round_charged = 0
            try:
                for index in queue:
                    futures[index] = pool.submit(_tune_entry, tasks[index])
            except BrokenExecutor:
                # The pool died between creation and submission; everything
                # not yet submitted is blast radius for the next round.
                pool_broken = True
                requeue.extend(i for i in queue if i not in futures)
            try:
                for index, future in futures.items():
                    if pool_broken and not future.done():
                        requeue.append(index)  # blast radius, not charged
                        continue
                    try:
                        results[index] = future.result(
                            timeout=None if pool_broken
                            else policy.task_timeout_seconds)
                    except BrokenExecutor:
                        pool_broken = True
                        requeue.append(index)
                    except PoolTimeout:
                        failures[index] += 1
                        self._task_failed(
                            TimeoutError(
                                f"tuning task exceeded the "
                                f"{policy.task_timeout_seconds}s task "
                                f"timeout and its worker may be stuck"),
                            failures[index])
                        round_charged = max(round_charged, failures[index])
                        requeue.append(index)
                        # The stuck worker cannot be cancelled: recycle
                        # the whole pool and re-run the stragglers on it.
                        pool_broken = True
                    except ReproError:
                        raise
                    except Exception as exc:
                        failures[index] += 1
                        self._task_failed(exc, failures[index])
                        round_charged = max(round_charged, failures[index])
                        requeue.append(index)
            except BaseException:
                for future in futures.values():
                    future.cancel()
                raise
            if pool_broken:
                recoveries += 1
                self.statistics.pool_recoveries += 1
                self._heal_pool()
                self.emit("pool_recovered", parallel=self.parallel,
                          recoveries=recoveries, requeued=len(requeue))
                if recoveries > policy.max_pool_recoveries:
                    raise EngineError(
                        f"executor pool broke {recoveries} times in one "
                        f"tune_many call (max_pool_recoveries="
                        f"{policy.max_pool_recoveries}); giving up")
            if round_charged:
                time.sleep(self._retry_delay(round_charged))
            queue = requeue
        return [results[index] for index in range(len(tasks))]

    # ------------------------------------------------------------------
    # The persistent worker pool
    # ------------------------------------------------------------------
    def _executor(self):
        """The engine's persistent process pool.

        Created lazily on first use and reused across :meth:`tune_many`
        calls until :meth:`close`.

        Process workers start with cold module-level caches (compile
        trie, shared tuning contexts) — deliberately so: shipping a warm
        snapshot would pickle the parent's whole trie per batch, while
        the persistent pool means each worker pays the cold cost once on
        its first generation and stays warm for the rest of the search.
        Results are unaffected either way (every cache entry equals its
        recomputation); only first-batch wall clock differs.
        """
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def close(self) -> None:
        """Shut down the persistent executor pool (idempotent).

        Safe from ``__del__`` during interpreter shutdown: an engine whose
        constructor raised before the pool attribute existed is a no-op,
        and repeated calls never double-shutdown a pool.
        """
        pool = getattr(self, "_pool", None)
        self._pool = None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing is interpreter-specific
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Cache keys
    # ------------------------------------------------------------------
    def latency_key(self, shape: ConvolutionShape,
                    program: TransformProgram) -> LatencyKey:
        """The full cache key of one query.

        Example::

            key = engine.latency_key(shape, program)
        """
        return (self.platform.name, shape, program, self.tuner_trials, self.seed)

    @property
    def cache_size(self) -> int:
        return len(self._latency_cache)

    def cache_keys(self) -> tuple[LatencyKey, ...]:
        return tuple(self._latency_cache)

    # ------------------------------------------------------------------
    # The legality pre-screen (staged legality, stage 1)
    # ------------------------------------------------------------------
    def prescreen(self, shape: ConvolutionShape,
                  program: TransformProgram) -> LegalityReport:
        """Structural legality of ``program`` on ``shape``, with statistics.

        Stage 1 of the staged legality: the cheap dependence/divisibility
        check runs before any Fisher scoring or tuner trial is spent.  The
        report names the failing primitive, feeding the per-primitive
        rejection counters.
        """
        report = program.legality(shape)
        self.statistics.prescreen_checks += 1
        if not report.legal:
            self.statistics.prescreen_rejections += 1
        return report

    def _require_legal(self, shape: ConvolutionShape,
                       program: TransformProgram) -> None:
        report = self.prescreen(shape, program)
        if not report.legal:
            raise LegalityError(
                f"program '{program.name}' is illegal on {shape}: {report.reason}",
                primitive=report.primitive, reason=report.reason)

    # ------------------------------------------------------------------
    # The latency oracle
    # ------------------------------------------------------------------
    def tuned_latency(self, shape: ConvolutionShape,
                      program: TransformProgram) -> float:
        """Auto-tuned latency of ``program`` applied to ``shape``, memoised."""
        key = self.latency_key(shape, program)
        cached = self._latency_cache.get(key)
        if cached is not None:
            self.statistics.latency_hits += 1
            return cached
        self._require_legal(shape, program)
        self.statistics.latency_misses += 1
        seconds, calls = self._attempt_serial((self.platform, shape, program,
                                               self.tuner_trials, self.seed))
        self.statistics.tuner_calls += calls
        self._latency_cache[key] = seconds
        self._pending.append(key)
        return seconds

    def cached_latency(self, shape: ConvolutionShape,
                       program: TransformProgram) -> float:
        """Read a latency expected to be cached, without touching statistics.

        The batched search strategies account for their queries once, when
        they submit the generation through :meth:`tune_many`; the
        per-assignment sums that follow re-read the same keys and would
        double-count every query as an extra hit if they went through
        :meth:`tuned_latency`.  A genuinely missing key falls back to the
        counting path (and is tuned).
        """
        value = self._latency_cache.get(self.latency_key(shape, program))
        if value is not None:
            return value
        return self.tuned_latency(shape, program)

    def tune_many(self, items: Iterable[tuple[ConvolutionShape, TransformProgram]]
                  ) -> list[float]:
        """Batch form of :meth:`tuned_latency`.

        Deduplicates the requests, tunes only the cache misses — serially
        or on the engine's persistent process pool — and returns the
        latencies in request order.  Each miss is an independent pure
        function of its key, so the parallel result is bit-for-bit
        identical to the serial one.

        Hits and misses are counted per request against the cache state at
        call entry: a request list naming the same missing key twice
        records two misses (the work is still done once).

        Observers receive one ``tune_batch`` event per call.
        """
        items = list(items)
        started = time.perf_counter()
        hits = 0
        missing: dict[LatencyKey, tuple[ConvolutionShape, TransformProgram]] = {}
        for shape, program in items:
            key = self.latency_key(shape, program)
            if key in self._latency_cache:
                hits += 1
            elif key not in missing:
                self._require_legal(shape, program)
                missing[key] = (shape, program)
        if missing:
            tasks = [(self.platform, shape, program, self.tuner_trials, self.seed)
                     for shape, program in missing.values()]
            outcomes = self._run_supervised(tasks)
            for key, (seconds, calls) in zip(missing, outcomes):
                self._latency_cache[key] = seconds
                self._pending.append(key)
                self.statistics.tuner_calls += calls
        self.statistics.latency_misses += len(items) - hits
        self.statistics.latency_hits += hits
        self.emit("tune_batch", requested=len(items), hits=hits,
                  tuned=len(missing), seconds=time.perf_counter() - started)
        return [self._latency_cache[self.latency_key(shape, program)]
                for shape, program in items]

    def workloads_latency(self, workloads: Iterable[LayerWorkload],
                          program: TransformProgram | None = None) -> float:
        """Summed latency of ``workloads``, each under ``program`` (default standard)."""
        program = program or predefined_program("standard")
        return sum(self.tune_many([(w.shape, program) for w in workloads]))

    # ------------------------------------------------------------------
    # The Fisher oracle
    # ------------------------------------------------------------------
    def fisher_oracle(self, key: FisherProfileKey,
                      build: Callable[[], FisherProfile]) -> FisherOracle:
        """A memoised candidate-Fisher oracle for one network and minibatch.

        ``key`` is :func:`~repro.fisher.fisher_key` of the network and
        minibatch, and ``build`` runs their Fisher profile pass; it is
        called only when the engine's Fisher table lacks a score.

        Example::

            oracle = engine.fisher_oracle(
                fisher_key(model, images, labels),
                lambda: fisher_profile(model, images, labels))
        """
        return FisherOracle(self, key, build)

    def _fisher_table(self) -> tuple[dict[bytes, tuple[tuple[str, float], ...]],
                                     dict[bytes, float]]:
        """The Fisher table's profiles and operator scores, loaded on first use.

        A Fisher segment the engine cannot read is quarantined like a
        shard: the table starts empty and the search computes its scores.
        """
        if self._fisher_profiles is None:
            self._fisher_profiles = {}
            if self.cache_store is not None and not self._store_quarantined:
                try:
                    profiles, scores = self.cache_store.load_fisher()
                except (CacheStoreError, OSError) as exc:
                    self._quarantine_store(exc, fisher=True)
                else:
                    self._fisher_profiles.update(profiles)
                    self._fisher_scores.update(scores)
        return self._fisher_profiles, self._fisher_scores

    def _remember_fisher(self, profiles: Mapping, scores: Mapping) -> None:
        """Add newly computed Fisher rows to the table and the pending set."""
        table_profiles, table_scores = self._fisher_table()
        table_profiles.update(profiles)
        table_scores.update(scores)
        if self.cache_store is not None:
            self._pending_profiles.update(profiles)
            self._pending_scores.update(scores)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _merge_entries(self, entries) -> int:
        """Merge ``entries`` into memory; in-memory entries win on conflict.

        The newly merged entries count as loaded.
        """
        cache = self._latency_cache
        if not cache:
            # Warm start into an empty engine: bulk-insert without the
            # per-key membership checks (there is nothing to conflict with).
            cache.update(entries)
            loaded = len(cache)
        else:
            loaded = 0
            for key, seconds in entries.items():
                if key not in cache:
                    cache[key] = seconds
                    loaded += 1
        self.statistics.loaded_entries += loaded
        return loaded

    def save_cache(self) -> Path:
        """Append the entries tuned and the Fisher rows scored since the last save.

        Only the new records are appended, under the segment locks and
        deduped by content digest, so callers can run ``save_cache`` after
        every search; returns the store directory.  A store that cannot be
        written (full disk, unusable directory) is quarantined like an
        unreadable one (see :meth:`load_cache`), and later saves are
        no-ops.  An engine without a store raises
        :class:`~repro.errors.EngineError`.
        """
        if self.cache_store is None:
            raise EngineError(
                "save_cache() has no target: construct the engine with "
                "cache_store=... (OptimizationSession does this automatically "
                "when given a cache_dir)")
        if self._pending and not self._store_quarantined:
            pending = {key: self._latency_cache[key]
                       for key in self._pending
                       if key in self._latency_cache}
            try:
                self.cache_store.append(pending)
            except (CacheStoreError, OSError) as exc:
                self._quarantine_store(exc)
            else:
                self._pending.clear()
        if ((self._pending_profiles or self._pending_scores)
                and not (self._store_quarantined or self._fisher_quarantined)):
            try:
                self.cache_store.append_fisher(self._pending_profiles,
                                               self._pending_scores)
            except (CacheStoreError, OSError) as exc:
                self._quarantine_store(exc, fisher=True)
            else:
                self._pending_profiles.clear()
                self._pending_scores.clear()
        return self.cache_store.directory

    def load_cache(self) -> int:
        """Merge this platform's store shard into memory; returns entries loaded.

        Re-scans the shard, absorbing what other processes appended since
        the last look; in-memory entries win on conflict.  An engine
        without a store loads nothing.  A store that cannot be read (bad
        header, version mismatch, dangling interned records, a path that
        is not a directory) is quarantined: the engine emits one
        structured :class:`~repro.errors.DegradedExecutionWarning` plus a
        ``degraded`` event and runs on with a cold cache — slower, never
        wrong, since every cache entry equals its recomputation.
        """
        if self.cache_store is None or self._store_quarantined:
            return 0
        try:
            entries = self.cache_store.load_platform(self.platform.name)
        except (CacheStoreError, OSError) as exc:
            self._quarantine_store(exc)
            return 0
        return self._merge_entries(entries)
