"""The unified NAS-as-program-transformation search (§6 "Search").

The search follows the paper's procedure:

1. profile the original network's Fisher Potential on one random minibatch
   (or read its per-layer scores from the engine's Fisher table);
2. enumerate random configurations — an assignment of a transformation
   sequence to every convolution layer — from the unified space;
3. reject configurations whose Fisher Potential falls below the original's
   (neural legality) — program-only sequences are always legal;
4. auto-tune the surviving operators' schedules on the target platform and
   keep the configuration with the lowest estimated latency.

Per-layer Fisher scores and per-(shape, sequence) tuned latencies come
from a shared :class:`~repro.core.engine.EvaluationEngine`, so evaluating
many configurations is cheap — and a second search against a warm engine
or store re-tunes and re-scores nothing at all — mirroring the paper's
observation that 1000 configurations take under five minutes.

Search strategies are pluggable: a strategy is a class implementing
:class:`SearchStrategy` over a :class:`_SearchContext` and registered in
:data:`SEARCH_STRATEGY_REGISTRY` with the :func:`register_strategy`
decorator (see DESIGN.md §6).  The paper's random enumeration, a
latency-greedy construction, a small evolutionary search and a
surrogate-guided search ship by default.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol

import numpy as np

from repro.core.compile_cache import COMPILE_CACHE
from repro.core.engine import EvaluationEngine, FisherOracle
from repro.core.events import Observer, ProgressEvent
from repro.core.predictor import LIAR_STRATEGIES, LatencyPredictor
from repro.core.program import TransformProgram
from repro.core.sequences import predefined_program
from repro.core.unified_space import Partitions, UnifiedSpace
from repro.core.workloads import LayerWorkload, extract_workloads
from repro.errors import ModelError, SearchError
from repro.fisher import (
    FisherLegalityChecker,
    FisherScores,
    fisher_key,
    fisher_profile,
)
from repro.hardware.platform import PlatformSpec
from repro.nn.convs import DerivedConv2d
from repro.poly.statement import ConvolutionShape
from repro.utils import make_rng


@dataclass
class LayerChoice:
    """The program chosen for one layer, with its scores."""

    layer: str
    sequence: TransformProgram
    latency_seconds: float
    baseline_latency_seconds: float
    fisher_score: float
    baseline_fisher_score: float
    shape: ConvolutionShape | None = None

    @property
    def speedup(self) -> float:
        return self.baseline_latency_seconds / max(self.latency_seconds, 1e-12)


@dataclass
class SearchStatistics:
    """Bookkeeping for §7.2 (search time, rejection rate).

    ``rejections_by_primitive`` differentiates the rejection rate: every
    structurally rejected candidate is counted under the Table-1 primitive
    that failed its legality check (as reported by ``LegalityError``), and
    Fisher rejections are counted under the neural primitives of the
    refused program — or under the ``"fisher"`` key when the whole
    configuration's network potential fell below the threshold.
    """

    configurations_evaluated: int = 0
    configurations_rejected: int = 0
    search_seconds: float = 0.0
    unique_workloads: int = 0
    candidate_sequences: int = 0
    rejections_by_primitive: dict[str, int] = field(default_factory=dict)
    #: mean absolute relative error of the latency surrogate's verified
    #: predictions (``model_guided`` only; 0.0 when no surrogate ran)
    predictor_mae: float = 0.0
    #: candidate pairs ``model_guided``'s surrogate screened instead of
    #: tuning, plus the cold-start tunings a warm-started surrogate skipped
    #: (0 for the other strategies)
    evaluations_saved: int = 0
    #: unique (shape, program) pairs the strategy submitted for tuning,
    #: excluding the ``standard`` baselines.  Counted at submission, not
    #: as cache misses, so a warm or resumed run reports the cold run's
    #: number.
    full_tunings: int = 0
    #: compile-trie traffic during this search (full-program snapshot hits,
    #: compiles that replayed at least one step, and the total steps the
    #: cached prefixes saved) — the incremental-compilation win, observable
    #: per run rather than just asserted by the benchmark
    compile_hits: int = 0
    compile_misses: int = 0
    prefix_depth_saved: int = 0

    @property
    def rejection_rate(self) -> float:
        if not self.configurations_evaluated:
            return 0.0
        return self.configurations_rejected / self.configurations_evaluated

    def record_rejection(self, key: str, count: int = 1) -> None:
        self.rejections_by_primitive[key] = (
            self.rejections_by_primitive.get(key, 0) + count)

    def record_fisher_rejection(self, program: TransformProgram) -> None:
        """Attribute a Fisher rejection to the program's neural primitives."""
        from repro.core.program import PRIMITIVE_REGISTRY

        neural = [app.primitive for app in program.steps
                  if app.primitive in PRIMITIVE_REGISTRY
                  and PRIMITIVE_REGISTRY[app.primitive].is_neural]
        for primitive in neural or ["fisher"]:
            self.record_rejection(primitive)


@dataclass
class _SearchContext:
    """Shared state handed to the search-strategy implementations."""

    workloads: list[LayerWorkload]
    shapes: dict[str, ConvolutionShape]
    candidates: dict[str, list[TransformProgram]]
    profile: FisherScores
    checker: FisherLegalityChecker
    engine: EvaluationEngine
    fisher: FisherOracle
    baseline_latency: dict[str, float]
    standard: TransformProgram
    rng: np.random.Generator
    statistics: "SearchStatistics"
    #: unique non-``standard`` (shape, program) pairs submitted through
    #: :meth:`UnifiedSearch._tune`.  A dict, not a set: a set's iteration
    #: order follows string hashing and would break reproducibility.
    submitted: dict[tuple[ConvolutionShape, TransformProgram], None] = field(
        default_factory=dict)
    #: ``candidates`` split by ``UnifiedSpace.sample_assignment``, once per search
    partitions: Partitions = field(default_factory=dict)


@dataclass
class UnifiedSearchResult:
    """Outcome of the unified search on one network / platform pair.

    Example::

        result = search.search(model, images, labels, input_shape)
        print(result.speedup, result.sequence_frequency())
    """

    platform: str
    baseline_latency_seconds: float
    optimized_latency_seconds: float
    choices: dict[str, LayerChoice] = field(default_factory=dict)
    statistics: SearchStatistics = field(default_factory=SearchStatistics)
    fisher_original: float = 0.0
    fisher_optimized: float = 0.0

    @property
    def speedup(self) -> float:
        return self.baseline_latency_seconds / max(self.optimized_latency_seconds, 1e-12)

    def sequence_frequency(self) -> Counter:
        """How often each neural program (by name) was chosen."""
        counts: Counter = Counter()
        for choice in self.choices.values():
            if choice.sequence.is_neural:
                counts[choice.sequence.kind] += 1
        return counts

    def primitive_frequency(self) -> Counter:
        """How often each Table-1 primitive was applied (Figure 5).

        Counts are derived from the IR: every primitive application in the
        programs chosen for the neural layers contributes one count, so a
        five-step sequence registers each of its five operations.
        """
        counts: Counter = Counter()
        for choice in self.choices.values():
            if choice.sequence.is_neural:
                counts.update(choice.sequence.primitive_names())
        return counts

    def assignment(self) -> dict[str, TransformProgram]:
        return {name: choice.sequence for name, choice in self.choices.items()}


# ---------------------------------------------------------------------------
# The strategy registry
# ---------------------------------------------------------------------------
class SearchStrategy(Protocol):
    """A search procedure over the unified space.

    Implementations receive the configured :class:`UnifiedSearch` (for the
    budget, threshold and evaluation helpers) and the per-run
    :class:`_SearchContext`, and return the best ``(assignment, latency)``
    found — or ``(None, inf)`` when every candidate was rejected.
    """

    name: str

    def run(self, search: "UnifiedSearch", context: _SearchContext
            ) -> tuple[dict[str, TransformProgram] | None, float]:
        ...


#: Registered search strategies, keyed by name.  Extend with
#: :func:`register_strategy`; drivers never need to change.
SEARCH_STRATEGY_REGISTRY: dict[str, type] = {}


def register_strategy(name: str):
    """Class decorator registering a :class:`SearchStrategy` under ``name``."""

    def decorate(cls):
        if name in SEARCH_STRATEGY_REGISTRY:
            raise SearchError(f"search strategy '{name}' is already registered")
        cls.name = name
        SEARCH_STRATEGY_REGISTRY[name] = cls
        return cls

    return decorate


def get_strategy(name: str) -> SearchStrategy:
    """Instantiate the registered strategy ``name`` (:class:`SearchError` if unknown)."""
    try:
        cls = SEARCH_STRATEGY_REGISTRY[name]
    except KeyError:
        known = tuple(SEARCH_STRATEGY_REGISTRY)
        raise SearchError(f"unknown strategy '{name}'; expected one of {known}") from None
    return cls()


@register_strategy("greedy")
class GreedyStrategy:
    """Latency-greedy construction under the network Fisher constraint.

    Every candidate of every layer is tuned as one batch, then the shared
    construction (:meth:`UnifiedSearch._construct`) gives each layer, in
    order of baseline cost, the fastest candidate the Fisher rule accepts.
    Besides the candidates the construction refused, every neural
    candidate it accepted counts as an evaluated configuration (the
    ``model_guided`` strategy counts those when it tunes them).
    """

    def run(self, search: "UnifiedSearch", context: _SearchContext):
        # Submit the whole generation as one batch (deduplicated, tuned on
        # the engine's persistent pool when configured) instead of letting
        # the construction's sorts pull latencies one at a time.
        search._tune(context, [(context.shapes[w.name], sequence)
                               for w in context.workloads
                               for sequence in context.candidates[w.name]])
        assignment = search._construct(context, context.candidates)
        context.statistics.configurations_evaluated += sum(
            sequence.is_neural for sequence in assignment.values())
        return assignment, search._assignment_latency(context, assignment)


@register_strategy("random")
class RandomStrategy:
    """The paper's procedure: random configurations, Fisher filter, best wins."""

    def run(self, search: "UnifiedSearch", context: _SearchContext):
        # Sampling and the Fisher filter consume no latency information, so
        # the whole generation is drawn and filtered first (one oracle call)
        # and the survivors' (shape, program) pairs go to the engine as one
        # batch; the per-assignment sums below then run against the cache.
        sampled = [search.space.sample_assignment(context.shapes, context.candidates,
                                                  context.rng,
                                                  partitions=context.partitions)
                   for _ in range(search.configurations)]
        survivors = search._legal_generation(context, sampled)
        search._prefetch_latencies(context, survivors)
        best_assignment, best_latency = None, float("inf")
        for assignment in survivors:
            latency = search._assignment_latency(context, assignment)
            if latency < best_latency:
                best_assignment, best_latency = assignment, latency
        return best_assignment, best_latency


@register_strategy("evolutionary")
class EvolutionaryStrategy:
    """Small (mu + lambda) evolutionary search used by the ablation."""

    def run(self, search: "UnifiedSearch", context: _SearchContext):
        population_size = max(4, min(12, search.configurations // 8))
        generations = max(1, search.configurations // population_size - 1)
        # Fill the initial population (legality only — no latency queries),
        # then evaluate it as one batch.  Each sample's layers are scored
        # lazily, so an infeasible layer stops the read and the layers
        # behind it derive no operator.
        seeds: list[dict[str, TransformProgram]] = []
        while (len(seeds) < population_size
               and context.statistics.configurations_evaluated < search.configurations):
            assignment = search.space.sample_assignment(
                context.shapes, context.candidates, context.rng,
                partitions=context.partitions)
            scores = (context.fisher.candidate_fisher(w, assignment[w.name])
                      for w in context.workloads)
            if search._assignment_legal(context, assignment, scores):
                seeds.append(assignment)
        if not seeds:
            return None, float("inf")
        search._prefetch_latencies(context, seeds)
        population = [(assignment, search._assignment_latency(context, assignment))
                      for assignment in seeds]
        for _ in range(generations):
            population.sort(key=lambda item: item[1])
            parents = population[:max(2, population_size // 2)]
            # Build the whole brood first (mutation consumes the RNG in the
            # same order as the old interleaved loop), then score it with
            # one Fisher oracle call and filter in construction order — the
            # stream, the survivors and the statistics are unchanged.
            brood: list[dict[str, TransformProgram]] = []
            for parent_assignment, _ in parents:
                child = dict(parent_assignment)
                layer = context.workloads[
                    int(context.rng.integers(0, len(context.workloads)))].name
                options = context.candidates[layer]
                child[layer] = options[int(context.rng.integers(0, len(options)))]
                brood.append(child)
            offspring = search._legal_generation(context, brood)
            # The whole surviving generation is tuned in one submission.
            search._prefetch_latencies(context, offspring)
            children = [(child, search._assignment_latency(context, child))
                        for child in offspring]
            population = (population + children)
            population.sort(key=lambda item: item[1])
            population = population[:population_size]
        best_assignment, best_latency = min(population, key=lambda item: item[1])
        return best_assignment, best_latency


def _candidate_pairs(context: _SearchContext
                     ) -> list[tuple[ConvolutionShape, TransformProgram]]:
    """Deduplicated (shape, program) pairs over every layer's candidates.

    Order is deterministic: workloads in model order, candidates in
    generation order, first occurrence wins — so index-based sampling
    from the context RNG reproduces exactly across runs and engine modes.
    The always-tuned ``standard`` baseline is excluded.
    """
    pairs: list[tuple[ConvolutionShape, TransformProgram]] = []
    seen: set[tuple[ConvolutionShape, TransformProgram]] = set()
    for workload in context.workloads:
        shape = context.shapes[workload.name]
        for sequence in context.candidates[workload.name]:
            if sequence == context.standard:
                continue
            key = (shape, sequence)
            if key not in seen:
                seen.add(key)
                pairs.append(key)
    return pairs


def _shape_baselines(context: _SearchContext) -> dict[ConvolutionShape, float]:
    """Baseline (standard-program) latency per unique shape."""
    return {context.shapes[w.name]: context.baseline_latency[w.name]
            for w in context.workloads}


@register_strategy("model_guided")
class ModelGuidedStrategy:
    """Sample many, predict, tune only the top-k, refit (BANANAS-style).

    The strategy never pays full tuning cost for the bulk of the space.
    It seeds an online ridge surrogate (:mod:`repro.core.predictor`) with
    the per-layer baselines plus a few random candidates, then loops:
    *predict* the latency of every still-untuned candidate pair from its
    encoding, *tune* only the ``top_k`` pairs with the best predicted
    speedup over their layer's baseline, *observe* the real latencies
    and refit.  Until the predictor's cold-start threshold is met the
    selection falls back to random candidates — the surrogate guides the
    search as soon as it is trustworthy, never before.

    The final configuration is assembled by the construction ``greedy``
    runs (:meth:`UnifiedSearch._construct`) over ``standard`` and the
    candidates *measured* for each layer's shape, so the reported result
    never rests on a prediction.  ``SearchStatistics`` gains ``predictor_mae`` (verified
    relative error) and ``evaluations_saved`` (candidate pairs screened
    by the surrogate instead of the tuner).
    """

    def run(self, search: "UnifiedSearch", context: _SearchContext):
        predictor = search._predictor()
        try:
            return self._run(search, context, predictor)
        finally:
            context.statistics.predictor_mae = (
                predictor.statistics.mean_absolute_error)

    #: fraction of the configuration budget spent on real tunings; the
    #: rest of the space is screened by the surrogate (DESIGN.md §10).
    tune_fraction = 3

    def _run(self, search: "UnifiedSearch", context: _SearchContext,
             predictor) -> tuple[dict[str, TransformProgram] | None, float]:
        # The configuration budget bounds candidates *considered*; real
        # tunings are deliberately a fraction of it — the surrogate
        # screens the rest.  Small budgets tune everything they can.
        budget = min(search.configurations,
                     max(2 * predictor.min_observations,
                         search.configurations // self.tune_fraction))
        baselines = _shape_baselines(context)
        # References first: every later observation/prediction for these
        # shapes is then modelled as a ratio to its measured baseline.
        for shape, seconds in baselines.items():
            predictor.set_reference(shape, seconds)
        for shape, seconds in baselines.items():
            predictor.observe(shape, context.standard, seconds,
                              trials=context.engine.tuner_trials)
        pairs = _candidate_pairs(context)
        # Fisher pre-filter (stage 2 of the staged legality, run before
        # any tuner trial): a candidate pair is only worth tuning when at
        # least one layer of its shape passes the construction's per-layer
        # test.  Scores are memoised by the oracle, so the construction
        # below re-reads them for free.
        layers_by_shape: dict[ConvolutionShape, list[LayerWorkload]] = {}
        for workload in context.workloads:
            layers_by_shape.setdefault(context.shapes[workload.name],
                                       []).append(workload)
        # Round-based batching of the per-pair feasibility scan: round
        # ``depth`` scores the depth-th layer of every still-undecided pair
        # through one ``candidate_fisher_many`` call.  A pair reaches round
        # ``depth`` exactly when its first ``depth`` layers all refused the
        # substitution — the same condition under which the old per-pair
        # early-break loop would have scored that layer — so the oracle
        # sees the identical evaluation set (and hit/miss counts), one
        # generation-sized call per round instead of per-candidate calls.
        feasible: dict[tuple[ConvolutionShape, TransformProgram], bool] = {}
        pending = [pair for pair in pairs if pair[1].is_neural]
        depth = 0
        while pending:
            eligible = [pair for pair in pending
                        if depth < len(layers_by_shape[pair[0]])]
            scored = dict(zip(eligible, context.fisher.candidate_fisher_many(
                [(layers_by_shape[shape][depth], sequence)
                 for shape, sequence in eligible])))
            undecided = []
            for pair in pending:
                if pair not in scored:
                    feasible[pair] = False  # every layer of its shape refused
                    continue
                if search._layer_legal(context, layers_by_shape[pair[0]][depth],
                                       pair[1], scored[pair]):
                    feasible[pair] = True
                else:
                    undecided.append(pair)
            pending = undecided
            depth += 1
        untuned = []
        for shape, sequence in pairs:
            if not sequence.is_neural or feasible[(shape, sequence)]:
                untuned.append((shape, sequence))
            else:
                # A rejection is an evaluation the Fisher check consumed
                # (greedy counts the same way), keeping rejection_rate <= 1.
                context.statistics.configurations_evaluated += 1
                context.statistics.configurations_rejected += 1
                context.statistics.record_fisher_rejection(sequence)
        def tune_batch(batch) -> None:
            if not batch:
                return
            latencies = search._tune(context, batch)
            # Feed the surrogate every batch result, hits included, in
            # batch order: on a warm engine (repeated seeds, shared
            # sessions, REPRO_CACHE_DIR) this keeps the observation
            # stream — and hence the whole trajectory — identical to the
            # cold run.
            for (shape, program), seconds in zip(batch, latencies):
                predictor.observe(shape, program, seconds,
                                  trials=context.engine.tuner_trials)
            batch_keys = set(batch)
            untuned[:] = [pair for pair in untuned if pair not in batch_keys]
            context.statistics.configurations_evaluated += len(batch)

        def spent() -> int:
            # The tuning budget is spent by tunings alone; prefilter and
            # selection rejections count as evaluations but not spend.
            return context.statistics.full_tunings

        # Seed the surrogate with a few random candidates (beyond the
        # baselines) so it sees transformed programs, not just standard.
        init = min(budget, len(untuned), max(2, budget // 6))
        if init > 0:
            picks = context.rng.permutation(len(untuned))[:init]
            tune_batch([untuned[int(index)] for index in sorted(picks)])

        # A warm-started surrogate (see LatencyPredictor.warm_start_from)
        # is ready before this platform paid for min_observations tunings
        # of its own; the cold-start random rounds it skips are
        # evaluations the transfer saved.
        if predictor.statistics.transferred and predictor.ready:
            context.statistics.evaluations_saved += max(
                0, predictor.min_observations
                - predictor.statistics.observations)

        while untuned and spent() < budget:
            remaining = budget - spent()
            if predictor.fit():
                search._emit("predictor_fitted",
                             observations=predictor.statistics.observations,
                             mae=predictor.statistics.mean_absolute_error)
            if predictor.ready:
                # Select at most one candidate per shape this round: every
                # layer gets its predicted-best candidate tuned before any
                # layer gets a second, so a few deep-speedup layers cannot
                # starve the rest of the network.  The whole batch then
                # tunes concurrently through one tune_many submission and
                # the surrogate refits on real data once per round.
                order = self._predicted_batch(search, context, predictor,
                                              untuned, baselines, remaining)
            else:
                # Cold start: the surrogate is not trustworthy yet, fall
                # back to random exploration — but only for as many
                # tunings as the cold-start shortfall needs, so the
                # rounds after warm-up are still surrogate-guided.
                shortfall = max(1, predictor.min_observations
                                - predictor.statistics.observations)
                order = [int(index) for index in
                         context.rng.permutation(len(untuned))
                         [:min(remaining, shortfall)]]
            tune_batch([untuned[index] for index in sorted(order)])

        context.statistics.evaluations_saved += len(untuned)
        # The final configuration is built from *measured* candidates
        # only.  Tuned candidates are pooled per shape: a program proposed
        # (and tuned) for one layer is a legal citizen of the open space
        # for every other layer of the same shape, so sharing the pool
        # lets a small tuning budget serve the whole network.
        pool: dict[ConvolutionShape, list[TransformProgram]] = {}
        for shape, sequence in context.submitted:
            pool.setdefault(shape, []).append(sequence)
        assignment = search._construct(context, {
            w.name: [context.standard] + pool.get(context.shapes[w.name], [])
            for w in context.workloads})
        return assignment, search._assignment_latency(context, assignment)

    @staticmethod
    def _predicted_batch(search: "UnifiedSearch", context: _SearchContext,
                         predictor, untuned, baselines,
                         remaining: int) -> list[int]:
        """One ready round's picks: the lowest predicted latency ratios.

        The objective is the predicted latency *ratio* to the pair's own
        baseline, so one ranking is comparable across shapes whose
        absolute latencies differ by orders of magnitude.  With
        ``liar == "none"`` one static ranking picks up to one candidate
        per shape.  With a constant liar (DeepHyper AMBS, DESIGN.md §14)
        picks are sequential without tuning in between: rank, pick,
        impute the pick with a lie so the batch spreads instead of
        clustering, re-rank; every lie is retracted before the batch is
        tuned.  A stable sort sends ties to the first candidate and NaN
        last, on every machine.
        """
        trials = context.engine.tuner_trials

        def ratios(pairs) -> np.ndarray:
            return (predictor.predict_batch(pairs, trials=trials)
                    / np.array([baselines[shape] for shape, _ in pairs]))

        order: list[int] = []
        if search.liar == "none":
            shapes_this_round: set[ConvolutionShape] = set()
            for index in np.argsort(ratios(untuned), kind="stable"):
                shape = untuned[index][0]
                if shape in shapes_this_round:
                    continue
                shapes_this_round.add(shape)
                order.append(int(index))
                if len(order) >= remaining:
                    break
            return order
        shapes_picked: set[ConvolutionShape] = set()
        candidates = list(range(len(untuned)))
        try:
            while candidates and len(order) < remaining:
                ratio = ratios([untuned[index] for index in candidates])
                pick = candidates[int(np.argsort(ratio, kind="stable")[0])]
                shape, program = untuned[pick]
                order.append(pick)
                shapes_picked.add(shape)
                predictor.lie(shape, program, trials=trials,
                              strategy=search.liar)
                candidates = [index for index in candidates
                              if untuned[index][0] not in shapes_picked]
        finally:
            predictor.retract_lies()
        return order


class UnifiedSearch:
    """Joint search over neural and program transformations.

    Example::

        search = UnifiedSearch(get_platform("cpu"), configurations=100,
                               strategy="model_guided", seed=0)
        result = search.search(model, images, labels, (3, 32, 32))
        optimized = search.materialize(model, result)
    """

    def __init__(self, platform: PlatformSpec, *, configurations: int = 100,
                 tuner_trials: int = 8, fisher_threshold: float = 1.0,
                 strategy: str = "greedy", seed: int | None = None,
                 engine: EvaluationEngine | None = None,
                 observer: Observer | None = None,
                 predictor: LatencyPredictor | None = None,
                 liar: str = "cl_mean"):
        if configurations < 1:
            raise SearchError("the search needs at least one configuration")
        if not fisher_threshold > 0:  # NaN fails this test too
            raise SearchError(f"fisher_threshold must be > 0, got {fisher_threshold!r}")
        get_strategy(strategy)  # fail fast on unknown names
        if liar not in ("none",) + LIAR_STRATEGIES:
            raise SearchError(
                f"unknown liar strategy '{liar}'; expected one of "
                f"{('none',) + LIAR_STRATEGIES}")
        if engine is not None and engine.platform.name != platform.name:
            raise SearchError(
                f"engine is bound to platform '{engine.platform.name}', "
                f"the search targets '{platform.name}'")
        self.platform = platform
        self.configurations = configurations
        self.fisher_threshold = fisher_threshold
        self.strategy = strategy
        self.space = UnifiedSpace(0 if seed is None else seed)
        self.seed = seed
        # The observer receives the search's lifecycle/generation events and
        # is subscribed to the engine's tune_batch events for the duration of
        # each :meth:`search` call (see repro.core.events for the kinds).
        self.observer = observer
        # The engine owns the tuner configuration; reproducibility is
        # controlled by the one seed threaded through it.
        self.engine = engine or EvaluationEngine(platform, tuner_trials=tuner_trials,
                                                 seed=seed)
        self.tuner_trials = self.engine.tuner_trials
        # The latency surrogate of the model_guided strategy.  Callers may
        # pass a warm predictor to reuse its observations across searches;
        # otherwise one is created on first use and kept for inspection.
        self.predictor = predictor
        # Pending-point imputation rule for model_guided's batch-concurrent
        # rounds ("none" restores the static one-pass ranking).
        self.liar = liar

    def _predictor(self) -> LatencyPredictor:
        """The search's latency surrogate (created on first use)."""
        if self.predictor is None:
            self.predictor = LatencyPredictor()
        return self.predictor

    # ------------------------------------------------------------------
    def _emit(self, kind: str, **data) -> None:
        if self.observer is not None:
            self.observer(ProgressEvent(kind=kind, data=data))

    def search(self, model, images: np.ndarray, labels: np.ndarray,
               input_shape: tuple[int, int, int]) -> UnifiedSearchResult:
        """Run the unified search for ``model`` on this search's platform.

        When the search was built with an ``observer``, it is subscribed to
        the engine's ``tune_batch`` events for the duration of the run and
        receives the search's own lifecycle events around them.
        """
        if self.observer is not None:
            self.engine.subscribe(self.observer)
        try:
            return self._run_search(model, images, labels, input_shape)
        finally:
            if self.observer is not None:
                self.engine.unsubscribe(self.observer)

    def _run_search(self, model, images: np.ndarray, labels: np.ndarray,
                    input_shape: tuple[int, int, int]) -> UnifiedSearchResult:
        start = time.perf_counter()
        compile_baseline = COMPILE_CACHE.statistics.snapshot()
        rng = make_rng(self.seed)

        # The per-layer scores come from the engine's Fisher table when it
        # holds them; the profile pass runs only once a score is missing.
        fisher = self.engine.fisher_oracle(
            fisher_key(model, images, labels),
            lambda: fisher_profile(model, images, labels))
        profile = fisher.scores
        checker = FisherLegalityChecker(profile, threshold=self.fisher_threshold)
        workloads = [w for w in extract_workloads(model, input_shape)
                     if w.name in profile.layers]
        if not workloads:
            raise SearchError("the model exposes no convolution layers to optimise")
        self._emit("search_started", platform=self.platform.name,
                   strategy=self.strategy, configurations=self.configurations,
                   layers=len(workloads))

        per_layer_candidates: dict[str, list[TransformProgram]] = {}
        shapes: dict[str, ConvolutionShape] = {}
        structural_rejections: dict[str, int] = {}
        # Candidate generation restarts from the search seed on every run, so
        # a repeated search proposes identical programs and the warm engine
        # answers every latency query from cache.  Structurally illegal
        # candidates die here (staged legality, stage 1) and are counted
        # per failing primitive.
        space_rng = self.space.fresh_rng()
        for workload in workloads:
            per_layer_candidates[workload.name] = self.space.candidate_sequences(
                workload.shape, rng=space_rng, rejections=structural_rejections)
            shapes[workload.name] = workload.shape

        standard = predefined_program("standard")
        # Batch-tune the baselines up front (deduplicated; parallel when the
        # engine is configured for it).
        baseline_latency = dict(zip(
            (w.name for w in workloads),
            self.engine.tune_many([(w.shape, standard) for w in workloads])))
        total_baseline = sum(baseline_latency.values())
        self._emit("baseline_tuned", baseline_latency_seconds=total_baseline)

        statistics = SearchStatistics(
            unique_workloads=len({w.shape for w in workloads}),
            candidate_sequences=sum(len(c) for c in per_layer_candidates.values()),
            rejections_by_primitive=structural_rejections,
        )
        context = _SearchContext(
            workloads=workloads, shapes=shapes, candidates=per_layer_candidates,
            profile=profile, checker=checker, engine=self.engine,
            fisher=fisher, baseline_latency=baseline_latency,
            standard=standard, rng=rng, statistics=statistics,
        )
        best_assignment, best_latency = get_strategy(self.strategy).run(self, context)

        if best_assignment is None or best_latency > total_baseline:
            # The program-only configuration is always in the space and
            # always legal, so it bounds every search outcome: fall back to
            # it when all samples were rejected or none beat the baseline.
            best_assignment = {w.name: standard for w in workloads}
            best_latency = total_baseline

        choices: dict[str, LayerChoice] = {}
        optimized_fisher = profile.total
        # One batched oracle call for the chosen configuration's scores
        # (memoised: requests the strategy already scored are pure hits).
        fisher_scores = context.fisher.candidate_fisher_many(
            [(w, best_assignment[w.name]) for w in workloads])
        for workload, fisher_score in zip(workloads, fisher_scores):
            sequence = best_assignment[workload.name]
            layer_latency = self.engine.tuned_latency(workload.shape, sequence)
            optimized_fisher += fisher_score - profile.score_of(workload.name)
            choices[workload.name] = LayerChoice(
                layer=workload.name,
                sequence=sequence,
                latency_seconds=layer_latency,
                baseline_latency_seconds=baseline_latency[workload.name],
                fisher_score=fisher_score,
                baseline_fisher_score=profile.score_of(workload.name),
                shape=workload.shape,
            )

        statistics.search_seconds = time.perf_counter() - start
        compile_delta = COMPILE_CACHE.statistics.delta(compile_baseline)
        statistics.compile_hits = compile_delta.compile_hits
        statistics.compile_misses = compile_delta.compile_misses
        statistics.prefix_depth_saved = compile_delta.prefix_depth_saved
        self._emit("search_finished",
                   baseline_latency_seconds=total_baseline,
                   optimized_latency_seconds=best_latency,
                   speedup=total_baseline / max(best_latency, 1e-12),
                   configurations_evaluated=statistics.configurations_evaluated,
                   search_seconds=statistics.search_seconds)
        return UnifiedSearchResult(
            platform=self.platform.name,
            baseline_latency_seconds=total_baseline,
            optimized_latency_seconds=best_latency,
            choices=choices,
            statistics=statistics,
            fisher_original=profile.total,
            fisher_optimized=optimized_fisher,
        )

    # ------------------------------------------------------------------
    # Evaluation helpers shared by the strategies
    # ------------------------------------------------------------------
    def _layer_latency(self, context: _SearchContext, layer: str,
                       sequence: TransformProgram) -> float:
        # Strategies account for their queries when they submit the batched
        # generation; this read-back is bookkeeping, not a new query.
        return context.engine.cached_latency(context.shapes[layer], sequence)

    def _assignment_latency(self, context: _SearchContext,
                            assignment: dict[str, TransformProgram]) -> float:
        return sum(self._layer_latency(context, w.name, assignment[w.name])
                   for w in context.workloads)

    def _tune(self, context: _SearchContext,
              items: list[tuple[ConvolutionShape, TransformProgram]]) -> list[float]:
        """Submit one batch to the engine; every strategy tunes through here.

        One ``tune_many`` call per batch.  The unique non-``standard``
        pairs are recorded in ``context.submitted``, and
        ``SearchStatistics.full_tunings`` is set from that record, so the
        count is the same whether the engine was cold or warm.
        """
        latencies = context.engine.tune_many(items)
        for pair in dict.fromkeys(items):  # dedupe before the program compare
            if pair[1] != context.standard:
                context.submitted[pair] = None
        context.statistics.full_tunings = len(context.submitted)
        return latencies

    def _prefetch_latencies(self, context: _SearchContext,
                            assignments: list[dict[str, TransformProgram]]) -> None:
        """Submit every (shape, program) pair of ``assignments`` as one batch.

        The engine deduplicates and tunes only the misses (on its
        persistent pool when configured), so the per-assignment
        :meth:`_assignment_latency` sums that follow are pure cache reads.
        Latencies are pure functions of their keys, so batching changes
        no result — only the wall-clock.
        """
        if not assignments:
            return
        self._emit("generation", assignments=len(assignments))
        self._tune(context, [(context.shapes[w.name], assignment[w.name])
                             for assignment in assignments
                             for w in context.workloads])

    def _layer_legal(self, context: _SearchContext, workload: LayerWorkload,
                     sequence: TransformProgram, score: float) -> bool:
        """The per-layer Fisher test: ``score`` is finite and, for a neural
        ``sequence``, at least ``fisher_threshold`` times the layer's own
        score, so a few high-scoring layers cannot buy slack for damaging
        substitutions elsewhere."""
        return bool(np.isfinite(score)) and (
            not sequence.is_neural
            or score >= self.fisher_threshold * context.profile.score_of(workload.name))

    def _construct(self, context: _SearchContext,
                   pools: Mapping[str, list[TransformProgram]]
                   ) -> dict[str, TransformProgram]:
        """Greedy Fisher-checked construction over per-layer candidate pools.

        Layers are visited in order of their baseline cost.  Each takes the
        fastest program of its pool (by cached latency: the caller tunes
        the pools first) that passes :meth:`_layer_legal` and keeps the
        running network potential at or above ``fisher_threshold`` times
        the original's; a layer whose whole pool is refused keeps
        ``standard``.  Every refused candidate counts as an evaluated and
        rejected configuration.
        """
        statistics = context.statistics
        assignment = {w.name: context.standard for w in context.workloads}
        replacements: dict[str, float] = {}
        ordered = sorted(context.workloads,
                         key=lambda w: context.baseline_latency[w.name], reverse=True)
        for workload in ordered:
            pool = sorted(pools[workload.name], key=lambda seq: self._layer_latency(
                context, workload.name, seq))
            for sequence in pool:
                score = context.fisher.candidate_fisher(workload, sequence)
                if self._layer_legal(context, workload, sequence, score):
                    trial = dict(replacements)
                    if sequence.is_neural:
                        trial[workload.name] = score
                    if context.checker.check_layer_scores(trial).legal:
                        assignment[workload.name] = sequence
                        replacements = trial
                        break
                    statistics.record_rejection("fisher")
                else:
                    statistics.record_fisher_rejection(sequence)
                statistics.configurations_evaluated += 1
                statistics.configurations_rejected += 1
        return assignment

    def _legal_generation(self, context: _SearchContext,
                          assignments: list[dict[str, TransformProgram]]
                          ) -> list[dict[str, TransformProgram]]:
        """The Fisher-legal configurations of one generation, in order,
        decided from the scores of one
        :meth:`~repro.core.engine.FisherOracle.candidate_fisher_many` call."""
        width = len(context.workloads)
        scores = context.fisher.candidate_fisher_many(
            [(w, assignment[w.name]) for assignment in assignments
             for w in context.workloads])
        return [assignment for index, assignment in enumerate(assignments)
                if self._assignment_legal(
                    context, assignment, scores[index * width:(index + 1) * width])]

    def _assignment_legal(self, context: _SearchContext,
                          assignment: dict[str, TransformProgram],
                          scores: Iterable[float]) -> bool:
        """Check a whole configuration's Fisher Potential, updating the stats.

        ``scores`` are its layers' candidate scores in ``context.workloads``
        order, read up to the first infeasible layer.
        """
        replacements: dict[str, float] = {}
        for workload, score in zip(context.workloads, scores):
            sequence = assignment[workload.name]
            if not np.isfinite(score):
                context.statistics.configurations_evaluated += 1
                context.statistics.configurations_rejected += 1
                context.statistics.record_fisher_rejection(sequence)
                return False
            if sequence.is_neural:
                replacements[workload.name] = score
        decision = context.checker.check_layer_scores(replacements)
        context.statistics.configurations_evaluated += 1
        if not decision.legal:
            context.statistics.configurations_rejected += 1
            context.statistics.record_rejection("fisher")
        return decision.legal

    # ------------------------------------------------------------------
    def materialize(self, model, result: UnifiedSearchResult,
                    seed: int | None = None):
        """Substitute the chosen operators into the model (in place).

        Only layers whose chosen sequence is neural are touched; layers
        assigned the ``standard`` sequence keep their original convolution
        (their improvement comes purely from scheduling).
        """
        return substitute_programs(
            model,
            [(name, choice.sequence, choice.shape)
             for name, choice in result.choices.items()],
            seed=seed)


def substitute_programs(model, decisions, seed: int | None = None):
    """Substitute derived operators for chosen neural programs (in place).

    ``decisions`` is an iterable of ``(layer name, program, shape-or-None)``.
    Layers whose program is not neural — or that the model does not expose
    as a replaceable convolution — keep their original operator.  This is
    the one materialisation path shared by :meth:`UnifiedSearch.materialize`,
    the façade's :meth:`~repro.api.OptimizationResult.apply_to` and the
    Figure 9 interpolation (:mod:`repro.core.interpolation`).
    """
    from repro.errors import TransformError
    from repro.nn.blocks import iter_replaceable_convs
    from repro.nn.layers import Conv2d

    rng = make_rng(seed)
    replaceable = {name: (owner, conv) for name, owner, conv in
                   iter_replaceable_convs(model) if isinstance(conv, Conv2d)}
    for name, program, recorded_shape in decisions:
        if not program.is_neural or name not in replaceable:
            continue
        owner, conv = replaceable[name]
        # The search recorded the layer's real shape; deriving the
        # operator from it keeps spatial transformations faithful.
        shape = recorded_shape or ConvolutionShape(
            conv.out_channels, conv.in_channels, 1, 1,
            conv.kernel_size, conv.kernel_size)
        try:
            config = program.conv_config(shape)
            derived = DerivedConv2d(conv.in_channels, conv.out_channels,
                                    conv.kernel_size, stride=conv.stride,
                                    padding=conv.padding, config=config,
                                    rng=make_rng(int(rng.integers(0, 2 ** 31))))
        except (ModelError, TransformError):
            continue
        setattr(owner, name.split(".")[-1], derived)
    return model
