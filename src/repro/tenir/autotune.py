"""Schedule auto-tuning (the reproduction of TVM's parameter auto-tuner).

The paper uses TVM's default schedules per device and enables auto-tuning
of the parameter values inside those schedules (§6, "Baseline TVM").  This
module provides the equivalent: parameterised CPU and GPU schedule
templates over an arbitrary convolution-like loop nest, plus a random
search over the template parameters evaluated with the analytic cost model.

The templates live in a :class:`TuningContext`: all the template
analysis that does not depend on the sampled parameter values — loop
classification, the innermost-spatial axis, iterator extents and the
divisor tables the sampler draws from — is computed once per
(computation, platform) and amortised across every trial, the way TVM's
auto-tuner amortises template analysis across measurements.  Trials whose
parameters instantiate the same schedule are deduplicated, structural
schedule state is cached and cloned instead of rebuilt, and the surviving
candidates are scored through the batch cost model.

:meth:`AutoTuner.tune` is the only tuning loop.  The pre-fast-path loop
it replaced (per-trial template functions and the scalar cost model) is
frozen in ``tests/tuning_oracle.py``, and ``tests/test_tuning_fastpath.py``
pins the two bit for bit.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ScheduleError
from repro.hardware.cost_model import LatencyEstimate, estimate_latency_batch
from repro.hardware.platform import PlatformSpec
from repro.tenir.expr import Computation
from repro.tenir.lower import LoweredNest, analyse_accesses, lower
from repro.tenir.schedule import Stage, create_schedule
from repro.utils import divisors, make_rng


# ---------------------------------------------------------------------------
# Loop classification
# ---------------------------------------------------------------------------
def classify_loops(stage: Stage) -> dict[str, list[str]]:
    """Split the loop nest into output-parallel and reduction iterators.

    Output-parallel iterators index the written tensor (they can be mapped
    to threads / cores); reduction iterators only feed the accumulation.
    """
    statement = stage.statement
    write_vars: set[str] = set()
    for access in statement.writes:
        for expr in access.map.exprs:
            write_vars.update(expr.variables)
    parallel = [name for name in statement.domain.names if name in write_vars]
    reduction = [name for name in statement.domain.names if name not in write_vars]
    return {"parallel": parallel, "reduction": reduction}


def _innermost_spatial(stage: Stage, categories: dict[str, list[str]],
                       nest: LoweredNest) -> str:
    """The output-parallel iterator with unit stride in the output tensor."""
    write = next(acc for acc in nest.accesses if acc.is_write)
    best = categories["parallel"][-1]
    best_stride = None
    for name in categories["parallel"]:
        stride = abs(write.stride_of(name))
        if stride == 0:
            continue
        if best_stride is None or stride < best_stride:
            best, best_stride = name, stride
    return best


# ---------------------------------------------------------------------------
# Template parameters
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScheduleParameters:
    """Sampled parameter values for one schedule-template instantiation."""

    spatial_tile: int = 8
    channel_tile: int = 4
    unroll: int = 4
    threads: int = 32
    use_vthread: bool = False


def _largest_parallel(stage: Stage, categories: dict[str, list[str]],
                      exclude: tuple[str, ...] = ()) -> str:
    """The output-parallel iterator with the largest extent (best to spread)."""
    candidates = [n for n in categories["parallel"] if n not in exclude]
    if not candidates:
        candidates = [n for n in categories["parallel"]]
    return max(candidates, key=lambda name: stage.statement.domain.extent(name))


# ---------------------------------------------------------------------------
# Schedule templates
# ---------------------------------------------------------------------------
@dataclass
class TuningContext:
    """Template analysis precomputed once per (computation, platform).

    Everything the schedule templates and the parameter sampler derive
    from the computation alone — classified loops, the innermost-spatial
    axis, iterator extents and the divisor tables — is resolved at build
    time, so per-trial work shrinks to drawing parameter values and
    instantiating the schedule.  Structural schedule state (the split /
    reorder rewrites) and the annotation-independent half of lowering are
    additionally cached per :meth:`schedule_key`, so trials that differ
    only in annotations clone instead of rebuild.

    Sampling (:meth:`sample`) consumes the RNG in exactly the order the
    pre-fast-path sampler did and :meth:`instantiate` builds the same
    schedules its CPU and GPU template functions did, so tuning is
    bit-identical to the frozen oracle (``tests/tuning_oracle.py``).
    """

    computation: Computation
    platform: PlatformSpec
    categories: dict[str, list[str]]
    spatial: str
    spatial_extent: int
    #: first output-parallel iterator (the sampler's "outer" axis)
    sample_outer: str
    sample_outer_extent: int
    #: largest output-parallel iterator excluding ``spatial`` (CPU template)
    cpu_outer: str
    cpu_outer_extent: int
    #: output-parallel iterators by descending extent (GPU template)
    gpu_others: list[str]
    reduction_set: frozenset[str]
    spatial_options: list[int]
    channel_options: list[int]
    unroll_options: list[int]
    thread_options: list[int]
    spatial_divisors: list[int]
    _structural: dict = field(default_factory=dict, repr=False)
    _lowered: dict = field(default_factory=dict, repr=False)
    #: per-``schedule_key`` ``[stage, nest, LatencyEstimate | None]`` triples
    #: (and the keys whose instantiation raised) — the cross-call memo that
    #: makes re-tunes at another fidelity or seed near-free.  Every cached
    #: value equals its recomputation bit for bit, so sharing them changes
    #: nothing but the wall clock.
    _instances: dict = field(default_factory=dict, repr=False)
    _invalid: set = field(default_factory=set, repr=False)

    @classmethod
    def build(cls, computation: Computation, platform: PlatformSpec) -> "TuningContext":
        stage = create_schedule(computation)
        categories = classify_loops(stage)
        spatial = _innermost_spatial(stage, categories, lower(stage))
        domain = stage.statement.domain
        spatial_extent = domain.extent(spatial)
        sample_outer = categories["parallel"][0]
        sample_outer_extent = domain.extent(sample_outer)
        cpu_outer = _largest_parallel(stage, categories, exclude=(spatial,))
        return cls(
            computation=computation,
            platform=platform,
            categories=categories,
            spatial=spatial,
            spatial_extent=spatial_extent,
            sample_outer=sample_outer,
            sample_outer_extent=sample_outer_extent,
            cpu_outer=cpu_outer,
            cpu_outer_extent=domain.extent(cpu_outer),
            gpu_others=sorted((n for n in categories["parallel"] if n != spatial),
                              key=lambda name: domain.extent(name), reverse=True),
            reduction_set=frozenset(categories["reduction"]),
            spatial_options=[d for d in divisors(spatial_extent) if d <= 64],
            channel_options=[d for d in divisors(sample_outer_extent) if d <= 32],
            unroll_options=[1, 2, 4, 8],
            thread_options=[d for d in divisors(spatial_extent * sample_outer_extent)
                            if d <= platform.vector_width * 8],
            spatial_divisors=divisors(spatial_extent),
        )

    # ------------------------------------------------------------------
    # Sampling (same RNG stream as the pre-fast-path sampler)
    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> ScheduleParameters:
        """Sample template parameters from the precomputed divisor tables.

        ``options[rng.integers(0, len(options))]`` consumes the generator
        exactly like ``rng.choice(options)`` (a uniform replace=True choice
        is one bounded-integer draw) at a fraction of the cost, so the
        stream stays identical to the pre-fast-path sampler's — which the
        equivalence tests pin.
        """
        def pick(options: list[int]) -> int:
            return options[int(rng.integers(0, len(options)))] if options else 1

        return ScheduleParameters(
            spatial_tile=pick(self.spatial_options),
            channel_tile=pick(self.channel_options),
            unroll=pick(self.unroll_options),
            threads=pick(self.thread_options),
            use_vthread=bool(rng.random() < 0.5),
        )

    # ------------------------------------------------------------------
    # Schedule identity (for per-run deduplication)
    # ------------------------------------------------------------------
    def _effective_unroll(self, params: ScheduleParameters) -> int:
        return params.unroll if (params.unroll > 1 and self.reduction_set) else 1

    def _cpu_split_factors(self, params: ScheduleParameters) -> tuple[int, int]:
        spatial_factor = (params.spatial_tile
                          if params.spatial_tile > 1
                          and self.spatial_extent % params.spatial_tile == 0 else 1)
        outer_factor = (params.channel_tile
                        if self.cpu_outer != self.spatial and params.channel_tile > 1
                        and self.cpu_outer_extent % params.channel_tile == 0 else 1)
        return spatial_factor, outer_factor

    def _gpu_thread_factor(self, params: ScheduleParameters) -> int:
        thread_extent = min(params.threads, self.platform.vector_width * 8)
        factor = 1
        for candidate in self.spatial_divisors:
            if candidate <= thread_extent:
                factor = candidate
        return factor

    def schedule_key(self, params: ScheduleParameters) -> tuple:
        """The parameter values that actually shape the schedule.

        Two sampled :class:`ScheduleParameters` with equal keys
        instantiate identical schedules (e.g. ``threads`` is ignored by
        the CPU template), so one evaluation serves every repeat.
        """
        if self.platform.is_gpu:
            return ("gpu", self._gpu_thread_factor(params), params.use_vthread,
                    self._effective_unroll(params))
        return ("cpu", *self._cpu_split_factors(params), self._effective_unroll(params))

    # ------------------------------------------------------------------
    # Instantiation (cached structural state + cheap annotation clones)
    # ------------------------------------------------------------------
    def _last_reduction(self, stage: Stage) -> str:
        return next(n for n in reversed(stage.loop_order) if n in self.reduction_set)

    def _cpu_spatial_split(self, spatial_factor: int) -> tuple[Stage, str]:
        """First structural level: only the spatial split applied.

        Cached separately from the full structural stage so the outer
        splits fan out from a clone instead of replaying the spatial
        split for every (spatial, outer) pair.
        """
        key = ("cpu-spatial", spatial_factor)
        cached = self._structural.get(key)
        if cached is None:
            stage = create_schedule(self.computation)
            spatial_inner = self.spatial
            if spatial_factor > 1:
                _, spatial_inner = stage.split(self.spatial, spatial_factor)
            cached = (stage, spatial_inner)
            self._structural[key] = cached
        return cached

    def _cpu_structural(self, spatial_factor: int, outer_factor: int) -> Stage:
        key = ("cpu", spatial_factor, outer_factor)
        cached = self._structural.get(key)
        if cached is None:
            base, spatial_inner = self._cpu_spatial_split(spatial_factor)
            stage = base.clone()
            outer_name = self.cpu_outer
            if outer_factor > 1:
                outer_name, _ = stage.split(self.cpu_outer, outer_factor)
            remaining = [n for n in stage.loop_order if n not in (outer_name, spatial_inner)]
            stage.reorder(outer_name, *remaining, spatial_inner)
            stage.parallel(outer_name)
            stage.vectorize(spatial_inner)
            cached = stage
            self._structural[key] = cached
        return cached

    def _gpu_structural(self, factor: int) -> tuple[Stage, str, str | None]:
        key = ("gpu", factor)
        cached = self._structural.get(key)
        if cached is None:
            stage = create_schedule(self.computation)
            thread_axis = self.spatial
            block_axis_spatial = None
            if 1 < factor < self.spatial_extent:
                block_axis_spatial, thread_axis = stage.split(self.spatial, factor)
            stage.bind(thread_axis, "threadIdx.x")
            if self.gpu_others:
                stage.bind(self.gpu_others[0], "blockIdx.x")
                if len(self.gpu_others) > 1:
                    stage.bind(self.gpu_others[1], "blockIdx.y")
            cached = (stage, thread_axis, block_axis_spatial)
            self._structural[key] = cached
        return cached

    def instantiate(self, params: ScheduleParameters) -> Stage:
        """Instantiate the platform template for ``params``.

        CPU: tile, parallelise, vectorise, unroll.  GPU: map the output
        loops to blocks/threads, unroll, prefetch.  Both clone the cached
        structural state.
        """
        if self.platform.is_gpu:
            return self._instantiate_gpu(params)
        return self._instantiate_cpu(params)

    def _instantiate_cpu(self, params: ScheduleParameters) -> Stage:
        spatial_factor, outer_factor = self._cpu_split_factors(params)
        stage = self._cpu_structural(spatial_factor, outer_factor).clone()
        if params.unroll > 1 and self.reduction_set:
            stage.unroll(self._last_reduction(stage), params.unroll)
        return stage

    def _instantiate_gpu(self, params: ScheduleParameters) -> Stage:
        factor = self._gpu_thread_factor(params)
        base, thread_axis, block_axis_spatial = self._gpu_structural(factor)
        stage = base.clone()
        if block_axis_spatial is not None:
            if params.use_vthread:
                stage.bind(block_axis_spatial, "vthread")
            elif len(self.gpu_others) < 2:
                stage.bind(block_axis_spatial, "blockIdx.y")
        if params.unroll > 1 and self.reduction_set:
            stage.unroll(self._last_reduction(stage), params.unroll)
        stage.prefetch(thread_axis)
        return stage

    # ------------------------------------------------------------------
    # Lowering with cached structural analysis
    # ------------------------------------------------------------------
    def lowered(self, stage: Stage) -> LoweredNest:
        """Lower ``stage``, reusing cached access analysis per statement.

        Clones produced by :meth:`instantiate` share their (immutable)
        statement with the cached structural stage, so the layout analysis
        — the expensive half of :func:`~repro.tenir.lower.lower` — runs
        once per distinct structure, keyed by statement identity.  Each
        cache entry pins its statement, so an identity key can never be
        recycled while the entry exists.
        """
        statement = stage.statement
        cached = self._lowered.get(id(statement))
        if cached is None:
            cached = (statement, analyse_accesses(statement),
                      statement.domain.cardinality(), {})
            self._lowered[id(statement)] = cached
        _, accesses, macs, shared = cached
        nest = lower(stage, accesses=accesses, macs=macs)
        # The traffic arrays depend only on the statement (loop extents and
        # accesses), never on annotations, so every annotation variant of
        # one structure shares a single build.
        arrays = shared.get("traffic")
        if arrays is None:
            shared["traffic"] = nest.traffic_arrays()
        else:
            object.__setattr__(nest, "_traffic_arrays", arrays)
        return nest


# ---------------------------------------------------------------------------
# Shared tuning contexts
# ---------------------------------------------------------------------------
#: LRU bound on the process-wide context store (override with
#: ``REPRO_TUNING_CONTEXTS``).  Each entry holds one template analysis plus
#: its structural/lowering caches — small relative to a single tuning run.
DEFAULT_MAX_CONTEXTS = int(os.environ.get("REPRO_TUNING_CONTEXTS", "512"))

_shared_contexts: "OrderedDict[tuple[Computation, PlatformSpec], TuningContext]" = (
    OrderedDict())
_shared_contexts_lock = threading.Lock()


def shared_tuning_context(computation: Computation,
                          platform: PlatformSpec) -> TuningContext:
    """Return the process-wide :class:`TuningContext` for this pair.

    Keyed on the *full* ``(computation, platform)`` value (both are frozen
    and hashable), so a cache hit hands back a context whose ``computation``
    compares equal to the request — every downstream artefact (stage and
    nest names included) is exactly what a freshly built context would
    produce.  The win is that re-tunes of the same operator — other trial
    budgets, multi-seed replications, repeated engine sessions — reuse the
    template analysis plus the per-``schedule_key`` structural and lowering
    caches the earlier tunes already paid for.

    Thread-safe: contexts may be built twice under a race, but only one is
    kept, and the per-context caches are deterministic read-through tables,
    so concurrent use never changes results.
    """
    key = (computation, platform)
    with _shared_contexts_lock:
        context = _shared_contexts.get(key)
        if context is not None:
            _shared_contexts.move_to_end(key)
            return context
    built = TuningContext.build(computation, platform)
    with _shared_contexts_lock:
        context = _shared_contexts.get(key)
        if context is None:
            _shared_contexts[key] = context = built
            while len(_shared_contexts) > DEFAULT_MAX_CONTEXTS:
                _shared_contexts.popitem(last=False)
    return context


def clear_tuning_contexts() -> None:
    """Drop every shared tuning context (tests and memory pressure)."""
    with _shared_contexts_lock:
        _shared_contexts.clear()


# ---------------------------------------------------------------------------
# The tuner
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TuningResult:
    """Outcome of auto-tuning one operator on one platform."""

    stage: Stage
    nest: LoweredNest
    estimate: LatencyEstimate
    parameters: ScheduleParameters
    trials: int

    @property
    def seconds(self) -> float:
        return self.estimate.seconds


class AutoTuner:
    """Random search over schedule-template parameters."""

    def __init__(self, trials: int = 16, seed: int | None = None):
        if trials < 1:
            raise ScheduleError("the tuner needs at least one trial")
        self.trials = trials
        self.seed = seed

    def tune(self, computation: Computation, platform: PlatformSpec,
             context: TuningContext | None = None) -> TuningResult:
        """Return the best schedule found for ``computation`` on ``platform``.

        The fast path: template analysis happens once in the
        :class:`TuningContext`, trials mapping to the same
        :meth:`~TuningContext.schedule_key` are instantiated, lowered and
        scored once *per context lifetime* (the context memoises the
        ``(stage, nest, estimate)`` triple per key, so a re-tune at a new
        fidelity or from a new engine session only pays for keys it has
        never seen), and freshly surviving candidates go through the
        vectorised batch cost model.  Results are bit-identical to the
        pre-fast-path loop frozen in ``tests/tuning_oracle.py`` for any
        seed: every memoised value equals its recomputation.
        """
        rng = make_rng(self.seed)
        if context is None:
            context = shared_tuning_context(computation, platform)
        elif context.computation != computation or context.platform != platform:
            raise ScheduleError(
                "the supplied TuningContext was built for a different "
                "(computation, platform) pair")
        trial_params = [ScheduleParameters() if trial == 0 else context.sample(rng)
                        for trial in range(self.trials)]
        trial_keys = [context.schedule_key(params) for params in trial_params]

        # First params (in trial order) per schedule key, plus a local
        # reference to the context's memo entry so concurrent tunes on the
        # shared context can never hand us a half-written slot.
        chosen: dict[tuple, tuple[ScheduleParameters, list]] = {}
        for params, key in zip(trial_params, trial_keys):
            if key in chosen or key in context._invalid:
                continue
            entry = context._instances.get(key)
            if entry is None:
                try:
                    stage = context.instantiate(params)
                except ScheduleError:
                    context._invalid.add(key)
                    continue
                entry = [stage, context.lowered(stage), None]
                context._instances[key] = entry
            chosen[key] = (params, entry)

        pending = [entry for _, entry in chosen.values() if entry[2] is None]
        if pending:
            estimates = estimate_latency_batch(
                [entry[1] for entry in pending], platform)
            for entry, estimate in zip(pending, estimates):
                entry[2] = estimate

        best_key: tuple | None = None
        best_seconds = float("inf")
        for key in trial_keys:
            selected = chosen.get(key)
            if selected is None:
                continue
            seconds = selected[1][2].seconds
            if best_key is None or seconds < best_seconds:
                best_key, best_seconds = key, seconds
        if best_key is None:
            raise ScheduleError("auto-tuning failed to produce a single valid schedule")
        params, (stage, nest, estimate) = chosen[best_key]
        return TuningResult(stage, nest, estimate, params, self.trials)
