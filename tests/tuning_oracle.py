"""Frozen oracle: the pre-fast-path tuner, verbatim — do not edit.

The scalar cost model, parameter sampler, CPU/GPU schedule templates and
per-trial tuning loop that ``AutoTuner.tune`` replaced.  The equivalence
tests pin the production path to it bit for bit and the tuner throughput
benchmark times it as its baseline.  It shares only what the old code
shared (loop classification, result types, schedule-quality factors) and
never calls ``TuningContext`` or the batch cost model (a test patches
those to raise).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ScheduleError
from repro.hardware.cost_model import (
    LatencyEstimate,
    _cpu_parallelism,
    _gpu_mapping,
    _instruction_efficiency,
    _vector_efficiency,
)
from repro.hardware.platform import PlatformSpec
from repro.tenir.autotune import (
    ScheduleParameters,
    TuningResult,
    _innermost_spatial,
    _largest_parallel,
    classify_loops,
)
from repro.tenir.expr import Computation
from repro.tenir.lower import LoweredNest, lower
from repro.tenir.schedule import Stage, create_schedule
from repro.utils import divisors, make_rng


# ---------------------------------------------------------------------------
# Scalar cost model
# ---------------------------------------------------------------------------
def _tensor_footprints(nest: LoweredNest, depth: int) -> dict[str, int]:
    """Unique elements touched per tensor by the sub-nest starting at ``depth``."""
    varying = nest.varying_iterators_from(depth)
    footprints: dict[str, int] = {}
    for access in nest.accesses:
        elements = access.footprint(varying)
        footprints[access.tensor] = max(footprints.get(access.tensor, 0), elements)
    return footprints


def _reuse_depth(nest: LoweredNest, cache_bytes: int) -> int:
    """Outermost loop depth whose sub-nest working set fits in the cache."""
    for depth in range(len(nest.loops) + 1):
        footprint = sum(_tensor_footprints(nest, depth).values()) * nest.element_bytes
        if footprint <= cache_bytes:
            return depth
    return len(nest.loops)


def estimate_dram_traffic(nest: LoweredNest, cache_bytes: int) -> float:
    """DRAM bytes moved by the nest under a shared cache of ``cache_bytes``."""
    depth = _reuse_depth(nest, cache_bytes)
    footprints = _tensor_footprints(nest, depth)
    outer_loops = nest.loops[:depth]
    traffic_bytes = 0.0
    for access in nest.accesses:
        footprint = footprints[access.tensor]
        # Only outer loops that change this tensor's working set force refetches.
        refetch = 1
        for loop in outer_loops:
            if access.stride_of(loop.name) != 0 or any(
                loop.name in coeffs for coeffs in access.dim_coefficients
            ):
                refetch *= loop.extent
        tensor_bytes = footprint * refetch * nest.element_bytes
        # Compulsory lower bound: the tensor must be read/written at least once.
        tensor_bytes = max(tensor_bytes, access.total_elements * nest.element_bytes)
        # Writes cost twice (write-allocate + write-back).
        if access.is_write:
            tensor_bytes *= 2
        traffic_bytes += tensor_bytes
    return traffic_bytes


def estimate_latency(nest: LoweredNest, platform: PlatformSpec) -> LatencyEstimate:
    """Estimate the latency of one scheduled operator on one platform."""
    flops = 2.0 * nest.macs
    dram_bytes = estimate_dram_traffic(nest, platform.cache_bytes)
    overhead = platform.launch_overhead_us * 1e-6

    if platform.is_gpu:
        concurrency, coalescing, mapping_quality = _gpu_mapping(nest, platform)
        instr = _instruction_efficiency(nest)
        effective_flops = platform.peak_flops * concurrency * mapping_quality * instr
        compute_seconds = flops / max(effective_flops, 1.0)
        memory_seconds = dram_bytes / (platform.dram_bandwidth * coalescing)
        vector_eff = coalescing
        parallel_fraction = concurrency
    else:
        cores_used, parallel_eff = _cpu_parallelism(nest, platform)
        vector_eff = _vector_efficiency(nest, platform)
        instr = _instruction_efficiency(nest)
        per_core_peak = platform.peak_flops / platform.cores
        effective_flops = per_core_peak * cores_used * parallel_eff * vector_eff * instr
        compute_seconds = flops / max(effective_flops, 1.0)
        bandwidth_share = 0.55 + 0.45 * (cores_used / platform.cores)
        memory_seconds = dram_bytes / (platform.dram_bandwidth * bandwidth_share)
        parallel_fraction = cores_used / platform.cores

    seconds = max(compute_seconds, memory_seconds) + overhead
    return LatencyEstimate(
        seconds=seconds,
        compute_seconds=compute_seconds,
        memory_seconds=memory_seconds,
        overhead_seconds=overhead,
        dram_bytes=dram_bytes,
        flops=flops,
        vector_efficiency=vector_eff,
        parallel_fraction=parallel_fraction,
        details={"instruction_efficiency": _instruction_efficiency(nest)},
    )


# ---------------------------------------------------------------------------
# Parameter sampler and schedule templates
# ---------------------------------------------------------------------------
def _pick_factor(extent: int, limit: int, rng: np.random.Generator) -> int:
    """A random divisor of ``extent`` no larger than ``limit`` (at least 1)."""
    options = [d for d in divisors(extent) if d <= limit]
    return int(rng.choice(options)) if options else 1


def sample_parameters(computation: Computation, platform: PlatformSpec,
                      rng: np.random.Generator) -> ScheduleParameters:
    """Sample template parameters compatible with the computation's extents."""
    stage = create_schedule(computation)
    categories = classify_loops(stage)
    spatial = _innermost_spatial(stage, categories, lower(stage))
    spatial_extent = stage.statement.domain.extent(spatial)
    outer = categories["parallel"][0]
    outer_extent = stage.statement.domain.extent(outer)
    return ScheduleParameters(
        spatial_tile=_pick_factor(spatial_extent, 64, rng),
        channel_tile=_pick_factor(outer_extent, 32, rng),
        unroll=int(rng.choice([1, 2, 4, 8])),
        threads=_pick_factor(spatial_extent * outer_extent, platform.vector_width * 8, rng),
        use_vthread=bool(rng.random() < 0.5),
    )


def cpu_schedule(computation: Computation, params: ScheduleParameters) -> Stage:
    """The default CPU schedule template: tile, parallelise, vectorise, unroll."""
    stage = create_schedule(computation)
    categories = classify_loops(stage)
    spatial = _innermost_spatial(stage, categories, lower(stage))
    outer = _largest_parallel(stage, categories, exclude=(spatial,))

    spatial_inner = spatial
    if params.spatial_tile > 1 and stage.statement.domain.extent(spatial) % params.spatial_tile == 0:
        _, spatial_inner = stage.split(spatial, params.spatial_tile)
    outer_name = outer
    if (outer != spatial and params.channel_tile > 1
            and stage.statement.domain.extent(outer) % params.channel_tile == 0):
        outer_name, _ = stage.split(outer, params.channel_tile)

    # Hoist the parallel loop to the front, sink the vector loop to the back.
    remaining = [n for n in stage.loop_order if n not in (outer_name, spatial_inner)]
    stage.reorder(outer_name, *remaining, spatial_inner)
    stage.parallel(outer_name)
    stage.vectorize(spatial_inner)
    if params.unroll > 1:
        reductions = [n for n in classify_loops(stage)["reduction"] if n in stage.loop_order]
        if reductions:
            stage.unroll(reductions[-1], params.unroll)
    return stage


def gpu_schedule(computation: Computation, params: ScheduleParameters,
                 platform: PlatformSpec) -> Stage:
    """The default GPU schedule template: map output loops to blocks/threads."""
    stage = create_schedule(computation)
    categories = classify_loops(stage)
    spatial = _innermost_spatial(stage, categories, lower(stage))
    others = sorted((n for n in categories["parallel"] if n != spatial),
                    key=lambda name: stage.statement.domain.extent(name), reverse=True)

    thread_extent = min(params.threads, platform.vector_width * 8)
    spatial_extent = stage.statement.domain.extent(spatial)
    factor = 1
    for candidate in divisors(spatial_extent):
        if candidate <= thread_extent:
            factor = candidate
    thread_axis = spatial
    block_axis_spatial = None
    if factor > 1 and factor < spatial_extent:
        block_axis_spatial, thread_axis = stage.split(spatial, factor)
    stage.bind(thread_axis, "threadIdx.x")

    if others:
        stage.bind(others[0], "blockIdx.x")
        if len(others) > 1:
            stage.bind(others[1], "blockIdx.y")
    if block_axis_spatial is not None:
        if params.use_vthread:
            stage.bind(block_axis_spatial, "vthread")
        elif len(others) < 2:
            stage.bind(block_axis_spatial, "blockIdx.y")
    if params.unroll > 1:
        reductions = [n for n in classify_loops(stage)["reduction"] if n in stage.loop_order]
        if reductions:
            stage.unroll(reductions[-1], params.unroll)
    stage.prefetch(thread_axis)
    return stage


def default_schedule(computation: Computation, platform: PlatformSpec,
                     params: ScheduleParameters | None = None) -> Stage:
    """Platform-appropriate default schedule with default parameter values."""
    params = params or ScheduleParameters()
    if platform.is_gpu:
        return gpu_schedule(computation, params, platform)
    return cpu_schedule(computation, params)


# ---------------------------------------------------------------------------
# The tuning loop
# ---------------------------------------------------------------------------
def reference_tune(computation: Computation, platform: PlatformSpec,
                   trials: int = 16, seed: int | None = None) -> TuningResult:
    """The pre-fast-path tuning loop, kept verbatim as the golden reference.

    Rebuilds the schedule, re-classifies loops, re-lowers and runs the
    scalar cost model from scratch on every trial — exactly what
    :meth:`AutoTuner.tune` did before the :class:`TuningContext` fast
    path.  The equivalence tests and the throughput benchmark compare the
    fast path against this function; it is not meant for production use.
    """
    if trials < 1:
        raise ScheduleError("the tuner needs at least one trial")
    rng = make_rng(seed)
    best: TuningResult | None = None
    for trial in range(trials):
        params = (ScheduleParameters() if trial == 0
                  else sample_parameters(computation, platform, rng))
        try:
            stage = default_schedule(computation, platform, params)
        except ScheduleError:
            continue
        nest = lower(stage)
        estimate = estimate_latency(nest, platform)
        candidate = TuningResult(stage, nest, estimate, params, trials)
        if best is None or candidate.seconds < best.seconds:
            best = candidate
    if best is None:
        raise ScheduleError("auto-tuning failed to produce a single valid schedule")
    return best
