"""Analytic latency model for lowered, scheduled loop nests.

The model combines three classic ingredients:

* a **roofline**: latency is at least compute-bound time and at least
  memory-bound time;
* a **cache-reuse traffic model**: the DRAM traffic of each tensor is the
  footprint of the deepest sub-nest that fits in the last-level cache,
  multiplied by the trip count of the loops outside that sub-nest that
  actually change the tensor's working set;
* **schedule-quality factors**: vectorization (innermost stride-1 access of
  sufficient extent), loop-overhead reduction from unrolling, multicore
  parallelisation (CPU), and thread-block mapping, occupancy and
  coalescing (GPU).

Absolute numbers are not the point (the paper's testbed is real hardware);
the model's job is to rank schedules and operators the way the hardware
would, which is what the search and all the figures rely on.

The model has one implementation, :func:`estimate_latency_batch`;
:func:`estimate_latency` is its one-nest call.  The scalar model it
replaced is frozen in ``tests/tuning_oracle.py`` and pinned bit for bit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.hardware.platform import PlatformSpec
from repro.tenir.lower import LoweredLoop, LoweredNest
from repro.utils import prod


@dataclass(frozen=True)
class LatencyEstimate:
    """Latency breakdown for one operator on one platform."""

    seconds: float
    compute_seconds: float
    memory_seconds: float
    overhead_seconds: float
    dram_bytes: float
    flops: float
    vector_efficiency: float
    parallel_fraction: float
    details: dict[str, float] = field(default_factory=dict)

    @property
    def arithmetic_intensity(self) -> float:
        return self.flops / max(self.dram_bytes, 1.0)


# ---------------------------------------------------------------------------
# Traffic model
# ---------------------------------------------------------------------------
class _BatchWorkspace(threading.local):
    """Growable per-thread scratch buffers reused across batch calls.

    ``threading.local`` because ``estimate_latency_batch`` runs
    concurrently on the engine's thread pools; each thread keeps its own
    buffers and no call ever sees another call's scratch state.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def floats(self, name: str, size: int) -> np.ndarray:
        return self._get(name, size, np.float64)

    def iota(self, size: int) -> np.ndarray:
        """A reusable ``arange`` prefix (read-only by convention)."""
        buffer = self._buffers.get("iota")
        if buffer is None or buffer.size < size:
            buffer = np.arange(max(size, 1024), dtype=np.intp)
            self._buffers["iota"] = buffer
        return buffer[:size]

    def _get(self, name: str, size: int, dtype) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            capacity = max(size, 1024 if buffer is None else 2 * buffer.size)
            buffer = np.empty(capacity, dtype=dtype)
            self._buffers[name] = buffer
        return buffer[:size]


_WORKSPACE = _BatchWorkspace()


def estimate_dram_traffic_batch(nests: Sequence[LoweredNest],
                                cache_bytes: int) -> np.ndarray:
    """Per-nest DRAM traffic for a whole batch in a few numpy passes.

    Every intermediate value is an exact integer in float64, so the
    result equals the frozen oracle's scalar per-depth scan bit for bit,
    with no per-candidate numpy dispatch: the per-depth working sets are
    scattered into one
    ``+inf``-padded matrix for a single batched reuse-depth ``argmax``,
    the per-access footprint/refetch rows at the chosen depths are
    gathered through flat indices, and the per-nest reductions run as one
    ``np.add.reduceat``.  ``reduceat`` sums strictly left-to-right, which
    matches ``np.sum``'s sequential kernel only below numpy's 8-element
    pairwise threshold — conv/dense nests have at most a handful of
    accesses, and any larger segment falls back to per-nest ``np.sum``.

    Scratch arrays come from a per-thread growable workspace, so a
    ``tune_many`` batch stream reuses the same buffers call after call.
    """
    count = len(nests)
    if count == 0:
        return np.empty(0, dtype=np.float64)
    arrays = [nest.traffic_arrays() for nest in nests]
    ws = _WORKSPACE

    depth_counts = np.fromiter((a.working_set_bytes.size for a in arrays),
                               dtype=np.intp, count=count)
    acc_counts = np.fromiter((a.compulsory_bytes.size for a in arrays),
                             dtype=np.intp, count=count)
    element_bytes = np.fromiter((nest.element_bytes for nest in nests),
                                dtype=np.float64, count=count)

    # Reuse-depth selection: scatter every nest's working-set vector into
    # one +inf-padded (count x max_depths) matrix; padding never "fits",
    # so a single row-wise argmax reproduces the scalar early-exit scan.
    total_depths = int(depth_counts.sum())
    depth_ends = np.cumsum(depth_counts)
    depth_rows = np.repeat(ws.iota(count), depth_counts)
    depth_cols = ws.iota(total_depths) - np.repeat(depth_ends - depth_counts,
                                                  depth_counts)
    max_depths = int(depth_counts.max())
    padded = ws.floats("working_sets", count * max_depths).reshape(count, max_depths)
    padded.fill(np.inf)
    np.concatenate([a.working_set_bytes for a in arrays],
                   out=ws.floats("ws_flat", total_depths))
    padded[depth_rows, depth_cols] = ws.floats("ws_flat", total_depths)
    fits = padded <= cache_bytes
    depth = np.where(fits.any(axis=1), np.argmax(fits, axis=1), depth_counts - 1)

    # Flat gather of the footprint/refetch rows at each nest's depth.
    total_acc = int(acc_counts.sum())
    acc_ends = np.cumsum(acc_counts)
    acc_starts = acc_ends - acc_counts
    matrix_sizes = depth_counts * acc_counts
    matrix_offsets = np.cumsum(matrix_sizes) - matrix_sizes
    local = ws.iota(total_acc) - np.repeat(acc_starts, acc_counts)
    select = np.repeat(matrix_offsets + depth * acc_counts, acc_counts) + local

    total_cells = int(matrix_sizes.sum())
    footprints = np.concatenate([a.tensor_footprints.ravel() for a in arrays],
                                out=ws.floats("footprints", total_cells))
    refetch = np.concatenate([a.refetch.ravel() for a in arrays],
                             out=ws.floats("refetch", total_cells))
    compulsory = np.concatenate([a.compulsory_bytes for a in arrays],
                                out=ws.floats("compulsory", total_acc))
    write_factor = np.concatenate([a.write_factor for a in arrays],
                                  out=ws.floats("write_factor", total_acc))

    per_access = ws.floats("per_access", total_acc)
    np.multiply(footprints[select], refetch[select], out=per_access)
    per_access *= np.repeat(element_bytes, acc_counts)
    np.maximum(per_access, compulsory, out=per_access)
    per_access *= write_factor

    traffic = np.empty(count, dtype=np.float64)
    if int(acc_counts.min()) > 0 and int(acc_counts.max()) < 8:
        np.add.reduceat(per_access, acc_starts, out=traffic)
    else:
        for index in range(count):
            traffic[index] = np.sum(per_access[acc_starts[index]:acc_ends[index]])
    return traffic


# ---------------------------------------------------------------------------
# Schedule-quality factors
# ---------------------------------------------------------------------------
def _innermost_vector_loop(nest: LoweredNest) -> LoweredLoop:
    for loop in reversed(nest.loops):
        if loop.annotation.vectorize:
            return loop
    return nest.loops[-1]


def _vector_efficiency(nest: LoweredNest, platform: PlatformSpec) -> float:
    """How well the innermost (or vectorized) loop uses the SIMD lanes."""
    loop = _innermost_vector_loop(nest)
    explicit = loop.annotation.vectorize
    width = platform.vector_width
    lane_fill = min(loop.extent, width) / width
    stride_quality = 0.0
    weights = 0.0
    for access in nest.accesses:
        weight = 2.0 if not access.is_write else 1.0
        stride = abs(access.stride_of(loop.name))
        if stride == 0:
            quality = 0.9   # broadcast: value kept in register
        elif stride == 1:
            quality = 1.0   # unit stride: vector load
        else:
            quality = max(1.0 / width, 1.0 / stride)  # gather-like access
        stride_quality += weight * quality
        weights += weight
    stride_quality /= max(weights, 1.0)
    efficiency = lane_fill * stride_quality
    if not explicit:
        efficiency *= 0.6   # auto-vectorisation is less reliable than explicit
    return max(efficiency, 1.0 / (2.0 * width))


def _instruction_efficiency(nest: LoweredNest) -> float:
    """Loop overhead reduction from unrolling the innermost loops."""
    innermost = nest.loops[-1]
    unroll = innermost.annotation.unroll
    for loop in reversed(nest.loops):
        unroll = max(unroll, loop.annotation.unroll)
    if unroll >= 8:
        return 1.0
    if unroll >= 4:
        return 0.95
    if unroll >= 2:
        return 0.9
    return 0.82


def _cpu_parallelism(nest: LoweredNest, platform: PlatformSpec) -> tuple[float, float]:
    """(cores used, efficiency) from ``parallel`` annotations."""
    parallel_iterations = 1
    for loop in nest.loops:
        if loop.annotation.parallel:
            parallel_iterations *= loop.extent
    if parallel_iterations <= 1:
        return 1.0, 1.0
    cores_used = min(platform.cores, parallel_iterations)
    # Load imbalance when the parallel iteration count does not divide cores.
    balance = parallel_iterations / (cores_used * -(-parallel_iterations // cores_used))
    return float(cores_used), 0.92 * balance


def _gpu_mapping(nest: LoweredNest, platform: PlatformSpec) -> tuple[float, float, float]:
    """(concurrency fraction, coalescing factor, mapping efficiency) for GPUs."""
    blocks = nest.bound_extent("blockIdx")
    threads_per_block = nest.bound_extent("threadIdx")
    vthreads = nest.bound_extent("vthread")
    explicit = blocks * threads_per_block > 1

    if not explicit:
        # Un-tuned mapping: the driver still launches something, but poorly.
        total_threads = min(prod(l.extent for l in nest.loops[:2]), 4096)
        concurrency = min(1.0, total_threads / (platform.cores * platform.threads_per_core))
        return max(concurrency, 1e-3) * 0.35, 0.5, 0.5

    total_threads = blocks * threads_per_block * max(vthreads, 1)
    capacity = platform.cores * platform.threads_per_core
    concurrency = min(1.0, total_threads / capacity)
    # Small blocks waste scheduler slots; very large blocks limit occupancy.
    if threads_per_block < platform.vector_width:
        block_quality = threads_per_block / platform.vector_width
    elif threads_per_block > 1024:
        block_quality = 0.6
    else:
        block_quality = 1.0

    # Coalescing: stride of the threadIdx.x-bound iterator in global accesses.
    thread_iter = None
    for loop in nest.loops:
        if loop.annotation.bind == "threadIdx.x":
            thread_iter = loop.name
            break
    if thread_iter is None:
        coalescing = 0.6
    else:
        qualities = []
        for access in nest.accesses:
            stride = abs(access.stride_of(thread_iter))
            if stride == 0:
                qualities.append(0.95)
            elif stride == 1:
                qualities.append(1.0)
            else:
                qualities.append(max(1.0 / platform.vector_width, 1.0 / stride))
        coalescing = sum(qualities) / len(qualities)

    return max(concurrency, 1e-3), coalescing, block_quality


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def estimate_latency(nest: LoweredNest, platform: PlatformSpec) -> LatencyEstimate:
    """Estimate the latency of one scheduled operator on one platform."""
    return estimate_latency_batch([nest], platform)[0]


def estimate_latency_batch(nests: Sequence[LoweredNest],
                           platform: PlatformSpec) -> list[LatencyEstimate]:
    """Estimate the latency of every nest in one vectorised pass.

    The per-nest quantities (flops, DRAM traffic from the memoised
    locality arrays, schedule-quality factors) are packed into arrays and
    the roofline combination runs once over the whole batch.  Each result
    equals the frozen scalar oracle's exactly — same IEEE operations in
    the same order — which the equivalence tests pin.

    This is what the auto-tuner scores a whole trial generation with.
    """
    nests = list(nests)
    if not nests:
        return []
    count = len(nests)
    ws = _WORKSPACE
    flops = ws.floats("batch_flops", count)
    instr = ws.floats("batch_instr", count)
    factor_a = ws.floats("batch_factor_a", count)
    factor_b = ws.floats("batch_factor_b", count)
    factor_c = ws.floats("batch_factor_c", count)
    dram_bytes = estimate_dram_traffic_batch(nests, platform.cache_bytes)
    for index, nest in enumerate(nests):
        flops[index] = 2.0 * nest.macs
        instr[index] = _instruction_efficiency(nest)
        if platform.is_gpu:
            factor_a[index], factor_b[index], factor_c[index] = _gpu_mapping(nest, platform)
        else:
            factor_a[index], factor_b[index] = _cpu_parallelism(nest, platform)
            factor_c[index] = _vector_efficiency(nest, platform)
    overhead = platform.launch_overhead_us * 1e-6

    if platform.is_gpu:
        concurrency, coalescing, mapping_quality = factor_a, factor_b, factor_c
        effective_flops = platform.peak_flops * concurrency * mapping_quality * instr
        compute_seconds = flops / np.maximum(effective_flops, 1.0)
        memory_seconds = dram_bytes / (platform.dram_bandwidth * coalescing)
        vector_eff = coalescing
        parallel_fraction = concurrency
    else:
        cores_used, parallel_eff, vector_eff = factor_a, factor_b, factor_c
        per_core_peak = platform.peak_flops / platform.cores
        effective_flops = per_core_peak * cores_used * parallel_eff * vector_eff * instr
        compute_seconds = flops / np.maximum(effective_flops, 1.0)
        bandwidth_share = 0.55 + 0.45 * (cores_used / platform.cores)
        memory_seconds = dram_bytes / (platform.dram_bandwidth * bandwidth_share)
        parallel_fraction = cores_used / platform.cores

    seconds = np.maximum(compute_seconds, memory_seconds) + overhead
    return [
        LatencyEstimate(
            seconds=float(seconds[index]),
            compute_seconds=float(compute_seconds[index]),
            memory_seconds=float(memory_seconds[index]),
            overhead_seconds=overhead,
            dram_bytes=float(dram_bytes[index]),
            flops=float(flops[index]),
            vector_efficiency=float(vector_eff[index]),
            parallel_fraction=float(parallel_fraction[index]),
            details={"instruction_efficiency": float(instr[index])},
        )
        for index in range(count)
    ]


def estimate_roofline_bound(nest: LoweredNest, platform: PlatformSpec) -> float:
    """Idealised roofline lower bound (no schedule-quality penalties).

    Used by the cost-model ablation benchmark to show why the richer model
    is needed to separate schedules.
    """
    flops = 2.0 * nest.macs
    compulsory = nest.total_data_bytes()
    return max(flops / platform.peak_flops, compulsory / platform.dram_bandwidth)
