"""Tests for the platform specifications and the analytic cost model."""

from __future__ import annotations

import pytest

from repro.errors import PlatformError
from repro.hardware import (
    PLATFORMS,
    PlatformSpec,
    estimate_dram_traffic_batch,
    estimate_latency,
    estimate_roofline_bound,
    get_platform,
)
from repro.poly import ConvolutionShape
from repro.tenir import AutoTuner, conv2d_compute, create_schedule, lower


def _nest(shape: ConvolutionShape, schedule=None):
    stage = create_schedule(conv2d_compute(shape))
    if schedule:
        schedule(stage)
    return lower(stage)


class TestPlatforms:
    def test_four_figure4_platforms_exist(self):
        assert set(PLATFORMS) == {"cpu", "gpu", "mcpu", "mgpu"}

    def test_lookup_is_case_insensitive(self):
        assert get_platform("CPU").name == "cpu"

    def test_unknown_platform_rejected(self):
        with pytest.raises(PlatformError):
            get_platform("tpu")

    def test_server_faster_than_mobile(self):
        assert get_platform("cpu").peak_gflops > get_platform("mcpu").peak_gflops
        assert get_platform("gpu").peak_gflops > get_platform("mgpu").peak_gflops

    def test_invalid_spec_rejected(self):
        with pytest.raises(PlatformError):
            PlatformSpec(name="x", kind="dsp", peak_gflops=1, dram_bandwidth_gbs=1,
                         cache_bytes=1, l1_bytes=1, cores=1, vector_width=1,
                         threads_per_core=1, launch_overhead_us=1, frequency_ghz=1)

    def test_machine_balance(self):
        cpu = get_platform("cpu")
        assert cpu.machine_balance == pytest.approx(cpu.peak_flops / cpu.dram_bandwidth)


class TestCostModel:
    def test_latency_positive_and_bounded_below_by_overhead(self):
        nest = _nest(ConvolutionShape(8, 8, 8, 8, 3, 3))
        for platform in PLATFORMS.values():
            estimate = estimate_latency(nest, platform)
            assert estimate.seconds > platform.launch_overhead_us * 1e-6

    def test_latency_monotone_in_workload_size(self):
        platform = get_platform("cpu")
        small = estimate_latency(_nest(ConvolutionShape(16, 16, 8, 8, 3, 3)), platform)
        large = estimate_latency(_nest(ConvolutionShape(64, 64, 16, 16, 3, 3)), platform)
        assert large.seconds > small.seconds

    def test_mobile_slower_than_server(self):
        nest = _nest(ConvolutionShape(32, 32, 16, 16, 3, 3))
        assert (estimate_latency(nest, get_platform("mcpu")).seconds
                > estimate_latency(nest, get_platform("cpu")).seconds)

    def test_parallel_annotation_speeds_up_cpu(self):
        shape = ConvolutionShape(32, 32, 16, 16, 3, 3)
        serial = _nest(shape)
        parallel = _nest(shape, lambda s: s.parallel("co"))
        platform = get_platform("cpu")
        assert (estimate_latency(parallel, platform).seconds
                < estimate_latency(serial, platform).seconds)

    def test_gpu_binding_speeds_up(self):
        shape = ConvolutionShape(32, 32, 16, 16, 3, 3)
        unbound = _nest(shape)
        bound = _nest(shape, lambda s: (s.bind("ow", "threadIdx.x"), s.bind("co", "blockIdx.x")))
        platform = get_platform("gpu")
        assert (estimate_latency(bound, platform).seconds
                < estimate_latency(unbound, platform).seconds)

    def test_unroll_improves_instruction_efficiency(self):
        shape = ConvolutionShape(16, 16, 8, 8, 3, 3)
        base = estimate_latency(_nest(shape), get_platform("cpu"))
        unrolled = estimate_latency(_nest(shape, lambda s: s.unroll("kw", 8)),
                                    get_platform("cpu"))
        assert unrolled.details["instruction_efficiency"] >= base.details["instruction_efficiency"]

    def test_traffic_at_least_compulsory(self):
        nest = _nest(ConvolutionShape(16, 16, 8, 8, 3, 3))
        platform = get_platform("cpu")
        traffic = estimate_dram_traffic_batch([nest], platform.cache_bytes)[0]
        assert traffic >= nest.total_data_bytes()

    def test_larger_cache_never_increases_traffic(self):
        nest = _nest(ConvolutionShape(32, 32, 16, 16, 3, 3))
        small_cache = estimate_dram_traffic_batch([nest], 16 * 1024)[0]
        big_cache = estimate_dram_traffic_batch([nest], 8 * 1024 * 1024)[0]
        assert big_cache <= small_cache

    def test_roofline_is_a_lower_bound(self):
        nest = _nest(ConvolutionShape(32, 32, 16, 16, 3, 3))
        platform = get_platform("cpu")
        assert estimate_roofline_bound(nest, platform) <= estimate_latency(nest, platform).seconds

    def test_arithmetic_intensity_reported(self):
        nest = _nest(ConvolutionShape(16, 16, 8, 8, 3, 3))
        estimate = estimate_latency(nest, get_platform("cpu"))
        assert estimate.arithmetic_intensity > 0

    def test_mgpu_benefits_more_from_compression_than_gpu(self):
        """The paper's Figure 4 trend: small memory-starved devices gain most."""
        big = ConvolutionShape(64, 64, 16, 16, 3, 3)
        small = ConvolutionShape(32, 64, 16, 16, 3, 3)  # bottlenecked output channels
        tuner = AutoTuner(trials=6, seed=0)
        gains = {}
        for name in ("gpu", "mgpu"):
            platform = get_platform(name)
            gains[name] = (tuner.tune(conv2d_compute(big), platform).seconds
                           / tuner.tune(conv2d_compute(small), platform).seconds)
        assert gains["mgpu"] >= gains["gpu"] * 0.9
