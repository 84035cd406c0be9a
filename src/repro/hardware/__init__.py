"""Analytic hardware platform models (the reproduction's "testbed")."""

from repro.hardware.platform import (
    ARM_A57,
    INTEL_I7,
    MAXWELL_MGPU,
    NVIDIA_1080TI,
    PLATFORMS,
    PlatformSpec,
    get_platform,
)
from repro.hardware.cost_model import (
    LatencyEstimate,
    estimate_dram_traffic_batch,
    estimate_latency,
    estimate_latency_batch,
    estimate_roofline_bound,
)

__all__ = [
    "ARM_A57", "INTEL_I7", "MAXWELL_MGPU", "NVIDIA_1080TI", "PLATFORMS",
    "PlatformSpec", "get_platform",
    "LatencyEstimate", "estimate_dram_traffic_batch",
    "estimate_latency", "estimate_latency_batch", "estimate_roofline_bound",
]
