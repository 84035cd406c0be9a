"""TVM-like tensor-expression and scheduling layer."""

from repro.tenir.expr import (
    Computation,
    conv2d_compute,
    dense_compute,
    depthwise_conv2d_compute,
    grouped_conv2d_compute,
)
from repro.tenir.schedule import THREAD_TAGS, LoopAnnotation, Stage, create_schedule
from repro.tenir.lower import LoweredAccess, LoweredLoop, LoweredNest, lower
from repro.tenir.autotune import (
    AutoTuner,
    ScheduleParameters,
    TuningContext,
    TuningResult,
    classify_loops,
    clear_tuning_contexts,
    shared_tuning_context,
)
from repro.tenir.runtime import output_shape, run, run_computation

__all__ = [
    "Computation", "conv2d_compute", "dense_compute", "depthwise_conv2d_compute",
    "grouped_conv2d_compute",
    "THREAD_TAGS", "LoopAnnotation", "Stage", "create_schedule",
    "LoweredAccess", "LoweredLoop", "LoweredNest", "lower",
    "AutoTuner", "ScheduleParameters", "TuningContext", "TuningResult",
    "classify_loops", "clear_tuning_contexts", "shared_tuning_context",
    "output_shape", "run", "run_computation",
]
