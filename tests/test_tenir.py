"""Tests for the TVM-like layer: schedules, lowering, tuning, execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.hardware import get_platform
from repro.poly import ConvolutionShape, execute_reference_convolution
from repro.tenir import (
    AutoTuner,
    ScheduleParameters,
    TuningContext,
    classify_loops,
    conv2d_compute,
    create_schedule,
    dense_compute,
    depthwise_conv2d_compute,
    grouped_conv2d_compute,
    lower,
    output_shape,
    run,
    run_computation,
)


@pytest.fixture
def conv_comp(small_conv_shape):
    return conv2d_compute(small_conv_shape)


class TestComputations:
    def test_conv_macs(self, small_conv_shape):
        comp = conv2d_compute(small_conv_shape)
        assert comp.macs == small_conv_shape.macs()
        assert comp.flops == 2 * comp.macs

    def test_grouped_conv_macs_reduced(self, small_conv_shape):
        grouped = grouped_conv2d_compute(small_conv_shape, 2)
        assert grouped.macs * 2 == conv2d_compute(small_conv_shape).macs

    def test_grouped_with_factor_one_is_standard(self, small_conv_shape):
        assert grouped_conv2d_compute(small_conv_shape, 1).macs == small_conv_shape.macs()

    def test_depthwise_requires_equal_channels(self):
        from repro.errors import LoweringError

        with pytest.raises(LoweringError):
            depthwise_conv2d_compute(ConvolutionShape(4, 8, 4, 4, 3, 3))

    def test_dense_compute_macs(self):
        assert dense_compute(4, 5, 6).macs == 120


class TestSchedulePrimitives:
    def test_split_creates_new_iterators(self, conv_comp):
        stage = create_schedule(conv_comp)
        outer, inner = stage.split("ci", 2)
        assert outer in stage.loop_order and inner in stage.loop_order

    def test_reorder_changes_loop_order(self, conv_comp):
        stage = create_schedule(conv_comp)
        stage.reorder("ci", "co")
        assert stage.loop_order[0] == "ci"

    def test_unknown_iterator_rejected(self, conv_comp):
        stage = create_schedule(conv_comp)
        with pytest.raises(ScheduleError):
            stage.unroll("nonexistent", 2)

    def test_bind_validates_thread_tag(self, conv_comp):
        stage = create_schedule(conv_comp)
        with pytest.raises(ScheduleError):
            stage.bind("co", "warpIdx.x")

    def test_double_bind_same_tag_rejected(self, conv_comp):
        stage = create_schedule(conv_comp)
        stage.bind("co", "blockIdx.x")
        with pytest.raises(ScheduleError):
            stage.bind("oh", "blockIdx.x")

    def test_neural_primitives_flag_stage(self, conv_comp):
        stage = create_schedule(conv_comp)
        assert not stage.is_neural
        stage.group(2)
        assert stage.is_neural

    def test_history_records_primitives(self, conv_comp):
        stage = create_schedule(conv_comp)
        stage.tile("ow", 2)
        stage.unroll("kw", 3)
        assert "tile(ow,2)" in stage.describe() and "unroll(kw,3)" in stage.describe()

    def test_classify_loops_split(self, conv_comp):
        stage = create_schedule(conv_comp)
        categories = classify_loops(stage)
        assert set(categories["parallel"]) == {"co", "oh", "ow"}
        assert set(categories["reduction"]) == {"ci", "kh", "kw"}


class TestLowering:
    def test_lowered_macs_and_loops(self, conv_comp):
        nest = lower(create_schedule(conv_comp))
        assert nest.macs == conv_comp.macs
        assert nest.loop_names == ("co", "ci", "oh", "ow", "kh", "kw")

    def test_annotations_survive_lowering(self, conv_comp):
        stage = create_schedule(conv_comp)
        stage.vectorize("ow")
        stage.parallel("co")
        nest = lower(stage)
        assert nest.loop("ow").annotation.vectorize
        assert nest.loop("co").annotation.parallel

    def test_access_strides_unit_in_innermost_dim(self, conv_comp):
        nest = lower(create_schedule(conv_comp))
        output = next(a for a in nest.accesses if a.is_write)
        assert output.stride_of("ow") == 1
        assert output.stride_of("ci") == 0

    def test_footprint_shrinks_with_fewer_varying_iterators(self, conv_comp):
        nest = lower(create_schedule(conv_comp))
        image = next(a for a in nest.accesses if a.tensor == "I")
        assert image.footprint({"ow", "kh", "kw"}) < image.footprint({"ci", "ow", "oh", "kh", "kw"})

    def test_total_data_bytes_positive(self, conv_comp):
        nest = lower(create_schedule(conv_comp))
        assert nest.total_data_bytes() > 0

    def test_bound_extent_counts_gpu_loops(self, conv_comp):
        stage = create_schedule(conv_comp)
        stage.bind("co", "blockIdx.x")
        stage.bind("ow", "threadIdx.x")
        nest = lower(stage)
        assert nest.bound_extent("blockIdx") == 8
        assert nest.bound_extent("threadIdx") == 6


class TestExecution:
    def test_scheduled_stage_preserves_values(self, rng, small_conv_shape):
        weights = rng.normal(size=(8, 8, 3, 3))
        image = rng.normal(size=(8, 8, 8))
        reference = execute_reference_convolution(weights, image)
        stage = create_schedule(conv2d_compute(small_conv_shape))
        stage.tile("ow", 2)
        stage.reorder("ci", "co")
        stage.unroll("kw", 3)
        out = run(stage, {"W": weights, "I": image}, (8, 6, 6))
        np.testing.assert_allclose(out, reference)

    def test_output_shape_inference(self, conv_comp):
        assert output_shape(conv_comp) == (8, 6, 6)

    def test_run_computation_matches_reference(self, rng):
        shape = ConvolutionShape(4, 4, 4, 4, 3, 3)
        weights = rng.normal(size=(4, 4, 3, 3))
        image = rng.normal(size=(4, 6, 6))
        out = run_computation(conv2d_compute(shape), {"W": weights, "I": image})
        np.testing.assert_allclose(out, execute_reference_convolution(weights, image))


class TestAutotuning:
    @staticmethod
    def _template(computation, platform_name: str):
        """The platform template at default parameter values."""
        context = TuningContext.build(computation, get_platform(platform_name))
        return context.instantiate(ScheduleParameters())

    def test_templates_produce_valid_schedules(self, conv_comp):
        cpu = self._template(conv_comp, "cpu")
        gpu = self._template(conv_comp, "gpu")
        assert lower(cpu).macs == conv_comp.macs
        assert lower(gpu).macs == conv_comp.macs
        assert any(l.annotation.bind for l in lower(gpu).loops)

    def test_default_schedule_dispatches_by_platform(self, conv_comp):
        cpu_stage = self._template(conv_comp, "cpu")
        gpu_stage = self._template(conv_comp, "mgpu")
        assert any(a.parallel for a in cpu_stage.annotations.values())
        assert any(a.bind for a in gpu_stage.annotations.values())

    def test_tuner_improves_over_naive(self):
        from repro.hardware import estimate_latency
        from repro.tenir import lower as lower_fn

        shape = ConvolutionShape(32, 32, 16, 16, 3, 3)
        comp = conv2d_compute(shape)
        platform = get_platform("cpu")
        naive = estimate_latency(lower_fn(create_schedule(comp)), platform)
        tuned = AutoTuner(trials=8, seed=0).tune(comp, platform)
        assert tuned.seconds < naive.seconds

    def test_tuner_is_deterministic_given_seed(self, conv_comp):
        platform = get_platform("cpu")
        first = AutoTuner(trials=6, seed=3).tune(conv_comp, platform)
        second = AutoTuner(trials=6, seed=3).tune(conv_comp, platform)
        assert first.seconds == pytest.approx(second.seconds)

    def test_tuner_requires_positive_trials(self):
        with pytest.raises(ScheduleError):
            AutoTuner(trials=0)

    def test_grouped_conv_tunes_faster_than_standard(self):
        shape = ConvolutionShape(32, 32, 16, 16, 3, 3)
        platform = get_platform("cpu")
        tuner = AutoTuner(trials=8, seed=0)
        standard = tuner.tune(conv2d_compute(shape), platform).seconds
        grouped = tuner.tune(grouped_conv2d_compute(shape, 4), platform).seconds
        assert grouped < standard
