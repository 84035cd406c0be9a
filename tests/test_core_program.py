"""Tests for the transform-program IR: algebra, staged legality, goldens.

The golden-equivalence suite pins the refactor's core promise: each of the
nine legacy sequence kinds, expressed as a predefined
:class:`TransformProgram`, produces *identical* lowered stages and latency
estimates to the pre-refactor per-kind builder (kept here, frozen, as the
reference implementation).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    PRIMITIVE_REGISTRY,
    SEQUENCE_KINDS,
    TransformProgram,
    predefined_program,
    random_composition,
    step,
)
from repro.core.engine import EvaluationEngine
from repro.errors import LegalityError, TransformError
from repro.hardware import get_platform
from repro.nn.convs import DerivedConv2d, build_candidate
from repro.poly.affine import AffineExpr, AffineMap
from repro.poly.domain import Domain
from repro.poly.statement import Access, ConvolutionShape, Statement
from repro.poly.transforms import Reorder
from repro.tenir.autotune import AutoTuner
from repro.tenir.expr import Computation, conv2d_compute, grouped_conv2d_compute
from repro.tenir.lower import lower
from repro.tenir.schedule import Stage, create_schedule
from repro.utils import divisors, make_rng


# ---------------------------------------------------------------------------
# Frozen pre-refactor reference: the legacy per-kind stage builders
# ---------------------------------------------------------------------------
def legacy_build_stages(kind: str, shape: ConvolutionShape, *, group=2,
                        group_second=4, bottleneck=2, spatial=2,
                        unroll=16) -> list[Stage]:
    """Verbatim port of the retired ``SequenceSpec.build_stages``."""
    if kind == "seq3":
        half = ConvolutionShape(shape.c_out // 2, shape.c_in, shape.h_out, shape.w_out,
                                shape.k_h, shape.k_w, stride=shape.stride)
        first = create_schedule(conv2d_compute(half, name="seq3_half0"))
        first.group(group)
        second = create_schedule(conv2d_compute(half, name="seq3_half1"))
        second.group(group_second)
        first.reorder("g", *[n for n in first.loop_order if n != "g"])
        second.reorder("g", *[n for n in second.loop_order if n != "g"])
        return [first, second]

    if shape.groups > 1:
        return [create_schedule(grouped_conv2d_compute(shape, shape.groups))]
    stage = create_schedule(conv2d_compute(shape))
    if kind == "standard":
        return [stage]
    if kind == "group":
        stage.group(group)
        return [stage]
    if kind == "bottleneck":
        stage.bottleneck("co", bottleneck)
        return [stage]
    if kind == "input_bottleneck":
        stage.reorder("ci", "co")
        stage.bottleneck("ci", bottleneck)
        return [stage]
    if kind == "depthwise":
        stage.depthwise()
        return [stage]
    if kind == "spatial_bottleneck":
        stage.reorder("oh", "ow", "co", "ci", "kh", "kw")
        stage.bottleneck("oh", spatial)
        stage.reorder("ow", "oh", "co", "ci", "kh", "kw")
        stage.bottleneck("ow", spatial)
        stage.reorder("co", "ci", "oh", "ow", "kh", "kw")
        return [stage]
    if kind == "seq1":
        strip = max(d for d in divisors(shape.w_out) if d <= 8)
        ow_outer, ow_inner = stage.split("ow", max(strip, spatial))
        stage.reorder(ow_outer, *[n for n in stage.loop_order if n != ow_outer])
        stage.group(group)
        stage.reorder("g", ow_outer,
                      *[n for n in stage.loop_order if n not in ("g", ow_outer)])
        order = list(stage.loop_order)
        if order.index(ow_inner) == order.index(ow_outer) + 1:
            stage.fuse(ow_outer, ow_inner)
        return [stage]
    if kind == "seq2":
        stage.unroll("co", unroll)
        stage.group(group)
        stage.reorder("g", *[n for n in stage.loop_order if n != "g"])
        return [stage]
    raise AssertionError(f"unhandled kind {kind}")


GOLDEN_SHAPES = (
    ConvolutionShape(16, 16, 8, 8, 3, 3),
    ConvolutionShape(32, 16, 8, 8, 3, 3, stride=1),
    ConvolutionShape(64, 32, 4, 4, 3, 3, stride=2),
)


class TestGoldenEquivalence:
    @pytest.mark.parametrize("kind", SEQUENCE_KINDS)
    @pytest.mark.parametrize("shape", GOLDEN_SHAPES, ids=str)
    def test_predefined_programs_match_legacy_stages(self, kind, shape):
        program = predefined_program(kind)
        if not program.applicable(shape):
            with pytest.raises(TransformError):
                legacy_build_stages(kind, shape)
            return
        new = [stage.signature() for stage in program.compile(shape)]
        legacy = [stage.signature() for stage in legacy_build_stages(kind, shape)]
        assert new == legacy

    @pytest.mark.parametrize("kind", SEQUENCE_KINDS)
    def test_predefined_programs_match_legacy_latencies(self, kind):
        shape = GOLDEN_SHAPES[0]
        program = predefined_program(kind)
        if not program.applicable(shape):
            pytest.skip("inapplicable kind on the golden shape")
        for platform in (get_platform("cpu"), get_platform("mgpu")):
            tuner = AutoTuner(trials=3, seed=0)
            new = sum(tuner.tune(c, platform).seconds
                      for c in program.build_computations(shape))
            legacy = sum(
                tuner.tune(Computation(name=f"legacy_{index}", statement=stage.statement,
                                       element_bytes=stage.computation.element_bytes,
                                       source_shape=shape),
                           platform).seconds
                for index, stage in enumerate(legacy_build_stages(kind, shape)))
            assert new == legacy

    def test_parameter_variants_match_legacy(self):
        shape = ConvolutionShape(32, 32, 8, 8, 3, 3)
        variants = [
            ("group", dict(group=4)),
            ("bottleneck", dict(bottleneck=4)),
            ("spatial_bottleneck", dict(spatial=4)),
            ("seq1", dict(group=4, spatial=2)),
            ("seq2", dict(group=2, unroll=8)),
            ("seq3", dict(group=4, group_second=8)),
        ]
        for kind, params in variants:
            program = predefined_program(kind, **params)
            assert program.applicable(shape), (kind, params)
            new = [s.signature() for s in program.compile(shape)]
            legacy = [s.signature() for s in legacy_build_stages(kind, shape, **params)]
            assert new == legacy, (kind, params)

    def test_grouped_source_shape_keeps_structure(self):
        grouped = ConvolutionShape(16, 16, 8, 8, 3, 3, groups=2)
        new = [s.signature() for s in predefined_program("standard").compile(grouped)]
        legacy = [s.signature() for s in legacy_build_stages("standard", grouped)]
        assert new == legacy

    def test_random_composition_escapes_the_legacy_nine(self):
        """The open space contains legal programs no legacy kind expresses."""
        shape = ConvolutionShape(16, 16, 8, 8, 3, 3)
        legacy_steps = set()
        for kind in SEQUENCE_KINDS:
            for g in (2, 4, 8):
                for gs in (2, 4, 8):
                    for b in (2, 4):
                        for s in (2, 4):
                            for u in (4, 8, 16):
                                legacy_steps.add(predefined_program(
                                    kind, group=g, group_second=gs, bottleneck=b,
                                    spatial=s, unroll=u).steps)
        rng = make_rng(0)
        novel = []
        for _ in range(32):
            program = random_composition(shape, rng)
            if program is None:
                continue
            assert program.applicable(shape)
            if program.steps not in legacy_steps:
                novel.append(program)
        assert novel, "the generator never left the legacy catalogue"


# ---------------------------------------------------------------------------
# Program algebra
# ---------------------------------------------------------------------------
class TestProgramAlgebra:
    def test_split_then_fuse_is_identity_on_the_lowered_nest(self):
        shape = ConvolutionShape(16, 16, 8, 8, 3, 3)
        base = lower(predefined_program("standard").compile(shape)[0])
        round_trip = TransformProgram(name="roundtrip", steps=(
            step("split", iterator="ci", factor=4),
            step("fuse", first="ci_o", second="ci_i")))
        fused = lower(round_trip.compile(shape)[0])
        assert fused.macs == base.macs
        assert [loop.extent for loop in fused.loops] == [l.extent for l in base.loops]
        for after, before in zip(fused.accesses, base.accesses):
            assert after.tensor == before.tensor
            assert after.dim_extents == before.dim_extents
            assert sorted(after.iterator_strides.values()) == sorted(
                before.iterator_strides.values())

    def test_reorder_is_dependence_checked(self):
        # A statement with dependence distance (+1, -1): legal in the (i, j)
        # order, illegal once j is hoisted above i.
        domain = Domain.of(i=4, j=4)
        write = Access("A", AffineMap((AffineExpr.var("i"), AffineExpr.var("j"))),
                       is_write=True)
        read = Access("A", AffineMap((AffineExpr.of({"i": 1}, 1),
                                      AffineExpr.of({"j": 1}, -1))))
        statement = Statement.create("S", domain, writes=[write], reads=[read])
        with pytest.raises(LegalityError) as excinfo:
            Reorder(("j", "i")).apply(statement)
        assert excinfo.value.primitive == "reorder"
        assert "dependence" in excinfo.value.reason

    def test_grouped_program_conv_config_matches_derived_parameters(self):
        shape = ConvolutionShape(16, 16, 8, 8, 3, 3)
        for factor in (2, 4):
            config = predefined_program("group", group=factor).conv_config(shape)
            derived = DerivedConv2d(16, 16, 3, config=config, rng=make_rng(0))
            reference = build_candidate(f"group{factor}", 16, 16, 3, rng=make_rng(0))
            assert derived.num_parameters() == reference.num_parameters()

    def test_seq3_conv_config_has_one_group_factor_per_nest(self):
        shape = ConvolutionShape(16, 16, 8, 8, 3, 3)
        config = predefined_program("seq3", group=2, group_second=4).conv_config(shape)
        assert config.group_factors == (2, 4)
        derived = DerivedConv2d(16, 16, 3, config=config, rng=make_rng(0))
        assert derived.num_parameters() < DerivedConv2d(16, 16, 3, rng=make_rng(0)
                                                        ).num_parameters()

    def test_conv_config_ignores_schedule_only_steps(self):
        """Config equality is operator equality: an unroll factor is not part
        of the derived operator."""
        shape = ConvolutionShape(16, 16, 8, 8, 3, 3)
        assert (predefined_program("seq2", unroll=8).conv_config(shape)
                == predefined_program("seq2", unroll=16).conv_config(shape))

    def test_optional_step_is_skipped_when_inapplicable(self):
        # seq1's trailing fuse never fires on the standard nest (the split
        # pair is not adjacent after the group hoist) yet the program stays
        # legal; a non-optional fuse in the same position fails loudly.
        shape = ConvolutionShape(16, 16, 8, 8, 3, 3)
        assert predefined_program("seq1").applicable(shape)
        strict = TransformProgram(name="strict", steps=(
            step("split", iterator="ow", factor=4),
            step("reorder", front=("ow_o",)),
            step("group", factor=2),
            step("fuse", first="ow_o", second="ow_i")))
        with pytest.raises(LegalityError) as excinfo:
            strict.compile(shape)
        assert excinfo.value.primitive == "fuse"

    def test_skipped_optional_step_is_a_no_op_across_nests(self):
        # The optional reorder hoists 'g' on nest 0 but fails on nest 1
        # (which was never grouped); skipping it must leave *both* nests
        # untouched, not just the one that failed.
        shape = ConvolutionShape(16, 16, 8, 8, 3, 3)
        partial = TransformProgram(name="partial", steps=(
            step("split", parts=2),
            step("group", factor=2, nest=0),
            step("reorder", front=("g",), optional=True)))
        reference = TransformProgram(name="reference", steps=(
            step("split", parts=2),
            step("group", factor=2, nest=0)))
        assert ([s.signature() for s in partial.compile(shape)]
                == [s.signature() for s in reference.compile(shape)])

    def test_programs_are_hashable_shape_independent_values(self):
        a = predefined_program("group", group=2)
        b = predefined_program("group", group=2)
        assert a == b and hash(a) == hash(b)
        assert a != predefined_program("group", group=4)
        import pickle

        assert pickle.loads(pickle.dumps(a)) == a

    def test_legality_error_names_the_failing_primitive(self):
        asymmetric = ConvolutionShape(8, 16, 4, 4, 3, 3)
        with pytest.raises(LegalityError) as excinfo:
            predefined_program("depthwise").compile(asymmetric)
        assert excinfo.value.primitive == "depthwise"
        report = predefined_program("depthwise").legality(asymmetric)
        assert not report.legal and report.primitive == "depthwise"

    def test_registry_rejects_duplicates_and_accepts_extensions(self):
        from repro.core.program import Primitive, register_primitive

        with pytest.raises(TransformError):
            @register_primitive
            class Duplicate(Primitive):  # pragma: no cover - rejected before use
                name = "group"

        @register_primitive
        class Vectorize(Primitive):
            name = "test-vectorize"
            description = "annotate a loop for vectorization"

            def apply(self, state, app):
                for stage in state.select(app):
                    stage.vectorize(app.param("iterator"))

        try:
            program = TransformProgram(name="vec", steps=(
                step("test-vectorize", iterator="ow"),))
            shape = ConvolutionShape(8, 8, 4, 4, 3, 3)
            stages = program.compile(shape)
            assert stages[0].annotations["ow"].vectorize
        finally:
            PRIMITIVE_REGISTRY.pop("test-vectorize")


class TestLegacyBoundaryParity:
    """The compile-based legality keeps the retired applicability guards."""

    def test_bottleneck_to_single_channel_is_illegal(self):
        shape = ConvolutionShape(4, 16, 8, 8, 3, 3)
        assert not predefined_program("bottleneck", bottleneck=4).applicable(shape)

    def test_input_bottleneck_to_single_channel_is_illegal(self):
        shape = ConvolutionShape(16, 4, 8, 8, 3, 3)
        assert not predefined_program("input_bottleneck", bottleneck=4).applicable(shape)

    def test_spatial_bottleneck_requires_surplus_extent(self):
        shape = ConvolutionShape(16, 16, 2, 2, 3, 3)
        assert not predefined_program("spatial_bottleneck", spatial=2).applicable(shape)

    def test_seq1_requires_spatial_divisibility(self):
        shape = ConvolutionShape(16, 16, 7, 7, 3, 3)
        assert not predefined_program("seq1", spatial=2).applicable(shape)

    def test_single_step_composition_budget(self):
        shape = ConvolutionShape(16, 16, 8, 8, 3, 3)
        rng = make_rng(0)
        programs = [random_composition(shape, rng, max_steps=1) for _ in range(8)]
        assert all(p is None or len(p.steps) == 1 for p in programs)
        with pytest.raises(TransformError):
            random_composition(shape, rng, max_steps=0)

    def test_program_equality_ignores_display_name(self):
        sampled = TransformProgram(name="compose[group]",
                                   steps=(step("group", factor=2),))
        predefined = predefined_program("group", group=2)
        assert sampled == predefined
        assert hash(sampled) == hash(predefined)

    def test_non_channel_grouping_has_no_network_group_factor(self):
        shape = ConvolutionShape(16, 16, 8, 8, 3, 3)
        spatial_group = TransformProgram(name="spatial-group", steps=(
            step("group", factor=2, outer="oh", inner="ow"),))
        assert spatial_group.applicable(shape)
        assert spatial_group.conv_config(shape).group_factors == (1,)


# ---------------------------------------------------------------------------
# Staged legality in the engine
# ---------------------------------------------------------------------------
class TestEnginePrescreen:
    def test_illegal_program_is_rejected_before_tuning(self, monkeypatch):
        calls = {"count": 0}
        original = AutoTuner.tune

        def counted(self, computation, platform):
            calls["count"] += 1
            return original(self, computation, platform)

        monkeypatch.setattr(AutoTuner, "tune", counted)
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=3, seed=0)
        asymmetric = ConvolutionShape(8, 16, 4, 4, 3, 3)
        with pytest.raises(LegalityError) as excinfo:
            engine.tuned_latency(asymmetric, predefined_program("depthwise"))
        assert excinfo.value.primitive == "depthwise"
        assert calls["count"] == 0, "the pre-screen must fire before the tuner"
        assert engine.statistics.prescreen_rejections == 1
        assert engine.statistics.tuner_calls == 0

    def test_legal_programs_pass_the_prescreen(self):
        engine = EvaluationEngine(get_platform("cpu"), tuner_trials=3, seed=0)
        shape = ConvolutionShape(8, 8, 4, 4, 3, 3)
        assert engine.tuned_latency(shape, predefined_program("group")) > 0
        assert engine.statistics.prescreen_checks >= 1
        assert engine.statistics.prescreen_rejections == 0


class TestSearchRejectionAccounting:
    def test_impossible_threshold_attributes_rejections_to_primitives(self):
        from repro import nn
        from repro.core import UnifiedSearch
        from repro.data import SyntheticImageDataset

        dataset = SyntheticImageDataset.cifar10_like(train_size=32, test_size=16,
                                                     image_size=8, seed=0)
        images, labels = dataset.random_minibatch(4, seed=0)
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.ConvBNReLU(3, 8, 3, rng=rng),
            nn.GlobalAvgPool2d(), nn.Linear(8, 10, rng=rng))
        search = UnifiedSearch(get_platform("cpu"), configurations=10, tuner_trials=3,
                               fisher_threshold=10.0, seed=0)
        result = search.search(model, images, labels, dataset.spec.image_shape)
        stats = result.statistics
        assert stats.configurations_rejected > 0
        assert stats.rejections_by_primitive, "rejections must be differentiated"
        neural = {"group", "bottleneck", "depthwise", "fisher"}
        assert neural & set(stats.rejections_by_primitive)
