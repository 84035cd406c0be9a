"""Tests for the predefined sequences and the unified space catalogue."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    SEQUENCE_KINDS,
    TABLE1_PRIMITIVES,
    TransformProgram,
    UnifiedSpace,
    nas_candidate_sequences,
    paper_sequences,
    predefined_program,
    primitive_catalogue,
    random_sequence,
)
from repro.core import unified_space
from repro.errors import TransformError
from repro.poly import ConvolutionShape
from repro.utils import make_rng


@pytest.fixture
def shape():
    return ConvolutionShape(c_out=16, c_in=16, h_out=8, w_out=8, k_h=3, k_w=3)


class TestPredefinedPrograms:
    def test_unknown_kind_rejected(self):
        with pytest.raises(TransformError):
            predefined_program("winograd")

    def test_predefined_programs_are_transform_programs(self):
        for kind in SEQUENCE_KINDS:
            assert isinstance(predefined_program(kind), TransformProgram)

    def test_standard_sequence_is_not_neural(self):
        assert not predefined_program("standard").is_neural

    @pytest.mark.parametrize("kind", [k for k in SEQUENCE_KINDS if k != "standard"])
    def test_neural_kinds_flagged(self, kind):
        assert predefined_program(kind).is_neural

    @pytest.mark.parametrize("kind", SEQUENCE_KINDS)
    def test_applicable_sequences_build(self, kind, shape):
        spec = predefined_program(kind)
        if spec.applicable(shape):
            computations = spec.build_computations(shape)
            assert computations and all(c.macs > 0 for c in computations)

    def test_not_applicable_raises_on_build(self):
        spec = predefined_program("depthwise")
        asymmetric = ConvolutionShape(8, 16, 4, 4, 3, 3)
        assert not spec.applicable(asymmetric)
        with pytest.raises(TransformError):
            spec.build_computations(asymmetric)

    def test_grouped_input_shapes_only_allow_standard(self):
        grouped = ConvolutionShape(16, 16, 8, 8, 3, 3, groups=2)
        assert predefined_program("standard").applicable(grouped)
        assert not predefined_program("group").applicable(grouped)

    def test_paper_sequence_notation_matches_section_7_3(self):
        sequences = paper_sequences()
        assert sequences["seq1"].primitive_names() == (
            "split", "reorder", "group", "reorder", "fuse")
        assert sequences["seq2"].primitive_names() == ("unroll", "group", "reorder")
        assert sequences["seq3"].primitive_names() == (
            "split", "group", "group", "reorder")

    def test_nas_candidates_cover_classic_operators(self):
        kinds = {spec.kind for spec in nas_candidate_sequences().values()}
        assert kinds == {"group", "bottleneck", "depthwise"}

    def test_random_sequence_is_valid(self):
        rng = make_rng(0)
        for _ in range(20):
            spec = random_sequence(rng)
            assert spec.kind in SEQUENCE_KINDS


class TestSequenceReductions:
    def test_group_reduction_matches_factor(self, shape):
        spec = predefined_program("group", group=4)
        assert spec.compute_reduction(shape) == pytest.approx(4.0)

    def test_bottleneck_reduction_matches_factor(self, shape):
        spec = predefined_program("bottleneck", bottleneck=2)
        assert spec.compute_reduction(shape) == pytest.approx(2.0)

    def test_spatial_bottleneck_reduction_is_squared(self, shape):
        spec = predefined_program("spatial_bottleneck", spatial=2)
        assert spec.compute_reduction(shape) == pytest.approx(4.0)

    def test_seq3_reduction_is_harmonic_mean_of_groups(self, shape):
        spec = predefined_program("seq3", group=2, group_second=4)
        assert spec.compute_reduction(shape) == pytest.approx(2 / (1 / 2 + 1 / 4))

    def test_seq3_produces_two_nests(self, shape):
        assert len(predefined_program("seq3").build_computations(shape)) == 2

    def test_conv_config_reduction_consistent_with_loop_reduction(self, shape):
        """The network-level operator reduces MACs like the loop nest does."""
        for kind in ("group", "bottleneck", "spatial_bottleneck", "seq3"):
            spec = predefined_program(kind)
            config = spec.conv_config(shape)
            loop_reduction = spec.compute_reduction(shape)
            # The module-level reduction ignores the small 1x1 expansion of
            # bottlenecking, so allow a generous tolerance.
            assert config.compute_reduction() == pytest.approx(loop_reduction, rel=0.35)

    def test_describe_mentions_parameters(self):
        assert "factor=4" in predefined_program("group", group=4).describe()
        assert "factor=2" in predefined_program("bottleneck", bottleneck=2).describe()


class TestUnifiedSpace:
    def test_table1_has_three_categories(self):
        assert set(TABLE1_PRIMITIVES) == {"program", "neural", "gpu"}
        assert len(primitive_catalogue()) == 11

    def test_candidates_always_include_standard(self, shape):
        space = UnifiedSpace(seed=0)
        candidates = space.candidate_sequences(shape)
        assert any(not c.is_neural for c in candidates)
        assert all(c.applicable(shape) for c in candidates)

    def test_candidates_include_paper_sequences(self, shape):
        space = UnifiedSpace(seed=0)
        kinds = {c.kind for c in space.candidate_sequences(shape)}
        assert {"seq1", "seq2", "seq3"} <= kinds

    def test_candidates_include_random_compositions(self, shape, monkeypatch):
        monkeypatch.setattr(unified_space, "RANDOM_COMPOSITIONS_PER_LAYER", 4)
        space = UnifiedSpace(seed=0)
        kinds = {c.kind for c in space.candidate_sequences(shape)}
        assert any(kind.startswith("compose[") for kind in kinds)

    def test_structural_rejections_attributed_to_primitives(self):
        # Odd channel counts: grouping and channel bottlenecking cannot divide.
        awkward = ConvolutionShape(c_out=15, c_in=15, h_out=8, w_out=8, k_h=3, k_w=3)
        space = UnifiedSpace(seed=0)
        rejections: dict[str, int] = {}
        space.candidate_sequences(awkward, rejections=rejections)
        assert rejections
        assert set(rejections) <= {"group", "bottleneck", "depthwise", "split",
                                   "tile", "fuse", "reorder", "unroll", "prefetch"}
        assert rejections.get("group", 0) > 0

    def test_sample_assignment_covers_all_layers(self, shape):
        space = UnifiedSpace(seed=0)
        shapes = {"a": shape, "b": shape}
        candidates = {name: space.candidate_sequences(shape) for name in shapes}
        assignment = space.sample_assignment(shapes, candidates, make_rng(1))
        assert set(assignment) == {"a", "b"}

    def test_partitioning_once_keeps_the_picks_and_the_draws(self, shape):
        space = UnifiedSpace(seed=0)
        shapes = {"a": shape, "b": shape, "c": shape}
        candidates = {name: space.candidate_sequences(shape) for name in shapes}
        # a layer with program-only candidates alone, and one with neural alone
        candidates["b"] = [c for c in candidates["b"] if not c.is_neural]
        candidates["c"] = [c for c in candidates["c"] if c.is_neural]
        partitions: dict = {}
        fresh, shared = make_rng(4), make_rng(4)
        for _ in range(20):
            assert (space.sample_assignment(shapes, candidates, fresh)
                    == space.sample_assignment(shapes, candidates, shared,
                                               partitions=partitions))
        assert fresh.random() == shared.random()
        assert set(partitions) == set(shapes)
        assert partitions["b"][0] == [] and partitions["c"][1] == []

    def test_space_cardinality(self, shape):
        space = UnifiedSpace(seed=0)
        candidates = {"a": space.candidate_sequences(shape)}
        assert space.space_cardinality(candidates) == len(candidates["a"])
