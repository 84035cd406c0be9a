"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import estimate_dram_traffic_batch, estimate_latency, get_platform
from repro.poly import (
    Bottleneck,
    ConvolutionShape,
    Group,
    Interchange,
    Reorder,
    StripMine,
    convolution_nest,
    dependence_vectors,
    schedule_preserves_dependences,
)
from repro.tensor import Tensor, ops
from repro.tenir import conv2d_compute, create_schedule, lower
from repro.utils import ceil_div, divisors, geometric_mean, prod

# Small, divisor-friendly extents keep the property tests fast.
extents = st.sampled_from([2, 4, 6, 8, 12, 16])
kernel_sizes = st.sampled_from([1, 3])


@st.composite
def conv_shapes(draw):
    return ConvolutionShape(
        c_out=draw(extents), c_in=draw(extents), h_out=draw(extents), w_out=draw(extents),
        k_h=draw(kernel_sizes), k_w=draw(kernel_sizes))


class TestUtilityProperties:
    @given(st.integers(min_value=1, max_value=10_000))
    def test_divisors_divide(self, n):
        for d in divisors(n):
            assert n % d == 0

    @given(st.integers(min_value=1, max_value=10_000))
    def test_divisors_include_bounds(self, n):
        ds = divisors(n)
        assert ds[0] == 1 and ds[-1] == n and ds == sorted(ds)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=100))
    def test_ceil_div_matches_definition(self, a, b):
        assert ceil_div(a, b) == (a + b - 1) // b

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6))
    def test_prod_matches_numpy(self, values):
        assert prod(values) == int(np.prod(values))

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=8))
    def test_geometric_mean_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


class TestDomainProperties:
    @settings(max_examples=30, deadline=None)
    @given(conv_shapes())
    def test_domain_cardinality_equals_macs(self, shape):
        statement = convolution_nest(shape)
        assert statement.domain.cardinality() == shape.macs()

    @settings(max_examples=30, deadline=None)
    @given(conv_shapes(), st.permutations(["co", "ci", "oh", "ow", "kh", "kw"]))
    def test_every_permutation_is_legal_for_convolution(self, shape, order):
        """Reduction dependences are elementary, so any loop order is legal."""
        statement = convolution_nest(shape)
        assert schedule_preserves_dependences(statement, list(order))

    @settings(max_examples=30, deadline=None)
    @given(conv_shapes(), st.sampled_from(["co", "ci", "oh", "ow"]), st.sampled_from([2, 4]))
    def test_strip_mine_preserves_cardinality(self, shape, iterator, factor):
        statement = convolution_nest(shape)
        if statement.domain.extent(iterator) % factor != 0:
            return
        transformed = StripMine(iterator, factor).apply(statement)
        assert transformed.domain.cardinality() == statement.domain.cardinality()

    @settings(max_examples=30, deadline=None)
    @given(conv_shapes(), st.sampled_from([2, 4]))
    def test_bottleneck_divides_cardinality(self, shape, factor):
        statement = convolution_nest(shape)
        if shape.c_out % factor != 0:
            return
        transformed = Bottleneck("co", factor).apply(statement)
        assert transformed.domain.cardinality() * factor == statement.domain.cardinality()

    @settings(max_examples=30, deadline=None)
    @given(conv_shapes(), st.sampled_from([2, 4]))
    def test_group_divides_cardinality(self, shape, factor):
        statement = convolution_nest(shape)
        if shape.c_out % factor or shape.c_in % factor:
            return
        transformed = Group(factor).apply(statement)
        assert transformed.domain.cardinality() * factor == statement.domain.cardinality()

    @settings(max_examples=30, deadline=None)
    @given(conv_shapes())
    def test_interchange_is_involutive_on_the_domain(self, shape):
        statement = convolution_nest(shape)
        twice = Interchange("co", "ci").apply(Interchange("co", "ci").apply(statement))
        assert twice.domain.names == statement.domain.names

    @settings(max_examples=20, deadline=None)
    @given(conv_shapes())
    def test_dependences_never_involve_parallel_output_iterators(self, shape):
        statement = convolution_nest(shape)
        domain_names = statement.domain.names
        for vector in dependence_vectors(statement):
            for name, distance in zip(domain_names, vector.distances):
                if name in ("co", "oh", "ow"):
                    assert distance == 0


class TestCostModelProperties:
    @settings(max_examples=20, deadline=None)
    @given(conv_shapes())
    def test_latency_positive_on_every_platform(self, shape):
        nest = lower(create_schedule(conv2d_compute(shape)))
        for name in ("cpu", "gpu", "mcpu", "mgpu"):
            assert estimate_latency(nest, get_platform(name)).seconds > 0

    @settings(max_examples=20, deadline=None)
    @given(conv_shapes(), st.sampled_from([2, 4]))
    def test_bottlenecked_nest_is_never_slower(self, shape, factor):
        if shape.c_out % factor:
            return
        platform = get_platform("cpu")
        base = lower(create_schedule(conv2d_compute(shape)))
        stage = create_schedule(conv2d_compute(shape))
        stage.bottleneck("co", factor)
        reduced = lower(stage)
        assert (estimate_latency(reduced, platform).seconds
                <= estimate_latency(base, platform).seconds * 1.001)

    @settings(max_examples=20, deadline=None)
    @given(conv_shapes())
    def test_traffic_monotone_in_cache_size(self, shape):
        nest = lower(create_schedule(conv2d_compute(shape)))
        assert (estimate_dram_traffic_batch([nest], 64 * 1024)[0]
                >= estimate_dram_traffic_batch([nest], 8 * 1024 * 1024)[0])


class TestTensorProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=20))
    def test_softmax_is_a_distribution(self, values):
        logits = Tensor(np.array([values]))
        probs = ops.softmax(logits, axis=1).data
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=10))
    def test_cross_entropy_lower_bounded_by_zero(self, batch, classes):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(batch, classes)))
        labels = rng.integers(0, classes, size=batch)
        assert float(ops.cross_entropy(logits, labels).data) >= 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
           st.integers(min_value=3, max_value=8))
    def test_conv_linearity_in_weights(self, n, c, size):
        """conv(x, 2w) == 2 conv(x, w): convolution is linear in the weights."""
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(n, c, size, size)))
        w = Tensor(rng.normal(size=(c + 1, c, 3, 3)))
        single = ops.conv2d(x, w, padding=1).data
        doubled = ops.conv2d(x, Tensor(2.0 * w.data), padding=1).data
        np.testing.assert_allclose(doubled, 2.0 * single, atol=1e-9)
