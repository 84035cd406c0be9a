"""Tests for the neural-network operations (convolution family, BN, pooling)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import signal

from repro.errors import ShapeError
from repro.tensor import Tensor, check_gradients, ops


def _reference_conv(x, w, stride=1, padding=0, groups=1):
    """Direct convolution via scipy.correlate2d, used as ground truth."""
    n, c_in, h, wdt = x.shape
    c_out, c_in_g, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (x.shape[2] - kh) // stride + 1
    ow = (x.shape[3] - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    cpg_in = c_in // groups
    cpg_out = c_out // groups
    for b in range(n):
        for co in range(c_out):
            group = co // cpg_out
            acc = np.zeros((x.shape[2] - kh + 1, x.shape[3] - kw + 1))
            for ci_local in range(cpg_in):
                ci = group * cpg_in + ci_local
                acc += signal.correlate2d(x[b, ci], w[co, ci_local], mode="valid")
            out[b, co] = acc[::stride, ::stride]
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_reference(self, rng, stride, padding):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w = Tensor(rng.normal(size=(5, 3, 3, 3)))
        out = ops.conv2d(x, w, stride=stride, padding=padding)
        expected = _reference_conv(x.data, w.data, stride, padding)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    @pytest.mark.parametrize("groups", [2, 4])
    def test_grouped_matches_reference(self, rng, groups):
        x = Tensor(rng.normal(size=(2, 8, 6, 6)))
        w = Tensor(rng.normal(size=(8, 8 // groups, 3, 3)))
        out = ops.conv2d(x, w, padding=1, groups=groups)
        expected = _reference_conv(x.data, w.data, 1, 1, groups)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_depthwise_is_group_per_channel(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 5, 5)))
        w = Tensor(rng.normal(size=(4, 1, 3, 3)))
        out = ops.conv2d(x, w, padding=1, groups=4)
        expected = _reference_conv(x.data, w.data, 1, 1, 4)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_bias_added_per_channel(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)))
        w = Tensor(rng.normal(size=(3, 2, 1, 1)))
        bias = Tensor(np.array([1.0, 2.0, 3.0]))
        out = ops.conv2d(x, w, bias)
        no_bias = ops.conv2d(x, w)
        np.testing.assert_allclose(out.data - no_bias.data,
                                   np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1)
                                   * np.ones_like(no_bias.data))

    def test_gradients(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        assert check_gradients(lambda a, ww, bb: ops.conv2d(a, ww, bb, padding=1), [x, w, b])

    def test_grouped_gradients(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        assert check_gradients(lambda a, ww: ops.conv2d(a, ww, padding=1, groups=2), [x, w])

    def test_strided_gradients(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        assert check_gradients(lambda a, ww: ops.conv2d(a, ww, stride=2, padding=1), [x, w])

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        w = Tensor(rng.normal(size=(4, 2, 3, 3)))
        with pytest.raises(ShapeError):
            ops.conv2d(x, w)

    def test_output_size_formula(self):
        assert ops.conv_output_size(32, 3, 1, 1) == 32
        assert ops.conv_output_size(32, 3, 2, 1) == 16
        assert ops.conv_output_size(7, 3, 1, 0) == 5


# ---------------------------------------------------------------------------
# Frozen references: the loop im2col and the einsum contractions conv2d ran
# before it moved to a strided window view and np.matmul.
# ---------------------------------------------------------------------------
def _loop_im2col(x, kernel, stride, padding):
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = ops.conv_output_size(h, kh, stride, padding)
    ow = ops.conv_output_size(w, kw, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            cols[:, :, i, j, :, :] = x[:, :, i:i_max:stride, j:j_max:stride]
    return cols


def _einsum_conv(x, w, stride, padding, groups):
    n, c_in = x.shape[:2]
    c_out, cpg_in, kh, kw = w.shape
    cols = _loop_im2col(x, (kh, kw), stride, padding)
    oh, ow = cols.shape[-2:]
    cols_g = cols.reshape(n, groups, cpg_in * kh * kw, oh * ow)
    w_g = w.reshape(groups, c_out // groups, cpg_in * kh * kw)
    if groups == 1:
        out = np.einsum("ok,nkp->nop", w_g[0], cols_g[:, 0], optimize=True)
    else:
        out = np.einsum("gok,ngkp->ngop", w_g, cols_g, optimize=True)
    return out.reshape(n, c_out, oh, ow)


def _einsum_input_grad(grad, x_shape, w, stride, padding, groups):
    n, c_in = x_shape[:2]
    c_out, cpg_in, kh, kw = w.shape
    oh, ow = grad.shape[-2:]
    w_g = w.reshape(groups, c_out // groups, cpg_in * kh * kw)
    grad_g = grad.reshape(n, groups, c_out // groups, oh * ow)
    if groups == 1:
        cols_grad = np.einsum("ok,nop->nkp", w_g[0], grad_g[:, 0], optimize=True)
    else:
        cols_grad = np.einsum("gok,ngop->ngkp", w_g, grad_g, optimize=True)
    cols_grad = cols_grad.reshape(n, c_in, kh, kw, oh, ow)
    return ops.col2im(cols_grad, x_shape, (kh, kw), stride, padding)


#: (batch, c_in, c_out, height, width, kernel, stride, padding, groups)
KERNEL_CASES = [
    (2, 8, 16, 9, 7, 3, 1, 1, 1),     # standard, non-square
    (2, 8, 16, 8, 8, 3, 2, 1, 2),     # two groups, stride 2
    (1, 8, 8, 6, 6, 3, 1, 2, 4),      # four groups, padding 2, batch 1
    (2, 8, 8, 10, 6, 3, 2, 1, 8),     # depthwise, stride 2, non-square
    (3, 6, 12, 5, 5, 1, 1, 0, 1),     # 1x1
    (1, 4, 4, 6, 6, 1, 2, 0, 4),      # 1x1 depthwise, stride 2, batch 1
    (1, 4, 8, 7, 11, 5, 2, 0, 2),     # 5x5, padding 0, non-square
]


def _kernel_operands(rng, case):
    n, c_in, c_out, h, w, k, stride, padding, groups = case
    x = rng.normal(size=(n, c_in, h, w))
    weight = rng.normal(size=(c_out, c_in // groups, k, k))
    return x, weight, stride, padding, groups


def _assert_matches_float64_reference(actual, reference):
    """The tolerance fixed before the kernels changed (matmul sums in
    another order; the depthwise case takes a gemv path and differs in the
    last ulp)."""
    np.testing.assert_allclose(actual, reference, rtol=1e-12,
                               atol=1e-12 * np.abs(reference).max())


class TestKernelReferences:
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_im2col_equals_the_loop_version_exactly(self, rng, case):
        x, weight, stride, padding, _ = _kernel_operands(rng, case)
        kernel = weight.shape[2:]
        assert np.array_equal(ops.im2col(x, kernel, stride, padding),
                              _loop_im2col(x, kernel, stride, padding))

    def test_im2col_of_a_channel_slice_equals_the_loop_version(self, rng):
        # Input bottlenecking convolves a non-contiguous channel slice.
        x = rng.normal(size=(2, 8, 6, 5))[:, :4]
        assert np.array_equal(ops.im2col(x, (3, 3), 2, 1), _loop_im2col(x, (3, 3), 2, 1))

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_forward_matches_the_einsum_reference(self, rng, case):
        x, weight, stride, padding, groups = _kernel_operands(rng, case)
        out = ops.conv2d(Tensor(x), Tensor(weight), stride=stride, padding=padding,
                         groups=groups)
        _assert_matches_float64_reference(
            out.data, _einsum_conv(x, weight, stride, padding, groups))

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_input_gradient_matches_the_einsum_reference(self, rng, case):
        x, weight, stride, padding, groups = _kernel_operands(rng, case)
        inputs = Tensor(x, requires_grad=True)
        out = ops.conv2d(inputs, Tensor(weight), stride=stride, padding=padding,
                         groups=groups)
        grad = rng.normal(size=out.shape)
        out.backward(grad)
        _assert_matches_float64_reference(
            inputs.grad, _einsum_input_grad(grad, x.shape, weight, stride, padding, groups))


class TestSharedColumns:
    @pytest.fixture
    def built(self, monkeypatch):
        """Every im2col call's (channels, stride)."""
        calls, im2col = [], ops.im2col

        def counted(x, kernel, stride, padding):
            calls.append((x.shape[1], stride))
            return im2col(x, kernel, stride, padding)

        monkeypatch.setattr(ops, "im2col", counted)
        return calls

    def test_built_once_per_kept_channels_and_stride(self, rng, built):
        source = rng.normal(size=(2, 8, 6, 6))
        weights = {channels: Tensor(rng.normal(size=(4, channels, 3, 3)))
                   for channels in (4, 8)}
        requests = [(8, 1), (4, 1), (8, 1), (8, 2), (4, 1), (8, 2)]

        def convolve(inputs):
            return [ops.conv2d(inputs[:, :channels], weights[channels],
                               stride=stride, padding=1).data.tobytes()
                    for channels, stride in requests]

        alone = convolve(Tensor(source))
        built.clear()
        with ops.shared_columns(source):
            shared = convolve(Tensor(source))
        assert shared == alone
        assert built == [(8, 1), (4, 1), (8, 2)]
        # the table went with the scope
        convolve(Tensor(source))
        assert len(built) == 3 + len(requests)

    def test_other_inputs_build_their_own_columns(self, rng, built):
        source = rng.normal(size=(2, 8, 6, 6))
        weight = Tensor(rng.normal(size=(4, 4, 3, 3)))
        with ops.shared_columns(source):
            tail = ops.conv2d(Tensor(source[:, 4:]), weight, padding=1)
            copy = ops.conv2d(Tensor(source[:, :4].copy()), weight, padding=1)
            again = ops.conv2d(Tensor(source[:, :4].copy()), weight, padding=1)
        assert built == [(4, 1)] * 3
        assert tail.data.tobytes() == ops.conv2d(
            Tensor(source[:, 4:]), weight, padding=1).data.tobytes()
        assert copy.data.tobytes() == again.data.tobytes()


class TestIm2col:
    def test_roundtrip_counts_overlaps(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        cols = ops.im2col(x, (3, 3), 1, 1)
        back = ops.col2im(cols, x.shape, (3, 3), 1, 1)
        # Each pixel is counted once per patch containing it.
        counts = ops.col2im(np.ones_like(cols), x.shape, (3, 3), 1, 1)
        np.testing.assert_allclose(back, x * counts)

    def test_shapes(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols = ops.im2col(x, (3, 3), 2, 1)
        assert cols.shape == (2, 3, 3, 3, 4, 4)


class TestBatchNorm:
    def test_training_normalises(self, rng):
        x = Tensor(rng.normal(2.0, 3.0, size=(8, 4, 5, 5)))
        gamma, beta = Tensor(np.ones(4)), Tensor(np.zeros(4))
        mean, var = np.zeros(4), np.ones(4)
        out = ops.batch_norm2d(x, gamma, beta, mean, var, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(4), atol=1e-7)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), np.ones(4), atol=1e-3)

    def test_running_stats_updated(self, rng):
        x = Tensor(rng.normal(5.0, 1.0, size=(16, 2, 4, 4)))
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        mean, var = np.zeros(2), np.ones(2)
        ops.batch_norm2d(x, gamma, beta, mean, var, training=True, momentum=1.0)
        np.testing.assert_allclose(mean, x.data.mean(axis=(0, 2, 3)))

    def test_eval_uses_running_stats(self, rng):
        x = Tensor(rng.normal(size=(4, 2, 3, 3)))
        gamma, beta = Tensor(np.full(2, 2.0)), Tensor(np.full(2, 1.0))
        mean, var = np.zeros(2), np.ones(2)
        out = ops.batch_norm2d(x, gamma, beta, mean, var, training=False, eps=0.0)
        np.testing.assert_allclose(out.data, 2.0 * x.data + 1.0, atol=1e-7)

    def test_gradients_training(self, rng):
        x = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
        beta = Tensor(rng.normal(size=2), requires_grad=True)

        def fn(a, g, b):
            return ops.batch_norm2d(a, g, b, np.zeros(2), np.ones(2), training=True)

        assert check_gradients(fn, [x, gamma, beta], atol=1e-3)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
        out = ops.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data.reshape(2, 2), [[5, 7], [13, 15]])

    def test_avg_pool_values(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
        out = ops.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data.reshape(2, 2), [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_gradients(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        assert check_gradients(lambda a: ops.max_pool2d(a, 2), [x], eps=1e-6)

    def test_avg_pool_gradients(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        assert check_gradients(lambda a: ops.avg_pool2d(a, 2), [x])

    def test_global_avg_pool(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        np.testing.assert_allclose(ops.global_avg_pool2d(x).data, x.data.mean(axis=(2, 3)))


class TestClassificationHeads:
    def test_softmax_sums_to_one(self, rng):
        x = Tensor(rng.normal(size=(4, 7)))
        np.testing.assert_allclose(ops.softmax(x, axis=1).data.sum(axis=1), np.ones(4))

    def test_log_softmax_consistency(self, rng):
        x = Tensor(rng.normal(size=(3, 5)))
        np.testing.assert_allclose(ops.log_softmax(x, axis=1).data,
                                   np.log(ops.softmax(x, axis=1).data), atol=1e-10)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 10)))
        loss = ops.cross_entropy(logits, np.array([0, 3, 5, 9]))
        assert float(loss.data) == pytest.approx(np.log(10.0))

    def test_cross_entropy_gradients(self, rng):
        logits = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        labels = np.array([0, 2, 4, 5])
        assert check_gradients(lambda x: ops.cross_entropy(x, labels), [logits])

    def test_cross_entropy_rejects_bad_shape(self, rng):
        with pytest.raises(ShapeError):
            ops.cross_entropy(Tensor(rng.normal(size=(4, 3, 2))), np.array([0]))


class TestUpsampleAndDropout:
    def test_upsample_nearest_values(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = ops.upsample_nearest2d(x, 2)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(out.data[0, 0, :2, :2], np.ones((2, 2)))

    def test_upsample_gradients(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        assert check_gradients(lambda a: ops.upsample_nearest2d(a, 2), [x])

    def test_upsample_factor_one_is_identity(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 2, 2)))
        assert ops.upsample_nearest2d(x, 1) is x

    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = ops.dropout(x, 0.5, rng, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_training_scales(self, rng):
        x = Tensor(np.ones((1000,)))
        out = ops.dropout(x, 0.5, rng, training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.1)
