"""Tests for the autograd tape: every operation against numerical gradients."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import AutogradError, ShapeError
import tape_reference
from repro.tensor import Tensor, check_gradients, concat, no_grad, pad2d


def _tensor(rng, shape, requires_grad=True):
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad)


class TestBasicArithmetic:
    def test_add_gradients(self, rng):
        a, b = _tensor(rng, (3, 4)), _tensor(rng, (3, 4))
        assert check_gradients(lambda x, y: x + y, [a, b])

    def test_add_broadcasting_gradients(self, rng):
        a, b = _tensor(rng, (3, 4)), _tensor(rng, (4,))
        assert check_gradients(lambda x, y: x + y, [a, b])

    def test_sub_gradients(self, rng):
        a, b = _tensor(rng, (2, 5)), _tensor(rng, (2, 5))
        assert check_gradients(lambda x, y: x - y, [a, b])

    def test_mul_gradients(self, rng):
        a, b = _tensor(rng, (3, 3)), _tensor(rng, (3, 3))
        assert check_gradients(lambda x, y: x * y, [a, b])

    def test_div_gradients(self, rng):
        a = _tensor(rng, (3, 3))
        b = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        assert check_gradients(lambda x, y: x / y, [a, b])

    def test_pow_gradients(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(4,)), requires_grad=True)
        assert check_gradients(lambda x: x ** 3, [a])

    def test_neg_gradients(self, rng):
        a = _tensor(rng, (4,))
        assert check_gradients(lambda x: -x, [a])

    def test_scalar_left_operations(self, rng):
        a = _tensor(rng, (3,))
        out = (2.0 * a + 1.0 - a / 2.0).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.full(3, 1.5))

    def test_rsub_and_rdiv(self):
        a = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        np.testing.assert_allclose((1.0 - a).data, [-1.0, -3.0])
        np.testing.assert_allclose((8.0 / a).data, [4.0, 2.0])


class TestReductionsAndShapes:
    def test_sum_all_gradients(self, rng):
        a = _tensor(rng, (2, 3, 4))
        assert check_gradients(lambda x: x.sum(), [a])

    def test_sum_axis_gradients(self, rng):
        a = _tensor(rng, (2, 3, 4))
        assert check_gradients(lambda x: x.sum(axis=1), [a])

    def test_mean_matches_manual(self, rng):
        a = _tensor(rng, (3, 4))
        out = a.mean(axis=0)
        np.testing.assert_allclose(out.data, a.data.mean(axis=0))

    def test_mean_gradients(self, rng):
        a = _tensor(rng, (3, 4))
        assert check_gradients(lambda x: x.mean(axis=(0, 1)), [a])

    def test_max_gradients(self, rng):
        a = _tensor(rng, (3, 5))
        assert check_gradients(lambda x: x.max(axis=1), [a], eps=1e-6)

    def test_reshape_gradients(self, rng):
        a = _tensor(rng, (2, 6))
        assert check_gradients(lambda x: x.reshape(3, 4), [a])

    def test_transpose_gradients(self, rng):
        a = _tensor(rng, (2, 3, 4))
        assert check_gradients(lambda x: x.transpose((2, 0, 1)), [a])

    def test_getitem_gradients(self, rng):
        a = _tensor(rng, (4, 5))
        assert check_gradients(lambda x: x[1:3, ::2], [a])

    def test_fancy_index_accumulates(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        picked = a[np.array([0, 0, 2]), np.array([1, 1, 0])]
        picked.sum().backward()
        assert a.grad[0, 1] == pytest.approx(2.0)
        assert a.grad[2, 0] == pytest.approx(1.0)


class TestLinearAlgebraAndNonlinearities:
    def test_matmul_gradients(self, rng):
        a, b = _tensor(rng, (3, 4)), _tensor(rng, (4, 2))
        assert check_gradients(lambda x, y: x @ y, [a, b])

    def test_relu_gradients(self, rng):
        a = _tensor(rng, (5, 5))
        assert check_gradients(lambda x: x.relu(), [a], eps=1e-6)

    def test_exp_log_roundtrip(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(4,)), requires_grad=True)
        out = a.exp().log()
        np.testing.assert_allclose(out.data, a.data)
        assert check_gradients(lambda x: x.exp(), [a])
        assert check_gradients(lambda x: x.log(), [a])

    def test_sqrt_gradients(self, rng):
        a = Tensor(rng.uniform(0.5, 4.0, size=(4,)), requires_grad=True)
        assert check_gradients(lambda x: x.sqrt(), [a])


class TestStructuralOps:
    def test_concat_gradients(self, rng):
        a, b = _tensor(rng, (2, 3)), _tensor(rng, (2, 2))
        assert check_gradients(lambda x, y: concat([x, y], axis=1), [a, b])

    def test_stack_gradients(self, rng):
        # the stack FBNet's mixture used, kept as the mixture tests' reference
        a, b = _tensor(rng, (2, 3)), _tensor(rng, (2, 3))
        assert check_gradients(lambda x, y: tape_reference.stack([x, y], axis=0), [a, b])

    def test_pad2d_gradients(self, rng):
        a = _tensor(rng, (1, 2, 3, 3))
        assert check_gradients(lambda x: pad2d(x, 2), [a])

    def test_pad2d_zero_padding_is_identity(self, rng):
        a = _tensor(rng, (1, 2, 3, 3))
        assert pad2d(a, 0) is a


class TestTapeSemantics:
    def test_backward_requires_scalar(self, rng):
        a = _tensor(rng, (3,))
        with pytest.raises(AutogradError):
            (a * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(AutogradError):
            Tensor(np.ones(3)).backward()

    def test_gradient_shape_mismatch_raises(self, rng):
        a = _tensor(rng, (3,))
        out = a * 2
        with pytest.raises(ShapeError):
            out.backward(np.ones((4,)))

    def test_gradient_accumulation_over_reuse(self, rng):
        a = _tensor(rng, (3,))
        out = (a * a + a).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, 2 * a.data + 1)

    def test_detach_cuts_graph(self, rng):
        a = _tensor(rng, (3,))
        out = (a.detach() * a).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, a.data)

    def test_zero_grad_clears(self, rng):
        a = _tensor(rng, (3,))
        (a * 2).sum().backward()
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None

    def test_diamond_graph_gradients(self, rng):
        a = _tensor(rng, (3,))
        left = a * 2
        right = a * 3
        (left + right).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(3, 5.0))

    def test_no_grad_inputs_do_not_accumulate(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=False)
        b = _tensor(rng, (3,))
        (a * b).sum().backward()
        assert a.grad is None and b.grad is not None


class TestNoGrad:
    def test_records_no_tape_and_keeps_values(self, rng):
        a = _tensor(rng, (3,))
        with no_grad():
            inside = (a * a + a).sum()
        assert not inside.requires_grad and inside._parents == ()
        outside = (a * a + a).sum()
        assert outside.requires_grad
        assert inside.data.tobytes() == outside.data.tobytes()
        with pytest.raises(AutogradError):
            inside.backward()

    def test_nests_and_restores_on_error(self, rng):
        a = _tensor(rng, (3,))
        with pytest.raises(RuntimeError):
            with no_grad():
                with no_grad():
                    pass
                assert not (a * 2).requires_grad
                raise RuntimeError
        assert (a * 2).requires_grad

    def test_is_per_thread(self, rng):
        a = _tensor(rng, (3,))
        seen = []
        with no_grad():
            worker = threading.Thread(target=lambda: seen.append((a * 2).requires_grad))
            worker.start()
            worker.join()
        assert seen == [True]
