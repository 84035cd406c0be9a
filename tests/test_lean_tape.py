"""The lean autograd tape: what a convolution keeps, and what backward lets go.

``tape_reference.py`` freezes the convolution whose backward closure held
its im2col columns; today's ``conv2d`` must give the same forward output,
input gradient and weight gradient bit for bit while keeping only its
input (over a single output position, the weight gradient in value).  It
also freezes FBNet's stacked mixture, which ``ops.weighted_sum`` must
match.  ``Tensor.backward`` consumes the tape: interior nodes drop their
closures, parents and gradients, leaves and recorded convolution outputs
keep their gradients, and a second pass through the released graph is an
error.  A Fisher profile's traced peak is bounded by its activation bytes.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

import tape_reference
from repro import nn
from repro.errors import AutogradError
from repro.fisher import fisher_profile
from repro.models import resnet18
from repro.tensor import Tensor, ops

#: (kernel, stride, padding, groups); "dw" is one group per input channel
REFERENCE_CASES = list(itertools.product((1, 3), (1, 2), (0, 1), (1, 2, "dw")))


def _convolve(conv, x, weight, bias, grad, stride, padding, groups):
    inputs = Tensor(x, requires_grad=True)
    kernel = Tensor(weight.copy(), requires_grad=True)
    offset = Tensor(bias.copy(), requires_grad=True)
    out = conv(inputs, kernel, offset, stride=stride, padding=padding, groups=groups)
    out.backward(grad)
    return out.data, inputs.grad, kernel.grad, offset.grad


class TestFrozenReference:
    @pytest.mark.parametrize("batch", (1, 3))
    @pytest.mark.parametrize("kernel,stride,padding,groups", REFERENCE_CASES)
    def test_matches_the_columns_on_the_tape_bit_for_bit(
            self, rng, batch, kernel, stride, padding, groups):
        c_in, c_out = 8, 16
        groups = c_in if groups == "dw" else groups
        x = rng.normal(size=(batch, c_in, 7, 6))
        weight = rng.normal(size=(c_out, c_in // groups, kernel, kernel))
        bias = rng.normal(size=(c_out,))
        oh = ops.conv_output_size(7, kernel, stride, padding)
        ow = ops.conv_output_size(6, kernel, stride, padding)
        # relu-masked, as inside a network: it carries signed zeros
        grad = rng.normal(size=(batch, c_out, oh, ow))
        grad *= rng.random(grad.shape) > 0.5
        lean = _convolve(ops.conv2d, x, weight, bias, grad, stride, padding, groups)
        frozen = _convolve(tape_reference.conv2d, x, weight, bias, grad, stride, padding,
                           groups)
        for name, actual, expected in zip(("output", "input grad", "weight grad", "bias grad"),
                                          lean, frozen):
            assert actual.tobytes() == expected.tobytes(), name

    @pytest.mark.parametrize("kernel,groups", [(1, 1), (3, 1), (1, 4), (3, 2)])
    def test_matches_on_a_channel_slice(self, rng, kernel, groups):
        # Input bottlenecking convolves a leading channel slice in place.
        x = rng.normal(size=(2, 16, 6, 6))[:, :8]
        weight = rng.normal(size=(8, 8 // groups, kernel, kernel))
        bias = rng.normal(size=(8,))
        grad = rng.normal(size=(2, 8, 6, 6))
        padding = kernel // 2
        lean = _convolve(ops.conv2d, x, weight, bias, grad, 1, padding, groups)
        frozen = _convolve(tape_reference.conv2d, x, weight, bias, grad, 1, padding, groups)
        assert [a.tobytes() for a in lean] == [b.tobytes() for b in frozen]

    @pytest.mark.parametrize("groups", (1, 2))
    def test_matches_at_a_single_output_position(self, rng, groups):
        # Batch 1 over a 3x3 input: the frozen weight gradient multiplies
        # where matmul sums one product, so a zero entry may carry the other
        # sign; every value is equal.
        x = rng.normal(size=(1, 4, 3, 3))
        weight = rng.normal(size=(6, 4 // groups, 3, 3))
        bias = rng.normal(size=(6,))
        grad = rng.normal(size=(1, 6, 1, 1))
        grad *= rng.random(grad.shape) > 0.5
        lean = _convolve(ops.conv2d, x, weight, bias, grad, 1, 0, groups)
        frozen = _convolve(tape_reference.conv2d, x, weight, bias, grad, 1, 0, groups)
        for name, actual, expected in zip(("output", "input grad", "bias grad"),
                                          lean[:2] + lean[3:], frozen[:2] + frozen[3:]):
            assert actual.tobytes() == expected.tobytes(), name
        np.testing.assert_array_equal(lean[2], frozen[2])


@pytest.fixture
def column_builds(monkeypatch):
    """Names of the column builders and scatterers conv2d calls, in order."""
    calls = []
    for name in ("im2col", "col2im", "_gradient_columns"):
        original = getattr(ops, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(ops, name, counted)
    return calls


class TestColumns:
    @pytest.mark.parametrize("groups", (1, 2))
    def test_the_backward_closure_holds_no_array(self, rng, groups):
        x = Tensor(rng.normal(size=(2, 4, 6, 6)), requires_grad=True)
        weight = Tensor(rng.normal(size=(8, 4 // groups, 3, 3)), requires_grad=True)
        out = ops.conv2d(x, weight, padding=1, groups=groups)
        cells = [cell.cell_contents for cell in out._backward.__closure__]
        assert not any(isinstance(value, np.ndarray) for value in cells)

    def test_columns_are_rebuilt_only_for_a_weight_gradient(self, rng, column_builds):
        x = Tensor(rng.normal(size=(2, 4, 6, 6)), requires_grad=True)
        weight = Tensor(rng.normal(size=(8, 4, 3, 3)))
        out = ops.conv2d(x, weight, padding=1)
        assert column_builds == ["im2col"]
        out.backward(np.ones(out.shape))
        assert column_builds == ["im2col", "col2im"]

        column_builds.clear()
        weight.requires_grad = True
        ops.conv2d(x, weight, padding=1).backward(np.ones(out.shape))
        assert column_builds == ["im2col", "_gradient_columns", "col2im"]

    def test_a_fisher_profile_rebuilds_no_columns(self, rng, column_builds):
        model = resnet18(width_multiplier=0.125)
        images = rng.normal(size=(2, 3, 8, 8))
        fisher_profile(model, images, np.array([1, 2]))
        assert "_gradient_columns" not in column_builds
        # each convolution's columns for its forward, none for its weight
        assert column_builds.count("im2col") == sum(
            1 for _, conv in model.named_modules() if isinstance(conv, nn.Conv2d))


class TestWeightedSum:
    """FBNet's mixture, against the (K, N, C, H, W) stack it replaced."""

    def _mix(self, rng, mix):
        arrays = [rng.normal(size=(2, 3, 4, 4)) for _ in range(4)]
        shared = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        alpha = Tensor(rng.normal(size=4), requires_grad=True)
        weights = ops.softmax(alpha.reshape(1, -1), axis=1).reshape(-1)
        # every operand reads one shared input, as a MixedOp's candidates do
        tensors = [shared * Tensor(array) for array in arrays]
        out = mix(tensors, weights)
        out.backward(rng.normal(size=out.shape))
        return out.data, alpha.grad, shared.grad

    def test_matches_the_stacked_mixture_bit_for_bit(self):
        fused = self._mix(np.random.default_rng(3), ops.weighted_sum)
        frozen = self._mix(np.random.default_rng(3), tape_reference.stacked_mixture)
        for name, actual, expected in zip(("output", "logit grad", "input grad"),
                                          fused, frozen):
            assert actual.tobytes() == expected.tobytes(), name

    def test_the_tape_keeps_only_the_operands(self, rng):
        tensors = [Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(3)]
        weights = Tensor(rng.normal(size=3), requires_grad=True)
        out = ops.weighted_sum(tensors, weights)
        assert out._parents == (*tensors, weights)
        cells = [cell.cell_contents for cell in out._backward.__closure__]
        assert not any(isinstance(value, np.ndarray) for value in cells)


def _graph(a, b):
    hidden = (a @ b).relu()
    return hidden, (hidden * hidden).sum()


def _mlp_graph(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    return (a, b) + _graph(a, b)


class TestRelease:
    def test_interior_nodes_are_released_and_leaves_keep_their_grads(self, rng):
        a, b, hidden, loss = _mlp_graph(rng)
        loss.backward()
        assert a.grad is not None and b.grad is not None
        for node in (hidden, loss):
            assert node._backward is None and node._parents == () and node.grad is None
        # the values stay readable
        assert float(loss.data) == float((hidden.data ** 2).sum())

    def test_a_marked_node_keeps_its_gradient(self, rng):
        a, b, hidden, loss = _mlp_graph(rng)
        hidden.retain_grad()
        loss.backward()
        np.testing.assert_array_equal(hidden.grad, 2 * hidden.data)
        assert hidden._parents == ()

    def test_a_second_backward_raises(self, rng):
        a, b, hidden, loss = _mlp_graph(rng)
        loss.backward()
        with pytest.raises(AutogradError, match="released"):
            loss.backward()
        with pytest.raises(AutogradError, match="released"):
            (hidden * 2.0).sum().backward()
        # a fresh forward pass records a fresh tape
        grads = a.grad.copy()
        a.zero_grad()
        _graph(a, b)[1].backward()
        assert a.grad.tobytes() == grads.tobytes()

    def test_recorded_convolution_outputs_keep_their_gradients(self, rng):
        conv = nn.Conv2d(3, 4, 3, padding=1, rng=rng)
        conv.record_activations = True
        x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
        hidden = conv(x).relu()
        hidden.sum().backward()
        assert conv.last_output.grad is not None
        assert conv.last_output._backward is None and conv.last_output._parents == ()
        assert hidden.grad is None
        assert conv.weight.grad is not None and x.grad is not None


def test_a_fisher_profile_peaks_under_four_times_its_activation_bytes(rng):
    """The traced peak of one profile pass, against the bytes of every conv's
    input and output.

    The pass must hold each convolution's input and output and, until
    backward reaches it, what batch norm and relu keep: about twice the
    activation bytes.  With a 3x3 convolution's columns on the tape it
    held over eight times as much.
    """
    model = resnet18(width_multiplier=0.25)
    images = rng.normal(size=(4, 3, 16, 16))
    labels = np.array([0, 3, 5, 7])
    fisher_profile(model, images, labels)  # first-call allocations stay out
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        profile = fisher_profile(model, images, labels)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    activation_bytes = sum(record.input_activation.nbytes + record.output_gradient.nbytes
                           for record in profile.layers.values())
    assert len(profile.layers) == 20
    assert peak < 4 * activation_bytes, (peak, activation_bytes)
