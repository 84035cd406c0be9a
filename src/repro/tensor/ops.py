"""Neural-network operations built on the autograd :class:`Tensor`.

The convolution family implemented here mirrors the operators discussed in
the paper (standard, grouped, bottlenecked and depthwise convolutions are
all expressed through :func:`conv2d` with appropriate ``groups`` and channel
counts).  Convolutions use im2col + matmul so that forward and backward
passes over the NumPy substrate stay fast enough for the experiments.

The forward and input-gradient contractions call ``np.matmul`` on the
im2col operands, which reads them in place and returns NCHW directly;
``np.einsum(..., optimize=True)`` copies the whole column tensor into
transposed order and then copies its result again (DESIGN.md §2 has the
measurements).  The tape keeps no columns: a convolution's backward
closure holds its input, which is a parent of its output anyway, and
rebuilds the columns only when the weight needs a gradient.  The dense
weight gradient is one ``np.matmul`` against columns rebuilt in
``(C·KH·KW, N·OH·OW)`` layout; the grouped one stays an einsum over the
forward's layout.  Inside :func:`shared_columns`,
convolutions of one recorded input build its columns once per kept
channel count and stride.  :func:`weighted_sum` mixes tensors as one
tape node, keeping no product or partial sum.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.errors import ShapeError
from repro.tensor.tensor import Tensor, pad2d

__all__ = [
    "linear",
    "conv2d",
    "batch_norm2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "dropout",
    "weighted_sum",
    "upsample_nearest2d",
    "im2col",
    "col2im",
    "conv_output_size",
    "shared_columns",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------
def _windows(x: np.ndarray, kernel: tuple[int, int], stride: int,
             padding: int) -> np.ndarray:
    """The ``(N, C, KH, KW, OH, OW)`` window view over the zero-padded ``x``."""
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding > 0:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, stride * sh, stride * sw), writeable=False)


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Rearrange image patches into columns.

    Input ``x`` has shape ``(N, C, H, W)``; the result has shape
    ``(N, C, KH, KW, OH, OW)``.  The columns are one strided window view
    over the (zero-padded) input, copied once into a contiguous array.
    """
    return _windows(x, kernel, stride, padding).copy()


def _gradient_columns(x: np.ndarray, kernel: tuple[int, int], stride: int,
                      padding: int) -> np.ndarray:
    """:func:`im2col` of ``x`` laid out as one ``(C·KH·KW, N·OH·OW)`` matrix.

    The dense weight gradient contracts the output gradient with the
    columns over the batch and every output position; in this layout that
    is a single matmul against the columns' transpose.
    """
    windows = _windows(x, kernel, stride, padding)
    n, c, kh, kw, oh, ow = windows.shape
    return np.ascontiguousarray(windows.transpose(1, 2, 3, 0, 4, 5)).reshape(
        c * kh * kw, n * oh * ow)


def col2im(cols: np.ndarray, input_shape: tuple[int, int, int, int],
           kernel: tuple[int, int], stride: int, padding: int) -> np.ndarray:
    """Inverse of :func:`im2col` (accumulating overlapping patches)."""
    n, c, h, w = input_shape
    kh, kw = kernel
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


class _ColumnShare(threading.local):
    """The input :func:`shared_columns` shares, and its columns, per thread."""

    source: np.ndarray | None = None
    columns: dict | None = None


_SHARE = _ColumnShare()


@contextmanager
def shared_columns(source: np.ndarray) -> Iterator[None]:
    """Build the im2col columns of ``source`` once per use inside the scope.

    Inside the scope, :func:`conv2d` over ``source`` or over a leading
    channel slice ``source[:, :c]`` takes its columns from a table keyed by
    ``(c, kernel, stride, padding)``: operators that convolve one recorded
    input with the same kept channels and stride build them once.  The
    columns are what :func:`im2col` returns for that slice, so every result
    is bit-identical; the table is dropped when the scope ends.  Nothing
    may write into ``source`` inside the scope.

    Example::

        with shared_columns(record.input_activation):
            scores = [candidate_layer_fisher(record, op) for op in operators]
    """
    previous = _SHARE.source, _SHARE.columns
    _SHARE.source, _SHARE.columns = source, {}
    try:
        yield
    finally:
        _SHARE.source, _SHARE.columns = previous


def _columns(x: np.ndarray, kernel: tuple[int, int], stride: int,
             padding: int) -> np.ndarray:
    """:func:`im2col` of ``x``, from the shared table when ``x`` is a slice of its source."""
    source = _SHARE.source
    # A view that starts where ``source`` starts, with its strides and all
    # its dimensions but the channels, is ``source[:, :c]``.
    if (source is None or x.dtype != source.dtype or x.strides != source.strides
            or x.shape[0] != source.shape[0] or x.shape[2:] != source.shape[2:]
            or x.shape[1] > source.shape[1] or x.ctypes.data != source.ctypes.data):
        return im2col(x, kernel, stride, padding)
    key = (x.shape[1], kernel, stride, padding)
    columns = _SHARE.columns.get(key)
    if columns is None:
        columns = _SHARE.columns[key] = im2col(x, kernel, stride, padding)
    return columns


# ---------------------------------------------------------------------------
# Dense / linear
# ---------------------------------------------------------------------------
def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` for ``x`` of shape ``(N, in)``."""
    out = x @ weight.transpose((1, 0))
    if bias is not None:
        out = out + bias
    return out


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------
def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2-D convolution over NCHW input.

    ``weight`` has shape ``(C_out, C_in // groups, KH, KW)``.  Grouped and
    depthwise convolutions are expressed through ``groups``.  The backward
    closure keeps no im2col columns (see the module docstring).
    """
    n, c_in, h, w = x.shape
    c_out, c_in_group, kh, kw = weight.shape
    if c_in % groups != 0 or c_out % groups != 0:
        raise ShapeError(
            f"channels ({c_in} in, {c_out} out) must be divisible by groups={groups}"
        )
    if c_in_group != c_in // groups:
        raise ShapeError(
            f"weight expects {c_in_group} input channels per group but input provides "
            f"{c_in // groups}"
        )

    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    k = c_in * kh * kw
    k_group = k // groups
    cpg_out = c_out // groups

    cols = _columns(x.data, (kh, kw), stride, padding)  # (N, C, KH, KW, OH, OW)
    if groups == 1:
        w_mat = weight.data.reshape(c_out, k)
        out_data = np.matmul(w_mat, cols.reshape(n, k, oh * ow)).reshape(n, c_out, oh, ow)
    else:
        cols_g = cols.reshape(n, groups, k_group, oh * ow)
        w_g = weight.data.reshape(groups, cpg_out, k_group)
        out_data = np.matmul(w_g, cols_g).reshape(n, c_out, oh, ow)

    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)
    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        grad = grad.reshape(n, c_out, oh, ow)
        if weight.requires_grad:
            if groups == 1:
                # (K, N·P) @ (N·P, O), transposed: the operands and the
                # order np.einsum("nop,nkp->ok", optimize=True) hands to
                # matmul, without its copy of the columns.
                cols_t = _gradient_columns(x.data, (kh, kw), stride, padding)
                grad_t = grad.reshape(n, c_out, oh * ow).transpose(0, 2, 1).reshape(
                    n * oh * ow, c_out)
                w_grad = np.matmul(cols_t, grad_t).T
            else:
                # A batched matmul does not match this einsum's bits on
                # every grouped shape (DESIGN.md §2), so the einsum stays,
                # over columns in the forward's layout.
                grad_g = grad.reshape(n, groups, cpg_out, oh * ow)
                cols_g = im2col(x.data, (kh, kw), stride, padding).reshape(
                    n, groups, k_group, oh * ow)
                w_grad = np.einsum("ngop,ngkp->gok", grad_g, cols_g, optimize=True)
            weight._accumulate(w_grad.reshape(weight.shape))
        if x.requires_grad:
            if groups == 1:
                w_mat_local = weight.data.reshape(c_out, k)
                cols_grad = np.matmul(w_mat_local.T, grad.reshape(n, c_out, oh * ow))
            else:
                w_g_local = weight.data.reshape(groups, cpg_out, k_group)
                cols_grad = np.matmul(w_g_local.transpose(0, 2, 1),
                                      grad.reshape(n, groups, cpg_out, oh * ow))
            cols_grad = cols_grad.reshape(n, c_in, kh, kw, oh, ow)
            x._accumulate(col2im(cols_grad, x.shape, (kh, kw), stride, padding))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))

    return Tensor._make(out_data, parents, backward)


# ---------------------------------------------------------------------------
# Normalisation
# ---------------------------------------------------------------------------
def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                 running_var: np.ndarray, *, training: bool, momentum: float = 0.1,
                 eps: float = 1e-5) -> Tensor:
    """Batch normalisation over the channel dimension of NCHW input.

    ``running_mean`` / ``running_var`` are plain arrays updated in place when
    ``training`` is true (matching the usual framework semantics).
    """
    n, c, h, w = x.shape
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var

    mean_b = mean.reshape(1, c, 1, 1)
    inv_std = 1.0 / np.sqrt(var.reshape(1, c, 1, 1) + eps)
    x_hat = (x.data - mean_b) * inv_std
    out_data = gamma.data.reshape(1, c, 1, 1) * x_hat + beta.data.reshape(1, c, 1, 1)

    def backward(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            gamma._accumulate((grad * x_hat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            g = gamma.data.reshape(1, c, 1, 1)
            if training:
                m = n * h * w
                dx_hat = grad * g
                term1 = dx_hat
                term2 = dx_hat.mean(axis=(0, 2, 3), keepdims=True)
                term3 = x_hat * (dx_hat * x_hat).mean(axis=(0, 2, 3), keepdims=True)
                x._accumulate(inv_std * (term1 - term2 - term3))
            else:
                x._accumulate(grad * g * inv_std)

    return Tensor._make(out_data, (x, gamma, beta), backward)


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Max pooling over NCHW input."""
    stride = stride or kernel
    n, c, h, w = x.shape
    cols = im2col(x.data, (kernel, kernel), stride, padding)  # (N, C, K, K, OH, OW)
    oh, ow = cols.shape[-2:]
    cols_flat = cols.reshape(n, c, kernel * kernel, oh, ow)
    arg = cols_flat.argmax(axis=2)
    out_data = np.take_along_axis(cols_flat, arg[:, :, None], axis=2).squeeze(axis=2)

    def backward(grad: np.ndarray) -> None:
        cols_grad = np.zeros_like(cols_flat)
        np.put_along_axis(cols_grad, arg[:, :, None], grad[:, :, None], axis=2)
        cols_grad = cols_grad.reshape(n, c, kernel, kernel, oh, ow)
        x._accumulate(col2im(cols_grad, x.shape, (kernel, kernel), stride, padding))

    return Tensor._make(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Average pooling over NCHW input."""
    stride = stride or kernel
    n, c, h, w = x.shape
    cols = im2col(x.data, (kernel, kernel), stride, padding)
    oh, ow = cols.shape[-2:]
    out_data = cols.mean(axis=(2, 3))

    def backward(grad: np.ndarray) -> None:
        expand = np.broadcast_to(
            grad[:, :, None, None, :, :] / (kernel * kernel),
            (n, c, kernel, kernel, oh, ow),
        ).copy()
        x._accumulate(col2im(expand, x.shape, (kernel, kernel), stride, padding))

    return Tensor._make(out_data, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions, returning shape ``(N, C)``."""
    return x.mean(axis=(2, 3))


# ---------------------------------------------------------------------------
# Classification heads
# ---------------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits ``(N, K)`` and integer labels ``(N,)``."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (N, K) logits, got {logits.shape}")
    n = logits.shape[0]
    log_probs = log_softmax(logits, axis=1)
    picked = log_probs[np.arange(n), labels]
    return -picked.mean()


def upsample_nearest2d(x: Tensor, factor: int) -> Tensor:
    """Nearest-neighbour upsampling of NCHW input by an integer factor.

    Used by the spatial-bottleneck operator: a spatially bottlenecked
    convolution computes outputs on a coarser grid and upsamples back.
    """
    if factor == 1:
        return x
    n, c, h, w = x.shape
    data = np.repeat(np.repeat(x.data, factor, axis=2), factor, axis=3)

    def backward(grad: np.ndarray) -> None:
        reshaped = grad.reshape(n, c, h, factor, w, factor)
        x._accumulate(reshaped.sum(axis=(3, 5)))

    return Tensor._make(data, (x,), backward)


def weighted_sum(tensors: list[Tensor], weights: Tensor) -> Tensor:
    """``tensors[0] * weights[0] + tensors[1] * weights[1] + ...`` as one node.

    The values and gradients are those of adding the products one by one,
    in order, but the tape keeps only the operands: no product and no
    partial sum stays alive until backward.  ``weights`` is 1-D, one
    scalar per tensor.
    """
    data = tensors[0].data * weights.data[0]
    for tensor, weight in zip(tensors[1:], weights.data[1:]):
        data = data + tensor.data * weight

    def backward(grad: np.ndarray) -> None:
        axes = tuple(range(grad.ndim))
        weights_grad = np.empty_like(weights.data)
        for index, tensor in enumerate(tensors):
            tensor._accumulate(grad * weights.data[index])
            weights_grad[index] = (grad * tensor.data).sum(axis=axes)
        weights._accumulate(weights_grad)

    return Tensor._make(data, (*tensors, weights), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout."""
    if not training or rate <= 0.0:
        return x
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask)
