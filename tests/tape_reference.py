"""Frozen references for the lean tape: what the tape held before — do not edit.

* :func:`conv2d`: before the tape was made lean, ``ops.conv2d``'s backward
  closure held the ``(N, C, KH, KW, OH, OW)`` columns its forward pass
  built, contracted them with the output gradient in an einsum for the
  weight gradient, and scattered every input gradient back through the
  ``col2im`` loop.
* :func:`stacked_mixture`: FBNet's ``MixedOp`` stacked its candidates'
  outputs into one ``(K, N, C, H, W)`` tensor, scaled it by the softmax
  weights and summed over the candidates, with the differentiable
  :func:`stack` that ``repro.tensor`` then provided.

The tape tests pin today's ``conv2d`` and ``ops.weighted_sum`` to these bit
for bit: values and every gradient, save a weight gradient over a single
output position, which is pinned in value.  They share nothing with
``repro.tensor.ops`` but the :class:`Tensor`.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor


def _output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: int, padding: int) -> np.ndarray:
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = _output_size(h, kh, stride, padding)
    ow = _output_size(w, kw, stride, padding)
    if padding > 0:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh, sw, stride * sh, stride * sw), writeable=False)
    return windows.copy()


def col2im(cols: np.ndarray, input_shape: tuple[int, int, int, int],
           kernel: tuple[int, int], stride: int, padding: int) -> np.ndarray:
    n, c, h, w = input_shape
    kh, kw = kernel
    oh = _output_size(h, kh, stride, padding)
    ow = _output_size(w, kw, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, *,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """The convolution whose backward closure holds its columns."""
    n, c_in, h, w = x.shape
    c_out, c_in_group, kh, kw = weight.shape
    oh = _output_size(h, kh, stride, padding)
    ow = _output_size(w, kw, stride, padding)

    cols = im2col(x.data, (kh, kw), stride, padding)

    if groups == 1:
        cols_mat = cols.reshape(n, c_in * kh * kw, oh * ow)
        w_mat = weight.data.reshape(c_out, c_in * kh * kw)
        out_data = np.matmul(w_mat, cols_mat).reshape(n, c_out, oh, ow)
    else:
        cpg_in = c_in // groups
        cpg_out = c_out // groups
        cols_g = cols.reshape(n, groups, cpg_in * kh * kw, oh * ow)
        w_g = weight.data.reshape(groups, cpg_out, cpg_in * kh * kw)
        out_data = np.matmul(w_g, cols_g).reshape(n, c_out, oh, ow)

    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)
    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        grad = grad.reshape(n, c_out, oh, ow)
        if groups == 1:
            grad_mat = grad.reshape(n, c_out, oh * ow)
            cols_mat_local = cols.reshape(n, c_in * kh * kw, oh * ow)
            if weight.requires_grad:
                w_grad = np.einsum("nop,nkp->ok", grad_mat, cols_mat_local, optimize=True)
                weight._accumulate(w_grad.reshape(weight.shape))
            if x.requires_grad:
                w_mat_local = weight.data.reshape(c_out, c_in * kh * kw)
                cols_grad = np.matmul(w_mat_local.T, grad_mat)
                cols_grad = cols_grad.reshape(n, c_in, kh, kw, oh, ow)
                x._accumulate(col2im(cols_grad, x.shape, (kh, kw), stride, padding))
        else:
            cpg_in = c_in // groups
            cpg_out = c_out // groups
            grad_g = grad.reshape(n, groups, cpg_out, oh * ow)
            cols_g_local = cols.reshape(n, groups, cpg_in * kh * kw, oh * ow)
            if weight.requires_grad:
                w_grad = np.einsum("ngop,ngkp->gok", grad_g, cols_g_local, optimize=True)
                weight._accumulate(w_grad.reshape(weight.shape))
            if x.requires_grad:
                w_g_local = weight.data.reshape(groups, cpg_out, cpg_in * kh * kw)
                cols_grad = np.matmul(w_g_local.transpose(0, 2, 1), grad_g)
                cols_grad = cols_grad.reshape(n, c_in, kh, kw, oh, ow)
                x._accumulate(col2im(cols_grad, x.shape, (kh, kw), stride, padding))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))

    return Tensor._make(out_data, parents, backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (differentiable)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, slices):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(data, tensors, backward)


def stacked_mixture(tensors: list[Tensor], weights: Tensor) -> Tensor:
    """The candidates' (N, C, H, W) outputs mixed through one (K, N, C, H, W) stack."""
    stacked = stack(tensors, axis=0)
    weighted = stacked * weights.reshape(-1, 1, 1, 1, 1)
    return weighted.sum(axis=0)
