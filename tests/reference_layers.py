"""Plain conv and batch-norm references, kept as test oracles.

`forgenet.layers` carries the only conv and BN implementations the program
runs. The conv functions are the earlier path it replaced: a strided
`sliding_window_view` im2col, one (n*ho*wo, c*9) patch GEMM whose output
is an NCHW view over NHWC memory, and a backward pass that always computes
the input gradient. The BN functions are the earlier two-mode forward
(batch statistics in training, stored statistics at inference) and the
backward that sums over dxhat = upstream * gamma. They differ from the
originals in reading epsilon from the module constant, in returning the
same gradient tuples as `forgenet.layers`, with no conv bias gradient, in
taking the same `out` arguments, and in writing no layer tensor: the
training forward returns the batch mean and variance in its cache, as
`forgenet.layers` does, for the trainer to average into the stored
statistics, and the cache's centred values, from which backward forms xhat.
Neither writes the cache. Tests compare the program's conv, BN and folded
inference against them.
"""

from __future__ import annotations

import numpy as np

from forgenet.errors import ContractError, ShapeError
from forgenet.layers import (
    BN_EPSILON,
    KERNEL,
    BatchNormCache,
    BatchNormLayer,
    ConvLayer,
    require_rank,
)


def _im2col(x: np.ndarray) -> np.ndarray:
    """(n, c, h, w) -> (n*(h-2)*(w-2), c*9) patch matrix."""
    win = np.lib.stride_tricks.sliding_window_view(x, (KERNEL, KERNEL), axis=(2, 3))
    n, c, ho, wo = win.shape[:4]
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * KERNEL * KERNEL)


def conv2d_forward(
    x: np.ndarray, layer: ConvLayer, out: np.ndarray | None = None
) -> np.ndarray:
    """out(i,f,y,x) = bias(f) + sum_{c,dy,dx} w(f,c,dy,dx) * x(i,c,y+dy,x+dx).
    With `out` given, the result is copied into it and `out` returned, as
    `forgenet.layers.conv2d_forward` returns it."""
    require_rank(x, 4, "conv input")
    n, c, h, w = x.shape
    if h < KERNEL or w < KERNEL:
        raise ShapeError(f"conv input spatial dims must be >= {KERNEL}, got {h}x{w}")
    if c != layer.in_channels:
        raise ShapeError(
            f"conv input has {c} channels, layer expects {layer.in_channels}"
        )
    ho, wo = h - KERNEL + 1, w - KERNEL + 1
    k = layer.filters
    cols = _im2col(x)
    wmat = layer.weights.reshape(k, -1)
    y = cols @ wmat.T
    y = y.reshape(n, ho, wo, k).transpose(0, 3, 1, 2)
    y = y + layer.bias.reshape(1, k, 1, 1)
    if out is None:
        return y
    out[...] = y
    return out


def conv2d_backward(
    x: np.ndarray, layer: ConvLayer, upstream: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(d_input, d_weights) of conv2d_forward under sum(upstream * output).
    With `out` given, d_input is copied into it and `out` returned."""
    require_rank(x, 4, "conv input")
    require_rank(upstream, 4, "conv upstream")
    n, c, h, w = x.shape
    ho, wo = h - KERNEL + 1, w - KERNEL + 1
    k = layer.filters
    if upstream.shape != (n, k, ho, wo):
        raise ShapeError(
            f"conv upstream shape {upstream.shape} != forward output "
            f"shape {(n, k, ho, wo)}"
        )
    cols = _im2col(x)
    up_mat = upstream.transpose(0, 2, 3, 1).reshape(n * ho * wo, k)
    wmat = layer.weights.reshape(k, -1)

    d_weights = (up_mat.T @ cols).reshape(layer.weights.shape)

    dcols = (up_mat @ wmat).reshape(n, ho, wo, c, KERNEL, KERNEL)
    dcols = dcols.transpose(0, 3, 1, 2, 4, 5)  # (n, c, ho, wo, 3, 3)
    d_input = np.zeros_like(x)
    for dy in range(KERNEL):
        for dx in range(KERNEL):
            d_input[:, :, dy : dy + ho, dx : dx + wo] += dcols[:, :, :, :, dy, dx]
    if out is not None:
        out[...] = d_input
        d_input = out
    return d_input, d_weights


def batchnorm_forward(
    x: np.ndarray, layer: BatchNormLayer, training: bool
) -> tuple[np.ndarray, BatchNormCache | None]:
    """Per-channel standardization over (n, h, w), then affine gamma/beta.

    Training mode normalizes with batch statistics (biased variance) and
    returns the backward cache, which holds them. Inference mode uses the
    stored statistics and returns None for the cache. Neither mode writes
    the layer.
    """
    require_rank(x, 4, "batchnorm input")
    n, c, h, w = x.shape
    if c != layer.channels:
        raise ShapeError(f"batchnorm input has {c} channels, layer has {layer.channels}")
    if training and n * h * w < 2:
        raise ContractError(
            f"batchnorm training mode needs >= 2 samples per channel, got {n * h * w}"
        )
    if training:
        mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    else:
        mean, var = layer.moving_mean, layer.moving_var
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    centred = x - mean.reshape(1, c, 1, 1)
    xhat = centred * inv_std.reshape(1, c, 1, 1)
    out = layer.gamma.reshape(1, c, 1, 1) * xhat + layer.beta.reshape(1, c, 1, 1)
    if not training:
        return out, None
    return out, BatchNormCache(centred=centred, mean=mean, var=var, inv_std=inv_std)


def batchnorm_backward(
    cache: BatchNormCache | None, layer: BatchNormLayer, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_input, d_gamma, d_beta) in training mode, including the
    mean/variance dependence."""
    if cache is None:
        raise ContractError("batchnorm_backward requires a training-mode cache")
    if np.any(cache.var == 0.0):
        # The normalized output is constant in every direction that keeps the
        # channel constant; gradients through 1/sqrt(var+eps) are meaningless.
        raise ContractError(
            "batchnorm gradient undefined for zero-variance channel"
        )
    require_rank(upstream, 4, "batchnorm upstream")
    if upstream.shape != cache.centred.shape:
        raise ShapeError(
            f"batchnorm upstream shape {upstream.shape} != {cache.centred.shape}"
        )
    c = layer.channels
    n, _, h, w = upstream.shape
    count = n * h * w
    inv_std = cache.inv_std.reshape(1, c, 1, 1)
    xhat = cache.centred * inv_std

    d_gamma = (upstream * xhat).sum(axis=(0, 2, 3))
    d_beta = upstream.sum(axis=(0, 2, 3))

    dxhat = upstream * layer.gamma.reshape(1, c, 1, 1)
    sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
    d_input = (inv_std / count) * (count * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    return d_input, d_gamma, d_beta
