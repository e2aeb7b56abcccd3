"""Plain conv reference: the original im2col/GEMM path, kept as a test oracle.

`forgenet.layers` carries the only conv implementation the program runs.
These functions are the earlier path it replaced, unchanged: a strided
`sliding_window_view` im2col, one (n*ho*wo, c*9) patch GEMM whose output is
an NCHW view over NHWC memory, and a backward pass that always computes the
input gradient. Tests compare the program's conv against them.
"""

from __future__ import annotations

import numpy as np

from forgenet.errors import ShapeError
from forgenet.layers import KERNEL, ConvLayer, LayerGradients
from forgenet.tensor import require_rank


def _im2col(x: np.ndarray) -> np.ndarray:
    """(n, c, h, w) -> (n*(h-2)*(w-2), c*9) patch matrix."""
    win = np.lib.stride_tricks.sliding_window_view(x, (KERNEL, KERNEL), axis=(2, 3))
    n, c, ho, wo = win.shape[:4]
    return win.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * KERNEL * KERNEL)


def conv2d_forward(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """out(i,f,y,x) = bias(f) + sum_{c,dy,dx} w(f,c,dy,dx) * x(i,c,y+dy,x+dx)."""
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
    out = cols @ wmat.T
    out = out.reshape(n, ho, wo, k).transpose(0, 3, 1, 2)
    return out + layer.bias.reshape(1, k, 1, 1)


def conv2d_backward(
    x: np.ndarray, layer: ConvLayer, upstream: np.ndarray
) -> LayerGradients:
    """Gradients of conv2d_forward under sum(upstream * output)."""
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
    d_bias = upstream.sum(axis=(0, 2, 3))

    dcols = (up_mat @ wmat).reshape(n, ho, wo, c, KERNEL, KERNEL)
    dcols = dcols.transpose(0, 3, 1, 2, 4, 5)  # (n, c, ho, wo, 3, 3)
    d_input = np.zeros_like(x)
    for dy in range(KERNEL):
        for dx in range(KERNEL):
            d_input[:, :, dy : dy + ho, dx : dx + wo] += dcols[:, :, :, :, dy, dx]
    return LayerGradients(d_input=d_input, d_weights=d_weights, d_bias=d_bias)
