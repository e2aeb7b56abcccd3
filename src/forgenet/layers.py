"""Forward and backward passes for every block in the detector network.

Conv is valid-padding, stride-1, 3x3, cross-correlation convention (no
kernel flip). Batch normalization runs only in training; at inference,
`batchnorm_fold` folds it, with its moving statistics, into the conv before
it. The hidden activation is ReLU; the output head is a width-1 dense layer
squashed by a clamped sigmoid feeding binary cross-entropy.

All functions are dtype-preserving so the same code runs the float32
model path and the float64 finite-difference path.

BN and ReLU overwrite arrays that only the model holds: `batchnorm_forward`
turns its input into `xhat`, `relu_forward` clamps its input, and both
backwards write d_input into their upstream (BN's also overwrites `xhat`).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateBatchError, ShapeError
from .tensor import require_rank

KERNEL = 3

BN_MOMENTUM = 0.99  # moving statistics <- m * moving + (1 - m) * batch
BN_EPSILON = 1e-3  # added to the variance before its square root

# Probabilities are clamped into [PROB_CLAMP, 1 - PROB_CLAMP] so the
# cross-entropy stays finite at sigmoid saturation.
PROB_CLAMP = 1e-7


@dataclass
class ConvLayer:
    weights: np.ndarray  # (filters, in_channels, 3, 3)
    bias: np.ndarray  # (filters,)

    @property
    def filters(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]


@dataclass
class BatchNormLayer:
    gamma: np.ndarray  # (channels,)
    beta: np.ndarray  # (channels,)
    moving_mean: np.ndarray  # (channels,)
    moving_var: np.ndarray  # (channels,)

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


@dataclass
class DenseLayer:
    weights: np.ndarray  # (in_features, 1)
    bias: np.ndarray  # (1,); scalar bias kept as a length-1 array

    @property
    def in_features(self) -> int:
        return self.weights.shape[0]


@dataclass
class LayerGradients:
    """Gradient bundle for one layer; unused fields stay None."""

    d_input: np.ndarray | None
    d_weights: np.ndarray | None = None
    d_bias: np.ndarray | None = None
    d_gamma: np.ndarray | None = None
    d_beta: np.ndarray | None = None


@dataclass
class BatchNormCache:
    xhat: np.ndarray
    var: np.ndarray
    inv_std: np.ndarray


# Conv works through the batch in blocks of at most PATCH_BYTES of patch
# matrix, so that a block's patches, input rows and output rows fit in one
# core's L2 cache (1-2 MB on current x86 server cores) and the GEMM reads
# the patches from cache rather than main memory. A whole-batch patch
# matrix at 128px would be up to 283 MB, and conv time would then follow
# other processes' memory traffic. Smaller blocks cost more Python calls
# than they save.
PATCH_BYTES = 1 << 19


def _blocks(x: np.ndarray, ho: int, wo: int) -> list[tuple[slice, slice]]:
    """(samples, output rows) slices that tile an (n, ho) batch of outputs,
    each with a patch matrix of at most PATCH_BYTES where one output row
    allows: several whole samples when one sample fits, otherwise bands of
    rows of one sample."""
    n, c = x.shape[:2]
    rows = max(1, PATCH_BYTES // (c * KERNEL * KERNEL * wo * x.itemsize))
    if rows >= ho:
        step = rows // ho
        return [
            (slice(i, min(i + step, n)), slice(0, ho)) for i in range(0, n, step)
        ]
    return [
        (slice(i, i + 1), slice(r, min(r + rows, ho)))
        for i in range(n)
        for r in range(0, ho, rows)
    ]


def _im2col(x: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """(m, c, r+2, w) input rows -> (m, c*9, r*(w-2)) patch matrix, rows in
    (c, dy, dx) order, built from 9 slice copies into the front of the flat
    buffer `buf`."""
    m, c, h, w = x.shape
    ho, wo = h - KERNEL + 1, w - KERNEL + 1
    cols = buf[: m * c * KERNEL * KERNEL * ho * wo]
    cols = cols.reshape(m, c, KERNEL, KERNEL, ho, wo)
    for dy in range(KERNEL):
        for dx in range(KERNEL):
            cols[:, :, dy, dx] = x[:, :, dy : dy + ho, dx : dx + wo]
    return cols.reshape(m, c * KERNEL * KERNEL, ho * wo)


def _patches(
    x: np.ndarray, ho: int, wo: int
) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """Yield (samples, rows, patch matrix) for each of `_blocks(x, ho, wo)`:
    the im2col of the input rows that the block's (ho, wo) outputs read.
    Every patch matrix is a view of one buffer, overwritten by the next."""
    blocks = _blocks(x, ho, wo)
    outputs = max((s.stop - s.start) * (r.stop - r.start) for s, r in blocks)
    buf = np.empty(outputs * x.shape[1] * KERNEL * KERNEL * wo, dtype=x.dtype)
    for samples, rows in blocks:
        band = x[samples, :, rows.start : rows.stop + KERNEL - 1]
        yield samples, rows, _im2col(band, buf)


def conv2d_forward(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """out(i,f,y,x) = bias(f) + sum_{c,dy,dx} w(f,c,dy,dx) * x(i,c,y+dy,x+dx),
    one GEMM per block of patches into the C-contiguous (n, k, ho, wo) out."""
    require_rank(x, 4, "conv input")
    n, c, h, w = x.shape
    if h < KERNEL or w < KERNEL:
        raise ShapeError(f"conv input spatial dims must be >= {KERNEL}, got {h}x{w}")
    if c != layer.in_channels:
        raise ShapeError(
            f"conv input has {c} channels, layer expects {layer.in_channels}"
        )
    k = layer.filters
    wmat = layer.weights.reshape(k, -1)
    ho, wo = h - KERNEL + 1, w - KERNEL + 1
    out = np.empty((n, k, ho, wo), np.result_type(wmat, x))
    for samples, rows, cols in _patches(x, ho, wo):
        # A band of whole rows of a C-contiguous array reshapes to a view.
        np.matmul(wmat, cols, out=out[samples, :, rows].reshape(len(cols), k, -1))
    out += layer.bias.reshape(1, k, 1, 1)
    return out


def conv2d_backward(
    x: np.ndarray, layer: ConvLayer, upstream: np.ndarray, input_grad: bool = True
) -> LayerGradients:
    """Gradients of conv2d_forward under sum(upstream * output).

    Each block builds one patch matrix P of the upstream zero-padded by 2,
    over the block's (h, w) input positions, and both gradients read it.
    d_input is the flipped weights times P: the valid correlation of the
    padded upstream with each kernel rotated 180 degrees and the in/out
    channel axes swapped, d_x(i,c,y,x) = sum_{f,ey,ex} w(f,c,2-ey,2-ex) *
    pad(up)(i,f,y+ey,x+ex) (Dumoulin & Visin 2016, arXiv 1603.07285, sec. 4).
    d_weights is the block's rows of x times P^T, a (c, k*9) matrix flipped
    back, since sum_{i,y,x} x(i,c,y,x) * pad(up)(i,f,y+ey,x+ex) =
    d_w(f,c,2-ey,2-ex). With `input_grad=False` (the first block, whose
    input is the image) the d_input GEMM is skipped and d_input is None.
    """
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
    p = KERNEL - 1
    padded = np.pad(upstream, ((0, 0), (0, 0), (p, p), (p, p)))
    flipped = layer.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    d_input = np.empty_like(x) if input_grad else None
    d_flipped = np.zeros((c, k * KERNEL * KERNEL), dtype=np.result_type(upstream, x))
    for samples, rows, cols in _patches(padded, h, w):
        x_rows = x[samples, :, rows].reshape(len(cols), c, -1)
        d_flipped += np.matmul(x_rows, cols.transpose(0, 2, 1)).sum(axis=0)
        if input_grad:
            np.matmul(flipped, cols, out=d_input[samples, :, rows].reshape(x_rows.shape))
    d_weights = d_flipped.reshape(c, k, KERNEL, KERNEL)[:, :, ::-1, ::-1]
    return LayerGradients(
        d_input, d_weights.transpose(1, 0, 2, 3), upstream.sum(axis=(0, 2, 3))
    )


def batchnorm_forward(
    x: np.ndarray, layer: BatchNormLayer
) -> tuple[np.ndarray, BatchNormCache]:
    """Per-channel standardization over (n, h, w) with batch statistics
    (biased variance), then affine gamma/beta. Updates the moving
    statistics in place and returns the backward cache, whose `xhat` is `x`.
    """
    require_rank(x, 4, "batchnorm input")
    n, c, h, w = x.shape
    if c != layer.channels:
        raise ShapeError(f"batchnorm input has {c} channels, layer has {layer.channels}")
    if n * h * w < 2:
        raise DegenerateBatchError(
            f"batchnorm training mode needs >= 2 samples per channel, got {n * h * w}"
        )
    mean = x.mean(axis=(0, 2, 3))
    x -= mean.reshape(1, c, 1, 1)
    var = np.einsum("nchw,nchw->c", x, x) / (n * h * w)
    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    x *= inv_std.reshape(1, c, 1, 1)
    out = x * layer.gamma.reshape(1, c, 1, 1)
    out += layer.beta.reshape(1, c, 1, 1)
    layer.moving_mean[:] = BN_MOMENTUM * layer.moving_mean + (1.0 - BN_MOMENTUM) * mean
    layer.moving_var[:] = BN_MOMENTUM * layer.moving_var + (1.0 - BN_MOMENTUM) * var
    return out, BatchNormCache(xhat=x, var=var, inv_std=inv_std)


def batchnorm_backward(
    cache: BatchNormCache, layer: BatchNormLayer, upstream: np.ndarray
) -> LayerGradients:
    """Full gradient, with the mean/variance dependence, in the closed form
    d_input = gamma * inv_std / m * (m * upstream - d_beta - xhat * d_gamma)
    over m = n*h*w values per channel (Ioffe & Szegedy 2015, arXiv
    1502.03167, section 3), built in `upstream`; consumes `cache.xhat`.
    BN_EPSILON > 0 keeps it exact on a constant channel, where xhat = 0 and
    d_input = gamma * inv_std * (upstream - mean upstream)."""
    require_rank(upstream, 4, "batchnorm upstream")
    if upstream.shape != cache.xhat.shape:
        raise ShapeError(
            f"batchnorm upstream shape {upstream.shape} != {cache.xhat.shape}"
        )
    c = layer.channels
    count = upstream.size // c
    d_gamma = (upstream * cache.xhat).sum(axis=(0, 2, 3), keepdims=True)
    d_beta = upstream.sum(axis=(0, 2, 3), keepdims=True)
    upstream *= count
    upstream -= d_beta
    cache.xhat *= d_gamma
    upstream -= cache.xhat
    upstream *= (layer.gamma * cache.inv_std / count).reshape(1, c, 1, 1)
    return LayerGradients(
        d_input=upstream, d_gamma=d_gamma.reshape(c), d_beta=d_beta.reshape(c)
    )


def batchnorm_fold(conv: ConvLayer, bn: BatchNormLayer) -> ConvLayer:
    """The conv whose output is `bn`, with its moving statistics, applied to
    `conv`'s: s = gamma / sqrt(moving_var + eps), w' = w * s per filter and
    b' = (b - moving_mean) * s + beta (Jacob et al. 2018, arXiv 1712.05877,
    section 3.2). A new layer on each call; neither input changes."""
    s = bn.gamma / np.sqrt(bn.moving_var + BN_EPSILON)
    bias = (conv.bias - bn.moving_mean) * s + bn.beta
    return ConvLayer(weights=conv.weights * s.reshape(-1, 1, 1, 1), bias=bias)


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0, out=x)


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Subgradient 0 at exactly 0. `x` may be the ReLU's input or its
    output: both are positive at exactly the same elements. Masks
    `upstream` in place."""
    if x.shape != upstream.shape:
        raise ShapeError(f"relu upstream shape {upstream.shape} != input {x.shape}")
    return np.multiply(upstream, x > 0, out=upstream)


def dense_forward(x: np.ndarray, layer: DenseLayer) -> np.ndarray:
    """logit(i) = sum_j x(i, j) * w(j) + b; returns a length-n vector."""
    require_rank(x, 2, "dense input")
    if x.shape[1] != layer.in_features:
        raise ShapeError(
            f"dense input has {x.shape[1]} features, layer expects {layer.in_features}"
        )
    return x @ layer.weights[:, 0] + layer.bias[0]


def dense_backward(
    x: np.ndarray, layer: DenseLayer, d_logits: np.ndarray
) -> LayerGradients:
    require_rank(x, 2, "dense input")
    if d_logits.shape != (x.shape[0],):
        raise ShapeError(
            f"dense upstream shape {d_logits.shape} != ({x.shape[0]},)"
        )
    d_weights = (x.T @ d_logits).reshape(layer.weights.shape)
    d_bias = np.array([d_logits.sum()], dtype=d_logits.dtype)
    d_input = np.outer(d_logits, layer.weights[:, 0])
    return LayerGradients(d_input=d_input, d_weights=d_weights, d_bias=d_bias)


def sigmoid(logits: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), clamped into [PROB_CLAMP, 1 - PROB_CLAMP]."""
    z = np.asarray(logits)
    p = np.exp(-np.logaddexp(z.dtype.type(0), -z))  # stable at large |z|
    return np.clip(p, z.dtype.type(PROB_CLAMP), z.dtype.type(1.0 - PROB_CLAMP))


def bce_loss(
    probabilities: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and the fused gradient w.r.t. the logits.

    loss = -mean(y*ln(p) + (1-y)*ln(1-p)); d_logits = (p - y) / n is the
    exact gradient through the (unclamped) sigmoid, used for stability.
    """
    p = np.asarray(probabilities)
    y = np.asarray(labels)
    if p.ndim != 1 or y.shape != p.shape:
        raise ContractError(
            f"bce_loss needs equal-length vectors, got {p.shape} and {y.shape}"
        )
    if p.size == 0:
        raise ContractError("bce_loss: empty input")
    if not np.all((y == 0) | (y == 1)):
        raise ContractError("bce_loss: labels must be 0 or 1")
    p64 = p.astype(np.float64)
    y64 = y.astype(np.float64)
    loss = float(-np.mean(y64 * np.log(p64) + (1.0 - y64) * np.log1p(-p64)))
    d_logits = ((p - y.astype(p.dtype)) / p.dtype.type(p.size)).astype(p.dtype)
    return loss, d_logits
