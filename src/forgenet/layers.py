"""Forward and backward passes for every block in the detector network.

Conv is valid-padding, stride-1, 3x3, cross-correlation convention (no
kernel flip). Batch normalization runs only in training; at inference,
`batchnorm_fold` folds it, with the statistics the trainer stores, into
the conv before it. The hidden activation is ReLU; the output head is a
width-1 dense layer squashed by a clamped sigmoid feeding binary
cross-entropy.

All functions are dtype-preserving so the same code runs the float32
model path and the float64 finite-difference path. Activations are
C-contiguous (n, c, h, w), as conv writes them, so BN's reductions over
(n, h, w) walk contiguous memory: at 128px, batch 128, its float32
variance is within about 2e-7 of float64, against about 1e-3 over a
strided view. `require_rank` checks ranks here and in `model`.

Conv is one 2-D GEMM per band of output rows of one sample, over a patch
matrix whose columns are exactly the band's output positions; `_patches`,
the only patch builder, copies it in one piece from a strided view, and
the GEMM writes into the result's rows. Backward pads the upstream by 2
one sample at a time, each laid into one zero grid whose row pitch makes
the same view read it, and reads one patch matrix of it per band for both
gradients; the first conv, which needs no input gradient, takes its
weight gradient from the patches of its input instead. Conv, BN and dense
backward return d_input, then the gradients training applies; conv has no
bias gradient.

BN and ReLU overwrite arrays that only the model holds: `batchnorm_forward`
turns its input into `xhat`, `relu_forward` clamps its input, and both
backwards write d_input into their upstream (BN's also overwrites `xhat`).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateBatchError, ShapeError

KERNEL = 3

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
class BatchNormCache:
    xhat: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    inv_std: np.ndarray


def require_rank(x: np.ndarray, rank: int, what: str = "tensor") -> np.ndarray:
    if not isinstance(x, np.ndarray) or x.ndim != rank:
        got = getattr(x, "shape", type(x).__name__)
        raise ShapeError(f"{what}: expected rank-{rank} array, got {got}")
    if any(d < 1 for d in x.shape):
        raise ShapeError(f"{what}: all dimensions must be >= 1, got {x.shape}")
    return x


# Conv works through each sample in bands of output rows with at most
# PATCH_BYTES of patch matrix, so that a band's patches, input rows and
# output rows fit in one core's L2 cache (1-2 MB on current x86 server
# cores) and the GEMM reads the patches from cache rather than main memory.
# One sample's patch matrix at 128px is already 2.3 MB (4 channels,
# float32), and conv time would then follow other processes' memory
# traffic. Smaller bands cost more Python calls than they save.
PATCH_BYTES = 1 << 19


def _bands(x: np.ndarray, ho: int, wo: int) -> list[slice]:
    """Bands of output rows that tile one sample's `ho` rows, each with a
    patch matrix of at most PATCH_BYTES where one row of `wo` outputs
    allows."""
    c = x.shape[1]
    rows = max(1, PATCH_BYTES // (c * KERNEL * KERNEL * wo * x.itemsize))
    return [slice(r, min(r + rows, ho)) for r in range(0, ho, rows)]


def _patches(
    x: np.ndarray, pad: bool = False
) -> Iterator[tuple[int, slice, np.ndarray]]:
    """Yield (sample, rows, patch matrix) for each of `_bands` of each
    sample: the im2col of `x`, or with `pad` of `x` zero-padded by 2, for
    the band's output rows of the valid 3x3 correlation, a (c*9, r*wo)
    matrix whose rows are in (c, dy, dx) order and whose columns are
    exactly the band's output positions.

    The patches are one strided (n, c, 3, 3, ho, wo) view whose element
    [i, c, dy, dx, y, x] is x[i, c, y+dy, x+dx], and a band is one copy of
    a slice of it. The view takes x's own strides, so x is never copied.
    With `pad`, the view instead reads one zero grid of one sample, of row
    pitch wo = w + 2 and h + 5 rows, whose rows 3 to h + 2 take each
    sample's rows in turn; the rest is never written. Each row's 2 trailing
    zeros are also the next row's left padding, and the view starts at the
    last 2 zeros of row 0, so the same view formula reads the sample padded
    by 2. Only a pad of 2 lays out this way. Every patch matrix is a view of
    one buffer, overwritten by the next.
    """
    n, c, h, w = x.shape
    grow = KERNEL - 1 if pad else 1 - KERNEL
    ho, wo = h + grow, w + grow
    if pad:
        # The view's last element is the grid's last: it reads no further.
        grid = np.zeros((1, c, h + 5, wo), x.dtype)
        src = grid.reshape(-1)[w:]
    else:
        grid = src = x
    windows = np.lib.stride_tricks.as_strided(
        src,
        shape=(len(grid), c, KERNEL, KERNEL, ho, wo),
        strides=(*grid.strides, *grid.strides[2:]),
        writeable=False,
    )
    bands = _bands(x, ho, wo)
    # The first band is the largest: only the last may be shorter.
    buf = np.empty(c * KERNEL * KERNEL * bands[0].stop * wo, x.dtype)
    # Per band, made once rather than once per sample, since at small
    # frames each sample's Python work adds measurably to conv: the copy's
    # (c, 3, 3, r, wo) target in buf, the (c*9, r*wo) matrix it yields and
    # its slice of the view.
    plan = []
    for rows in bands:
        cols = buf[: c * KERNEL * KERNEL * (rows.stop - rows.start) * wo]
        cols = cols.reshape(c, KERNEL, KERNEL, -1, wo)
        matrix = cols.reshape(c * KERNEL * KERNEL, -1)
        plan.append((rows, cols, matrix, windows[..., rows, :]))
    for i in range(n):
        if pad:
            # Grid row j + 3 holds x row j; the rest of the grid stays zero.
            grid[0, :, 3 : h + 3, :w] = x[i]
        for rows, cols, matrix, view in plan:
            np.copyto(cols, view[0 if pad else i])
            yield i, rows, matrix


def conv2d_forward(
    x: np.ndarray, layer: ConvLayer, out: np.ndarray | None = None
) -> np.ndarray:
    """out(i,f,y,x) = bias(f) + sum_{c,dy,dx} w(f,c,dy,dx) * x(i,c,y+dy,x+dx).

    One GEMM per band of patches (`_patches`), written straight into the
    band's rows of the C-contiguous (n, k, ho, wo) out, and the bias is
    added to them while they are in cache. `out`, when given, must be such
    an array of the result's dtype; it is returned.
    """
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
    shape, dtype = (n, k, ho, wo), np.result_type(wmat, x)
    if out is None:
        out = np.empty(shape, dtype)
    elif out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ShapeError(
            f"conv output must be C-contiguous {shape} {dtype}, got "
            f"{out.shape} {out.dtype}"
        )
    out_rows = out.reshape(n, k, ho * wo)  # a view: out is C-contiguous
    bias = layer.bias.reshape(k, 1)
    for i, rows, cols in _patches(x):
        band = out_rows[i, :, rows.start * wo : rows.stop * wo]
        np.matmul(wmat, cols, out=band)
        band += bias
    return out


def conv2d_backward(
    x: np.ndarray, layer: ConvLayer, upstream: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """(d_input, d_weights) of conv2d_forward under sum(upstream * output).

    There is no bias gradient: every conv here feeds a training-mode BN,
    and its upstream, that BN's d_input, sums to 0 over each channel (Ioffe
    & Szegedy 2015, arXiv 1502.03167, section 3).

    Each band builds one patch matrix P of the upstream zero-padded by 2
    (`_patches(upstream, pad=True)` pads one sample at a time), over the
    band's (h, w) input positions, and both gradients read it. d_input is
    the flipped weights times P, written straight into the band's rows of
    d_input: the valid correlation of the padded upstream with each kernel
    rotated 180 degrees and the in/out channel axes swapped, d_x(i,c,y,x) =
    sum_{f,ey,ex} w(f,c,2-ey,2-ex) * pad(up)(i,f,y+ey,x+ex) (Dumoulin &
    Visin 2016, arXiv 1603.07285, sec. 4). d_weights sums the band's rows
    of x, read in place, times P^T, a (c, k*9) matrix flipped back, since
    sum_{i,y,x} x(i,c,y,x) * pad(up)(i,f,y+ey,x+ex) = d_w(f,c,2-ey,2-ex).

    With `input_grad=False` (the first block, whose input is the image)
    d_input is None and no upstream patch is built: d_weights sums the
    band's rows of the upstream, read in place, times x's own patches, a
    (k, c*9) matrix over the (ho, wo) output positions.
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
    dtype = np.result_type(upstream, x)
    if not input_grad:
        d_weights = np.zeros((k, c * KERNEL * KERNEL), dtype)
        for i, rows, cols in _patches(x):
            d_weights += upstream[i, :, rows].reshape(k, -1) @ cols.T
        return None, d_weights.reshape(layer.weights.shape)

    flipped = layer.weights[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
    d_input = np.empty(x.shape, x.dtype)
    d_rows = d_input.reshape(n, c, h * w)  # a view: d_input is C-contiguous
    d_flipped = np.zeros((c, k * KERNEL * KERNEL), dtype)
    for i, rows, cols in _patches(upstream, pad=True):
        d_flipped += x[i, :, rows].reshape(c, -1) @ cols.T
        span = slice(rows.start * w, rows.stop * w)
        np.matmul(flipped, cols, out=d_rows[i, :, span])
    d_weights = d_flipped.reshape(c, k, KERNEL, KERNEL)[:, :, ::-1, ::-1]
    return d_input, d_weights.transpose(1, 0, 2, 3)


def batchnorm_forward(
    x: np.ndarray, layer: BatchNormLayer
) -> tuple[np.ndarray, BatchNormCache]:
    """Per-channel standardization over (n, h, w) with batch statistics
    (biased variance), then affine gamma/beta. Writes no layer tensor;
    returns the backward cache, whose `xhat` is `x` and whose `mean` and
    `var` are the batch statistics."""
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
    return out, BatchNormCache(xhat=x, mean=mean, var=var, inv_std=inv_std)


def batchnorm_backward(
    cache: BatchNormCache, layer: BatchNormLayer, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_input, d_gamma, d_beta); d_input has the mean/variance terms:
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
    return upstream, d_gamma.reshape(c), d_beta.reshape(c)


def batchnorm_fold(conv: ConvLayer, bn: BatchNormLayer) -> ConvLayer:
    """The conv whose output is `bn`, with its stored statistics, applied to
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_input, d_weights, d_bias) under sum(d_logits * logits)."""
    require_rank(x, 2, "dense input")
    if d_logits.shape != (x.shape[0],):
        raise ShapeError(
            f"dense upstream shape {d_logits.shape} != ({x.shape[0]},)"
        )
    d_weights = (x.T @ d_logits).reshape(layer.weights.shape)
    d_bias = np.array([d_logits.sum()], dtype=d_logits.dtype)
    return np.outer(d_logits, layer.weights[:, 0]), d_weights, d_bias


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
