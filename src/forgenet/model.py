"""Network assembly, parameter accounting, full passes, and weight files.

The default configuration is 4 conv blocks (4 filters each, 3x3, valid
padding, stride 1), each followed by batch normalization and ReLU, then
flatten and a width-1 dense head with sigmoid output: 58,221 stored
parameters at 3x128x128 input (IN_CHANNELS is 3: `data.load_image`
decodes only RGB PPM), of which Adam updates 58,173. The other 48 are
the 32 BN statistics, which the trainer sets after each epoch, and the
conv biases: each conv feeds a training-mode BN that subtracts the
channel's batch mean, so a conv bias has no gradient, and backward
computes none. It is stored, and inference folds it in, but never updated.

BN runs only in training. Both passes work in one workspace that the
`Network` keeps for its life, `Network.buffers`: the decoded batch
(`input_buffer`), and for each block i its conv output `conv{i}` and its
ReLU output `act{i}`. Each is a flat array grown to the largest batch it has
served and viewed at the front for smaller ones, so repeat steps and
requests reuse memory the process holds, where fresh arrays would be trimmed
from the heap after each and faulted back in by the next.
- A training forward writes block i's conv output into `conv{i}`, where BN
  centres it in place and keeps it for backward, and BN's output into
  `act{i}`, where ReLU clamps it (see `layers`).
- Backward writes each gradient into memory whose forward contents are
  dead: the dense input gradient into the last ReLU output, once its ReLU
  mask and the dense weight gradient are read, and conv i's input gradient
  into `conv{i}`, once BN i's backward has consumed the centred values.
  Past block 0, `conv{i}` is sized for conv i's input so that it can hold it.
- An inference forward folds each BN into its conv and writes the block
  outputs into `act0` and `act1` in turn.

So every forward overwrites what the previous forward's cache views, and
every backward the cache it reads. Each pass advances `Network.generation`,
and backward refuses a cache of an earlier generation: one `Network` serves
one pass at a time. The workspace and the generation are not state:
`state_tensors()`, the weights file and `==` leave them out.
Neither pass writes the image batch it is given, and probabilities and
gradients are new arrays. `flatten` and `unflatten`, here, reshape the last
block's output for the dense head; `layers.require_rank` checks ranks.

Weights file format (all integers little-endian u32, floats little-endian
float32, no padding):

    magic b"FGN1"
    conv_layers, filters, input_h, input_w
    for each tensor in schema order: rank, dims..., raw float32 data

Schema order is `Network.state_tensors()`: per conv block i, conv{i}.weights,
conv{i}.bias, bn{i}.gamma, bn{i}.beta, bn{i}.moving_mean, bn{i}.moving_var;
then dense.weights, dense.bias. The header holds every NetworkConfig field
but the seed, in field order. The BN statistics keep the `moving_*` names
FGN1 files carry, though no moving average makes them any more.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import layers as L
from .data import write_atomic
from .errors import ConfigError, ContractError, ShapeError, WeightsFormatError

MAGIC = b"FGN1"
IN_CHANNELS = 3


@dataclass(frozen=True)
class NetworkConfig:
    conv_layers: int = 4
    filters: int = 4
    height: int = 128
    width: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.conv_layers < 1:
            raise ConfigError(f"conv_layers must be >= 1, got {self.conv_layers}")
        if self.filters < 1:
            raise ConfigError(f"filters must be >= 1, got {self.filters}")
        # Each valid 3x3 conv shrinks spatial extent by 2; at least one
        # pixel must survive all conv_layers of them.
        min_side = 2 * self.conv_layers + 1
        if self.height < min_side or self.width < min_side:
            raise ConfigError(
                f"input {self.height}x{self.width} too small for "
                f"{self.conv_layers} valid convolutions (needs >= {min_side})"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    @property
    def feature_height(self) -> int:
        return self.height - 2 * self.conv_layers

    @property
    def feature_width(self) -> int:
        return self.width - 2 * self.conv_layers

    @property
    def dense_in_features(self) -> int:
        return self.filters * self.feature_height * self.feature_width


@dataclass
class Network:
    config: NetworkConfig
    convs: list[L.ConvLayer]
    bns: list[L.BatchNormLayer]
    dense: L.DenseLayer
    # The workspace by name, flat arrays viewed at the front (see `_buffer`):
    # "batch", the decoded frames, and per block i "conv{i}" and "act{i}".
    buffers: dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )
    generation: int = field(default=0, repr=False, compare=False)  # passes run

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Every stored tensor in the weights-file schema order."""
        out: dict[str, np.ndarray] = {}
        for i, (conv, bn) in enumerate(zip(self.convs, self.bns)):
            out[f"conv{i}.weights"] = conv.weights
            out[f"conv{i}.bias"] = conv.bias
            out[f"bn{i}.gamma"] = bn.gamma
            out[f"bn{i}.beta"] = bn.beta
            out[f"bn{i}.moving_mean"] = bn.moving_mean
            out[f"bn{i}.moving_var"] = bn.moving_var
        out["dense.weights"] = self.dense.weights
        out["dense.bias"] = self.dense.bias
        return out

    def parameters(self) -> dict[str, np.ndarray]:
        """Trainable tensors in schema order: every stored tensor but the
        moving BN statistics and the conv biases. Each conv feeds a
        training-mode BN, whose batch-mean subtraction cancels the bias, so
        its gradient is 0 and updating it would apply rounding noise."""
        return {
            n: t for n, t in self.state_tensors().items()
            if ".moving_" not in n and not (n.startswith("conv") and n.endswith(".bias"))
        }


def count_parameters(config: NetworkConfig) -> int:
    """Stored-parameter total: conv weights+bias, 4 BN values per channel
    (gamma, beta, moving mean, moving variance), dense weights+bias."""
    f = config.filters
    total = IN_CHANNELS * 9 * f + f  # first conv
    total += (config.conv_layers - 1) * (f * 9 * f + f)  # remaining convs
    total += config.conv_layers * 4 * f  # batch norm
    total += config.dense_in_features + 1  # dense head
    return total


def _glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def build(config: NetworkConfig) -> Network:
    """Instantiate the network: Glorot-uniform conv/dense weights (seeded),
    zero biases, gamma=1, beta=0, moving_mean=0, moving_var=1."""
    rng = np.random.default_rng(config.seed)
    f = config.filters
    convs: list[L.ConvLayer] = []
    bns: list[L.BatchNormLayer] = []
    c_in = IN_CHANNELS
    for _ in range(config.conv_layers):
        w = _glorot_uniform(rng, (f, c_in, 3, 3), fan_in=c_in * 9, fan_out=f * 9)
        convs.append(L.ConvLayer(weights=w, bias=np.zeros(f, dtype=np.float32)))
        bns.append(
            L.BatchNormLayer(
                gamma=np.ones(f, dtype=np.float32),
                beta=np.zeros(f, dtype=np.float32),
                moving_mean=np.zeros(f, dtype=np.float32),
                moving_var=np.ones(f, dtype=np.float32),
            )
        )
        c_in = f
    d = config.dense_in_features
    dense = L.DenseLayer(
        weights=_glorot_uniform(rng, (d, 1), fan_in=d, fan_out=1),
        bias=np.zeros(1, dtype=np.float32),
    )
    return Network(config=config, convs=convs, bns=bns, dense=dense)


def _buffer(
    net: Network, name: str, shape: tuple[int, ...], dtype, reserve: int = 0
) -> np.ndarray:
    """A C-contiguous `shape` view of the front of `net.buffers[name]`,
    which is first replaced by a new flat array if it is missing, of another
    dtype, or smaller than `shape` or `reserve` elements."""
    size = math.prod(shape)
    flat = net.buffers.get(name)
    if flat is None or flat.size < max(size, reserve) or flat.dtype != dtype:
        flat = net.buffers[name] = np.empty(max(size, reserve), dtype)
    return flat[:size].reshape(shape)


def input_buffer(net: Network, n: int) -> np.ndarray:
    """The net's (n, 3, height, width) float32 batch buffer, for frames to be
    decoded into. A training forward's cache reads it until backward."""
    cfg = net.config
    return _buffer(net, "batch", (n, IN_CHANNELS, cfg.height, cfg.width), np.float32)


def flatten(x: np.ndarray) -> np.ndarray:
    """(n, c, h, w) -> (n, c*h*w), preserving row-major (c, h, w) order."""
    L.require_rank(x, 4, "flatten input")
    return x.reshape(len(x), -1)


def unflatten(x2: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of flatten: (n, c*h*w) -> (n, c, h, w)."""
    if len(shape) != 4 or x2.shape != (shape[0], math.prod(shape[1:])):
        raise ShapeError(f"unflatten: {x2.shape} incompatible with target shape {shape}")
    return x2.reshape(shape)


@dataclass
class ForwardCache:
    """What backward reads of a training forward. `activations` holds the
    image batch, then each block's ReLU output: block i's conv input is
    activations[i] and its ReLU output activations[i + 1]. It serves one
    backward, before the next pass on its net (`generation`)."""

    activations: list[np.ndarray]
    bn_caches: list[L.BatchNormCache]
    probs: np.ndarray
    generation: int


def forward(
    net: Network, x: np.ndarray, training: bool
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the network; returns clamped probabilities and the backward cache.

    Training mode keeps each block's input, centred values and batch
    statistics in the cache, in the net's workspace. Inference mode folds
    each BN, with its stored statistics, into its conv, writes the block
    outputs into the workspace's `act0` and `act1` in turn and returns None
    for the cache. Neither writes `x` or a state tensor, and the
    probabilities are a new array.
    """
    L.require_rank(x, 4, "network input")
    cfg = net.config
    expected = (IN_CHANNELS, cfg.height, cfg.width)
    if x.shape[1:] != expected:
        raise ShapeError(
            f"network input shape {x.shape[1:]} != configured {expected}"
        )
    net.generation += 1
    activations, bn_caches = [x], []
    h = x
    for i, (conv, bn) in enumerate(zip(net.convs, net.bns)):
        n, _, height, width = h.shape
        shape = (n, conv.filters, height - L.KERNEL + 1, width - L.KERNEL + 1)
        dtype = np.result_type(conv.weights, h)
        if not training:
            out = _buffer(net, f"act{i % 2}", shape, dtype)
            h = L.relu_forward(L.conv2d_forward(h, L.batchnorm_fold(conv, bn), out=out))
            continue
        # Backward writes conv i's d_input here, of the shape of its input h.
        z = _buffer(net, f"conv{i}", shape, dtype, reserve=h.size if i else 0)
        out = _buffer(net, f"act{i}", shape, dtype)
        h, bn_cache = L.batchnorm_forward(L.conv2d_forward(h, conv, out=z), bn, out=out)
        h = L.relu_forward(h)
        activations.append(h)
        bn_caches.append(bn_cache)
    probs = L.sigmoid(L.dense_forward(flatten(h), net.dense))
    if not training:
        return probs, None
    return probs, ForwardCache(activations, bn_caches, probs, net.generation)


def backward(
    net: Network, cache: ForwardCache | None, labels: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of the mean BCE loss for every tensor of `parameters()`.

    Starts from the fused sigmoid+BCE logit gradient of `bce_loss`, so the
    sigmoid never appears as a separate backward step. It advances
    `net.generation` once the labels pass, before its first write, so a
    backward refused for its labels leaves the cache usable.
    """
    if cache is None:
        raise ContractError("backward requires the cache of a training-mode forward")
    if cache.generation != net.generation:
        raise ContractError(
            "backward: stale cache, consumed by an earlier backward or "
            "overwritten by a later forward on this net"
        )
    p = cache.probs
    y = np.asarray(labels)
    if y.shape != p.shape:
        raise ContractError(f"labels shape {y.shape} != batch shape {p.shape}")
    _, d_logits = L.bce_loss(p, y)
    net.generation += 1

    acts = cache.activations
    grads: dict[str, np.ndarray] = {}
    top = acts[-1]
    # The dense d_input goes into the last ReLU output, so its mask goes first.
    mask = top > 0
    d, grads["dense.weights"], grads["dense.bias"] = L.dense_backward(
        flatten(top), net.dense, d_logits, out=flatten(top)
    )
    d = unflatten(d, top.shape)
    for i in reversed(range(len(net.convs))):
        d = L.relu_backward(mask, d)
        d, grads[f"bn{i}.gamma"], grads[f"bn{i}.beta"] = L.batchnorm_backward(
            cache.bn_caches[i], net.bns[i], d
        )
        # Block 0's input is the image batch; nothing reads its gradient.
        # Past it, conv i's d_input goes where BN i's centred values were.
        x = acts[i]
        out = _buffer(net, f"conv{i}", x.shape, x.dtype) if i else None
        d, grads[f"conv{i}.weights"] = L.conv2d_backward(
            x, net.convs[i], d, input_grad=i > 0, out=out
        )
        # Block i - 1's ReLU output, positive exactly where its input is.
        mask = x
    return grads


def save_weights(net: Network, destination) -> None:
    cfg = net.config
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<4I", cfg.conv_layers, cfg.filters, cfg.height, cfg.width)
    for tensor in net.state_tensors().values():
        blob += struct.pack("<I", tensor.ndim)
        blob += struct.pack(f"<{tensor.ndim}I", *tensor.shape)
        blob += np.ascontiguousarray(tensor, dtype="<f4").tobytes()
    write_atomic(destination, bytes(blob))


def _parse_header(data: bytes) -> NetworkConfig:
    """The config a weights file's header describes, checked against the
    file's length before anything is built from it."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise WeightsFormatError(f"magic: expected {MAGIC!r}, got {data[:4]!r}")
    if len(data) < 20:
        raise WeightsFormatError("header: unexpected end of file")
    try:
        config = NetworkConfig(*struct.unpack_from("<4I", data, 4))
    except ConfigError as exc:
        raise WeightsFormatError(f"header: {exc}") from None
    count = count_parameters(config)
    if len(data) < 4 * count:
        raise WeightsFormatError(
            f"header: unexpected end of file: {count} parameters need "
            f"{4 * count} bytes, the file has {len(data)}"
        )
    return config


def load_weights(source) -> Network:
    """Read a weights file once and load it into a network built from the
    config in its header (seed 0).

    A header that makes no valid config, or promises more parameters than
    the file can hold, is rejected before anything is allocated. Every
    tensor record is checked against the shape of the same tensor in the
    built network; the first mismatch, or the first tensor holding a NaN or
    an infinity, is reported by tensor name. Truncated or oversized files
    are rejected.
    """
    data = Path(source).read_bytes()
    net = build(_parse_header(data))
    offset = 20
    for name, dest in net.state_tensors().items():
        if offset + 4 > len(data):
            raise WeightsFormatError(f"{name}: unexpected end of file")
        (rank,) = struct.unpack_from("<I", data, offset)
        offset += 4
        if rank != dest.ndim:
            raise WeightsFormatError(
                f"{name}: file has rank {rank}, header expects rank {dest.ndim}"
            )
        if offset + 4 * rank > len(data):
            raise WeightsFormatError(f"{name}: unexpected end of file")
        dims = struct.unpack_from(f"<{rank}I", data, offset)
        offset += 4 * rank
        if dims != dest.shape:
            raise WeightsFormatError(
                f"{name}: file has shape {dims}, header expects {dest.shape}"
            )
        nbytes = 4 * dest.size
        if offset + nbytes > len(data):
            raise WeightsFormatError(f"{name}: unexpected end of file")
        dest[...] = np.frombuffer(data, "<f4", dest.size, offset).reshape(dims)
        if not np.isfinite(dest).all():
            raise WeightsFormatError(f"{name}: non-finite value")
        offset += nbytes
    if offset != len(data):
        raise WeightsFormatError(f"trailing data after {name} ({len(data) - offset} bytes)")
    return net
