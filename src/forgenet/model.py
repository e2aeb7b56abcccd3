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

BN runs only in training, where a forward keeps each block's input and
normalised values for backward. In training each conv output, BN output
and upstream gradient is a fresh array that only these passes hold, so BN
and ReLU work in them (see `layers`); backward pops each block from its
cache. `flatten` and `unflatten`, here, reshape the last block's output
for the dense head; `layers.require_rank` checks ranks.

An inference forward folds each BN into its conv and writes the block
outputs into two ping-pong buffers that the `Network` keeps, with the
decoded batch `evaluator.predict_manifest` fills (`input_buffer`), for the
life of the net. Repeat requests so reuse memory the process holds, where
fresh arrays would be trimmed from the heap after each request and faulted
back in by the next. The buffers are not state: `state_tensors()`, the
weights file and `==` leave them out, and a training forward releases
them. So one `Network` serves one inference at a time. Neither pass
writes the image batch it is given.

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
    # Inference's working set by name, flat arrays viewed at the front (see
    # `_buffer`): "batch", the decoded frames, and "block0" and "block1",
    # the ping-pong block outputs.
    buffers: dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

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


def _buffer(net: Network, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A C-contiguous `shape` view of the front of `net.buffers[name]`,
    which is first replaced by a new flat array if it is missing, smaller or
    of another dtype."""
    size = math.prod(shape)
    flat = net.buffers.get(name)
    if flat is None or flat.size < size or flat.dtype != dtype:
        flat = net.buffers[name] = np.empty(size, dtype)
    return flat[:size].reshape(shape)


def input_buffer(net: Network, n: int) -> np.ndarray:
    """The net's (n, 3, height, width) float32 batch buffer, for inference
    to decode frames into. The next call, and a training forward, may reuse
    or drop it."""
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
    backward."""

    activations: list[np.ndarray]
    bn_caches: list[L.BatchNormCache]
    probs: np.ndarray


def forward(
    net: Network, x: np.ndarray, training: bool
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run the network; returns clamped probabilities and the backward cache.

    Training mode keeps each block's input, normalised values and batch
    statistics in the cache and releases the inference buffers. Inference
    mode folds each BN, with its stored statistics, into its conv, writes
    the block outputs into the net's two block buffers and returns None for
    the cache. Neither writes `x` or a state tensor, and the probabilities
    are a new array.
    """
    L.require_rank(x, 4, "network input")
    cfg = net.config
    expected = (IN_CHANNELS, cfg.height, cfg.width)
    if x.shape[1:] != expected:
        raise ShapeError(
            f"network input shape {x.shape[1:]} != configured {expected}"
        )
    if training:
        net.buffers.clear()
    activations, bn_caches = [x], []
    h = x
    for i, (conv, bn) in enumerate(zip(net.convs, net.bns)):
        if not training:
            folded = L.batchnorm_fold(conv, bn)
            n, _, height, width = h.shape
            shape = (n, folded.filters, height - L.KERNEL + 1, width - L.KERNEL + 1)
            out = _buffer(net, f"block{i % 2}", shape, np.result_type(folded.weights, h))
            h = L.relu_forward(L.conv2d_forward(h, folded, out=out))
            continue
        h, bn_cache = L.batchnorm_forward(L.conv2d_forward(h, conv), bn)
        h = L.relu_forward(h)
        activations.append(h)
        bn_caches.append(bn_cache)
    probs = L.sigmoid(L.dense_forward(flatten(h), net.dense))
    return probs, ForwardCache(activations, bn_caches, probs) if training else None


def backward(
    net: Network, cache: ForwardCache | None, labels: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of the mean BCE loss for every tensor of `parameters()`.

    Starts from the fused sigmoid+BCE logit gradient of `bce_loss`, so the
    sigmoid never appears as a separate backward step.
    """
    if cache is None:
        raise ContractError("backward requires the cache of a training-mode forward")
    p = cache.probs
    y = np.asarray(labels)
    if y.shape != p.shape:
        raise ContractError(f"labels shape {y.shape} != batch shape {p.shape}")
    _, d_logits = L.bce_loss(p, y)

    acts, bn_caches = cache.activations, cache.bn_caches
    if len(bn_caches) != len(net.convs):
        raise ContractError("backward: cache already consumed by an earlier backward")
    grads: dict[str, np.ndarray] = {}
    d, grads["dense.weights"], grads["dense.bias"] = L.dense_backward(
        flatten(acts[-1]), net.dense, d_logits
    )
    d = unflatten(d, acts[-1].shape)
    for i in reversed(range(len(net.convs))):
        # The ReLU output is positive exactly where its input is; block i's
        # ReLU output and BN cache die once read.
        d = L.relu_backward(acts.pop(), d)
        d, grads[f"bn{i}.gamma"], grads[f"bn{i}.beta"] = L.batchnorm_backward(
            bn_caches.pop(), net.bns[i], d
        )
        # Block 0's input is the image batch; nothing reads its gradient.
        d, grads[f"conv{i}.weights"] = L.conv2d_backward(
            acts[i], net.convs[i], d, input_grad=i > 0
        )
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
