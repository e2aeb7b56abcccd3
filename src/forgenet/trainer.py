"""Training loop: Adam over minibatches, per-epoch validation, early stopping.

Each epoch reshuffles the training manifest with a seed derived from
(config.seed, epoch) so a run is reproducible end to end while epochs still
see different orders. Adam writes the parameters each step; after an
epoch's last step each BN's inference statistics become its batch means
and biased batch variances, averaged over the epoch's frames. Validation
runs in inference mode and never touches network state. Early stopping
compares the last two validation accuracies: training stops once they
differ by less than the configured delta.

`check_frames` and `check_batch_size` refuse a bad input before the first
step. `train` calls both; an ablation sweep checks its frames once and every
point's batch size before the first point trains.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import evaluator as eval_mod
from . import model as model_mod
from .errors import ConfigError, ContractError, NonFiniteGradientError
from .layers import bce_loss
from .optim import AdamState, adam_step

logger = logging.getLogger("forgenet.trainer")

STOP_EPOCHS_EXHAUSTED = "epochs_exhausted"
STOP_EARLY = "early_stop"


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 128
    lr: float = 0.001
    early_stop_delta: float = 0.01  # 0 disables early stopping
    seed: int = 0
    loader_threads: int = 1
    checkpoint_path: str | None = None  # per-epoch weights written as <path>.epochN

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("lr", "early_stop_delta"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:  # negated, so that NaN fails too
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.loader_threads < 1:
            raise ConfigError(f"loader_threads must be >= 1, got {self.loader_threads}")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int  # 1-based
    train_loss: float
    train_acc: float
    val_acc: float
    wall_time: float  # seconds; excluded from reproducibility comparisons
    checkpoint: str | None = None  # the weights file written after this epoch


def should_stop(val_history: list[float], delta: float) -> bool:
    """True once the last two validation accuracies differ by less than delta.

    A strict inequality, so delta == 0 never stops and an exact plateau of
    size delta keeps training.
    """
    if delta <= 0.0 or len(val_history) < 2:
        return False
    return abs(val_history[-1] - val_history[-2]) < delta


def validation_accuracy(
    net: model_mod.Network,
    manifest: data_mod.DatasetManifest,
    batch_size: int,
    threads: int = 1,
) -> float:
    records = eval_mod.predict_manifest(net, manifest, batch_size, threads)
    accuracy, _, _ = eval_mod.frame_metrics(records)
    return accuracy


def check_frames(
    net_config: model_mod.NetworkConfig, *manifests: data_mod.DatasetManifest
) -> None:
    """Refuse an empty manifest or a frame not of the net's input size."""
    for manifest in manifests:
        if not manifest.rows:
            raise ContractError(f"empty {manifest.split} manifest")
    data_mod.check_frame_sizes((net_config.height, net_config.width), *manifests)


def check_batch_size(
    net_config: model_mod.NetworkConfig, config: TrainConfig, frames: int
) -> None:
    """Refuse a batch size whose last batch of `frames` training frames
    leaves batch norm one value per channel."""
    last = frames % config.batch_size or config.batch_size
    height, width = net_config.feature_height, net_config.feature_width
    if last * height * width < 2:
        raise ContractError(
            f"batch size {config.batch_size} on {frames} training "
            f"frames leaves a last batch of {last}, and over the final "
            f"{height}x{width} map batch norm needs >= 2 values per channel"
        )


def train(
    net: model_mod.Network,
    train_manifest: data_mod.DatasetManifest,
    val_manifest: data_mod.DatasetManifest,
    config: TrainConfig,
) -> tuple[model_mod.Network, list[EpochRecord], str]:
    """Run up to config.epochs of Adam updates; returns the trained network,
    one record per completed epoch, and why training stopped. `check_frames`
    and `check_batch_size` refuse a bad input before the first step. A
    non-finite gradient stops training with an error that names its epoch,
    its batch and the batch's first (video_id, frame_index)."""
    check_frames(net.config, train_manifest, val_manifest)
    check_batch_size(net.config, config, len(train_manifest))
    frames = len(train_manifest)
    params = net.parameters()
    adam = AdamState(lr=config.lr)
    records: list[EpochRecord] = []
    stop_reason = STOP_EPOCHS_EXHAUSTED

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        loss_sum = 0.0
        correct = 0
        stats = 0.0  # per BN, the sum of batch (mean, var) times batch frames
        batches = data_mod.make_batches(
            train_manifest, config.batch_size, seed=[config.seed, epoch]
        )
        for position, indices in enumerate(batches, start=1):
            n = len(indices)
            batch = data_mod.assemble_batch(
                train_manifest, indices, threads=config.loader_threads,
                out=model_mod.input_buffer(net, n),
            )
            probs, cache = model_mod.forward(net, batch.x, training=True)
            loss, _ = bce_loss(probs, batch.y)
            stats += n * np.array([(c.mean, c.var) for c in cache.bn_caches], float)
            grads = model_mod.backward(net, cache, batch.y)
            try:
                adam_step(params, grads, adam)
            except NonFiniteGradientError as exc:
                first = train_manifest.rows[indices[0]]
                raise NonFiniteGradientError(
                    f"epoch {epoch}, batch {position} (first sample: video "
                    f"{first.video_id!r}, frame {first.frame_index}): {exc}"
                ) from exc
            loss_sum += loss * n
            correct += int(
                (eval_mod.classify_batch(probs) == batch.y.astype(int)).sum()
            )
        train_loss = loss_sum / frames
        train_acc = correct / frames
        for bn, (mean, var) in zip(net.bns, stats / frames):
            bn.moving_mean[:], bn.moving_var[:] = mean, var
        val_acc = validation_accuracy(
            net, val_manifest, config.batch_size, config.loader_threads
        )
        wall = time.perf_counter() - started
        checkpoint = None
        if config.checkpoint_path is not None:
            checkpoint = f"{config.checkpoint_path}.epoch{epoch}"
            model_mod.save_weights(net, checkpoint)
        records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(train_loss),
                train_acc=float(train_acc),
                val_acc=float(val_acc),
                wall_time=float(wall),
                checkpoint=checkpoint,
            )
        )
        logger.info(
            "epoch %d: train_loss=%.4f train_acc=%.4f val_acc=%.4f (%.2fs)",
            epoch,
            train_loss,
            train_acc,
            val_acc,
            wall,
        )
        if should_stop([r.val_acc for r in records], config.early_stop_delta):
            stop_reason = STOP_EARLY
            logger.info("early stop after epoch %d", epoch)
            break

    return net, records, stop_reason


METRICS_HEADER = ["epoch", "train_loss", "train_acc", "val_acc", "wall_time"]


def write_metrics_csv(records: list[EpochRecord], path) -> None:
    table = [
        [r.epoch, f"{r.train_loss:.9g}", f"{r.train_acc:.9g}",
         f"{r.val_acc:.9g}", f"{r.wall_time:.6f}"]
        for r in records
    ]
    data_mod.write_csv(path, METRICS_HEADER, table)
