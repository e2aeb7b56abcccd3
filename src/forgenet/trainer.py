"""Training loop: Adam over minibatches, per-epoch validation, early stopping.

Each epoch reshuffles the training manifest with a seed derived from
(config.seed, epoch) so a run is reproducible end to end while epochs still
see different orders. Validation runs in inference mode and never touches
network state. Early stopping compares the last two validation accuracies:
training stops once they differ by less than the configured delta.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

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
        if self.lr < 0.0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")
        if self.early_stop_delta < 0.0:
            raise ConfigError(
                f"early_stop_delta must be >= 0, got {self.early_stop_delta}"
            )
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


def train(
    net: model_mod.Network,
    train_manifest: data_mod.DatasetManifest,
    val_manifest: data_mod.DatasetManifest,
    config: TrainConfig,
) -> tuple[model_mod.Network, list[EpochRecord], str]:
    """Run up to config.epochs of Adam updates; returns the trained network,
    one record per completed epoch, and why training stopped. A non-finite
    gradient stops training with an error that names its epoch, its batch
    and the batch's first (video_id, frame_index)."""
    if not train_manifest.rows:
        raise ContractError("train: empty training manifest")
    if not val_manifest.rows:
        raise ContractError("train: empty validation manifest")
    expected = (net.config.height, net.config.width)
    data_mod.check_frame_sizes(expected, train_manifest, val_manifest)

    params = net.parameters()
    adam = AdamState(lr=config.lr)
    records: list[EpochRecord] = []
    val_history: list[float] = []
    stop_reason = STOP_EPOCHS_EXHAUSTED

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        loss_sum = 0.0
        correct = 0
        seen = 0
        batches = data_mod.make_batches(
            train_manifest, config.batch_size, shuffle=True, seed=[config.seed, epoch]
        )
        for position, indices in enumerate(batches, start=1):
            batch = data_mod.assemble_batch(
                train_manifest, indices, threads=config.loader_threads
            )
            probs, cache = model_mod.forward(net, batch.x, training=True)
            loss, _ = bce_loss(probs, batch.y)
            grads = model_mod.backward(net, cache, batch.y)
            try:
                adam_step(params, grads, adam)
            except NonFiniteGradientError as exc:
                video_id, frame_index = batch.provenance[0]
                raise NonFiniteGradientError(
                    f"epoch {epoch}, batch {position} (first sample: video "
                    f"{video_id!r}, frame {frame_index}): {exc}"
                ) from exc
            n = len(indices)
            loss_sum += loss * n
            correct += int(
                (eval_mod.classify_batch(probs) == batch.y.astype(int)).sum()
            )
            seen += n
        train_loss = loss_sum / seen
        train_acc = correct / seen
        val_acc = validation_accuracy(
            net, val_manifest, config.batch_size, config.loader_threads
        )
        wall = time.perf_counter() - started
        records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=float(train_loss),
                train_acc=float(train_acc),
                val_acc=float(val_acc),
                wall_time=float(wall),
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
        if config.checkpoint_path is not None:
            model_mod.save_weights(net, f"{config.checkpoint_path}.epoch{epoch}")
        val_history.append(val_acc)
        if should_stop(val_history, config.early_stop_delta):
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
