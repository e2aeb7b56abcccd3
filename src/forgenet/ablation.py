"""One-axis ablation sweeps: depth, batch size, or filter count.

Every point on an axis trains a fresh network from the same seed, so the
only thing that varies between rows is the swept value. Rows report final
train/validation accuracy, test-set accuracy at frame and video level, and
the wall-clock cost of the point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from . import data as data_mod
from . import evaluator as eval_mod
from . import model as model_mod
from . import trainer as trainer_mod
from .errors import ConfigError

AXES = ("layers", "batch_size", "filters")
ABLATION_HEADER = [
    "axis", "value", "train_acc", "val_acc", "test_acc", "test_video_acc", "runtime_s",
]


@dataclass(frozen=True)
class AblationSpec:
    axis: str
    values: tuple[int, ...]
    base_net: model_mod.NetworkConfig
    base_train: trainer_mod.TrainConfig
    # (network, training) configs of each value, derived on construction so
    # that a bad value fails before any manifest is read or output made
    configs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ConfigError(f"unknown ablation axis {self.axis!r}, expected one of {AXES}")
        if not self.values:
            raise ConfigError("ablation values must be non-empty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError(f"ablation values must be strictly increasing, got {self.values}")
        configs = tuple(derive_configs(self, value) for value in self.values)
        object.__setattr__(self, "configs", configs)


@dataclass(frozen=True)
class AblationRow:
    axis: str
    value: int
    train_acc: float
    val_acc: float
    test_acc: float
    test_video_acc: float
    runtime_s: float


def derive_configs(
    spec: AblationSpec, value: int
) -> tuple[model_mod.NetworkConfig, trainer_mod.TrainConfig]:
    """Configs for one swept point; invalid combinations name the value."""
    net_cfg = spec.base_net
    train_cfg = spec.base_train
    try:
        if spec.axis == "layers":
            net_cfg = replace(net_cfg, conv_layers=value)
        elif spec.axis == "filters":
            net_cfg = replace(net_cfg, filters=value)
        else:
            train_cfg = replace(train_cfg, batch_size=value)
    except ConfigError as exc:
        raise ConfigError(f"{spec.axis}={value}: {exc}") from None
    return net_cfg, train_cfg


def run_ablation(
    spec: AblationSpec,
    train_manifest: data_mod.DatasetManifest,
    val_manifest: data_mod.DatasetManifest,
    test_manifest: data_mod.DatasetManifest,
) -> list[AblationRow]:
    """One row per value of the axis. Before the first point trains, the
    trainer's checks pass every frame, test set included, once (no axis
    changes the frame size) and every point's batch size."""
    trainer_mod.check_frames(spec.base_net, train_manifest, val_manifest, test_manifest)
    for net_cfg, train_cfg in spec.configs:
        trainer_mod.check_batch_size(net_cfg, train_cfg, len(train_manifest))
    rows: list[AblationRow] = []
    for value, (net_cfg, train_cfg) in zip(spec.values, spec.configs):
        started = time.perf_counter()
        net = model_mod.build(net_cfg)
        net, records, _ = trainer_mod.train(net, train_manifest, val_manifest, train_cfg)
        predictions = eval_mod.predict_manifest(
            net, test_manifest, train_cfg.batch_size, train_cfg.loader_threads
        )
        test_acc, _, _ = eval_mod.frame_metrics(predictions)
        test_video_acc, _, _ = eval_mod.video_metrics(predictions)
        runtime = time.perf_counter() - started
        final = records[-1]
        rows.append(AblationRow(
            spec.axis, value, final.train_acc, final.val_acc, test_acc, test_video_acc,
            runtime,
        ))
    return rows


def write_ablation_csv(rows: list[AblationRow], path) -> None:
    table = [
        [r.axis, r.value, f"{r.train_acc:.9g}", f"{r.val_acc:.9g}",
         f"{r.test_acc:.9g}", f"{r.test_video_acc:.9g}", f"{r.runtime_s:.6f}"]
        for r in rows
    ]
    data_mod.write_csv(path, ABLATION_HEADER, table)
