import dataclasses

import numpy as np
import pytest

from forgenet import data, model, trainer
from forgenet.errors import (
    ConfigError,
    ContractError,
    NonFiniteGradientError,
    ShapeError,
)

NET_CFG = model.NetworkConfig(conv_layers=2, filters=2, height=24, width=24, seed=3)


def quick_config(**overrides):
    base = dict(epochs=2, batch_size=16, lr=0.001, early_stop_delta=0.0, seed=0)
    base.update(overrides)
    return trainer.TrainConfig(**base)


class TestTrainConfig:
    def test_defaults(self):
        cfg = trainer.TrainConfig()
        assert (cfg.epochs, cfg.batch_size, cfg.lr) == (10, 128, 0.001)
        assert cfg.early_stop_delta == 0.01

    @pytest.mark.parametrize(
        "bad",
        [dict(epochs=0), dict(batch_size=0), dict(lr=-0.1),
         dict(early_stop_delta=-0.01), dict(seed=-1), dict(loader_threads=0)],
    )
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ConfigError):
            trainer.TrainConfig(**bad)

    def test_zero_lr_allowed(self):
        assert trainer.TrainConfig(lr=0.0).lr == 0.0


class TestShouldStop:
    def test_small_change_stops(self):
        assert trainer.should_stop([0.80, 0.805], 0.01) is True

    def test_growing_history_continues(self):
        assert trainer.should_stop([0.5, 0.6, 0.7], 0.01) is False

    def test_exact_delta_continues(self):
        assert trainer.should_stop([0.80, 0.81], 0.01) is False

    def test_short_history_continues(self):
        assert trainer.should_stop([], 0.01) is False
        assert trainer.should_stop([0.9], 0.01) is False

    def test_zero_delta_disables(self):
        assert trainer.should_stop([0.5, 0.5], 0.0) is False

    def test_only_last_two_epochs_matter(self):
        assert trainer.should_stop([0.5, 0.5, 0.9], 0.01) is False


class TestTrain:
    def test_single_epoch(self, synth_root):
        _, manifests = synth_root
        net = model.build(NET_CFG)
        _, records, reason = trainer.train(
            net, manifests["train"], manifests["val"], quick_config(epochs=1)
        )
        assert len(records) == 1
        assert records[0].epoch == 1
        assert reason == trainer.STOP_EPOCHS_EXHAUSTED
        assert 0.0 <= records[0].train_acc <= 1.0
        assert 0.0 <= records[0].val_acc <= 1.0
        assert records[0].wall_time > 0.0

    def test_same_seed_bit_identical_records(self, synth_root):
        _, manifests = synth_root

        def run():
            net = model.build(NET_CFG)
            net, records, _ = trainer.train(
                net, manifests["train"], manifests["val"], quick_config()
            )
            return net, [(r.epoch, r.train_loss, r.train_acc, r.val_acc) for r in records]

        net_a, rec_a = run()
        net_b, rec_b = run()
        assert rec_a == rec_b
        for name, tensor in net_a.state_tensors().items():
            assert np.array_equal(tensor, net_b.state_tensors()[name]), name

    def test_loss_decreases_on_separable_data(self, synth_root):
        _, manifests = synth_root
        net = model.build(NET_CFG)
        _, records, _ = trainer.train(
            net, manifests["train"], manifests["val"], quick_config(epochs=3)
        )
        assert records[-1].train_loss < records[0].train_loss

    def test_zero_lr_freezes_network_and_accuracies(self, synth_root):
        _, manifests = synth_root
        net = model.build(NET_CFG)
        net.dense.bias[0] = 25.0  # saturate so predictions cannot drift
        before = {k: v.copy() for k, v in net.parameters().items()}
        _, records, _ = trainer.train(
            net, manifests["train"], manifests["val"], quick_config(epochs=3, lr=0.0)
        )
        for name, tensor in net.parameters().items():
            assert np.array_equal(tensor, before[name]), name
        assert len({r.train_acc for r in records}) == 1
        assert len({r.val_acc for r in records}) == 1

    def test_conv_biases_keep_their_stored_values(self, synth_root, rng):
        # A conv bias has no gradient under BN, so training never updates
        # it, and a loaded nonzero bias is kept bit for bit.
        _, manifests = synth_root
        net = model.build(NET_CFG)
        for conv in net.convs:
            conv.bias[...] = rng.normal(0.0, 0.1, size=conv.bias.shape)
        before = [conv.bias.copy() for conv in net.convs]
        _, records, _ = trainer.train(
            net, manifests["train"], manifests["val"], quick_config(epochs=2)
        )
        assert len(records) == 2
        for i, conv in enumerate(net.convs):
            assert conv.bias.tobytes() == before[i].tobytes(), f"conv{i}.bias"

    def test_early_stop_fires_at_epoch_two_on_plateau(self, synth_root):
        _, manifests = synth_root
        net = model.build(NET_CFG)
        net.dense.bias[0] = 25.0  # constant validation accuracy
        _, records, reason = trainer.train(
            net, manifests["train"], manifests["val"],
            quick_config(epochs=5, lr=0.0, early_stop_delta=0.01),
        )
        assert reason == trainer.STOP_EARLY
        assert len(records) == 2

    def test_early_stop_never_fires_with_zero_delta(self, synth_root):
        _, manifests = synth_root
        net = model.build(NET_CFG)
        net.dense.bias[0] = 25.0
        _, records, reason = trainer.train(
            net, manifests["train"], manifests["val"],
            quick_config(epochs=3, lr=0.0, early_stop_delta=0.0),
        )
        assert reason == trainer.STOP_EPOCHS_EXHAUSTED
        assert len(records) == 3

    def test_shape_mismatch_aborts_before_updates(self, synth_root):
        _, manifests = synth_root
        small = model.build(
            model.NetworkConfig(conv_layers=2, filters=2, height=12, width=12)
        )
        before = {k: v.copy() for k, v in small.state_tensors().items()}
        with pytest.raises(ShapeError):
            trainer.train(small, manifests["train"], manifests["val"], quick_config())
        for name, tensor in small.state_tensors().items():
            assert np.array_equal(tensor, before[name]), name

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_wrong_size_last_frame_aborts_before_updates(
        self, synth_root, tmp_path, split
    ):
        _, manifests = synth_root
        rows = list(manifests[split].rows)
        odd = tmp_path / "odd.ppm"
        data.write_ppm(np.zeros((3, 20, 20), np.float32), odd)
        rows[-1] = dataclasses.replace(rows[-1], path=str(odd))
        broken = {**manifests, split: data.DatasetManifest(rows, split)}
        net = model.build(NET_CFG)
        before = {k: v.copy() for k, v in net.state_tensors().items()}
        # At batch 8 the last train row falls in the second shuffled batch,
        # so a check made batch by batch would come after one update.
        with pytest.raises(ShapeError, match="odd.ppm"):
            trainer.train(
                net, broken["train"], broken["val"], quick_config(batch_size=8)
            )
        for name, tensor in net.state_tensors().items():
            assert np.array_equal(tensor, before[name]), name

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_gradient_names_its_batch(self, synth_root):
        _, manifests = synth_root
        net = model.build(NET_CFG)
        net.dense.weights[0, 0] = np.nan
        before = {k: v.copy() for k, v in net.parameters().items()}
        first = data.make_batches(manifests["train"], 16, shuffle=True, seed=[0, 1])
        row = manifests["train"].rows[first[0][0]]
        expected = (
            f"epoch 1, batch 1 (first sample: video '{row.video_id}', "
            f"frame {row.frame_index}): non-finite gradient for "
        )
        with pytest.raises(NonFiniteGradientError) as info:
            trainer.train(net, manifests["train"], manifests["val"], quick_config())
        assert str(info.value).startswith(expected)
        for name, tensor in net.parameters().items():
            assert np.array_equal(tensor, before[name], equal_nan=True), name

    def test_empty_manifest_rejected(self, synth_root):
        _, manifests = synth_root
        empty = data.DatasetManifest(rows=[], split="train")
        with pytest.raises(ContractError):
            trainer.train(model.build(NET_CFG), empty, manifests["val"], quick_config())

    def test_checkpoints_written_per_epoch(self, synth_root, tmp_path):
        _, manifests = synth_root
        net = model.build(NET_CFG)
        prefix = tmp_path / "ck"
        net, _, _ = trainer.train(
            net, manifests["train"], manifests["val"],
            quick_config(epochs=2, checkpoint_path=str(prefix)),
        )
        for epoch in (1, 2):
            loaded = model.load_weights(f"{prefix}.epoch{epoch}")
            # The file stores every config field but the seed.
            assert loaded.config == dataclasses.replace(NET_CFG, seed=0)
        final = model.load_weights(f"{prefix}.epoch2")
        for name, tensor in net.state_tensors().items():
            assert np.array_equal(tensor, final.state_tensors()[name]), name


class TestDeskScaleSeparability:
    def test_two_layer_net_masters_the_synthetic_set(self, desk32):
        train_manifest, val_manifest, _ = desk32
        cfg = model.NetworkConfig(conv_layers=2, filters=2, height=32, width=32, seed=7)
        config = trainer.TrainConfig(
            epochs=3, batch_size=16, lr=0.001, early_stop_delta=0.0, seed=7
        )
        _, records, _ = trainer.train(
            model.build(cfg), train_manifest, val_manifest, config
        )
        assert records[1].train_loss < records[0].train_loss
        assert records[-1].train_acc >= 0.99


class TestValidationPurity:
    def test_validation_never_mutates_state(self, synth_root):
        _, manifests = synth_root
        net = model.build(NET_CFG)
        before = {k: v.copy() for k, v in net.state_tensors().items()}
        acc = trainer.validation_accuracy(net, manifests["val"], batch_size=16)
        assert 0.0 <= acc <= 1.0
        for name, tensor in net.state_tensors().items():
            assert np.array_equal(tensor, before[name]), name


class TestMetricsCsv:
    def test_header_and_rows(self, tmp_path):
        records = [
            trainer.EpochRecord(1, 0.693, 0.5, 0.5, 1.25),
            trainer.EpochRecord(2, 0.401, 0.9, 0.85, 1.31),
        ]
        path = tmp_path / "metrics.csv"
        trainer.write_metrics_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,val_acc,wall_time"
        assert len(lines) == 3
        assert lines[1].startswith("1,0.693,0.5,0.5,")
