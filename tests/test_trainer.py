import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from forgenet import data, evaluator, model, trainer
from forgenet.errors import (
    ConfigError,
    ContractError,
    NonFiniteGradientError,
    ShapeError,
)
from forgenet.optim import AdamState, adam_step

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
         dict(early_stop_delta=-0.01), dict(seed=-1), dict(loader_threads=0),
         dict(lr=float("nan")), dict(lr=float("inf")),
         dict(early_stop_delta=float("nan")), dict(early_stop_delta=float("inf"))],
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
        assert records[0].checkpoint is None

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

    def test_one_value_per_channel_aborts_before_updates(self, tmp_path):
        """4 layers make a 9 px frame a 1x1 final map, so batch 2 on 3 frames
        would leave the last batch's batch norm 1 value per channel, after
        the first batch's update."""
        manifest = data.generate_synthetic(2, 2, 9, 0, tmp_path)
        three = data.DatasetManifest(manifest.rows[:3], "train")
        net = model.build(model.NetworkConfig(conv_layers=4, filters=2, height=9, width=9))
        before = {k: v.copy() for k, v in net.state_tensors().items()}
        with pytest.raises(
            ContractError, match=r"^batch size 2 on 3 training frames .* final 1x1 map"
        ):
            trainer.train(net, three, manifest, quick_config(batch_size=2))
        for name, tensor in net.state_tensors().items():
            assert np.array_equal(tensor, before[name]), name
        _, records, _ = trainer.train(net, three, manifest, quick_config(batch_size=3))
        assert len(records) == 2

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_gradient_names_its_batch(self, synth_root):
        _, manifests = synth_root
        net = model.build(NET_CFG)
        net.dense.weights[0, 0] = np.nan
        before = {k: v.copy() for k, v in net.parameters().items()}
        first = data.make_batches(manifests["train"], 16, seed=[0, 1])
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
        net, records, _ = trainer.train(
            net, manifests["train"], manifests["val"],
            quick_config(epochs=2, checkpoint_path=str(prefix)),
        )
        assert [r.checkpoint for r in records] == [f"{prefix}.epoch1", f"{prefix}.epoch2"]
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


class TestInferenceStatistics:
    """After each epoch the BN statistics that inference folds in are the
    epoch's batch statistics, averaged over its frames."""

    @pytest.mark.parametrize("size", [16, 32, 128])
    def test_one_batch_inference_matches_training_mode(self, tmp_path, size):
        manifest = data.generate_synthetic(4, 2, size, 11, tmp_path / "train")
        net = model.build(model.NetworkConfig(height=size, width=size, seed=5))
        trainer.train(
            net, manifest, manifest,
            quick_config(epochs=1, batch_size=len(manifest.rows), lr=0.0),
        )
        batch = data.assemble_batch(manifest, list(range(len(manifest.rows))))
        trained, _ = model.forward(net, batch.x, training=True)
        inferred, _ = model.forward(net, batch.x, training=False)
        assert np.abs(inferred - trained).max() <= 1e-5

    def test_held_out_frames_above_chance(self, tmp_path):
        # 800 frames at batch 128 are 7 steps an epoch, 56 in all: too few
        # for statistics that accumulate over steps from mean 0 and
        # variance 1 to reach the trained net's.
        train = data.generate_synthetic(200, 4, 32, 201, tmp_path / "train")
        val = data.generate_synthetic(24, 8, 32, 202, tmp_path / "val", split="val")
        test = data.generate_synthetic(24, 8, 32, 203, tmp_path / "test", split="test")
        net = model.build(model.NetworkConfig(height=32, width=32, seed=5))
        _, records, _ = trainer.train(
            net, train, val, quick_config(epochs=8, batch_size=128, seed=5)
        )
        accuracy, _, _ = evaluator.frame_metrics(evaluator.predict_manifest(net, test))
        assert records[-1].train_acc > 0.9
        assert accuracy > 0.75


class TestTrainMemory:
    def test_epoch_peak_is_one_bare_step_peak(self, tmp_path):
        """An epoch of one batch holds no more at its peak than a bare
        decode, forward, backward and Adam step on that batch: nothing in
        the loop keeps a block's cache alive through backward."""
        manifest = data.generate_synthetic(4, 4, 64, 11, tmp_path / "train")
        val = data.generate_synthetic(2, 2, 64, 12, tmp_path / "val", split="val")
        net = model.build(model.NetworkConfig(height=64, width=64, seed=5))
        config = quick_config(epochs=1, batch_size=16)
        (indices,) = data.make_batches(manifest, 16, seed=[0, 1])

        def epoch():
            trainer.train(net, manifest, val, config)

        def bare_step():
            batch = data.assemble_batch(manifest, indices)
            probs, cache = model.forward(net, batch.x, training=True)
            grads = model.backward(net, cache, batch.y)
            adam_step(net.parameters(), grads, AdamState(lr=config.lr))

        def peak(run):
            run()  # one-off allocations happen here
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(epoch) <= 1.01 * peak(bare_step)


# One process's train steps at 32px, batch 16, as `trainer.train` runs
# them: it prints the minor page faults of STEPS steps after WARM_UP.
FAULT_PROBE = """
import resource, sys
from forgenet import data, model
from forgenet.optim import AdamState, adam_step

WARM_UP, STEPS = 2, 20
manifest = data.read_manifest(sys.argv[1])
net = model.build(model.NetworkConfig(height=32, width=32, seed=5))
params, adam = net.parameters(), AdamState()
batches = data.make_batches(manifest, 16, seed=0)
for step in range(WARM_UP + STEPS):
    if step == WARM_UP:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    indices = batches[step % len(batches)]
    batch = data.assemble_batch(
        manifest, indices, out=model.input_buffer(net, len(indices))
    )
    _, cache = model.forward(net, batch.x, training=True)
    adam_step(params, model.backward(net, cache, batch.y), adam)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / STEPS)
"""


class TestTrainWorkspace:
    def test_validation_keeps_the_step_workspace(self, synth_root):
        # Validation runs in the arrays the step sized: it neither grows
        # nor replaces any of them.
        _, manifests = synth_root
        train = manifests["train"]
        net = model.build(NET_CFG)
        (indices, *_) = data.make_batches(train, 16, seed=0)
        batch = data.assemble_batch(train, indices, out=model.input_buffer(net, 16))
        _, cache = model.forward(net, batch.x, training=True)
        model.backward(net, cache, batch.y)
        pointers = {name: buf.ctypes.data for name, buf in net.buffers.items()}
        trainer.validation_accuracy(net, manifests["val"], batch_size=16)
        assert {name: buf.ctypes.data for name, buf in net.buffers.items()} == pointers

    def test_steps_take_few_page_faults(self, tmp_path):
        # Fresh arrays each step are handed back to the OS and faulted in
        # again by the next step, about 400 faults per step at this shape.
        pytest.importorskip("resource")  # the probe process reads it
        data.generate_synthetic(16, 4, 32, 7, tmp_path)
        src = str(Path(data.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE, str(tmp_path / data.MANIFEST_NAME)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert float(result.stdout) <= 50


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
