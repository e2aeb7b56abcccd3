import pytest

from forgenet import ablation, data, evaluator, model, trainer
from forgenet.errors import ConfigError, ContractError, ShapeError

NET_CFG = model.NetworkConfig(conv_layers=2, filters=2, height=24, width=24, seed=3)
TRAIN_CFG = trainer.TrainConfig(epochs=1, batch_size=16, early_stop_delta=0.0)


def spec_for(axis, values):
    return ablation.AblationSpec(
        axis=axis, values=values, base_net=NET_CFG, base_train=TRAIN_CFG
    )


class TestAblationSpec:
    def test_valid_axes(self):
        for axis in ablation.AXES:
            assert spec_for(axis, (1, 2)).axis == axis

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="axis"):
            spec_for("dropout", (1, 2))

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            spec_for("layers", ())

    def test_non_increasing_values_rejected(self):
        with pytest.raises(ConfigError, match="increasing"):
            spec_for("layers", (2, 2, 3))
        with pytest.raises(ConfigError, match="increasing"):
            spec_for("batch_size", (128, 64))


class TestDeriveConfigs:
    def test_layers_axis_replaces_depth_only(self):
        net_cfg, train_cfg = ablation.derive_configs(spec_for("layers", (1, 3)), 3)
        assert net_cfg.conv_layers == 3
        assert net_cfg.filters == NET_CFG.filters
        assert train_cfg == TRAIN_CFG

    def test_filters_axis(self):
        net_cfg, _ = ablation.derive_configs(spec_for("filters", (4, 8)), 8)
        assert net_cfg.filters == 8
        assert net_cfg.conv_layers == NET_CFG.conv_layers

    def test_batch_axis_leaves_network_alone(self):
        net_cfg, train_cfg = ablation.derive_configs(spec_for("batch_size", (64, 128)), 64)
        assert net_cfg == NET_CFG
        assert train_cfg.batch_size == 64

    def test_invalid_value_error_names_the_point(self):
        # 12 valid conv layers need at least 25x25 input; the base is 24x24
        with pytest.raises(ConfigError, match="layers=12"):
            ablation.derive_configs(spec_for("layers", (1, 12)), 12)

    def test_zero_layers_named(self):
        # The spec derives every value's configs, so it refuses on construction
        with pytest.raises(ConfigError, match="layers=0"):
            ablation.AblationSpec(
                axis="layers", values=(0,), base_net=NET_CFG, base_train=TRAIN_CFG
            )


class TestRunAblation:
    def test_rows_in_spec_order_with_sane_fields(self, synth_root):
        _, manifests = synth_root
        rows = ablation.run_ablation(
            spec_for("filters", (1, 2)),
            manifests["train"], manifests["val"], manifests["test"],
        )
        assert [r.value for r in rows] == [1, 2]
        for row in rows:
            assert row.axis == "filters"
            assert 0.0 <= row.train_acc <= 1.0
            assert 0.0 <= row.val_acc <= 1.0
            assert 0.0 <= row.test_acc <= 1.0
            assert 0.0 <= row.test_video_acc <= 1.0
            assert row.runtime_s > 0.0

    def test_accuracies_score_the_same_predictions(self, synth_root, monkeypatch):
        _, manifests = synth_root
        logs = []
        predict = evaluator.predict_manifest

        def logged(net, manifest, *args):
            records = predict(net, manifest, *args)
            if manifest is manifests["test"]:  # not the trainer's val passes
                logs.append(records)
            return records

        monkeypatch.setattr(evaluator, "predict_manifest", logged)
        rows = ablation.run_ablation(
            spec_for("filters", (1, 2)),
            manifests["train"], manifests["val"], manifests["test"],
        )
        assert len(logs) == len(rows)
        for row, log in zip(rows, logs):
            assert row.test_acc == evaluator.frame_metrics(log)[0]
            assert row.test_video_acc == evaluator.video_metrics(log)[0]

    def test_batch_axis_row_count(self, synth_root):
        _, manifests = synth_root
        rows = ablation.run_ablation(
            spec_for("batch_size", (8, 16, 32)),
            manifests["train"], manifests["val"], manifests["test"],
        )
        assert [r.value for r in rows] == [8, 16, 32]

    def test_same_seed_reruns_identically(self, synth_root):
        _, manifests = synth_root
        spec = spec_for("layers", (1, 2))
        args = (manifests["train"], manifests["val"], manifests["test"])
        a = ablation.run_ablation(spec, *args)
        b = ablation.run_ablation(spec, *args)
        strip = lambda rows: [(r.axis, r.value, r.train_acc, r.val_acc, r.test_acc)
                              for r in rows]
        assert strip(a) == strip(b)


class TestRefusesBeforeTraining:
    """A sweep with a bad value, or an input that `train` would refuse at
    any of its points, fails before its first point trains."""

    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        step = trainer.adam_step

        def counted(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(trainer, "adam_step", counted)
        return calls

    def test_test_frames_of_another_size(self, tmp_path, steps):
        train = data.generate_synthetic(4, 4, 16, 1, tmp_path / "train")
        val = data.generate_synthetic(2, 4, 16, 2, tmp_path / "val", split="val")
        test = data.generate_synthetic(2, 4, 20, 3, tmp_path / "test", split="test")
        net = model.NetworkConfig(conv_layers=2, filters=2, height=16, width=16)
        spec = ablation.AblationSpec("batch_size", (4, 8), net, TRAIN_CFG)
        with pytest.raises(ShapeError, match="test"):
            ablation.run_ablation(spec, train, val, test)
        assert not steps

    @pytest.fixture
    def trains(self, monkeypatch):
        calls = []
        train = trainer.train

        def counted(*args, **kwargs):
            calls.append(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(trainer, "train", counted)
        return calls

    def test_later_point_leaving_one_value_per_channel(self, tmp_path, trains):
        """4 layers make a 9 px frame a 1x1 final map, so batch 16 on 17
        frames leaves the last batch's batch norm 1 value per channel; 2
        layers leave a 5x5 map, so the first point alone would train."""
        manifest = data.generate_synthetic(2, 9, 9, 1, tmp_path)
        seventeen = data.DatasetManifest(manifest.rows[:17], "train")
        net = model.NetworkConfig(conv_layers=2, filters=2, height=9, width=9)
        spec = ablation.AblationSpec("layers", (2, 4), net, TRAIN_CFG)
        with pytest.raises(
            ContractError, match=r"^batch size 16 on 17 training frames .* final 1x1 map"
        ):
            ablation.run_ablation(spec, seventeen, manifest, manifest)
        assert not trains

    def test_empty_test_manifest(self, synth_root, trains):
        _, manifests = synth_root
        with pytest.raises(ContractError, match="^empty test manifest"):
            ablation.run_ablation(
                spec_for("filters", (1, 2)), manifests["train"], manifests["val"],
                data.DatasetManifest([], "test"),
            )
        assert not trains

    def test_invalid_later_value(self, synth_root, steps):
        _, manifests = synth_root
        # 12 valid conv layers need at least 25x25 input; the base is 24x24
        with pytest.raises(ConfigError, match="layers=12"):
            ablation.run_ablation(
                spec_for("layers", (1, 12)),
                manifests["train"], manifests["val"], manifests["test"],
            )
        assert not steps


class TestAblationCsv:
    def test_header_and_formatting(self, tmp_path):
        rows = [
            ablation.AblationRow("layers", 1, 0.8, 0.75, 0.7, 0.625, 1.5),
            ablation.AblationRow("layers", 2, 0.9, 0.85, 0.8, 0.75, 2.5),
        ]
        path = tmp_path / "ablation.csv"
        ablation.write_ablation_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "axis,value,train_acc,val_acc,test_acc,test_video_acc,runtime_s"
        assert lines[1].startswith("layers,1,0.8,0.75,0.7,0.625,")
        assert len(lines) == 3
