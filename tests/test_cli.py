import csv
import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from forgenet import cli, data, evaluator, model, trainer
from forgenet.errors import NonFiniteGradientError
from forgenet.evaluator import PredictionRecord


def run_cli(argv: list[str], **env: str) -> subprocess.CompletedProcess:
    """The forgenet command in a fresh process, with `env` added. Under
    pytest the root logger already has handlers, so only a fresh process
    configures logging from FORGENET_LOG as a user's shell does."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "forgenet.cli", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.fixture(scope="module")
def cli_run(synth_root, tmp_path_factory):
    """One CLI training run shared by the eval tests."""
    root, _ = synth_root
    out = tmp_path_factory.mktemp("cli-train")
    code = cli.main([
        "train",
        "--manifest", str(root / "train" / "manifest.csv"),
        "--val-manifest", str(root / "val" / "manifest.csv"),
        "--out", str(out),
        "--layers", "2", "--filters", "2", "--size", "24",
        "--batch", "16", "--epochs", "2", "--early-stop", "0",
        "--checkpoints",
    ])
    assert code == 0
    return root, out


class TestGenSynth:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = cli.main([
            "gen-synth", "--videos", "4", "--frames", "3",
            "--size", "16", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        assert "wrote 12 frames across 4 videos" in capsys.readouterr().out
        assert (out / "manifest.csv").exists()
        assert (out / "run.json").exists()
        assert sum(1 for _ in out.rglob("*.ppm")) == 12

    def test_unwritable_out_is_usage_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = cli.main([
            "gen-synth", "--videos", "2", "--frames", "1",
            "--size", "16", "--out", str(blocker / "sub"),
        ])
        assert code == 2

    def test_odd_videos_is_usage_error(self, tmp_path):
        code = cli.main([
            "gen-synth", "--videos", "3", "--frames", "1",
            "--size", "16", "--out", str(tmp_path / "d"),
        ])
        assert code == 2

    def test_repeat_identical_except_run_manifest(self, tmp_path):
        def tree(out):
            cli.main([
                "gen-synth", "--videos", "2", "--frames", "2",
                "--size", "12", "--seed", "5", "--out", str(out),
            ])
            return {
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "run.json"
            }

        assert tree(tmp_path / "a") == tree(tmp_path / "b")


class TestTrain:
    def test_print_params_default_shape(self, capsys):
        assert cli.main(["train", "--print-params"]) == 0
        assert capsys.readouterr().out.strip() == "58221"

    def test_print_params_respects_flags(self, capsys):
        code = cli.main([
            "train", "--print-params",
            "--layers", "2", "--filters", "2", "--size", "24",
        ])
        assert code == 0
        expected = model.count_parameters(
            model.NetworkConfig(conv_layers=2, filters=2, height=24, width=24)
        )
        assert capsys.readouterr().out.strip() == str(expected)

    def test_zero_layers_is_usage_error(self):
        assert cli.main(["train", "--layers", "0", "--print-params"]) == 2

    def test_missing_manifest_is_usage_error(self, tmp_path):
        assert cli.main(["train", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag,value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--early-stop", "nan"),
    ])
    def test_non_finite_hyperparameter_is_usage_error(
        self, synth_root, tmp_path, capsys, flag, value
    ):
        root, _ = synth_root
        out = tmp_path / "o"
        code = cli.main([
            "train",
            "--manifest", str(root / "train" / "manifest.csv"),
            "--val-manifest", str(root / "val" / "manifest.csv"),
            "--out", str(out),
            "--layers", "2", "--filters", "2", "--size", "24",
            "--batch", "16", "--epochs", "1", flag, value,
        ])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_outputs_written(self, cli_run):
        _, out = cli_run
        assert (out / "weights.fgn").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "checkpoint.epoch1").exists()
        metrics_lines = (out / "metrics.csv").read_text().splitlines()
        assert metrics_lines[0] == "epoch,train_loss,train_acc,val_acc,wall_time"
        assert 2 <= len(metrics_lines) <= 3  # header + at most --epochs rows

    def test_run_manifest_contents(self, cli_run):
        _, out = cli_run
        payload = json.loads((out / "run.json").read_text())
        assert payload["command"] == "train"
        assert payload["version"].startswith("forgenet-")
        assert payload["config"]["network"]["conv_layers"] == 2
        assert str(out / "weights.fgn") in payload["outputs"]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_gradient_names_its_batch(
        self, synth_root, tmp_path, monkeypatch, capsys
    ):
        root, manifests = synth_root
        build = model.build

        def poisoned(config):
            net = build(config)
            net.dense.weights[0, 0] = np.nan
            return net

        monkeypatch.setattr(model, "build", poisoned)
        config = model.NetworkConfig(conv_layers=2, filters=2, height=24, width=24)
        with pytest.raises(NonFiniteGradientError) as info:
            trainer.train(
                model.build(config), manifests["train"], manifests["val"],
                trainer.TrainConfig(epochs=1, batch_size=16),
            )
        code = cli.main([
            "train",
            "--manifest", str(root / "train" / "manifest.csv"),
            "--val-manifest", str(root / "val" / "manifest.csv"),
            "--out", str(tmp_path),
            "--layers", "2", "--filters", "2", "--size", "24",
            "--batch", "16", "--epochs", "1",
        ])
        assert code == 1
        assert str(info.value).startswith("epoch 1, batch 1 (first sample: video 'vid")
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {info.value}"
        assert not (tmp_path / "weights.fgn").exists()

    def test_one_value_per_channel_fails_before_training(self, tmp_path, capsys):
        """4 layers leave a 9 px frame a 1x1 map: batch 2 on 3 frames would
        give the last batch's batch norm 1 value per channel."""
        manifest = data.generate_synthetic(2, 2, 9, 0, tmp_path / "d")
        three = tmp_path / "three.csv"
        data.write_manifest(data.DatasetManifest(manifest.rows[:3], "train"), three)
        out = tmp_path / "o"
        code = cli.main([
            "train", "--manifest", str(three),
            "--val-manifest", str(tmp_path / "d" / "manifest.csv"),
            "--layers", "4", "--filters", "2", "--size", "9", "--batch", "2",
            "--epochs", "1", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: batch size 2 on 3 training frames")
        assert "Traceback" not in err
        assert not (out / "weights.fgn").exists()


class TestEval:
    def test_frame_level_from_weights(self, cli_run, tmp_path, capsys):
        root, train_out = cli_run
        out = tmp_path / "eval"
        code = cli.main([
            "eval",
            "--weights", str(train_out / "weights.fgn"),
            "--manifest", str(root / "test" / "manifest.csv"),
            "--batch", "16", "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "frame accuracy" in stdout
        assert "truth original" in stdout
        assert (out / "predictions.csv").exists()
        assert (out / "metrics.jsonl").exists()
        records = evaluator.read_predictions(out / "predictions.csv")
        assert len(records) == 40  # 8 test videos x 5 frames

    def test_reports_both_levels(self, tmp_path, capsys):
        """One fake video of 3 frames, 2 of them scored original, and one
        original frame scored right: 2 of 4 frames and 1 of 2 videos missed."""
        log = tmp_path / "log.csv"
        records = [PredictionRecord("real", 0, 0, 0.1)]
        records += [PredictionRecord("fake", i, 1, p) for i, p in enumerate([0.2, 0.3, 0.9])]
        evaluator.write_predictions(records, log)
        out = tmp_path / "o"
        assert cli.main(["eval", "--predictions", str(log), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:5] == [
            "frame accuracy 0.5000",
            "misclassified frames: 2 of 4",
            "video accuracy 0.5000",
            "missed videos: 1 of 2",
            "  fake: truth=1 predicted=0 (67% of frames voted original)",
        ]
        assert lines[5].startswith("frame ") and lines[8].startswith("video ")
        metrics = {
            m["metric"]: m["value"]
            for m in map(json.loads, (out / "metrics.jsonl").read_text().splitlines())
        }
        assert metrics == {
            "frame_accuracy": 0.5, "misclassified_frames": 2, "total_frames": 4,
            "video_accuracy": 0.5, "missed_videos": 1, "total_videos": 2,
            "frame_rate_truth0_detected0": 1.0, "frame_rate_truth0_detected1": 0.0,
            "frame_rate_truth1_detected0": 2 / 3, "frame_rate_truth1_detected1": 1 / 3,
            "video_rate_truth0_detected0": 1.0, "video_rate_truth0_detected1": 0.0,
            "video_rate_truth1_detected0": 1.0, "video_rate_truth1_detected1": 0.0,
        }
        assert (out / "videos.csv").read_text().splitlines()[1:] == [
            "real,0,0,1,0", "fake,1,0,2,1",
        ]
        assert "level" not in json.loads((out / "run.json").read_text())["config"]

    def test_level_is_an_unknown_flag(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = cli.main([
            "eval", "--predictions", "p.csv", "--level", "video", "--out", str(out),
        ])
        assert code == 2
        assert "unrecognized arguments: --level video" in capsys.readouterr().err
        assert not out.exists()

    def test_all_correct_log_prints_unit_accuracy(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        records = [PredictionRecord(f"v{i}", 0, i % 2, 0.9 * (i % 2) + 0.05)
                   for i in range(10)]
        evaluator.write_predictions(records, log)
        code = cli.main([
            "eval", "--predictions", str(log), "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        assert "frame accuracy 1.0000" in capsys.readouterr().out

    def test_video_level_reports_majority_miss(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        records = [PredictionRecord("good", i, 0, 0.1) for i in range(4)]
        records += [
            PredictionRecord("sly", i, 1, 0.1 if i < 53 else 0.9) for i in range(100)
        ]
        evaluator.write_predictions(records, log)
        out = tmp_path / "o"
        code = cli.main([
            "eval", "--predictions", str(log), "--out", str(out),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "video accuracy 0.5000" in stdout
        assert "sly" in stdout and "53%" in stdout
        verdicts = (out / "videos.csv").read_text().splitlines()
        assert verdicts[0] == "video_id,truth,predicted,frames_original,frames_fake"
        assert "sly,1,0,53,47" in verdicts

    def test_video_id_with_comma_stays_one_field(self, tmp_path):
        log = tmp_path / "log.csv"
        evaluator.write_predictions([PredictionRecord("clip,a", 0, 1, 0.9)], log)
        out = tmp_path / "o"
        code = cli.main([
            "eval", "--predictions", str(log), "--out", str(out),
        ])
        assert code == 0
        with open(out / "videos.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["clip,a", "1", "1", "0", "1"]

    def test_run_manifest_records_no_seed(self, tmp_path):
        log = tmp_path / "log.csv"
        evaluator.write_predictions([PredictionRecord("v", 0, 1, 0.9)], log)
        out = tmp_path / "o"
        assert cli.main(["eval", "--predictions", str(log), "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["seed"] is None
        assert cli.main([
            "eval", "--predictions", str(log), "--seed", "3", "--out", str(out),
        ]) == 2

    def test_histogram_csv(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        records = [PredictionRecord("v", i, 1, p)
                   for i, p in enumerate([0.05, 0.15, 0.95, 1.0])]
        evaluator.write_predictions(records, log)
        out = tmp_path / "o"
        code = cli.main([
            "eval", "--predictions", str(log), "--histogram", "v", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "histogram_v.csv").read_text().splitlines()
        assert lines[0] == "bin_start,bin_end,count"
        assert len(lines) == 11
        assert lines[1] == "0.0,0.1,1"
        assert lines[10] == "0.9,1.0,2"

    def test_histogram_unknown_video_fails(self, tmp_path, capsys):
        """The id is checked before any output: an earlier run's run.json is
        left as it was, and no file joins it."""
        log = tmp_path / "log.csv"
        evaluator.write_predictions([PredictionRecord("v", 0, 1, 0.9)], log)
        out = tmp_path / "o"
        out.mkdir()
        (out / "run.json").write_text("{}")
        code = cli.main([
            "eval", "--predictions", str(log),
            "--histogram", "nope", "--out", str(out),
        ])
        assert code == 1
        assert [p.name for p in out.iterdir()] == ["run.json"]
        assert (out / "run.json").read_text() == "{}"
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no predictions for video 'nope'" in captured.err

    # Logs that `eval` refuses only after reading them;
    # read_predictions names the line. A video whose frames carry two
    # labels, and a frame listed twice (counted twice, v would tally 1
    # original and 2 fake).
    REFUSED_LOGS = {
        "two-labels": ("v,0,1,0.9\nv,1,0,0.1\n", "line 3: video 'v'"),
        "repeated-frame": ("v,0,1,0.9\nv,1,1,0.2\nv,0,1,0.9\n", "line 4: duplicate"),
    }

    @pytest.mark.parametrize("earlier_run", [False, True], ids=["fresh", "earlier"])
    @pytest.mark.parametrize("case", sorted(REFUSED_LOGS))
    def test_refused_log_writes_nothing(self, tmp_path, capsys, case, earlier_run):
        """Every figure is computed before any file is written: a fresh --out
        stays empty, and an earlier run's files stay byte-identical."""
        out = tmp_path / "o"
        if earlier_run:
            good = tmp_path / "good.csv"
            evaluator.write_predictions([PredictionRecord("v", 0, 1, 0.9)], good)
            assert cli.main([
                "eval", "--predictions", str(good),
                "--histogram", "v", "--out", str(out),
            ]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()} if earlier_run else {}
        capsys.readouterr()
        log = tmp_path / "log.csv"
        rows, message = self.REFUSED_LOGS[case]
        log.write_text("video_id,frame_index,truth,probability\n" + rows)
        code = cli.main([
            "eval", "--predictions", str(log), "--histogram", "v", "--out", str(out),
        ])
        assert code == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {log}: {message}" in captured.err

    def test_predictions_and_weights_conflict(self, tmp_path):
        code = cli.main([
            "eval", "--predictions", "p.csv", "--weights", "w.fgn",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_zero_batch_is_usage_error(self, tmp_path, capsys):
        # The weights and manifest do not exist: reading either would exit 1.
        out = tmp_path / "o"
        code = cli.main([
            "eval", "--weights", str(tmp_path / "absent.fgn"),
            "--manifest", str(tmp_path / "absent.csv"), "--batch", "0", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: --batch must be >= 1, got 0\n"
        assert not out.exists()

    def test_weights_file_read_once(self, cli_run, tmp_path, monkeypatch):
        root, train_out = cli_run
        reads = []
        real_read_bytes = Path.read_bytes

        def counting_read_bytes(self):
            if self.suffix == ".fgn":
                reads.append(self)
            return real_read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        code = cli.main([
            "eval",
            "--weights", str(train_out / "weights.fgn"),
            "--manifest", str(root / "test" / "manifest.csv"),
            "--batch", "16", "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        assert reads == [train_out / "weights.fgn"]

    def test_invalid_header_is_runtime_error(self, cli_run, tmp_path, capsys):
        root, train_out = cli_run
        blob = (train_out / "weights.fgn").read_bytes()
        weights = tmp_path / "zero_filters.fgn"
        weights.write_bytes(blob[:4] + struct.pack("<4I", 2, 0, 24, 24) + blob[20:])
        code = cli.main([
            "eval", "--weights", str(weights),
            "--manifest", str(root / "test" / "manifest.csv"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: header: filters must be >= 1")

    def test_non_finite_weights_are_runtime_error(self, cli_run, tmp_path, capsys):
        root, train_out = cli_run
        net = model.load_weights(train_out / "weights.fgn")
        net.dense.bias[0] = np.nan
        weights = tmp_path / "nan.fgn"
        model.save_weights(net, weights)
        out = tmp_path / "o"
        code = cli.main([
            "eval", "--weights", str(weights),
            "--manifest", str(root / "test" / "manifest.csv"), "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: dense.bias: non-finite")
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("batch", ["1", "4"])
    def test_wrong_size_frame_fails_before_scoring(
        self, cli_run, tmp_path, capsys, batch
    ):
        root, train_out = cli_run
        rows = data.read_manifest(root / "test" / "manifest.csv", split="test").rows
        odd = tmp_path / "odd.ppm"
        data.write_ppm(np.zeros((3, 20, 20), np.float32), odd)
        rows[-1] = dataclasses.replace(rows[-1], path=str(odd))
        manifest = tmp_path / "manifest.csv"
        data.write_manifest(data.DatasetManifest(rows, "test"), manifest)
        out = tmp_path / "o"
        code = cli.main([
            "eval", "--weights", str(train_out / "weights.fgn"),
            "--manifest", str(manifest), "--batch", batch, "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {odd}: frame size (20, 20)")
        assert not (out / "predictions.csv").exists()

    def test_missing_weights_file_is_runtime_error(self, synth_root, tmp_path):
        root, _ = synth_root
        code = cli.main([
            "eval", "--weights", str(tmp_path / "absent.fgn"),
            "--manifest", str(root / "test" / "manifest.csv"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1


class TestAblate:
    def test_filters_sweep_writes_csv(self, synth_root, tmp_path, capsys):
        root, _ = synth_root
        out = tmp_path / "ab"
        code = cli.main([
            "ablate", "--axis", "filters", "--values", "1,2", "--epochs", "1",
            "--manifest", str(root / "train" / "manifest.csv"),
            "--val-manifest", str(root / "val" / "manifest.csv"),
            "--test-manifest", str(root / "test" / "manifest.csv"),
            "--layers", "2", "--size", "24", "--batch", "16",
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "ablation_filters.csv").read_text().splitlines()
        assert lines[0] == "axis,value,train_acc,val_acc,test_acc,test_video_acc,runtime_s"
        assert len(lines) == 3
        assert "filters=1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "axis, flags, epochs",
        [
            ("layers", [], 10),
            ("filters", [], 10),
            ("layers", ["--epochs", "2"], 2),
            ("filters", ["--epochs", "2"], 2),
        ],
    )
    def test_epochs_rule(self, synth_root, tmp_path, axis, flags, epochs):
        root, _ = synth_root
        out = tmp_path / "ab"
        code = cli.main([
            "ablate", "--axis", axis, "--values", "1", *flags,
            "--manifest", str(root / "train" / "manifest.csv"),
            "--val-manifest", str(root / "val" / "manifest.csv"),
            "--test-manifest", str(root / "test" / "manifest.csv"),
            "--layers", "1", "--filters", "1", "--size", "24", "--batch", "16",
            "--out", str(out),
        ])
        assert code == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert config["training"]["epochs"] == epochs
        assert "epochs" not in config

    def test_shares_train_flags(self, synth_root, tmp_path):
        root, _ = synth_root
        shared = [
            "--layers", "1", "--filters", "2", "--size", "24", "--batch", "32",
            "--lr", "0.01", "--early-stop", "0", "--seed", "7", "--epochs", "1",
            "--manifest", str(root / "train" / "manifest.csv"),
            "--val-manifest", str(root / "val" / "manifest.csv"),
        ]
        assert cli.main(["train", *shared, "--out", str(tmp_path / "t")]) == 0
        assert cli.main([
            "ablate", "--axis", "batch", "--values", "32", *shared,
            "--test-manifest", str(root / "test" / "manifest.csv"),
            "--out", str(tmp_path / "a"),
        ]) == 0
        trained, ablated = (
            json.loads((tmp_path / name / "run.json").read_text())["config"]
            for name in ("t", "a")
        )
        assert trained["network"] == ablated["network"]
        assert trained["network"] == {
            "conv_layers": 1, "filters": 2, "height": 24, "width": 24, "seed": 7,
        }
        assert trained["training"] == ablated["training"]

    def test_point_refused_before_any_trains(self, tmp_path):
        """4 layers make a 9 px frame a 1x1 final map, so batch 16 on 17
        frames leaves the last batch's batch norm 1 value per channel. The
        sweep is refused before its 2-layer point logs an epoch."""
        manifest = data.generate_synthetic(2, 9, 9, 1, tmp_path / "d")
        seventeen = tmp_path / "seventeen.csv"
        data.write_manifest(data.DatasetManifest(manifest.rows[:17], "train"), seventeen)
        every = str(tmp_path / "d" / "manifest.csv")
        out = tmp_path / "o"
        result = run_cli([
            "ablate", "--axis", "layers", "--values", "2,4", "--batch", "16",
            "--size", "9", "--filters", "2", "--epochs", "1",
            "--manifest", str(seventeen), "--val-manifest", every,
            "--test-manifest", every, "--out", str(out),
        ], FORGENET_LOG="INFO")
        assert result.returncode == 1
        # The whole of stderr: no epoch line, and no traceback.
        assert result.stderr == (
            "error: batch size 16 on 17 training frames leaves a last batch of 1, "
            "and over the final 1x1 map batch norm needs >= 2 values per channel\n"
        )
        assert not (out / "ablation_layers.csv").exists()

    def test_unknown_axis_is_usage_error(self, tmp_path):
        code = cli.main([
            "ablate", "--axis", "dropout", "--values", "1,2",
            "--manifest", "m", "--val-manifest", "v", "--test-manifest", "t",
            "--out", str(tmp_path),
        ])
        assert code == 2

    def test_descending_values_is_usage_error(self, synth_root, tmp_path):
        root, _ = synth_root
        code = cli.main([
            "ablate", "--axis", "filters", "--values", "2,1",
            "--manifest", str(root / "train" / "manifest.csv"),
            "--val-manifest", str(root / "val" / "manifest.csv"),
            "--test-manifest", str(root / "test" / "manifest.csv"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_bad_values_text_is_usage_error(self, tmp_path):
        code = cli.main([
            "ablate", "--axis", "filters", "--values", "a,b",
            "--manifest", "m", "--val-manifest", "v", "--test-manifest", "t",
            "--out", str(tmp_path),
        ])
        assert code == 2


@pytest.mark.parametrize("argv", [
    ["ablate", "--axis", "filters", "--values", "1", "--lr", "nan"],
    ["ablate", "--axis", "batch", "--values", "16,8"],
    ["ablate", "--axis", "layers", "--values", "0"],
    ["eval", "--predictions", "p", "--weights", "w"],
    ["eval", "--predictions", "p", "--manifest", "m"],
    ["eval"],
    ["gen-synth", "--videos", "3", "--frames", "1"],
    ["gen-synth", "--videos", "2", "--frames", "1", "--seed", "-1"],
], ids=["ablate-lr-nan", "ablate-descending", "ablate-zero-layers",
        "eval-both-sources", "eval-log-and-manifest",
        "eval-no-source", "gen-synth-odd-videos", "gen-synth-negative-seed"])
def test_usage_error_comes_before_out(tmp_path, argv):
    # The manifests, weights and log named do not exist: reading any would exit 1.
    if argv[0] == "ablate":
        argv = [*argv, "--manifest", "m", "--val-manifest", "v", "--test-manifest", "t"]
    out = tmp_path / "o"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--manifest", "m", "--val-manifest", "v"],
    ["eval", "--predictions", "p"],
    ["ablate", "--axis", "layers", "--values", "1",
     "--manifest", "m", "--val-manifest", "v", "--test-manifest", "t"],
], ids=["train", "eval", "ablate"])
def test_threads_is_an_unknown_flag(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert cli.main([*argv, "--threads", "1", "--out", str(out)]) == 2
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["gen-synth", "train", "eval-frame", "eval-video", "ablate"]
)
def test_run_lists_every_file_it_wrote(cli_run, tmp_path, command):
    root, train_out = cli_run
    train, val, test = (str(root / s / "manifest.csv") for s in ("train", "val", "test"))
    # eval-frame runs the network over the test frames; eval-video scores the
    # prediction log that run wrote. Both report frame and video level.
    evaluate = ["eval", "--weights", str(train_out / "weights.fgn"), "--manifest", test]
    if command == "eval-video":
        assert cli.main([*evaluate, "--out", str(tmp_path / "frames")]) == 0
    argv = {
        "gen-synth": ["gen-synth", "--videos", "2", "--frames", "2", "--size", "12"],
        "eval-frame": [*evaluate, "--histogram", "vid0001"],
        "eval-video": ["eval", "--predictions", str(tmp_path / "frames" / "predictions.csv"),
                       "--histogram", "vid0001"],
        "ablate": ["ablate", "--axis", "layers", "--values", "1", "--epochs", "1",
                   "--filters", "2", "--size", "24", "--batch", "16",
                   "--manifest", train, "--val-manifest", val, "--test-manifest", test],
    }
    out = tmp_path / "o"
    if command == "train":  # cli_run is train --checkpoints, for 2 epochs
        out = train_out
    else:
        assert cli.main([*argv[command], "--out", str(out)]) == 0
    listed = json.loads((out / "run.json").read_text())["outputs"]
    if command == "gen-synth":  # manifest.csv lists the frames
        listed += [r.path for r in data.read_manifest(out / "manifest.csv").rows]
    written = [str(p) for p in out.rglob("*") if p.is_file() and p.name != "run.json"]
    assert sorted(listed) == sorted(written)


def test_non_utf8_input_is_runtime_error(synth_root, tmp_path, capsys):
    root, _ = synth_root
    log = tmp_path / "log.csv"
    log.write_bytes(b"video_id,frame_index,truth,probability\nv\xff,0,1,0.9\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(b"path,label,video_id,frame_index\na.ppm,0,v\xff,0\n")
    runs = {
        log: ["eval", "--predictions", str(log)],
        manifest: [
            "train", "--manifest", str(manifest),
            "--val-manifest", str(root / "val" / "manifest.csv"),
            "--layers", "2", "--filters", "2", "--size", "24",
        ],
    }
    for path, argv in runs.items():
        out = tmp_path / f"out-{path.stem}"
        assert cli.main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: line 2: not UTF-8 text\n"
        assert not out.exists() or not any(out.iterdir())


def test_unreadable_row_is_runtime_error(synth_root, cli_run, tmp_path, capsys):
    """A field over the csv module's limit, in a log or a manifest, and a
    NUL byte in a manifest path, which `open` would refuse."""
    root, train_out = cli_run
    long_field = "v" * 200_000
    log = tmp_path / "log.csv"
    log.write_text(f"video_id,frame_index,truth,probability\n{long_field},0,1,0.9\n")
    long_manifest = tmp_path / "long.csv"
    long_manifest.write_text(f"path,label,video_id,frame_index\na.ppm,0,{long_field},0\n")
    nul_manifest = tmp_path / "nul.csv"
    nul_manifest.write_text("path,label,video_id,frame_index\nvid0000/0\0.ppm,0,vid0000,0\n")
    train = ["train", "--val-manifest", str(root / "val" / "manifest.csv"),
             "--layers", "2", "--filters", "2", "--size", "24", "--manifest"]
    runs = {
        "log": (["eval", "--predictions", str(log)], log, "field larger than field limit"),
        "long": ([*train, str(long_manifest)], long_manifest, "field larger than field limit"),
        "nul-train": ([*train, str(nul_manifest)], nul_manifest, "NUL byte in path"),
        "nul-eval": (["eval", "--weights", str(train_out / "weights.fgn"),
                      "--manifest", str(nul_manifest)], nul_manifest, "NUL byte in path"),
    }
    for name, (argv, path, message) in runs.items():
        out = tmp_path / f"out-{name}"
        assert cli.main([*argv, "--out", str(out)]) == 1, name
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 2: {message}"), name
        assert "Traceback" not in err
        assert not any(out.iterdir())


def test_bad_val_manifest_row_names_that_file(synth_root, tmp_path, capsys):
    """train reads two manifests; a bad row in the second names the second."""
    root, _ = synth_root
    val = tmp_path / "val.csv"
    val.write_text("path,label,video_id,frame_index\na.ppm,0,v,0\nb.ppm,2,v,1\n")
    out = tmp_path / "o"
    assert cli.main([
        "train", "--manifest", str(root / "train" / "manifest.csv"),
        "--val-manifest", str(val), "--layers", "2", "--filters", "2",
        "--size", "24", "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == (
        f"error: {val}: line 3: label must be 0 or 1, got '2'\n"
    )
    assert not any(out.iterdir())


def test_header_only_input_names_its_file(synth_root, cli_run, tmp_path, capsys):
    """A manifest or prediction log with a header and no rows, as each
    command reads it; ablate refuses it before its first point trains."""
    root, train_out = cli_run
    log = tmp_path / "log.csv"
    log.write_text("video_id,frame_index,truth,probability\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label,video_id,frame_index\n")
    val = str(root / "val" / "manifest.csv")
    net = ["--layers", "2", "--filters", "2", "--size", "24", "--epochs", "1"]
    runs = {
        "eval-log": ["eval", "--predictions", str(log)],
        "eval-manifest": ["eval", "--weights", str(train_out / "weights.fgn"),
                          "--manifest", str(manifest)],
        "train": ["train", "--manifest", str(manifest), "--val-manifest", val, *net],
        "ablate": ["ablate", "--axis", "filters", "--values", "1,2", *net,
                   "--manifest", str(root / "train" / "manifest.csv"),
                   "--val-manifest", val, "--test-manifest", str(manifest)],
    }
    for name, argv in runs.items():
        path = log if name == "eval-log" else manifest
        out = tmp_path / f"out-{name}"
        assert cli.main([*argv, "--out", str(out)]) == 1, name
        assert capsys.readouterr().err == (
            f"error: {path}: line 1: no rows after the header\n"
        ), name
        assert not any(out.iterdir()), name


class TestTopLevel:
    def test_log_variable_naming_no_level_means_warning(self):
        """BASIC_FORMAT is a logging attribute, a format string, not a level."""
        result = run_cli(["train", "--print-params"], FORGENET_LOG="BASIC_FORMAT")
        assert (result.returncode, result.stdout, result.stderr) == (0, "58221\n", "")

    def test_version_flag(self, capsys):
        assert cli.main(["--version"]) == 0
        assert "forgenet" in capsys.readouterr().out

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 2

    def test_no_command(self):
        assert cli.main([]) == 2
