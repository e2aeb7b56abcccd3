"""Acceptance gate: the headline claims this package makes, end to end.

A conftest hook prints one `criterion N: PASS/FAIL` line per test here so
a log scrape shows the acceptance state at a glance. Numeric tolerances
are stated inline; runtime bounds are asserted with wall-clock
measurements.
"""

import json
import struct
import time

import numpy as np
import pytest

from fdcheck import assert_close, central_diff, clone_network
from forgenet import ablation, cli, evaluator, layers, model, trainer
from forgenet.errors import WeightsFormatError
from forgenet.evaluator import PredictionRecord
from forgenet.optim import ADAM_BETA1, AdamState, adam_step
from test_evaluator import brute_force_video_recount, random_prediction_log


def reference_param_count(size: int, padding: str, bn_tensors_per_filter: int) -> int:
    """Independent arithmetic for the 4-layer, 4-filter network: per-layer
    3x3 conv (with bias) + batchnorm tensors, then a width-1 dense readout."""
    filters, in_channels, conv_layers = 4, 3, 4
    total = 0
    spatial = size
    channels = in_channels
    for _ in range(conv_layers):
        total += filters * channels * 9 + filters
        total += bn_tensors_per_filter * filters
        channels = filters
        if padding == "valid":
            spatial -= 2
    total += filters * spatial * spatial + 1
    return total


def test_criterion_01_parameter_count():
    started = time.perf_counter()
    assert model.count_parameters(model.NetworkConfig()) == 58_221
    assert reference_param_count(128, "valid", 4) == 58_221

    matches = [
        (size, padding, bn)
        for size in range(64, 257)
        for padding in ("valid", "same")
        for bn in (2, 4)
        if reference_param_count(size, padding, bn) == 58_221
    ]
    assert (128, "valid", 4) in matches
    # Unique among valid-padding candidates; one same-padding alias
    # (120 input) also lands on 58,221, so the full grid has two hits.
    assert [m for m in matches if m[1] == "valid"] == [(128, "valid", 4)]
    assert sorted(matches) == [(120, "same", 4), (128, "valid", 4)]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s"


def test_criterion_02_gradient_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(4242)
    instances = 0

    for _ in range(4):  # conv2d
        n, c, f = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 3)
        h, w = rng.integers(5, 9), rng.integers(5, 9)
        x = rng.normal(size=(n, c, h, w))
        layer = layers.ConvLayer(
            weights=rng.normal(size=(f, c, 3, 3)) * 0.5,
            bias=rng.normal(size=f) * 0.1,
        )
        up = rng.normal(size=(n, f, h - 2, w - 2))
        grads = layers.conv2d_backward(x, layer, up)
        objective = lambda: float((layers.conv2d_forward(x, layer) * up).sum())
        assert_close(grads.d_weights, central_diff(objective, layer.weights), 1e-3)
        assert_close(grads.d_bias, central_diff(objective, layer.bias), 1e-3)
        assert_close(grads.d_input, central_diff(objective, x), 1e-3)
        instances += 1

    for _ in range(4):  # batchnorm, training mode
        n, c = rng.integers(2, 5), rng.integers(1, 4)
        h, w = rng.integers(3, 6), rng.integers(3, 6)
        x = rng.normal(size=(n, c, h, w))
        layer = layers.BatchNormLayer(
            gamma=rng.uniform(0.5, 1.5, size=c),
            beta=rng.normal(size=c),
            moving_mean=np.zeros(c),
            moving_var=np.ones(c),
        )
        up = rng.normal(size=x.shape)

        def bn_objective():
            out, _ = layers.batchnorm_forward(x.copy(), layer)
            return float((out * up).sum())

        _, cache = layers.batchnorm_forward(x.copy(), layer)
        grads = layers.batchnorm_backward(cache, layer, up.copy())
        assert_close(grads.d_gamma, central_diff(bn_objective, layer.gamma), 1e-3)
        assert_close(grads.d_beta, central_diff(bn_objective, layer.beta), 1e-3)
        assert_close(grads.d_input, central_diff(bn_objective, x), 1e-3)
        instances += 1

    for _ in range(4):  # dense readout
        n, d = rng.integers(1, 6), rng.integers(1, 12)
        x = rng.normal(size=(n, d))
        layer = layers.DenseLayer(
            weights=rng.normal(size=(d, 1)), bias=rng.normal(size=1)
        )
        up = rng.normal(size=n)
        grads = layers.dense_backward(x, layer, up)
        objective = lambda: float((layers.dense_forward(x, layer) * up).sum())
        assert_close(grads.d_weights, central_diff(objective, layer.weights), 1e-3)
        assert_close(grads.d_bias, central_diff(objective, layer.bias), 1e-3)
        assert_close(grads.d_input, central_diff(objective, x), 1e-3)
        instances += 1

    for _ in range(4):  # fused sigmoid + binary cross-entropy
        n = rng.integers(1, 8)
        z = rng.uniform(-4.0, 4.0, size=n)
        y = rng.integers(0, 2, size=n).astype(np.float64)
        _, d_logits = layers.bce_loss(layers.sigmoid(z), y)
        objective = lambda: layers.bce_loss(layers.sigmoid(z), y)[0]
        assert_close(d_logits, central_diff(objective, z), 1e-3)
        instances += 1

    for seed in (21, 22, 23, 24, 25):  # end-to-end network gradient
        cfg = model.NetworkConfig(
            conv_layers=2, filters=2, height=12, width=12, seed=seed
        )
        net = clone_network(model.build(cfg), dtype=np.float64)
        batch_rng = np.random.default_rng(seed)
        x = batch_rng.uniform(size=(2, 3, 12, 12))
        y = np.array([0.0, 1.0])

        def net_objective():
            probs, _ = model.forward(net, x, training=True)
            return layers.bce_loss(probs, y)[0]

        probs, cache = model.forward(net, x, training=True)
        grads = model.backward(net, cache, y)
        for name, param in net.parameters().items():
            assert_close(
                grads[name], central_diff(net_objective, param), 1e-3, what=name
            )
        instances += 1

    assert instances >= 20, f"only {instances} gradient instances"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_03_batchnorm_normalization():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(10):
        n, c = rng.integers(4, 10), rng.integers(1, 5)
        h, w = rng.integers(6, 12), rng.integers(6, 12)
        x = rng.normal(0.0, 2.0, size=(n, c, h, w))  # per-channel var ~4
        layer = layers.BatchNormLayer(
            gamma=np.ones(c), beta=np.zeros(c),  # identity affine: pre-affine view
            moving_mean=np.zeros(c), moving_var=np.ones(c),
        )
        out, _ = layers.batchnorm_forward(x, layer)
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.all(np.abs(mean) < 1e-4), f"|mean| up to {np.abs(mean).max():.2e}"
        assert np.all(np.abs(var - 1.0) < 1e-3), f"|var-1| up to {np.abs(var - 1).max():.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"batchnorm check took {elapsed:.2f}s"


def test_criterion_04_adam_closed_form():
    for g_value in (0.5, -0.25, 3.0, 1e-3):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([g_value])}
        state = AdamState(lr=0.001)
        adam_step(params, grads, state)
        expected = 1.0 - 0.001 * g_value / (abs(g_value) + 1e-8)
        assert abs(params["w"][0] - expected) < 1e-9, f"g={g_value}"

    params = {"w": np.array([2.0])}
    grads = {"w": np.array([0.7])}
    state = AdamState(lr=0.001)
    for step in range(1, 51):
        adam_step(params, grads, state)
        if step in (1, 5, 50):
            m_hat = state.m["w"][0] / (1.0 - ADAM_BETA1**state.t)
            assert abs(m_hat - 0.7) < 1e-6, f"t={step}: m_hat={m_hat}"


def test_criterion_05_learnability(desk32):
    started = time.perf_counter()
    train_manifest, val_manifest, _ = desk32
    assert len(train_manifest) == 2000
    labels = [r.label for r in train_manifest.rows]
    assert labels.count(0) == labels.count(1) == 1000

    net = model.build(
        model.NetworkConfig(conv_layers=4, filters=4, height=32, width=32, seed=5)
    )
    config = trainer.TrainConfig(
        epochs=8, batch_size=16, lr=0.001, early_stop_delta=0.0, seed=5
    )
    _, records, _ = trainer.train(net, train_manifest, val_manifest, config)
    assert len(records) <= 10
    best = max(records, key=lambda r: (r.train_acc, r.val_acc))
    hit = [r for r in records if r.train_acc >= 0.99 and r.val_acc >= 0.95]
    assert hit, (
        "no epoch reached the bar; best epoch had "
        f"train_acc={best.train_acc:.4f} val_acc={best.val_acc:.4f}"
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"learnability run took {elapsed:.0f}s"


def test_criterion_06_reference_metrics_replay():
    started = time.perf_counter()
    per_class = 77_745
    frames = [
        PredictionRecord(f"o{i}", 0, 0, 0.9 if i < 70 else 0.1)
        for i in range(per_class)
    ]
    frames += [
        PredictionRecord(f"f{i}", 0, 1, 0.1 if i < 557 else 0.9)
        for i in range(per_class)
    ]
    accuracy, cm, misclassified = evaluator.frame_metrics(frames)
    assert misclassified == 627
    assert abs(accuracy - 0.996) <= 0.0005
    assert np.round(cm.rates, 3).tolist() == [[0.999, 0.001], [0.007, 0.993]]

    videos = [PredictionRecord(f"orig{i}", 0, 0, 0.1) for i in range(150)]
    videos += [PredictionRecord(f"fake{i}", 0, 1, 0.9) for i in range(1, 150)]
    videos += [
        PredictionRecord("fake0", f, 1, 0.1 if f < 53 else 0.9) for f in range(100)
    ]
    video_acc, video_cm, verdicts = evaluator.video_metrics(videos)
    assert np.round(video_cm.rates[1], 3).tolist() == [0.007, 0.993]
    misses = [v for v in verdicts if v.predicted != v.truth]
    assert [v.video_id for v in misses] == ["fake0"]
    assert (misses[0].frames_original, misses[0].frames_fake) == (53, 47)
    assert video_acc == pytest.approx(299 / 300)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"replay took {elapsed:.2f}s"


def test_criterion_07_majority_vote_oracle():
    rng = np.random.default_rng(77)
    for _ in range(500):
        records = random_prediction_log(rng, videos=int(rng.integers(2, 9)))
        _, _, verdicts = evaluator.video_metrics(records)
        recounted = brute_force_video_recount(records)
        assert {v.video_id: (v.truth, v.predicted) for v in verdicts} == recounted


def test_criterion_08_early_stopping():
    assert trainer.should_stop([0.80, 0.805], 0.01) is True
    assert trainer.should_stop([0.5, 0.6, 0.7], 0.01) is False
    assert trainer.should_stop([0.80, 0.81], 0.01) is False


def test_criterion_09_ablation_trend(desk32):
    started = time.perf_counter()
    train_manifest, val_manifest, test_manifest = desk32
    spec = ablation.AblationSpec(
        axis="layers",
        values=(1, 2, 3, 4),
        base_net=model.NetworkConfig(
            conv_layers=4, filters=4, height=32, width=32, seed=5
        ),
        base_train=trainer.TrainConfig(
            epochs=8, batch_size=16, lr=0.001, early_stop_delta=0.0, seed=5
        ),
    )
    rows = ablation.run_ablation(spec, train_manifest, val_manifest, test_manifest)
    assert [r.value for r in rows] == [1, 2, 3, 4]
    accs = [r.test_acc for r in rows]
    for shallow, deep in zip(accs, accs[1:]):
        assert deep >= shallow - 0.01, f"trend broken: {accs}"
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0, f"layer sweep took {elapsed:.0f}s"


def _masked_csv(path, drop_last_column=True):
    lines = path.read_text().splitlines()
    if not drop_last_column:
        return lines
    return [line.rsplit(",", 1)[0] for line in lines]


def _normalized_run_manifest(out):
    payload = json.loads((out / "run.json").read_text())
    payload.pop("started")
    payload.pop("finished")
    return json.dumps(payload, sort_keys=True).replace(str(out), "<out>")


def test_criterion_10_cli_determinism(synth_root, tmp_path):
    root, _ = synth_root

    def gen(out):
        assert cli.main([
            "gen-synth", "--videos", "4", "--frames", "2",
            "--size", "16", "--seed", "9", "--out", str(out),
        ]) == 0
        return {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run.json"
        }

    assert gen(tmp_path / "g1") == gen(tmp_path / "g2")
    assert _normalized_run_manifest(tmp_path / "g1") == _normalized_run_manifest(
        tmp_path / "g2"
    )

    def train_run(out):
        assert cli.main([
            "train",
            "--manifest", str(root / "train" / "manifest.csv"),
            "--val-manifest", str(root / "val" / "manifest.csv"),
            "--out", str(out),
            "--layers", "2", "--filters", "2", "--size", "24",
            "--batch", "16", "--epochs", "2", "--early-stop", "0",
            "--seed", "11",
        ]) == 0
        return out

    t1 = train_run(tmp_path / "t1")
    t2 = train_run(tmp_path / "t2")
    assert (t1 / "weights.fgn").read_bytes() == (t2 / "weights.fgn").read_bytes()
    # wall_time is the one legitimately run-dependent column
    assert _masked_csv(t1 / "metrics.csv") == _masked_csv(t2 / "metrics.csv")
    assert _normalized_run_manifest(t1) == _normalized_run_manifest(t2)

    def eval_run(out):
        assert cli.main([
            "eval",
            "--weights", str(t1 / "weights.fgn"),
            "--manifest", str(root / "test" / "manifest.csv"),
            "--level", "video", "--histogram", "vid0000",
            "--batch", "16", "--out", str(out),
        ]) == 0
        return out

    e1 = eval_run(tmp_path / "e1")
    e2 = eval_run(tmp_path / "e2")
    for name in ("predictions.csv", "videos.csv", "metrics.jsonl",
                 "histogram_vid0000.csv"):
        assert (e1 / name).read_bytes() == (e2 / name).read_bytes(), name

    def ablate_run(out):
        assert cli.main([
            "ablate", "--axis", "filters", "--values", "1,2", "--epochs", "1",
            "--manifest", str(root / "train" / "manifest.csv"),
            "--val-manifest", str(root / "val" / "manifest.csv"),
            "--test-manifest", str(root / "test" / "manifest.csv"),
            "--layers", "2", "--size", "24", "--batch", "16",
            "--seed", "11", "--out", str(out),
        ]) == 0
        return out

    a1 = ablate_run(tmp_path / "a1")
    a2 = ablate_run(tmp_path / "a2")
    # runtime_s is the one legitimately run-dependent column
    assert _masked_csv(a1 / "ablation_filters.csv") == _masked_csv(
        a2 / "ablation_filters.csv"
    )


def test_criterion_11_serialization(tmp_path):
    cfg = model.NetworkConfig(conv_layers=2, filters=2, height=12, width=12, seed=1)
    net = model.build(cfg)
    x = np.random.default_rng(0).uniform(size=(4, 3, 12, 12)).astype(np.float32)
    model.forward(net, x, training=True)  # move BN stats off their init

    first = tmp_path / "a.fgn"
    second = tmp_path / "b.fgn"
    model.save_weights(net, first)
    loaded = model.load_weights(first)
    model.save_weights(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    for name, tensor in net.state_tensors().items():
        assert np.array_equal(tensor, loaded.state_tensors()[name]), name

    blob = first.read_bytes()
    truncated = tmp_path / "trunc.fgn"
    for cut in (3, 10, len(blob) // 2, len(blob) - 2):
        truncated.write_bytes(blob[:cut])
        with pytest.raises(WeightsFormatError):
            model.load_weights(truncated)

    bad_magic = tmp_path / "magic.fgn"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(WeightsFormatError, match="magic"):
        model.load_weights(bad_magic)

    trailing = tmp_path / "trailing.fgn"
    trailing.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(WeightsFormatError, match="trailing"):
        model.load_weights(trailing)

    # a filters=4 header over filters=2 tensors, padded to the length that
    # header promises, names the first mismatch
    wider = model.NetworkConfig(conv_layers=2, filters=4, height=12, width=12)
    tampered = tmp_path / "tampered.fgn"
    header = struct.pack("<4I", 2, 4, 12, 12)
    padding = bytes(4 * model.count_parameters(wider))
    tampered.write_bytes(blob[:4] + header + blob[20:] + padding)
    with pytest.raises(WeightsFormatError, match="conv0.weights"):
        model.load_weights(tampered)

    # flip one header field; the mismatch must be named, not crash
    header = struct.pack("<4I", 2, 2, 13, 12)
    tampered.write_bytes(blob[:4] + header + blob[20:])
    with pytest.raises(WeightsFormatError):
        model.load_weights(tampered)

    # a header that makes no valid config is a corrupt file, not a usage error
    header = struct.pack("<4I", 2, 0, 12, 12)
    tampered.write_bytes(blob[:4] + header + blob[20:])
    with pytest.raises(WeightsFormatError, match="^header:"):
        model.load_weights(tampered)
