"""Command-line front end: gen-synth, train, eval, ablate.

Every run writes its outputs under --out with fixed file names and drops a
run.json record (command, resolved config, seed (null for eval), timestamps,
version, output paths) next to them; a run replaces the run.json of an earlier
run into the same --out. Exit codes: 0 success, 1 runtime failure,
2 usage or config error. The FORGENET_LOG environment variable sets log
verbosity (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import ablation as ablation_mod
from . import data as data_mod
from . import evaluator as eval_mod
from . import model as model_mod
from . import trainer as trainer_mod
from .errors import ConfigError, ForgenetError

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

RUN_MANIFEST_NAME = "run.json"
WEIGHTS_NAME = "weights.fgn"
METRICS_NAME = "metrics.csv"
PREDICTIONS_NAME = "predictions.csv"
VIDEO_VERDICTS_NAME = "videos.csv"
METRICS_JSONL_NAME = "metrics.jsonl"

logger = logging.getLogger("forgenet.cli")

AXIS_BY_FLAG = {"layers": "layers", "batch": "batch_size", "filters": "filters"}


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _prepare_out(path_str: str) -> Path:
    """Create --out and prove it is writable before any real work."""
    out = Path(path_str)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_bytes(b"")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"--out {path_str!r} is not writable: {exc}") from None
    return out


def _write_run_manifest(
    out: Path,
    command: str,
    config: dict,
    seed: int | None,
    started: str,
    outputs: list[Path],
) -> None:
    payload = {
        "command": command,
        "config": config,
        "seed": seed,
        "started": started,
        "finished": _now(),
        "version": f"forgenet-{__version__}",
        "outputs": [str(p) for p in outputs],
    }
    text = json.dumps(payload, indent=2) + "\n"
    data_mod.write_atomic(out / RUN_MANIFEST_NAME, text.encode("utf-8"))


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one value")
    return values


def cmd_gen_synth(args: argparse.Namespace) -> int:
    started = _now()
    out = _prepare_out(args.out)
    manifest = data_mod.generate_synthetic(
        args.videos, args.frames, args.size, args.seed, out
    )
    fake_frames = sum(r.label for r in manifest.rows)
    print(
        f"wrote {len(manifest.rows)} frames across {args.videos} videos to {out}"
    )
    print(
        f"original frames: {len(manifest.rows) - fake_frames}  "
        f"fake frames: {fake_frames}"
    )
    config = {
        "videos": args.videos,
        "frames": args.frames,
        "size": args.size,
    }
    _write_run_manifest(
        out, "gen-synth", config, args.seed, started, [out / data_mod.MANIFEST_NAME]
    )
    return EXIT_OK


def _configs(
    args: argparse.Namespace, epochs: int
) -> tuple[model_mod.NetworkConfig, trainer_mod.TrainConfig]:
    """The network and training configs of the flags train and ablate share."""
    net_config = model_mod.NetworkConfig(
        conv_layers=args.layers,
        filters=args.filters,
        height=args.size,
        width=args.size,
        seed=args.seed,
    )
    train_config = trainer_mod.TrainConfig(
        epochs=epochs,
        batch_size=args.batch,
        lr=args.lr,
        early_stop_delta=args.early_stop,
        seed=args.seed,
        loader_threads=args.threads,
    )
    return net_config, train_config


def cmd_train(args: argparse.Namespace) -> int:
    started = _now()
    net_config, train_config = _configs(args, args.epochs)
    if args.print_params:
        print(model_mod.count_parameters(net_config))
        return EXIT_OK
    if not (args.manifest and args.val_manifest and args.out):
        raise ConfigError("train requires --manifest, --val-manifest and --out")
    out = _prepare_out(args.out)
    if args.checkpoints:
        train_config = dataclasses.replace(
            train_config, checkpoint_path=str(out / "checkpoint")
        )
    train_manifest = data_mod.read_manifest(args.manifest, split="train")
    val_manifest = data_mod.read_manifest(args.val_manifest, split="val")
    net = model_mod.build(net_config)
    net, records, stop_reason = trainer_mod.train(
        net, train_manifest, val_manifest, train_config
    )
    weights_path = out / WEIGHTS_NAME
    metrics_path = out / METRICS_NAME
    model_mod.save_weights(net, weights_path)
    trainer_mod.write_metrics_csv(records, metrics_path)
    final = records[-1]
    print(
        f"trained {len(records)} epoch(s), stop reason: {stop_reason}"
    )
    print(
        f"final train_loss={final.train_loss:.4f} "
        f"train_acc={final.train_acc:.4f} val_acc={final.val_acc:.4f}"
    )
    config = {
        "network": dataclasses.asdict(net_config),
        "training": dataclasses.asdict(train_config),
        "stop_reason": stop_reason,
    }
    _write_run_manifest(
        out, "train", config, args.seed, started, [weights_path, metrics_path]
    )
    return EXIT_OK


def _eval_records(args: argparse.Namespace) -> list[eval_mod.PredictionRecord]:
    if args.predictions and args.weights:
        raise ConfigError("eval takes --predictions or --weights, not both")
    if args.predictions:
        return eval_mod.read_predictions(args.predictions)
    if not (args.weights and args.manifest):
        raise ConfigError("eval requires --weights and --manifest, or --predictions")
    net = model_mod.load_weights(args.weights)
    manifest = data_mod.read_manifest(args.manifest, split="test")
    data_mod.check_frame_sizes((net.config.height, net.config.width), manifest)
    return eval_mod.predict_manifest(net, manifest, args.batch, args.threads)


def cmd_eval(args: argparse.Namespace) -> int:
    started = _now()
    out = _prepare_out(args.out)
    records = _eval_records(args)
    outputs = [out / PREDICTIONS_NAME]
    eval_mod.write_predictions(records, out / PREDICTIONS_NAME)

    metrics: dict[str, object] = {}
    if args.level == "frame":
        accuracy, cm, misclassified = eval_mod.frame_metrics(records)
        print(f"frame accuracy {accuracy:.4f}")
        print(f"misclassified frames: {misclassified} of {len(records)}")
        metrics["frame_accuracy"] = accuracy
        metrics["misclassified_frames"] = misclassified
        metrics["total_frames"] = len(records)
    else:
        accuracy, cm, verdicts = eval_mod.video_metrics(records)
        misses = [v for v in verdicts if v.predicted != v.truth]
        print(f"video accuracy {accuracy:.4f}")
        print(f"missed videos: {len(misses)} of {len(verdicts)}")
        for v in misses:
            share = v.frames_original / (v.frames_original + v.frames_fake)
            print(
                f"  {v.video_id}: truth={v.truth} predicted={v.predicted} "
                f"({share:.0%} of frames voted original)"
            )
        verdict_path = out / VIDEO_VERDICTS_NAME
        table = [
            [v.video_id, v.truth, v.predicted, v.frames_original, v.frames_fake]
            for v in verdicts
        ]
        header = ["video_id", "truth", "predicted", "frames_original", "frames_fake"]
        data_mod.write_csv(verdict_path, header, table)
        outputs.append(verdict_path)
        metrics["video_accuracy"] = accuracy
        metrics["missed_videos"] = len(misses)
        metrics["total_videos"] = len(verdicts)
    print(eval_mod.format_confusion(cm))
    for truth in (0, 1):
        for detected in (0, 1):
            metrics[f"rate_truth{truth}_detected{detected}"] = float(
                cm.rates[truth, detected]
            )

    if args.histogram:
        chosen = [r for r in records if r.video_id == args.histogram]
        if not chosen:
            raise ForgenetError(f"no predictions for video {args.histogram!r}")
        counts = eval_mod.probability_histogram(chosen)
        hist_path = out / f"histogram_{args.histogram}.csv"
        bins = eval_mod.HISTOGRAM_BINS
        table = [
            [f"{i / bins:.1f}", f"{(i + 1) / bins:.1f}", n] for i, n in enumerate(counts)
        ]
        data_mod.write_csv(hist_path, ["bin_start", "bin_end", "count"], table)
        outputs.append(hist_path)
        print(f"histogram for {args.histogram}: {counts.tolist()}")

    eval_mod.write_metrics_jsonl(metrics, out / METRICS_JSONL_NAME)
    outputs.append(out / METRICS_JSONL_NAME)
    config = {
        "level": args.level,
        "weights": args.weights,
        "manifest": args.manifest,
        "predictions": args.predictions,
        "histogram": args.histogram,
    }
    # inference is deterministic, so eval records no seed
    _write_run_manifest(out, "eval", config, None, started, outputs)
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    started = _now()
    out = _prepare_out(args.out)
    axis = AXIS_BY_FLAG[args.axis]
    # Batch-size and filter sweeps default to a single epoch; only the
    # depth sweep keeps the full schedule.
    epochs = args.epochs
    if epochs is None:
        epochs = 10 if axis == "layers" else 1
    base_net, base_train = _configs(args, epochs)
    spec = ablation_mod.AblationSpec(
        axis=axis, values=args.values, base_net=base_net, base_train=base_train
    )
    train_manifest = data_mod.read_manifest(args.manifest, split="train")
    val_manifest = data_mod.read_manifest(args.val_manifest, split="val")
    test_manifest = data_mod.read_manifest(args.test_manifest, split="test")
    rows = ablation_mod.run_ablation(spec, train_manifest, val_manifest, test_manifest)
    csv_path = out / f"ablation_{args.axis}.csv"
    ablation_mod.write_ablation_csv(rows, csv_path)
    for row in rows:
        print(
            f"{row.axis}={row.value}: train_acc={row.train_acc:.4f} "
            f"val_acc={row.val_acc:.4f} test_acc={row.test_acc:.4f} "
            f"({row.runtime_s:.1f}s)"
        )
    config = {
        "axis": axis,
        "values": list(args.values),
        "network": dataclasses.asdict(base_net),
        "training": dataclasses.asdict(base_train),
    }
    _write_run_manifest(out, "ablate", config, args.seed, started, [csv_path])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forgenet",
        description="Small-CNN forged face video detector.",
    )
    parser.add_argument(
        "--version", action="version", version=f"forgenet {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synth", help="generate a synthetic PPM dataset")
    gen.add_argument("--videos", type=int, required=True)
    gen.add_argument("--frames", type=int, required=True)
    gen.add_argument("--size", type=int, default=128)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_synth)

    # train and ablate build their configs from the same flags (_configs)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--layers", type=int, default=4)
    shared.add_argument("--filters", type=int, default=4)
    shared.add_argument("--size", type=int, default=128)
    shared.add_argument("--batch", type=int, default=128)
    shared.add_argument("--lr", type=float, default=0.001)
    shared.add_argument("--early-stop", type=float, default=0.01)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--threads", type=int, default=1)

    train = sub.add_parser("train", parents=[shared], help="train a detector")
    train.add_argument("--manifest")
    train.add_argument("--val-manifest")
    train.add_argument("--out")
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--checkpoints", action="store_true")
    train.add_argument(
        "--print-params",
        action="store_true",
        help="print the stored parameter count of the configured network "
        "and exit: 58,221 by default, of which training updates 58,173. The "
        "count includes the moving BN statistics and the conv biases, which "
        "are stored but not trained: BN subtracts each channel's batch mean, "
        "so a conv bias has no gradient, and inference folds it into its conv",
    )
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score predictions at frame or video level")
    ev.add_argument("--weights")
    ev.add_argument("--manifest")
    ev.add_argument("--predictions", help="score a previously written prediction log")
    ev.add_argument("--level", choices=("frame", "video"), default="frame")
    ev.add_argument("--histogram", metavar="VIDEO_ID")
    ev.add_argument("--batch", type=int, default=128)
    ev.add_argument("--threads", type=int, default=1)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    ab = sub.add_parser(
        "ablate", parents=[shared], help="sweep one axis and record accuracies"
    )
    ab.add_argument("--axis", choices=tuple(AXIS_BY_FLAG), required=True)
    ab.add_argument("--values", type=_csv_ints, required=True)
    ab.add_argument("--epochs", type=int, help="default: 10 for layers, 1 otherwise")
    ab.add_argument("--manifest", required=True)
    ab.add_argument("--val-manifest", required=True)
    ab.add_argument("--test-manifest", required=True)
    ab.add_argument("--out", required=True)
    ab.set_defaults(func=cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    level_name = os.environ.get("FORGENET_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level_name, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ForgenetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
