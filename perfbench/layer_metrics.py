"""What the traced run wraps, and the per-layer metrics read from its spans.

Every target is the module attribute its caller looks up at call time:
the model calls `L.conv2d_forward`, so the span sits on
`forgenet.layers.conv2d_forward`; the trainer imported `adam_step` and
`bce_loss` by name, so those spans sit on `forgenet.trainer`. Span names
follow the module that defines the function.

Self times are reported per train step on the train workloads (validation
included, spread over the steps) and per request on the video workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import Target

KERNEL_TAPS = 9  # 3x3 conv
FLOAT_BYTES = 4  # float32

# Flagged when the measured time is off the baseline by more than this factor.
BASELINE_FACTOR = 1.5

# ROADMAP baseline table, milliseconds, keyed by (frame size, batch).
BASELINE_MS = {
    (128, 128): {"fwd_train": 2880.0, "fwd_infer": 1530.0, "bwd": 4100.0, "adam": 0.5, "decode": None},
}
BASELINE_ROWS = ("fwd_train", "fwd_infer", "bwd", "adam", "decode")


def targets(size: int) -> list[Target]:
    """Wrap targets for a network with size x size input frames."""

    def conv_tag(args, kwargs):
        # (block, n, c, h, w, filters); each valid 3x3 conv shrinks the side by 2
        x, layer = args[0], args[1]
        n, c, h, w = x.shape
        return [(size - h) // 2, n, c, h, w, layer.weights.shape[0]]

    def forward_tag(args, kwargs):
        training = kwargs["training"] if "training" in kwargs else args[2]
        return [len(args[1]), bool(training)]

    def batch_len_tag(position):
        return lambda args, kwargs: len(args[position])

    layer_names = (
        "conv2d_forward", "conv2d_backward", "batchnorm_forward", "batchnorm_backward",
        "relu_forward", "relu_backward", "dense_forward", "dense_backward", "sigmoid",
    )
    return [
        Target("forgenet.trainer", "train", "trainer.train"),
        Target("forgenet.trainer", "validation_accuracy", "trainer.validation"),
        Target("forgenet.trainer", "bce_loss", "layers.bce_loss"),
        Target("forgenet.trainer", "adam_step", "optim.adam_step"),
        Target("forgenet.model", "forward", "model.forward", forward_tag),
        Target("forgenet.model", "backward", "model.backward", batch_len_tag(2)),
        Target("forgenet.model", "flatten", "tensor.flatten"),
        Target("forgenet.model", "unflatten", "tensor.unflatten"),
        *(
            Target("forgenet.layers", name, f"layers.{name}",
                   conv_tag if name.startswith("conv2d") else None)
            for name in layer_names
        ),
        Target("forgenet.data", "make_batches", "data.make_batches"),
        Target("forgenet.data", "assemble_batch", "data.assemble_batch", batch_len_tag(1)),
        Target("forgenet.data", "load_image", "data.load_image"),
        Target("forgenet.evaluator", "predict_manifest", "evaluator.predict_manifest"),
        Target("forgenet.evaluator", "majority_vote", "evaluator.majority_vote"),
        Target("forgenet.evaluator", "classify_batch", "evaluator.classify_batch"),
        Target("forgenet.evaluator", "classify", "evaluator.classify"),
        Target("forgenet.evaluator", "frame_metrics", "evaluator.frame_metrics"),
    ]


def step_clock_targets() -> list[Target]:
    """The three spans that delimit train steps, for the untraced runs."""
    return [
        Target("forgenet.trainer", "train", "trainer.train"),
        Target("forgenet.trainer", "validation_accuracy", "trainer.validation"),
        Target("forgenet.trainer", "adam_step", "optim.adam_step"),
    ]


def step_durations(spans: list[list]) -> list[float]:
    """Seconds per train step: from the end of the previous Adam update (or
    the start of training, or the end of a validation pass) to the end of
    this one. Spans are stored in start order."""
    durations: list[float] = []
    mark = None
    for name, _, start, end, _ in spans:
        if name == "trainer.train":
            mark = start
        elif name == "trainer.validation":
            mark = end
        elif name == "optim.adam_step" and mark is not None:
            durations.append(end - mark)
            mark = end
    return durations


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def conv_counts(tag: list, backward: bool) -> tuple[int, int]:
    """(floating-point operations, compulsory bytes) of one conv call,
    computed from its shapes: each input and output read or written once."""
    _, n, c, h, w, k = tag
    ho, wo = h - 2, w - 2
    pixels = n * ho * wo
    gemm = 2 * pixels * c * KERNEL_TAPS * k
    weights = k * c * KERNEL_TAPS + k
    if not backward:
        flops = gemm + pixels * k  # patch GEMM + bias
        floats = n * c * h * w + weights + pixels * k
    else:
        # weight-gradient GEMM, patch-gradient GEMM, bias sum, col2im scatter
        flops = 2 * gemm + pixels * k + pixels * c * KERNEL_TAPS
        floats = 2 * n * c * h * w + pixels * k + 2 * weights
    return flops, floats * FLOAT_BYTES


# Per-layer metric names, in the order BENCHMARK.json lists them, with units.
SELF_MS = (
    "layers.conv2d_forward", "layers.conv2d_backward", "layers.batchnorm_forward",
    "layers.batchnorm_backward", "layers.relu_forward", "layers.relu_backward",
    "layers.dense_forward", "layers.dense_backward", "layers.sigmoid", "layers.bce_loss",
    "tensor.flatten", "tensor.unflatten", "model.forward", "model.backward",
    "optim.adam_step", "trainer.train", "data.load_image", "data.assemble_batch",
    "evaluator.predict_manifest", "evaluator.majority_vote",
)


def metric_units() -> dict[str, str]:
    units = {f"{name}.self_ms": "ms" for name in SELF_MS}
    for direction in ("conv2d_forward", "conv2d_backward"):
        units[f"layers.{direction}.block0.self_ms"] = "ms"
        units[f"layers.{direction}.gflop"] = "GFLOP"
        units[f"layers.{direction}.mb_moved"] = "MB"
        units[f"layers.{direction}.gflop_per_s"] = "GFLOP/s"
    units.update(
        {
            "trainer.step_ms_p50": "ms",
            "trainer.step_ms_p90": "ms",
            "trainer.validation_ms": "ms",
            "data.load_image.calls": "count",
            "trace.coverage_pct": "%",
            "trace.overhead_pct": "%",
            "trace.absent_targets": "count",
            "baseline.rows_flagged": "count",
        }
    )
    return units


def summarize(spans: list[list], own: list[float], per: int) -> dict:
    """Per-layer figures from the traced phase; `per` is the number of train
    steps or requests the self times are divided by."""
    per = max(per, 1)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    blocks = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "flops": 0, "bytes": 0, "gflop_per_s": []})
    for (name, tag, start, end, _), seconds in zip(spans, own):
        self_s[name] += seconds
        calls[name] += 1
        if name in ("layers.conv2d_forward", "layers.conv2d_backward") and tag is not None:
            flops, nbytes = conv_counts(tag, backward=name.endswith("backward"))
            block = blocks[(name, tag[0])]
            block["self_s"] += seconds
            block["calls"] += 1
            block["flops"] += flops
            block["bytes"] += nbytes
            if end > start:
                block["gflop_per_s"].append(flops / (end - start) / 1e9)

    metrics = {f"{name}.self_ms": 1000.0 * self_s[name] / per for name in SELF_MS}
    conv_blocks = {}
    for direction in ("conv2d_forward", "conv2d_backward"):
        name = f"layers.{direction}"
        mine = {b: v for (n, b), v in blocks.items() if n == name}
        flops = sum(v["flops"] for v in mine.values())
        nbytes = sum(v["bytes"] for v in mine.values())
        seconds = sum(v["self_s"] for v in mine.values())
        block0 = mine.get(0, {"self_s": 0.0})
        metrics[f"{name}.block0.self_ms"] = 1000.0 * block0["self_s"] / per
        metrics[f"{name}.gflop"] = flops / per / 1e9
        metrics[f"{name}.mb_moved"] = nbytes / per / 1e6
        metrics[f"{name}.gflop_per_s"] = flops / seconds / 1e9 if seconds > 0 else 0.0
        conv_blocks[direction] = {
            f"block{b}": {
                "calls": v["calls"],
                "self_ms_per_step": 1000.0 * v["self_s"] / per,
                "gflop_per_step_computed": v["flops"] / per / 1e9,
                "mb_moved_per_step_computed": v["bytes"] / per / 1e6,
                "ops_per_byte_computed": v["flops"] / v["bytes"] if v["bytes"] else 0.0,
                "gflop_per_s_median_span": statistics.median(v["gflop_per_s"]) if v["gflop_per_s"] else 0.0,
            }
            for b, v in sorted(mine.items())
        }

    steps = [1000.0 * s for s in step_durations(spans)]
    validations = [end - start for name, _, start, end, _ in spans if name == "trainer.validation"]
    metrics["trainer.step_ms_p50"] = percentile(steps, 50)
    metrics["trainer.step_ms_p90"] = percentile(steps, 90)
    metrics["trainer.validation_ms"] = 1000.0 * statistics.mean(validations) if validations else 0.0
    metrics["data.load_image.calls"] = calls["data.load_image"] / per
    return {
        "metrics": metrics,
        "conv_blocks": conv_blocks,
        "self_ms_per_unit_all_spans": {name: 1000.0 * s / per for name, s in sorted(self_s.items())},
        "calls_per_unit_all_spans": {name: c / per for name, c in sorted(calls.items())},
        "step_samples": len(steps),
    }


def baseline_table(spans: list[list], size: int, batch: int) -> list[dict]:
    """The ROADMAP baseline rows at (size, batch), from inclusive span times."""
    expected = BASELINE_MS.get((size, batch))
    if expected is None:
        return []
    samples = defaultdict(list)
    for name, tag, start, end, parent in spans:
        ms = 1000.0 * (end - start)
        if name == "model.forward" and tag is not None and tag[0] == batch:
            samples["fwd_train" if tag[1] else "fwd_infer"].append(ms)
        elif name == "model.backward" and tag == batch:
            samples["bwd"].append(ms)
        elif name == "optim.adam_step":
            samples["adam"].append(ms)
        elif (
            name == "data.assemble_batch"
            and tag == batch
            and parent >= 0
            and spans[parent][0] == "trainer.train"
        ):
            samples["decode"].append(ms)
    rows = []
    for row in BASELINE_ROWS:
        base = expected[row]
        got = statistics.median(samples[row]) if samples[row] else None
        if base is None:
            verdict = "no baseline"
        elif got is None:
            verdict = "not measured"
        elif base / BASELINE_FACTOR <= got <= base * BASELINE_FACTOR:
            verdict = "reproduces"
        else:
            verdict = "does not reproduce"
        rows.append(
            {
                "shape": f"{size}px, batch {batch}",
                "row": row,
                "baseline_ms": base,
                "measured_ms_median": got,
                "samples": len(samples[row]),
                "verdict": verdict,
            }
        )
    return rows
