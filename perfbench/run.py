#!/usr/bin/env python3
"""forgenet benchmark: training at the paper shape, and per-video scoring.

    python3 perfbench/run.py --workload paper_train --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; it imports forgenet from `src/` there.
BLAS runs on one thread (OPENBLAS_NUM_THREADS=1, set by this script; see
BLAS_THREADS), and the image loader on one (LOADER_THREADS).
The inputs are synthetic PPM datasets generated from --seed with
forgenet.data.generate_synthetic; the program receives only their
manifests. Workloads:

  paper_train  trainer.train at 128px, batch 128: epochs of one 128-frame
               step, each with a 16-frame val pass
  paper_video  closed loop, one client: each request scores one 8-frame
               128px video with evaluator.predict_manifest and votes it
               with evaluator.majority_vote; the net's conv biases and BN
               tensors hold the fixed non-trivial values of
               reference.set_inference_state

A run repeats its unit of work while another unit as long as the last
still ends within --seconds, and always runs at least the workload's
minimum. On paper_train a unit is one trainer.train call of one epoch, and
the calls keep training the same network, but each call starts a fresh
Adam state (trainer.train makes one per call) and decodes two frames for
its shape check; on paper_video a unit is one request.

--trace 0 reports the end-to-end metrics: frames_per_s, latency_ms_p50 (per
train step, or per video request), peak_rss_mb and setup_s (the median of
set_up repeated back to back for SETUP_MIN_S before the measurement, input
generation excluded); latency_ms_p90 is printed and recorded but has no
bound, because on a shared 2-core host its spread across runs exceeds any
allowed bound. On paper_train the step latencies come from a step clock: spans on trainer.train, trainer.validation_accuracy and
trainer.adam_step only, about a microsecond per step.

--trace 1 first runs untraced for half of --seconds, then wraps every layer
function (see layer_metrics.py) for the other half, and reports per-layer
self times, conv operation counts, the tracing overhead and the ROADMAP
baseline table. trace.coverage_pct is the share of the traced wall time
that the reported self times account for.

Output checks (loss finite, one verdict per video, votes summing to frames,
probabilities finite and in [0, 1], repeat requests identical, reference
probabilities at every recorded frame size) and failed units count into
`failed`.
Human-readable lines come first; the last line is one JSON object with
the keys correct, attempted, failed and metrics. The full record, with
the host facts, goes to .bench_out/results/, and the traced spans to
.bench_out/traces/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any

# One BLAS thread, set before numpy loads. With OpenBLAS's default of one
# thread per core, every GEMM spins both cores of a 2-core host, and any
# other process on it doubles a request's latency; one thread is about 10%
# slower alone, and a co-running memory-bound process leaves it unchanged.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import layer_metrics
import reference
from program import ROOT, ProgramMissing, import_program
from tracer import Tracer

OUT = ROOT / ".bench_out"
NET_SEED = 5  # network initialisation, as in the README recipe
LR = 0.001
LOADER_THREADS = 1
SETUP_MIN_S = 2.0  # set_up repeats back to back for at least this long
SETUP_REPEATS = 5  # and at least this many times
MAX_FAILED_UNITS = 3  # a phase stops after this many units raise
VIDEO_WINDOW = 16  # requests per throughput window, about 2 s

END_TO_END_UNITS = {
    "frames_per_s": "frames/s",
    "latency_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "video"
    size: int  # frame side, pixels
    batch: int
    frames: int  # frames per video
    train_videos: int = 0
    val_videos: int = 0
    min_units: int = 1  # units a run always completes
    pool_videos: int = 0  # videos the video client cycles through


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_train", "train", size=128, batch=128, frames=8,
                 train_videos=16, val_videos=2, min_units=3),
        Workload("paper_video", "video", size=128, batch=8, frames=8, pool_videos=24),
    )
}

# Smoke sizes: same code paths, a second or so per workload.
TINY = {
    "paper_train": dict(size=16, batch=8, frames=4, train_videos=4, val_videos=2),
    "paper_video": dict(size=16, batch=4, frames=4, pool_videos=2),
}


@dataclass
class Prepared:
    net: Any
    train: Any = None  # DatasetManifest
    val: Any = None
    videos: list = field(default_factory=list)  # one DatasetManifest per video


@dataclass
class Phase:
    units: list = field(default_factory=list)  # per successful unit: dict
    errors: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.units) + len(self.errors)


def host_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "blas_threads": BLAS_THREADS,
        "loader_threads": LOADER_THREADS,
        "machine": platform.machine(),
    }


def make_inputs(fg, spec: Workload, seed: int, where: Path) -> dict[str, Path]:
    """Synthetic datasets for the workload; the same seed gives the same bytes."""
    if spec.kind == "train":
        fg.data.generate_synthetic(spec.train_videos, spec.frames, spec.size, 3 * seed, where / "train")
        fg.data.generate_synthetic(spec.val_videos, spec.frames, spec.size, 3 * seed + 1, where / "val", split="val")
        return {"train": where / "train" / "manifest.csv", "val": where / "val" / "manifest.csv"}
    fg.data.generate_synthetic(spec.pool_videos, spec.frames, spec.size, 3 * seed + 2, where / "pool", split="test")
    return {"pool": where / "pool" / "manifest.csv"}


def set_up(fg, spec: Workload, manifests: dict[str, Path]) -> Prepared:
    """Program work before the first timed call: read manifests, build the net."""
    config = fg.model.NetworkConfig(height=spec.size, width=spec.size, seed=NET_SEED)
    if spec.kind == "train":
        return Prepared(
            net=fg.model.build(config),
            train=fg.data.read_manifest(manifests["train"]),
            val=fg.data.read_manifest(manifests["val"], split="val"),
        )
    pool = fg.data.read_manifest(manifests["pool"], split="test")
    by_video: dict[str, list] = {}
    for row in pool.rows:
        by_video.setdefault(row.video_id, []).append(row)
    videos = [fg.data.DatasetManifest(rows=rows, split="test") for rows in by_video.values()]
    net = fg.model.build(config)
    reference.set_inference_state(net)
    return Prepared(net=net, videos=videos)


def timed_set_up(fg, spec: Workload, manifests: dict[str, Path]) -> tuple[Prepared, list[float]]:
    """set_up repeated back to back; returns the last result and every duration."""
    times: list[float] = []
    first = perf_counter()
    while len(times) < SETUP_REPEATS or perf_counter() - first < SETUP_MIN_S:
        started = perf_counter()
        prepared = set_up(fg, spec, manifests)
        times.append(perf_counter() - started)
    return prepared, times


def train_unit(fg, spec: Workload, prepared: Prepared, seed: int, index: int) -> dict:
    """One more epoch of training for the prepared network, with its own shuffle."""
    config = fg.trainer.TrainConfig(
        epochs=1, batch_size=spec.batch, lr=LR, early_stop_delta=0.0,
        seed=seed + index, loader_threads=LOADER_THREADS,
    )
    started = perf_counter()
    prepared.net, records, _ = fg.trainer.train(prepared.net, prepared.train, prepared.val, config)
    wall = perf_counter() - started
    return {
        "wall_s": wall,
        "frames": len(prepared.train.rows) * len(records),
        "train_loss": [r.train_loss for r in records],
        "val_acc": [r.val_acc for r in records],
    }


def video_unit(fg, spec: Workload, prepared: Prepared, seed: int, index: int) -> dict:
    video = prepared.videos[index % len(prepared.videos)]
    started = perf_counter()
    records = fg.evaluator.predict_manifest(prepared.net, video, batch_size=spec.batch, threads=LOADER_THREADS)
    verdict = fg.evaluator.majority_vote(records)
    wall = perf_counter() - started
    return {"wall_s": wall, "frames": len(records), "video": index % len(prepared.videos),
            "records": records, "verdict": verdict}


def run_phase(fg, spec, prepared, seed, seconds, tracer, first_index=0) -> Phase:
    """Repeat the workload's unit while another one of the same length still
    ends within `seconds`; always run at least spec.min_units."""
    unit = train_unit if spec.kind == "train" else video_unit
    phase = Phase()
    started = perf_counter()
    index = first_index
    while True:
        unit_started = perf_counter()
        try:
            if tracer is not None:
                with tracer.span("bench.unit"):
                    phase.units.append(unit(fg, spec, prepared, seed, index))
            else:
                phase.units.append(unit(fg, spec, prepared, seed, index))
        except Exception:  # a failed operation is counted, and the run goes on
            phase.errors.append(traceback.format_exc(limit=4))
            print(f"unit {index} failed:\n{phase.errors[-1]}", file=sys.stderr)
        index += 1
        now = perf_counter()
        if len(phase.errors) >= MAX_FAILED_UNITS:
            break
        if now - started + (now - unit_started) > seconds and phase.attempted >= spec.min_units:
            break
    phase.wall_s = perf_counter() - started
    return phase


def frames_per_s(spec: Workload, phase: Phase) -> float:
    """Median over windows: one trainer.train call, or VIDEO_WINDOW requests,
    so that a burst of host contention moves one window, not the result."""
    if not phase.units:
        return 0.0
    size = 1 if spec.kind == "train" else VIDEO_WINDOW
    units = phase.units
    windows = [units[i * size : (i + 1) * size] for i in range(len(units) // size)] or [units]
    return statistics.median(sum(u["frames"] for u in w) / sum(u["wall_s"] for u in w) for w in windows)


def probabilities_ok(probs) -> bool:
    return all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs)


def output_checks(fg, spec: Workload, prepared: Prepared, units: list, workdir: Path) -> list[dict]:
    checks = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append({"check": name, "ok": bool(ok), "detail": detail})

    if spec.kind == "train" and units:
        losses = [loss for u in units for loss in u["train_loss"]]
        check("train_loss_finite", all(math.isfinite(x) for x in losses),
              f"{len(losses)} epoch losses, last {losses[-1]!r}")
        last = units[-1]
        records = fg.evaluator.predict_manifest(prepared.net, prepared.val, batch_size=spec.batch)
        probs = [r.probability for r in records]
        check("probabilities_in_range", probabilities_ok(probs) and len(probs) == len(prepared.val.rows),
              f"{len(probs)} val probabilities from the trained net")
        recount = sum((p >= 0.5) == (r.truth == 1) for p, r in zip(probs, records)) / len(records)
        check("val_acc_recount", recount == last["val_acc"][-1],
              f"recounted {recount!r}, trainer reported {last['val_acc'][-1]!r}")
    elif units:
        verdict_ok = votes_ok = recount_ok = repeat_ok = True
        probs = []
        scores: dict[int, list[float]] = {}
        for u in units:
            video = prepared.videos[u["video"]]
            verdict, records = u["verdict"], u["records"]
            p = [r.probability for r in records]
            probs += p
            verdict_ok &= verdict.video_id == video.rows[0].video_id and len(records) == len(video.rows)
            votes_ok &= verdict.frames_original + verdict.frames_fake == len(records)
            fake = sum(x >= 0.5 for x in p)
            recount_ok &= verdict.frames_fake == fake and verdict.predicted == int(2 * fake >= len(p))
            repeat_ok &= scores.setdefault(u["video"], p) == p
        check("one_verdict_per_video", verdict_ok, f"{len(units)} requests")
        check("vote_counts_sum_to_frames", votes_ok, f"{len(units)} verdicts")
        check("verdicts_recount", recount_ok, "votes and verdicts recounted from the probabilities")
        check("repeat_requests_identical", repeat_ok,
              f"{len(units)} requests over {len(scores)} videos, each video scored the same every time")
        check("probabilities_in_range", probabilities_ok(probs), f"{len(probs)} frame probabilities")
    for size in reference.SIZES:
        ok, detail = reference.check(fg, size, workdir)
        check("reference_probabilities", ok, f"{size}px: {detail}")
    return checks


def latencies_ms(spec: Workload, phase: Phase, clock: Tracer | None) -> list[float]:
    if spec.kind == "train":
        return [1000.0 * s for s in layer_metrics.step_durations(clock.spans)] if clock else []
    return [1000.0 * u["wall_s"] for u in phase.units]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="smoke sizes: same code paths, seconds not minutes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        fg = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"cannot build the program from this checkout: {exc}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    if args.tiny:
        spec = replace(spec, **TINY[spec.name])
    run_id = f"{spec.name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    workdir = OUT / "work" / f"{run_id}-{os.getpid()}"
    try:
        return measure(fg, spec, args, run_id, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(fg, spec: Workload, args, run_id: str, workdir: Path) -> int:
    host = host_facts()
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(f"workload {spec.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"
          + (" (tiny)" if args.tiny else ""))

    manifests = make_inputs(fg, spec, args.seed, workdir / "inputs")
    prepared, setup_times = timed_set_up(fg, spec, manifests)

    if spec.kind == "video":  # warm caches and lazy allocation before timing
        for index in range(2):
            video_unit(fg, spec, prepared, args.seed, index)

    record: dict[str, Any] = {"run": run_id, "host": host, "workload": asdict(spec), "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace}
    if args.trace == 0:
        clock = Tracer() if spec.kind == "train" else None
        if clock:
            clock.install(layer_metrics.step_clock_targets())
        try:
            phase = run_phase(fg, spec, prepared, args.seed, args.seconds, None)
        finally:
            if clock:
                clock.uninstall()
        phases = [phase]
        lat = latencies_ms(spec, phase, clock)
        metrics = {
            "frames_per_s": frames_per_s(spec, phase),
            "latency_ms_p50": layer_metrics.percentile(lat, 50),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END_UNITS
        record.update({"latency_ms_p90": layer_metrics.percentile(lat, 90), "latency_samples_ms": lat,
                       "absent_step_clock_targets": clock.absent if clock else []})
        print(f"info latency_ms_p90 = {record['latency_ms_p90']:.6g} ms over {len(lat)} "
              f"{'train steps' if spec.kind == 'train' else 'requests'} (reported, not bounded)")
    else:
        untraced = run_phase(fg, spec, prepared, args.seed, args.seconds / 2, None)
        tracer = Tracer()
        tracer.install(layer_metrics.targets(spec.size))
        try:
            traced = run_phase(fg, spec, prepared, args.seed, args.seconds / 2, tracer,
                               first_index=untraced.attempted)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        own = tracer.self_times()
        per = sum(1 for s in tracer.spans if s[0] == ("optim.adam_step" if spec.kind == "train" else "bench.unit"))
        summary = layer_metrics.summarize(tracer.spans, own, per)
        table = layer_metrics.baseline_table(tracer.spans, spec.size, spec.batch)
        metrics = summary.pop("metrics")
        plain, with_trace = frames_per_s(spec, untraced), frames_per_s(spec, traced)
        reported = set(layer_metrics.SELF_MS)
        metrics["trace.coverage_pct"] = 100.0 * sum(
            t for span, t in zip(tracer.spans, own) if span[0] in reported) / traced.wall_s
        metrics["trace.overhead_pct"] = 100.0 * (plain / with_trace - 1.0) if with_trace else 0.0
        metrics["trace.absent_targets"] = float(len(tracer.absent))
        metrics["baseline.rows_flagged"] = float(
            sum(row["verdict"] in ("does not reproduce", "not measured") for row in table))
        units = layer_metrics.metric_units()
        metrics = {name: metrics[name] for name in units}
        record.update(summary)
        record.update({"per": "train step" if spec.kind == "train" else "request", "per_count": per,
                       "absent_targets": tracer.absent, "baseline_table": table,
                       "untraced_frames_per_s": plain, "traced_frames_per_s": with_trace})
        for row in table:
            got = row["measured_ms_median"]
            print(f"baseline {row['shape']} {row['row']}: ROADMAP {row['baseline_ms']} ms, "
                  f"measured {'-' if got is None else f'{got:.2f}'} ms ({row['samples']} samples): {row['verdict']}")
        if not table:
            print(f"baseline: the ROADMAP table has no row at {spec.size}px, batch {spec.batch}")
        for where in tracer.absent:
            print(f"trace target absent: {where}")
        traces = OUT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(traces / f"{run_id}.jsonl")

    all_units = [u for p in phases for u in p.units]
    checks = output_checks(fg, spec, prepared, all_units, workdir)
    attempted = sum(p.attempted for p in phases) + len(checks)
    failed = sum(len(p.errors) for p in phases) + sum(not c["ok"] for c in checks)

    for c in checks:
        print(f"check {c['check']}: {'PASS' if c['ok'] else 'FAIL'} ({c['detail']})")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    if spec.kind == "train" and all_units:
        print(f"info train_loss = {all_units[-1]['train_loss'][-1]:.6g} (final epoch), "
              f"val_frame_acc = {all_units[-1]['val_acc'][-1]:.4f}")
    else:
        print(f"info requests = {len(all_units)}")
    print(f"info error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations and checks failed)")

    record.update({
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "setup_samples_s": setup_times,
        "checks": checks,
        "errors": [e for p in phases for e in p.errors],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "units": [{k: v for k, v in u.items() if k in ("wall_s", "frames", "train_loss", "val_acc", "video")}
                  for u in all_units],
    })
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
