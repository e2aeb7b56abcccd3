"""Frame- and video-level scoring of prediction records.

A frame's probability is thresholded at 0.5 (>= 0.5 means fake). A video's
verdict is the label carried by the strict majority of its frames; ties go
to fake, the security-conservative default. Confusion matrices are 2x2
with rows = ground truth (original, fake) and columns = detected, reported
both as counts and as row-normalized rates. The probability histogram
counts frames in HISTOGRAM_BINS equal bins of [0, 1]: bin i covers
[i/bins, (i+1)/bins), and the last bin is closed, so 1.0 is counted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import model as model_mod
from .errors import ContractError, ManifestError

THRESHOLD = 0.5
PREDICTIONS_HEADER = ["video_id", "frame_index", "truth", "probability"]
HISTOGRAM_BINS = 10


@dataclass(frozen=True)
class PredictionRecord:
    video_id: str
    frame_index: int
    truth: int  # 0 original, 1 fake
    probability: float


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (2, 2) int64
    rates: np.ndarray  # (2, 2) float64, rows normalized; all-zero row stays zero


@dataclass(frozen=True)
class VideoVerdict:
    video_id: str
    truth: int
    predicted: int
    frames_original: int
    frames_fake: int


def classify(probability: float) -> int:
    """0 (original) iff probability < 0.5; the boundary 0.5 is fake."""
    return int(classify_batch(probability))


def _probabilities(values) -> np.ndarray:
    """`values` as an array, refused unless each is in [0, 1]."""
    p = np.asarray(values)
    # Negated, so that a NaN, which fails every comparison, is rejected too.
    if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ContractError("probabilities out of [0,1]")
    return p


def classify_batch(probabilities: np.ndarray) -> np.ndarray:
    return (_probabilities(probabilities) >= THRESHOLD).astype(np.int64)


def _confusion(truths: np.ndarray, predicted: np.ndarray) -> ConfusionMatrix:
    counts = np.bincount(2 * truths + predicted, minlength=4).reshape(2, 2)
    totals = counts.sum(axis=1, keepdims=True)
    rates = np.divide(counts, totals, out=np.zeros((2, 2)), where=totals > 0)
    return ConfusionMatrix(counts=counts, rates=rates)


def frame_metrics(
    records: list[PredictionRecord],
) -> tuple[float, ConfusionMatrix, int]:
    """(accuracy, confusion, misclassified count) over individual frames."""
    if not records:
        raise ContractError("frame_metrics: no records")
    truths = np.array([r.truth for r in records], dtype=np.int64)
    probs = np.array([r.probability for r in records], dtype=np.float64)
    predicted = classify_batch(probs)
    misclassified = int(np.sum(predicted != truths))
    accuracy = float((len(records) - misclassified) / len(records))
    return accuracy, _confusion(truths, predicted), misclassified


def majority_vote(records: list[PredictionRecord]) -> VideoVerdict:
    """Verdict for one video: the per-frame label held by more frames wins;
    an exact tie is called fake."""
    if not records:
        raise ContractError("majority_vote: no records")
    video_id = records[0].video_id
    truth = records[0].truth
    for r in records:
        if r.video_id != video_id:
            raise ContractError(
                f"majority_vote: mixed video ids {video_id!r} and {r.video_id!r}"
            )
        if r.truth != truth:
            raise ContractError(f"majority_vote: conflicting truth labels in {video_id!r}")
    votes_fake = int(classify_batch([r.probability for r in records]).sum())
    votes_original = len(records) - votes_fake
    predicted = 1 if votes_fake >= votes_original else 0
    return VideoVerdict(
        video_id=video_id,
        truth=truth,
        predicted=predicted,
        frames_original=votes_original,
        frames_fake=votes_fake,
    )


def group_by_video(records: list[PredictionRecord]) -> dict[str, list[PredictionRecord]]:
    """Group records by video id, preserving first-appearance order."""
    groups: dict[str, list[PredictionRecord]] = {}
    for r in records:
        groups.setdefault(r.video_id, []).append(r)
    return groups


def video_metrics(
    records: list[PredictionRecord],
) -> tuple[float, ConfusionMatrix, list[VideoVerdict]]:
    """Majority-vote per video, then frame_metrics-style aggregation over verdicts."""
    if not records:
        raise ContractError("video_metrics: no records")
    verdicts = [majority_vote(group) for group in group_by_video(records).values()]
    truths = np.array([v.truth for v in verdicts], dtype=np.int64)
    predicted = np.array([v.predicted for v in verdicts], dtype=np.int64)
    accuracy = float(np.mean(predicted == truths))
    return accuracy, _confusion(truths, predicted), verdicts


def probability_histogram(records: list[PredictionRecord]) -> np.ndarray:
    """Counts over the HISTOGRAM_BINS bins of [0,1] (see the module doc)."""
    probs = _probabilities(np.array([r.probability for r in records], np.float64))
    # Edges, not bins=10: numpy's arithmetic uniform binning misplaces some i/10.
    return np.histogram(probs, np.arange(HISTOGRAM_BINS + 1) / HISTOGRAM_BINS)[0]


def predict_manifest(
    net: model_mod.Network,
    manifest: data_mod.DatasetManifest,
    batch_size: int = 128,
    threads: int = 1,
) -> list[PredictionRecord]:
    """Inference-mode pass over a manifest, in manifest order. Each batch is
    decoded into the net's batch buffer."""
    records: list[PredictionRecord] = []
    for indices in data_mod.make_batches(manifest, batch_size, shuffle=False, seed=0):
        batch = data_mod.assemble_batch(
            manifest, indices, threads=threads,
            out=model_mod.input_buffer(net, len(indices)),
        )
        probs, _ = model_mod.forward(net, batch.x, training=False)
        for j, p in zip(indices, probs):
            row = manifest.rows[j]
            records.append(
                PredictionRecord(row.video_id, row.frame_index, row.label, float(p))
            )
    return records


def write_predictions(records: list[PredictionRecord], path) -> None:
    # repr keeps the shortest exact decimal form, so a written log rescores
    # identically to the in-memory records
    table = [[r.video_id, r.frame_index, r.truth, repr(r.probability)] for r in records]
    data_mod.write_csv(path, PREDICTIONS_HEADER, table)


def read_predictions(path) -> list[PredictionRecord]:
    """A prediction log's records in file order; ManifestError names a bad line."""
    records: list[PredictionRecord] = []
    with data_mod.open_text(path) as source:
        rows = data_mod.read_frame_rows(source, PREDICTIONS_HEADER, "truth")
        for line_no, (video_id, _, _, text), frame_index, truth in rows:
            try:
                probability = float(text)
            except ValueError:
                raise ManifestError(f"line {line_no}: bad probability {text!r}") from None
            if not 0.0 <= probability <= 1.0:
                raise ManifestError(f"line {line_no}: probability out of [0,1], got {text!r}")
            records.append(PredictionRecord(video_id, frame_index, truth, probability))
    return records


def format_confusion(cm: ConfusionMatrix, title: str = "") -> str:
    """The matrix as a table, with `title` in its top left corner."""
    lines = [
        f"{title:<20}detected original   detected fake",
        f"truth original      {cm.counts[0, 0]:>12d} ({cm.rates[0, 0]:.3f})"
        f"   {cm.counts[0, 1]:>8d} ({cm.rates[0, 1]:.3f})",
        f"truth fake          {cm.counts[1, 0]:>12d} ({cm.rates[1, 0]:.3f})"
        f"   {cm.counts[1, 1]:>8d} ({cm.rates[1, 1]:.3f})",
    ]
    return "\n".join(lines)


def write_metrics_jsonl(metrics: dict, path) -> None:
    """One JSON object per metric: {"metric": name, "value": value}."""
    text = "".join(
        json.dumps({"metric": name, "value": value}) + "\n"
        for name, value in metrics.items()
    )
    data_mod.write_atomic(path, text.encode("utf-8"))
