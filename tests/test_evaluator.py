import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forgenet import data, evaluator, model
from forgenet.errors import ContractError, ManifestError, ShapeError
from forgenet.evaluator import PredictionRecord
from test_data import FILE_EDITS, FUZZ_SETTINGS, mutate, parses_or_names_a_line


def rec(video_id, frame_index, truth, probability):
    return PredictionRecord(video_id, frame_index, truth, probability)


class TestClassify:
    def test_just_below_threshold_is_original(self):
        assert evaluator.classify(0.49) == 0

    def test_threshold_is_fake(self):
        assert evaluator.classify(0.5) == 1

    def test_certain_fake(self):
        assert evaluator.classify(1.0) == 1

    def test_zero_is_original(self):
        assert evaluator.classify(0.0) == 0

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ContractError):
            evaluator.classify(bad)

    @given(
        p1=st.floats(0, 1, allow_nan=False),
        p2=st.floats(0, 1, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, p1, p2):
        lo, hi = sorted([p1, p2])
        assert evaluator.classify(lo) <= evaluator.classify(hi)

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
    def test_batch_rejects_what_scalar_rejects(self, bad):
        probs = np.array([0.2, bad, 0.7])
        with pytest.raises(ContractError):
            evaluator.classify(bad)
        with pytest.raises(ContractError):
            evaluator.classify_batch(probs)

    def test_batch_matches_scalar(self, rng):
        probs = rng.uniform(size=40)
        batch = evaluator.classify_batch(probs)
        assert batch.tolist() == [evaluator.classify(p) for p in probs]


class TestFrameMetrics:
    def test_all_correct(self):
        records = [rec("a", 0, 0, 0.1), rec("a", 1, 1, 0.9), rec("b", 0, 1, 0.8)]
        accuracy, cm, misclassified = evaluator.frame_metrics(records)
        assert accuracy == 1.0
        assert misclassified == 0
        assert cm.counts.tolist() == [[1, 0], [0, 2]]
        assert cm.rates.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            evaluator.frame_metrics([])

    def test_single_class_row_stays_zero(self):
        accuracy, cm, _ = evaluator.frame_metrics([rec("a", 0, 1, 0.9)])
        assert accuracy == 1.0
        assert cm.rates[0].tolist() == [0.0, 0.0]
        assert cm.rates[1].tolist() == [0.0, 1.0]

    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 1), st.floats(0, 1, allow_nan=False)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_match_brute_force_recount(self, pairs):
        records = [rec(f"v{i}", i, t, p) for i, (t, p) in enumerate(pairs)]
        accuracy, cm, misclassified = evaluator.frame_metrics(records)
        counted = [[0, 0], [0, 0]]
        wrong = 0
        for truth, p in pairs:
            detected = 0 if p < 0.5 else 1
            counted[truth][detected] += 1
            wrong += int(detected != truth)
        assert cm.counts.tolist() == counted
        assert misclassified == wrong
        assert accuracy == (len(pairs) - wrong) / len(pairs)
        for t in (0, 1):
            if sum(counted[t]):
                assert abs(cm.rates[t].sum() - 1.0) < 1e-9


class TestMajorityVote:
    def test_fake_video_voted_original_by_53_percent(self):
        records = [rec("v", i, 1, 0.1 if i < 53 else 0.9) for i in range(100)]
        verdict = evaluator.majority_vote(records)
        assert verdict.predicted == 0
        assert verdict.truth == 1
        assert (verdict.frames_original, verdict.frames_fake) == (53, 47)

    def test_unanimous_fake(self):
        verdict = evaluator.majority_vote([rec("v", i, 1, 0.99) for i in range(7)])
        assert verdict.predicted == 1
        assert verdict.frames_fake == 7

    def test_exact_tie_called_fake(self):
        records = [rec("v", i, 0, 0.2 if i < 5 else 0.8) for i in range(10)]
        assert evaluator.majority_vote(records).predicted == 1

    def test_permutation_invariant(self, rng):
        records = [rec("v", i, 1, float(p)) for i, p in enumerate(rng.uniform(size=15))]
        base = evaluator.majority_vote(records)
        for _ in range(5):
            shuffled = [records[i] for i in rng.permutation(15)]
            assert evaluator.majority_vote(shuffled) == base

    def test_mixed_video_ids_rejected(self):
        with pytest.raises(ContractError, match="mixed"):
            evaluator.majority_vote([rec("a", 0, 1, 0.9), rec("b", 0, 1, 0.9)])

    def test_conflicting_truth_rejected(self):
        with pytest.raises(ContractError, match="truth"):
            evaluator.majority_vote([rec("a", 0, 1, 0.9), rec("a", 1, 0, 0.9)])

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            evaluator.majority_vote([])

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
    def test_bad_probability_rejected(self, bad):
        with pytest.raises(ContractError):
            evaluator.majority_vote([rec("v", 0, 1, 0.9), rec("v", 1, 1, bad)])


def random_prediction_log(rng, videos):
    """Multi-video log with random frame counts, labels, and probabilities."""
    records = []
    for v in range(videos):
        truth = int(rng.integers(0, 2))
        for f in range(int(rng.integers(1, 9))):
            records.append(rec(f"v{v}", f, truth, float(rng.uniform())))
    return records


def brute_force_video_recount(records):
    """Independent per-video recount: dict video_id -> (truth, predicted)."""
    votes = {}
    for r in records:
        truth, originals, fakes = votes.get(r.video_id, (r.truth, 0, 0))
        if r.probability < 0.5:
            originals += 1
        else:
            fakes += 1
        votes[r.video_id] = (truth, originals, fakes)
    return {
        vid: (truth, 1 if fakes >= originals else 0)
        for vid, (truth, originals, fakes) in votes.items()
    }


class TestVideoMetrics:
    def test_table_style_one_fake_missed(self):
        records = [rec(f"orig{i}", 0, 0, 0.1) for i in range(150)]
        records += [rec(f"fake{i}", 0, 1, 0.9) for i in range(1, 150)]
        records += [rec("fake0", f, 1, 0.1 if f < 53 else 0.9) for f in range(100)]
        accuracy, cm, verdicts = evaluator.video_metrics(records)
        assert np.round(cm.rates, 3).tolist() == [[1.0, 0.0], [0.007, 0.993]]
        assert accuracy == pytest.approx(299 / 300)
        misses = [v for v in verdicts if v.predicted != v.truth]
        assert [v.video_id for v in misses] == ["fake0"]

    def test_all_unanimous_correct(self):
        records = [rec(f"v{i}", f, i % 2, 0.9 * (i % 2) + 0.05) for i in range(6)
                   for f in range(3)]
        accuracy, cm, verdicts = evaluator.video_metrics(records)
        assert accuracy == 1.0
        assert len(verdicts) == 6

    def test_matches_brute_force_recount(self, rng):
        for _ in range(50):
            records = random_prediction_log(rng, videos=6)
            _, _, verdicts = evaluator.video_metrics(records)
            expected = brute_force_video_recount(records)
            assert {v.video_id: (v.truth, v.predicted) for v in verdicts} == expected

    def test_single_frame_videos_reduce_to_frame_metrics(self, rng):
        records = [rec(f"v{i}", 0, int(rng.integers(0, 2)), float(rng.uniform()))
                   for i in range(40)]
        video_acc, video_cm, _ = evaluator.video_metrics(records)
        frame_acc, frame_cm, _ = evaluator.frame_metrics(records)
        assert video_acc == frame_acc
        assert np.array_equal(video_cm.counts, frame_cm.counts)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            evaluator.video_metrics([])


FIG4_STYLE_COUNTS = [189, 58, 20, 3, 9, 9, 6, 8, 8, 233]


def fig4_style_records():
    """One video's worth of probabilities with a spike at each extreme and
    probability 1.0 occupied, so the final closed bin is exercised."""
    probs = []
    for i, count in enumerate(FIG4_STYLE_COUNTS[:9]):
        probs += [i / 10 + 0.05] * count
    probs += [0.95] * 16 + [1.0] * 217
    return [rec("miss", i, 1, p) for i, p in enumerate(probs)]


class TestProbabilityHistogram:
    def test_bimodal_video_counts(self):
        counts = evaluator.probability_histogram(fig4_style_records())
        assert counts.tolist() == FIG4_STYLE_COUNTS
        assert counts.sum() == sum(FIG4_STYLE_COUNTS)

    def test_empty_gives_zeros(self):
        assert evaluator.probability_histogram([]).tolist() == [0] * 10

    def test_uniform_sum_partition(self, rng):
        records = [rec("v", i, 0, float(p)) for i, p in enumerate(rng.uniform(size=1000))]
        counts = evaluator.probability_histogram(records)
        assert counts.sum() == 1000

    def test_bin_edges_half_open(self):
        records = [rec("v", 0, 0, 0.1), rec("v", 1, 0, 0.2)]
        counts = evaluator.probability_histogram(records)
        assert counts[1] == 1 and counts[2] == 1
        # Every edge i/10 and both float neighbours of it, against a plain
        # count: bin i holds i/10 <= p < (i+1)/10, the last one also 1.0.
        probs = [
            float(p)
            for e in np.arange(11) / 10
            for p in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))
            if 0.0 <= p <= 1.0
        ]
        expected = [0] * 10
        for p in probs:
            expected[max(i for i in range(10) if i / 10 <= p)] += 1
        records = [rec("v", i, 0, p) for i, p in enumerate(probs)]
        assert evaluator.probability_histogram(records).tolist() == expected

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
    def test_out_of_range_rejected(self, bad):
        records = [rec("v", 0, 0, bad), rec("v", 1, 0, 0.3)]
        with pytest.raises(ContractError):
            evaluator.probability_histogram(records)


class TestPredictManifest:
    def test_records_follow_manifest_order(self, synth_root):
        _, manifests = synth_root
        cfg = model.NetworkConfig(conv_layers=2, filters=2, height=24, width=24)
        net = model.build(cfg)
        records = evaluator.predict_manifest(net, manifests["val"], batch_size=16)
        rows = manifests["val"].rows
        assert len(records) == len(rows)
        for record, row in zip(records, rows):
            assert (record.video_id, record.frame_index) == (row.video_id, row.frame_index)
            assert record.truth == row.label
            assert 0.0 < record.probability < 1.0

    def test_repeat_is_identical(self, synth_root):
        _, manifests = synth_root
        cfg = model.NetworkConfig(conv_layers=2, filters=2, height=24, width=24)
        net = model.build(cfg)
        a = evaluator.predict_manifest(net, manifests["val"], batch_size=16)
        b = evaluator.predict_manifest(net, manifests["val"], batch_size=16)
        assert a == b

    def test_repeat_reuses_the_buffers(self, synth_root):
        # 40 frames at batch 16: the short last batch uses views of the
        # buffers the first batch sized.
        _, manifests = synth_root
        cfg = model.NetworkConfig(conv_layers=2, filters=2, height=24, width=24)
        net = model.build(cfg)
        a = evaluator.predict_manifest(net, manifests["val"], batch_size=16)
        pointers = {name: buf.ctypes.data for name, buf in net.buffers.items()}
        assert set(pointers) == {"batch", "act0", "act1"}
        b = evaluator.predict_manifest(net, manifests["val"], batch_size=16)
        assert {name: buf.ctypes.data for name, buf in net.buffers.items()} == pointers
        assert a == b

    def test_threads_decode_into_the_shared_batch(self, synth_root):
        _, manifests = synth_root
        cfg = model.NetworkConfig(conv_layers=2, filters=2, height=24, width=24)
        net = model.build(cfg)
        serial = evaluator.predict_manifest(net, manifests["val"], batch_size=16)
        threaded = evaluator.predict_manifest(
            net, manifests["val"], batch_size=16, threads=4
        )
        assert threaded == serial

    def test_wrong_size_frame_names_its_path(self, synth_root, tmp_path):
        _, manifests = synth_root
        rows = list(manifests["val"].rows)
        odd = tmp_path / "odd.ppm"
        data.write_ppm(np.zeros((3, 20, 20), np.float32), odd)
        rows[5] = dataclasses.replace(rows[5], path=str(odd))
        cfg = model.NetworkConfig(conv_layers=2, filters=2, height=24, width=24)
        with pytest.raises(ShapeError, match="odd.ppm"):
            evaluator.predict_manifest(
                model.build(cfg), data.DatasetManifest(rows, "val"), batch_size=16
            )


class TestPredictionLogIO:
    def test_roundtrip_exact(self, rng, tmp_path):
        records = [
            rec(f"v{i}", i, int(rng.integers(0, 2)), float(rng.uniform()))
            for i in range(30)
        ]
        path = tmp_path / "p.csv"
        evaluator.write_predictions(records, path)
        assert evaluator.read_predictions(path) == records

    def test_header_line(self, tmp_path):
        path = tmp_path / "p.csv"
        evaluator.write_predictions([rec("v", 0, 1, 0.25)], path)
        assert path.read_text().splitlines()[0] == "video_id,frame_index,truth,probability"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("video,frame,truth,prob\n")
        with pytest.raises(ManifestError, match="p.csv: line 1: bad header"):
            evaluator.read_predictions(path)

    def test_bad_truth_names_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("video_id,frame_index,truth,probability\nv,0,2,0.5\n")
        with pytest.raises(ManifestError, match="p.csv: line 2: truth must be 0 or 1"):
            evaluator.read_predictions(path)

    def test_bad_frame_index_names_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("video_id,frame_index,truth,probability\nv,x,1,0.5\n")
        with pytest.raises(ManifestError, match="p.csv: line 2: bad frame_index 'x'"):
            evaluator.read_predictions(path)

    def test_out_of_range_probability_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("video_id,frame_index,truth,probability\nv,0,1,1.5\n")
        with pytest.raises(
            ManifestError, match=r"p.csv: line 2: probability out of \[0,1\], got '1.5'"
        ):
            evaluator.read_predictions(path)

    def test_repeated_frame_names_line_and_key(self, tmp_path):
        """Two distinct frames of v, one listed twice: counted twice, it would
        tally v as 1 original and 2 fake."""
        path = tmp_path / "p.csv"
        path.write_text(
            "video_id,frame_index,truth,probability\n"
            "v,0,1,0.9\nv,1,1,0.2\nv,0,1,0.9\n"
        )
        with pytest.raises(
            ManifestError, match=r"p.csv: line 4: duplicate \(video_id, frame_index\) \('v', 0\)"
        ):
            evaluator.read_predictions(path)

    def test_two_truths_in_a_video_name_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("video_id,frame_index,truth,probability\nv,0,1,0.9\nv,1,0,0.1\n")
        with pytest.raises(
            ManifestError, match="p.csv: line 3: video 'v' has truth 1 on its earlier rows, "
            "this row has 0"
        ):
            evaluator.read_predictions(path)

    def test_non_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(
            b"video_id,frame_index,truth,probability\nv,0,1,0.9\nv\xff,1,1,0.2\n"
        )
        with pytest.raises(ManifestError, match="p.csv: line 3: not UTF-8"):
            evaluator.read_predictions(path)

    def test_field_count_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("video_id,frame_index,truth,probability\nv,0,1\n")
        with pytest.raises(ManifestError, match="p.csv: line 2: expected 4 fields, got 3"):
            evaluator.read_predictions(path)

    @pytest.mark.parametrize("truth", [" 1", "+1", "01", "1.0"])
    def test_truth_is_exactly_0_or_1(self, tmp_path, truth):
        path = tmp_path / "p.csv"
        path.write_text(f"video_id,frame_index,truth,probability\nv,0,{truth},0.5\n")
        with pytest.raises(
            ManifestError,
            match=rf"^{re.escape(str(path))}: line 2: truth must be 0 or 1, "
            rf"got '{re.escape(truth)}'$",
        ):
            evaluator.read_predictions(path)

    def test_unparsable_probability_has_its_own_message(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("video_id,frame_index,truth,probability\nv,0,1,high\n")
        with pytest.raises(
            ManifestError, match=rf"^{re.escape(str(path))}: line 2: bad probability 'high'$"
        ):
            evaluator.read_predictions(path)

    def test_line_numbers_count_physical_lines(self, tmp_path):
        """write_predictions quotes a video_id with a newline: it spans
        lines 2 and 3, so the bad truth below is on line 4."""
        path = tmp_path / "p.csv"
        evaluator.write_predictions([rec("two\nlines", 0, 1, 0.5)], path)
        path.write_text(path.read_text() + "v,0,2,0.5\n")
        with pytest.raises(
            ManifestError, match=rf"^{re.escape(str(path))}: line 4: truth must be 0 or 1"
        ):
            evaluator.read_predictions(path)

    def test_field_over_the_csv_limit_names_line(self, tmp_path):
        path = tmp_path / "p.csv"
        evaluator.write_predictions([rec("v", 0, 1, 0.5), rec("w" * 200_000, 0, 1, 0.5)], path)
        with pytest.raises(
            ManifestError, match=rf"^{re.escape(str(path))}: line 3: field larger than field limit"
        ):
            evaluator.read_predictions(path)

    @given(edits=FILE_EDITS)
    @FUZZ_SETTINGS
    def test_mutated_log_parses_or_names_a_line(self, tmp_path, edits):
        path = tmp_path / "p.csv"
        records = [rec("a", 0, 0, 0.25), rec("a", 1, 0, 0.75), rec('b,"1"', 0, 1, 1.0)]
        evaluator.write_predictions(records, path)
        path.write_bytes(mutate(path.read_bytes(), edits))
        parses_or_names_a_line(evaluator.read_predictions, path)


class TestReports:
    def test_format_confusion_mentions_counts(self):
        _, cm, _ = evaluator.frame_metrics(
            [rec("a", 0, 0, 0.1), rec("a", 1, 1, 0.9), rec("a", 2, 1, 0.2)]
        )
        text = evaluator.format_confusion(cm)
        assert "truth original" in text and "truth fake" in text
        assert "(1.000)" in text

    def test_metrics_jsonl(self, tmp_path):
        path = tmp_path / "m.jsonl"
        evaluator.write_metrics_jsonl({"frame_accuracy": 0.996, "misclassified": 627}, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0] == {"metric": "frame_accuracy", "value": 0.996}
        assert lines[1] == {"metric": "misclassified", "value": 627}
