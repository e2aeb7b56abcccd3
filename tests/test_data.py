import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forgenet import data, evaluator, model
from forgenet.errors import (
    ConfigError,
    ContractError,
    DecodeError,
    ManifestError,
    ShapeError,
)

GOOD_MANIFEST = (
    "path,label,video_id,frame_index\n"
    "a/0.ppm,0,vidA,0\n"
    "a/1.ppm,1,vidB,0\n"
)


class TestParseManifest:
    def test_rows_keep_file_order(self):
        manifest = data.parse_manifest(GOOD_MANIFEST)
        assert len(manifest) == 2
        assert manifest.rows[0] == data.ManifestRow("a/0.ppm", 0, "vidA", 0)
        assert manifest.rows[1] == data.ManifestRow("a/1.ppm", 1, "vidB", 0)

    def test_bad_header(self):
        with pytest.raises(ManifestError, match="line 1"):
            data.parse_manifest("path,label,video,frame\n")

    def test_empty_text(self):
        with pytest.raises(ManifestError, match="line 1"):
            data.parse_manifest("")

    def test_bad_label_names_line(self):
        text = GOOD_MANIFEST + "a/2.ppm,2,vidC,0\n"
        with pytest.raises(ManifestError, match="line 4"):
            data.parse_manifest(text)

    def test_wrong_field_count(self):
        text = "path,label,video_id,frame_index\na/0.ppm,0,vidA\n"
        with pytest.raises(ManifestError, match="line 2"):
            data.parse_manifest(text)

    def test_bad_frame_index(self):
        text = "path,label,video_id,frame_index\na/0.ppm,0,vidA,seven\n"
        with pytest.raises(ManifestError, match="frame_index"):
            data.parse_manifest(text)

    def test_duplicate_video_frame_pair(self):
        text = GOOD_MANIFEST + "b/0.ppm,1,vidA,0\n"
        with pytest.raises(ManifestError, match="line 4"):
            data.parse_manifest(text)

    def test_label_change_within_video_names_line_and_video(self):
        text = GOOD_MANIFEST + "a/2.ppm,0,vidA,1\n" + "a/3.ppm,1,vidA,2\n"
        with pytest.raises(ManifestError, match="line 5: video 'vidA'"):
            data.parse_manifest(text)

    def test_same_video_distinct_frames_ok(self):
        text = GOOD_MANIFEST + "a/2.ppm,0,vidA,1\n"
        assert len(data.parse_manifest(text)) == 3

    def test_bad_split_rejected(self):
        with pytest.raises(ConfigError):
            data.parse_manifest(GOOD_MANIFEST, split="holdout")


class TestReadManifest:
    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path):
        (tmp_path / "m.csv").write_text(GOOD_MANIFEST)
        manifest = data.read_manifest(tmp_path / "m.csv")
        assert manifest.rows[0].path == str(tmp_path / "a/0.ppm")

    def test_absolute_row_path_kept_as_given(self, tmp_path):
        absolute = str(tmp_path / "elsewhere" / "0.ppm")
        (tmp_path / "m.csv").write_text(
            f"path,label,video_id,frame_index\n{absolute},0,v,0\nb/1.ppm,0,v,1\n"
        )
        rows = data.read_manifest(tmp_path / "m.csv").rows
        assert [r.path for r in rows] == [absolute, str(tmp_path / "b/1.ppm")]

    def test_relative_and_absolute_manifest_path_open_the_same_frames(
        self, tmp_path, monkeypatch
    ):
        data.generate_synthetic(2, 2, 12, seed=4, destination=tmp_path / "d")
        monkeypatch.chdir(tmp_path)
        relative = data.read_manifest("./d/manifest.csv")
        absolute = data.read_manifest(tmp_path / "d" / "manifest.csv")
        assert relative.rows[0].path == "d/vid0000/0.ppm"
        assert absolute.rows[0].path == str(tmp_path / "d" / "vid0000" / "0.ppm")
        everything = list(range(len(absolute)))
        np.testing.assert_array_equal(
            data.assemble_batch(relative, everything).x,
            data.assemble_batch(absolute, everything).x,
        )
        monkeypatch.chdir(tmp_path / "d")
        assert data.read_manifest("manifest.csv").rows[0].path == "vid0000/0.ppm"

    def test_write_read_roundtrip(self, tmp_path):
        original = data.parse_manifest(GOOD_MANIFEST)
        data.write_manifest(original, tmp_path / "m.csv")
        again = data.parse_manifest((tmp_path / "m.csv").read_text())
        assert again.rows == original.rows


class TestAtomicWrite:
    WRITERS = {
        "write_csv": lambda path: data.write_csv(path, ["a", "b"], [(1, 2)] * 500),
        "save_weights": lambda path: model.save_weights(
            model.build(model.NetworkConfig(conv_layers=1, filters=1, height=8, width=8)),
            path,
        ),
        "write_metrics_jsonl": lambda path: evaluator.write_metrics_jsonl(
            {f"m{i}": i for i in range(50)}, path
        ),
    }

    @pytest.mark.parametrize("writer", WRITERS)
    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out"
        path.write_bytes(b"earlier contents")
        real_write_bytes = Path.write_bytes

        def half_then_fail(self, blob):
            real_write_bytes(self, blob[: len(blob) // 2])
            raise OSError("No space left on device")

        monkeypatch.setattr(Path, "write_bytes", half_then_fail)
        with pytest.raises(OSError, match="No space"):
            self.WRITERS[writer](path)
        monkeypatch.undo()
        assert path.read_bytes() == b"earlier contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

        self.WRITERS[writer](path)
        assert path.read_bytes() != b"earlier contents"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestLoadImage:
    def test_white_2x2(self, tmp_path):
        path = tmp_path / "w.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\xff" * 12)
        img = data.load_image(path)
        assert img.shape == (1, 3, 2, 2)
        assert img.dtype == np.float32
        assert np.all(img == 1.0)

    def test_single_red_pixel(self, tmp_path):
        path = tmp_path / "r.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
        img = data.load_image(path)
        assert img[0, :, 0, 0].tolist() == [1.0, 0.0, 0.0]

    def test_header_comment_skipped(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# made by hand\n1 1\n255\n" + bytes([0, 128, 255]))
        img = data.load_image(path)
        assert img[0, 2, 0, 0] == 1.0

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n1 1\n255\n\xff")
        with pytest.raises(DecodeError, match="magic"):
            data.load_image(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\xff" * 7)
        with pytest.raises(DecodeError, match="truncated"):
            data.load_image(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n1 1\n254\n\xff\xff\xff")
        with pytest.raises(DecodeError, match="maxval"):
            data.load_image(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + b"\xff" * 5)
        with pytest.raises(DecodeError, match="trailing"):
            data.load_image(path)

    def test_frame_size_reads_the_header(self, tmp_path):
        path = tmp_path / "s.ppm"
        path.write_bytes(b"P6\n# made by hand\n3 2\n255\n" + b"\x00" * 18)
        assert data.frame_size(path) == (2, 3)

    @pytest.mark.parametrize("match,blob", [
        ("empty", b""),
        ("magic", b"P5\n1 1\n255\n\xff"),
        ("truncated", b"P6\n2 2\n255\n" + b"\xff" * 7),
        ("trailing", b"P6\n1 1\n255\n" + b"\xff" * 5),
    ], ids=["empty", "magic", "truncated", "trailing"])
    def test_frame_size_rejects_what_load_image_rejects(self, tmp_path, match, blob):
        path = tmp_path / "bad.ppm"
        path.write_bytes(blob)
        with pytest.raises(DecodeError, match=match):
            data.frame_size(path)

    @pytest.mark.parametrize("decode", [data.frame_size, data.load_image])
    def test_truncated_header_names_its_path(self, tmp_path, decode):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n16")
        with pytest.raises(DecodeError) as info:
            decode(path)
        assert str(info.value) == f"{path}: truncated PPM header"

    @pytest.mark.parametrize("decode", [data.frame_size, data.load_image])
    def test_header_ending_at_maxval_is_truncated(self, tmp_path, decode):
        # No whitespace byte after maxval: the header is cut short, rather
        # than the raster being -1 bytes long.
        path = tmp_path / "bare.ppm"
        path.write_bytes(b"P6\n16 16\n255")
        with pytest.raises(DecodeError) as info:
            decode(path)
        assert str(info.value) == f"{path}: truncated PPM header"

    def test_write_load_roundtrip_on_quantized_values(self, rng, tmp_path):
        pixels = (rng.integers(0, 256, size=(3, 4, 5)) / 255.0).astype(np.float32)
        path = tmp_path / "q.ppm"
        data.write_ppm(pixels, path)
        back = data.load_image(path)
        assert back.shape == (1, 3, 4, 5)
        assert np.allclose(back[0], pixels, atol=0.5 / 255.0)


class TestMakeBatches:
    def _manifest(self, n):
        rows = [data.ManifestRow(f"{i}.ppm", i % 2, f"v{i}", 0) for i in range(n)]
        return data.DatasetManifest(rows=rows, split="train")

    def test_sizes(self):
        batches = data.make_batches(self._manifest(10), 4, shuffle=False, seed=0)
        assert [len(b) for b in batches] == [4, 4, 2]
        assert batches[0] == [0, 1, 2, 3]

    def test_shuffle_is_seed_deterministic(self):
        m = self._manifest(20)
        a = data.make_batches(m, 6, shuffle=True, seed=42)
        b = data.make_batches(m, 6, shuffle=True, seed=42)
        c = data.make_batches(m, 6, shuffle=True, seed=43)
        assert a == b
        assert a != c

    def test_permutation_independent_of_batch_size(self):
        m = self._manifest(12)
        fours = data.make_batches(m, 4, shuffle=True, seed=7)
        threes = data.make_batches(m, 3, shuffle=True, seed=7)
        assert [i for b in fours for i in b] == [i for b in threes for i in b]

    @given(n=st.integers(1, 60), batch=st.integers(1, 60), seed=st.integers(0, 999))
    @settings(max_examples=40, deadline=None)
    def test_batches_partition_the_indices(self, n, batch, seed):
        batches = data.make_batches(self._manifest(n), batch, shuffle=True, seed=seed)
        flat = sorted(i for b in batches for i in b)
        assert flat == list(range(n))
        assert all(len(b) == batch for b in batches[:-1])
        assert 1 <= len(batches[-1]) <= batch

    def test_empty_manifest_rejected(self):
        with pytest.raises(ContractError):
            data.make_batches(self._manifest(0), 4, shuffle=False, seed=0)

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ContractError):
            data.make_batches(self._manifest(4), 0, shuffle=False, seed=0)


class TestGenerateSynthetic:
    @pytest.mark.parametrize("destination", ["d", "./d", "."])
    def test_returns_what_read_manifest_reads(self, tmp_path, monkeypatch, destination):
        monkeypatch.chdir(tmp_path)
        manifest = data.generate_synthetic(2, 3, 12, 3, destination, split="val")
        assert manifest == data.read_manifest(Path(destination) / "manifest.csv", split="val")
        assert manifest.rows[-1].path == str(Path(destination) / "vid0001" / "2.ppm")

    def test_counts_and_balance(self, tmp_path):
        manifest = data.generate_synthetic(4, 5, 16, seed=3, destination=tmp_path)
        assert len(manifest) == 20
        labels = [r.label for r in manifest.rows]
        assert labels.count(0) == labels.count(1) == 10
        assert sum(1 for _ in tmp_path.rglob("*.ppm")) == 20
        assert (tmp_path / data.MANIFEST_NAME).exists()

    def test_frames_grouped_by_video(self, tmp_path):
        manifest = data.generate_synthetic(2, 3, 16, seed=3, destination=tmp_path)
        by_video = {}
        for row in manifest.rows:
            by_video.setdefault(row.video_id, []).append(row.frame_index)
        assert by_video == {"vid0000": [0, 1, 2], "vid0001": [0, 1, 2]}

    def test_rows_loadable_and_in_range(self, tmp_path):
        manifest = data.generate_synthetic(2, 2, 16, seed=5, destination=tmp_path)
        for row in manifest.rows:
            img = data.load_image(row.path)
            assert img.shape == (1, 3, 16, 16)
            assert np.all(img >= 0.0) and np.all(img <= 1.0)

    def _tree_digest(self, root: Path) -> str:
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*")):
            if path.is_file():
                digest.update(path.relative_to(root).as_posix().encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()

    def test_byte_deterministic_under_fixed_seed(self, tmp_path):
        data.generate_synthetic(4, 2, 12, seed=11, destination=tmp_path / "a")
        data.generate_synthetic(4, 2, 12, seed=11, destination=tmp_path / "b")
        data.generate_synthetic(4, 2, 12, seed=12, destination=tmp_path / "c")
        assert self._tree_digest(tmp_path / "a") == self._tree_digest(tmp_path / "b")
        assert self._tree_digest(tmp_path / "a") != self._tree_digest(tmp_path / "c")

    def test_odd_video_count_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            data.generate_synthetic(3, 2, 16, seed=0, destination=tmp_path)

    def test_bad_frames_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            data.generate_synthetic(2, 0, 16, seed=0, destination=tmp_path)

    def test_too_small_size_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            data.generate_synthetic(2, 2, 7, seed=0, destination=tmp_path)

    def test_bad_split_writes_nothing(self, tmp_path):
        destination = tmp_path / "d"
        with pytest.raises(ConfigError, match="split"):
            data.generate_synthetic(2, 2, 8, 0, destination, split="holdout")
        assert not destination.exists()

    def test_classes_share_pixel_value_multiset(self):
        fake = data._checker(8, cell=1)
        original = data._checker(8, cell=2)
        assert sorted(fake.ravel()) == sorted(original.ravel())
        assert not np.array_equal(fake, original)


class TestAssembleBatch:
    def test_order_follows_indices_even_with_threads(self, tmp_path):
        manifest = data.generate_synthetic(2, 4, 12, seed=9, destination=tmp_path)
        indices = [5, 0, 3, 6, 1]
        serial = data.assemble_batch(manifest, indices, threads=1)
        threaded = data.assemble_batch(manifest, indices, threads=4)
        assert np.array_equal(serial.x, threaded.x)
        assert np.array_equal(serial.y, threaded.y)
        assert serial.provenance == threaded.provenance
        expected = [(manifest.rows[i].video_id, manifest.rows[i].frame_index)
                    for i in indices]
        assert serial.provenance == expected

    @pytest.mark.parametrize("threads", [1, 4])
    def test_wrong_size_frame_names_its_path(self, tmp_path, threads):
        manifest = data.generate_synthetic(2, 2, 12, seed=9, destination=tmp_path)
        odd = tmp_path / "odd.ppm"
        data.write_ppm(np.zeros((3, 10, 12), np.float32), odd)
        manifest.rows[2] = dataclasses.replace(manifest.rows[2], path=str(odd))
        with pytest.raises(ShapeError, match=r"odd\.ppm: frame shape \(3, 10, 12\)"):
            data.assemble_batch(manifest, [0, 1, 2, 3], threads=threads)

    @pytest.mark.parametrize("rows", [6, 1])
    def test_out_row_count_must_match_indices(self, tmp_path, rows):
        manifest = data.generate_synthetic(2, 2, 12, seed=9, destination=tmp_path)
        out = np.zeros((rows, 3, 12, 12), np.float32)
        with pytest.raises(ShapeError, match=f"{rows} rows for 2 indices"):
            data.assemble_batch(manifest, [0, 1], out=out)

    def test_labels_match_rows(self, tmp_path):
        manifest = data.generate_synthetic(2, 2, 12, seed=9, destination=tmp_path)
        batch = data.assemble_batch(manifest, [0, 1, 2, 3])
        assert batch.x.shape == (4, 3, 12, 12)
        assert batch.y.tolist() == [r.label for r in manifest.rows]
