"""Dataset manifests, PPM frame IO, batching, and synthetic data.

Real datasets are consumed as directories of pre-sized binary PPM (P6)
frames described by a manifest CSV with header
`path,label,video_id,frame_index`; frame extraction and face cropping are
upstream concerns. Labels are 0 = original, 1 = fake.

Every CSV the package writes goes through `write_csv`, every output but PPM
frames through `write_atomic`, and every CSV it reads (manifests and
prediction logs, one row per frame) through `read_frame_rows`. Such a file
is read by `open_text`, whose errors name the file and the line, and one
with a header and no rows is refused. A frame is checked one way, whether
it is only sized (`frame_size`, from its header and file size) or decoded
(`load_image`, from a whole read).

The synthetic generator produces desk-scale stand-in data with the same
layout: per-video smooth color gradients, where fake videos additionally
carry a small high-frequency checker patch (a learnable class signal).
"""

from __future__ import annotations

import csv
import io
import os
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DecodeError, ManifestError, ShapeError

MANIFEST_HEADER = ["path", "label", "video_id", "frame_index"]
MANIFEST_NAME = "manifest.csv"
SPLITS = ("train", "val", "test")

PATCH_AMPLITUDE = 0.22
NOISE_AMPLITUDE = 0.02


@dataclass(frozen=True)
class ManifestRow:
    path: str
    label: int
    video_id: str
    frame_index: int


@dataclass
class DatasetManifest:
    rows: list[ManifestRow]
    split: str

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ConfigError(f"split must be one of {SPLITS}, got {self.split!r}")

    def __len__(self) -> int:
        return len(self.rows)


def write_atomic(path, data: bytes) -> None:
    """Write `data` to a temporary file beside `path`, then replace `path`
    with it: a write that fails partway leaves the earlier file as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_csv(path, header: list[str], rows: Iterable[Sequence]) -> None:
    """Write utf-8 CSV with "\\n" line ends, quoting only fields that need it."""
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, text.getvalue().encode("utf-8"))


@contextmanager
def open_text(path) -> Iterator[str]:
    """The UTF-8 text of the manifest or prediction log at `path`. Each
    ManifestError raised in the block, and one for the first byte that is not
    UTF-8, is prefixed `<path>: `. That byte's line is counted as
    `read_frame_rows` counts lines."""
    try:
        data = Path(path).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[: exc.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise ManifestError(f"line {line}: not UTF-8 text") from None
        yield text
    except ManifestError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def read_frame_rows(
    source: str, header: list[str], label_column: str
) -> Iterator[tuple[int, list[str], int, int]]:
    """Yield (line_no, record, frame_index, label) for each non-blank record
    of CSV text with one row per frame: a manifest or a prediction log.
    A line ends at "\\n", "\\r\\n" or a lone "\\r", each read as "\\n".

    The first record must equal `header`, and one record at least must
    follow it. Every later record must have as many fields, an integer
    frame_index, a (video_id, frame_index) no earlier row has, and a
    `label_column` of exactly 0 or 1 that its video's earlier rows share.
    Else ManifestError names the physical 1-based line the record starts on,
    or the last line of text with no record after its header."""
    reader = csv.reader(io.StringIO(source, newline=None))
    width = len(header)
    video_col, frame_col = header.index("video_id"), header.index("frame_index")
    label_col = header.index(label_column)
    labels = {"0": 0, "1": 1}
    seen: set[tuple[str, int]] = set()
    video_labels: dict[str, int] = {}
    try:
        if (first := next(reader, [])) != header:
            raise ManifestError(f"line 1: bad header {first!r}, expected {header!r}")
        end = reader.line_num
        for record in reader:
            line_no, end = end + 1, reader.line_num  # a quoted field may span lines
            if not record:
                continue
            if len(record) != width:
                raise ManifestError(
                    f"line {line_no}: expected {width} fields, got {len(record)}"
                )
            label_text = record[label_col]
            if (label := labels.get(label_text)) is None:
                raise ManifestError(
                    f"line {line_no}: {label_column} must be 0 or 1, got {label_text!r}"
                )
            try:
                frame_index = int(record[frame_col])
            except ValueError:
                raise ManifestError(
                    f"line {line_no}: bad frame_index {record[frame_col]!r}"
                ) from None
            video_id = record[video_col]
            if (key := (video_id, frame_index)) in seen:
                raise ManifestError(f"line {line_no}: duplicate (video_id, frame_index) {key}")
            seen.add(key)
            if (first_label := video_labels.setdefault(video_id, label)) != label:
                raise ManifestError(
                    f"line {line_no}: video {video_id!r} has {label_column} {first_label} "
                    f"on its earlier rows, this row has {label_text}"
                )
            yield line_no, record, frame_index, label
        if not seen:
            raise ManifestError(f"line {end}: no rows after the header")
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ManifestError(f"line {reader.line_num}: {exc}") from None


def parse_manifest(source: str, split: str = "train", directory: str = "") -> DatasetManifest:
    """Parse manifest CSV text; rows keep file order. A relative row path is
    joined to `directory` as written, and an absolute one is kept as given.

    Raises ManifestError with a 1-based line number for any fault that
    `read_frame_rows` refuses, and for an empty path or one with a NUL byte.
    """
    rows: list[ManifestRow] = []
    records = read_frame_rows(source, MANIFEST_HEADER, "label")
    for line_no, (path, _, video_id, _), frame_index, label in records:
        if not path:
            raise ManifestError(f"line {line_no}: empty path")
        if "\0" in path:
            raise ManifestError(f"line {line_no}: NUL byte in path {path!r}")
        rows.append(ManifestRow(os.path.join(directory, path), label, video_id, frame_index))
    return DatasetManifest(rows=rows, split=split)


def read_manifest(path, split: str = "train") -> DatasetManifest:
    """Parse a manifest file; relative row paths are joined to its directory."""
    path = Path(path)
    with open_text(path) as text:
        return parse_manifest(text, split, os.path.dirname(path))


def write_manifest(manifest: DatasetManifest, path) -> None:
    table = [[r.path, r.label, r.video_id, r.frame_index] for r in manifest.rows]
    write_csv(path, MANIFEST_HEADER, table)


def _next_token(data: bytes, pos: int, path) -> tuple[bytes, int]:
    """PPM header token: skips whitespace and '#' comments."""
    n = len(data)
    while pos < n:
        b = data[pos]
        if b in b" \t\r\n":
            pos += 1
        elif b == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in b" \t\r\n":
        pos += 1
    if start == pos:
        raise DecodeError(f"{path}: truncated PPM header")
    return data[start:pos], pos


# A frame header is "P6", three decimal fields and their separators: about
# 15 bytes at any frame size here. Longer ones (comments) are read whole.
HEADER_BYTES = 64


def _ppm_header(data: bytes, path) -> tuple[int, int, int]:
    """(height, width, raster offset) of the binary PPM (P6, maxval 255)
    header at the start of `data`; DecodeError names the path unless the
    header is whole ASCII decimal followed by one whitespace byte."""
    if data[:2] != b"P6":
        raise DecodeError(f"{path}: wrong magic {data[:2]!r}, expected b'P6'")
    if len(data) > 2 and data[2] not in b" \t\r\n#":  # else "P61" is width 1
        raise DecodeError(f"{path}: bad header token {_next_token(data, 0, path)[0]!r}")
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _next_token(data, pos, path)
        try:
            if not token.isdigit():  # int() would also take a sign and "_"
                raise ValueError(token)
            fields.append(int(token))  # ValueError past int()'s digit limit
        except ValueError:
            raise DecodeError(f"{path}: bad header token {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise DecodeError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise DecodeError(f"{path}: maxval must be 255, got {maxval}")
    if pos == len(data):  # no whitespace byte after maxval
        raise DecodeError(f"{path}: truncated PPM header")
    return height, width, pos + 1  # single whitespace byte after maxval


def _read_ppm(path, raster: bool = True) -> tuple[bytes, int, int, int]:
    """(bytes, height, width, raster offset) of the binary PPM (P6, maxval
    255) at `path`. DecodeError names the path unless its header is whole
    ASCII decimal and its raster exactly 3 * width * height bytes.

    The bytes are the whole file, or without `raster` its first
    HEADER_BYTES, and the raster's length comes from the file's size. A
    header that does not parse from those is parsed again from the whole
    file, which also gives every error the message a whole read gives."""
    with open(path, "rb") as f:
        data = f.read(-1 if raster else HEADER_BYTES)
        size = len(data) if raster else os.fstat(f.fileno()).st_size
        while True:
            try:
                height, width, pos = _ppm_header(data, path)
                break
            except DecodeError:
                if len(data) >= size:
                    raise
            data += f.read()
    length, expected = size - pos, 3 * width * height
    if length < expected:
        raise DecodeError(f"{path}: truncated pixel data ({length} of {expected} bytes)")
    if length > expected:
        raise DecodeError(f"{path}: {length - expected} trailing bytes")
    return data, height, width, pos


def frame_size(path) -> tuple[int, int]:
    """(height, width) of a binary PPM frame, checked as `load_image` checks
    it but not decoded, so that every frame of a manifest can be checked
    before the first is. Only the header is read; the raster's length is
    checked against the file's size."""
    _, height, width, _ = _read_ppm(path, raster=False)
    return height, width


def check_frame_sizes(expected: tuple[int, int], *manifests: DatasetManifest) -> None:
    """Checks every frame by its header and size, decoding none, so that a bad
    frame or one whose (height, width) is not `expected` fails a run before
    its first batch."""
    for manifest in manifests:
        for row in manifest.rows:
            size = frame_size(row.path)
            if size != expected:
                raise ShapeError(
                    f"{row.path}: frame size {size} does not match "
                    f"network input {expected}"
                )


def load_image(path, out: np.ndarray | None = None) -> np.ndarray:
    """Decode a binary PPM (P6, maxval 255) into (1, 3, h, w) float32 in
    [0,1], channels R, G, B: into `out` when given (a C-contiguous float32
    array of that shape, or ShapeError naming the path), else into a new
    array."""
    data, height, width, pos = _read_ppm(path)
    shape = (1, 3, height, width)
    if out is None:
        out = np.empty(shape, np.float32)
    elif out.shape != shape:
        raise ShapeError(
            f"{path}: frame shape {shape[1:]} != batch shape {out.shape[1:]}"
        )
    pixels = np.frombuffer(data, np.uint8, 3 * height * width, pos)
    # Interleaved RGB in, one plane per channel out; over 2-d views numpy
    # runs this transpose at the speed of a contiguous divide. copy=False
    # makes a non-contiguous `out` fail rather than fill a discarded copy.
    planes = np.reshape(out, (3, height * width), copy=False)
    np.divide(pixels.reshape(height * width, 3).T, np.float32(255), out=planes)
    return out


def write_ppm(pixels: np.ndarray, path) -> None:
    """Write (3, h, w) float values in [0,1] as binary PPM, maxval 255."""
    if pixels.ndim != 3 or pixels.shape[0] != 3:
        raise ShapeError(f"write_ppm expects (3, h, w), got {pixels.shape}")
    _, h, w = pixels.shape
    bytes_img = np.clip(np.round(pixels * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(bytes_img.transpose(1, 2, 0).tobytes())


def make_batches(manifest: DatasetManifest, batch_size: int, seed=None) -> list[list[int]]:
    """Partition row indices into consecutive batches, in file order or, given
    a seed, in the order of `np.random.default_rng(seed).permutation`.

    All batches have batch_size rows except possibly the last. The
    permutation depends only on the seed, not on batch_size, so sweeps
    over batch size see the same underlying sample order.
    """
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    n = len(manifest.rows)
    if n == 0:
        raise ContractError("cannot batch an empty manifest")
    indices = np.arange(n)
    if seed is not None:
        indices = np.random.default_rng(seed).permutation(n)
    return [indices[i : i + batch_size].tolist() for i in range(0, n, batch_size)]


@dataclass(eq=False)
class Batch:
    """Decoded manifest rows; their video and frame stay in the manifest."""

    x: np.ndarray  # (b, 3, h, w) float32 in [0, 1]
    y: np.ndarray  # (b,) float32 labels


def assemble_batch(
    manifest: DatasetManifest,
    indices: list[int],
    threads: int = 1,
    out: np.ndarray | None = None,
) -> Batch:
    """Decode the given rows into one C-contiguous (len(indices), 3, h, w)
    float32 array: `out` when given, else a new array sized by the first
    row's frame. Row j lands in x[j] whatever order parallel loads finish
    in; a frame of another size raises ShapeError naming its path."""
    rows = [manifest.rows[i] for i in indices]
    if out is None:
        out = np.empty((len(rows), 3, *frame_size(rows[0].path)), np.float32)
    elif len(out) != len(rows):
        raise ShapeError(f"batch buffer has {len(out)} rows for {len(rows)} indices")

    def load(j: int) -> np.ndarray:
        return load_image(rows[j].path, out=out[j : j + 1])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(load, range(len(rows))))
    else:
        for j in range(len(rows)):
            load(j)
    return Batch(x=out, y=np.array([r.label for r in rows], dtype=np.float32))


def _video_base(rng: np.random.Generator, size: int) -> tuple[np.ndarray, float]:
    """Smooth per-channel random gradient pattern shared by a video's frames."""
    coords = np.arange(size, dtype=np.float32) / size
    yy, xx = np.meshgrid(coords, coords, indexing="ij")
    base = np.empty((3, size, size), dtype=np.float32)
    for c in range(3):
        bias = rng.uniform(0.35, 0.65)
        ax, ay = rng.uniform(-0.3, 0.3, size=2)
        amp = rng.uniform(0.08, 0.18)
        fx, fy = rng.uniform(0.5, 1.5, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        base[c] = bias + ax * xx + ay * yy + amp * np.sin(
            2.0 * np.pi * (fx * xx + fy * yy) + phase
        )
    drift_phase = float(rng.uniform(0.0, 2.0 * np.pi))
    return base, drift_phase


def _checker(patch: int, cell: int) -> np.ndarray:
    """Square patch of alternating +/- amplitude cells, cell pixels wide.

    Every cell size yields the same multiset of pixel values, so patches
    differ only in spatial arrangement, never in mean or variance.
    """
    idx = np.arange(patch) // cell
    grid = np.add.outer(idx, idx) % 2
    return (grid * 2.0 - 1.0).astype(np.float32) * PATCH_AMPLITUDE


def check_synthetic(count_videos: int, frames_per_video: int, size: int, seed: int) -> None:
    """ConfigError for the arguments `generate_synthetic` refuses."""
    if count_videos < 2 or count_videos % 2 != 0:
        raise ConfigError(f"count_videos must be even and >= 2, got {count_videos}")
    if frames_per_video < 1:
        raise ConfigError(f"frames_per_video must be >= 1, got {frames_per_video}")
    if size < 8:
        raise ConfigError(f"size must be >= 8, got {size}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def generate_synthetic(
    count_videos: int,
    frames_per_video: int,
    size: int,
    seed: int,
    destination,
    split: str = "train",
) -> DatasetManifest:
    """Write a balanced synthetic dataset of PPM frames plus manifest.csv.

    Videos alternate original/fake (even count required for exact class
    balance). Every frame carries a localized low-amplitude patch over the
    video's smooth base pattern: fake frames get a one-pixel checker,
    original frames get the same amplitudes arranged in coarse blocks. The
    two patch kinds share the same pixel-value multiset, so the label is
    invisible to global statistics and only local texture separates the
    classes. Faint pixel noise keeps every channel non-constant. Output is
    byte-deterministic under a fixed seed. Returns `read_manifest` of the
    manifest written, whose rows keep their paths relative to `destination`.
    """
    check_synthetic(count_videos, frames_per_video, size, seed)
    manifest = DatasetManifest(rows=[], split=split)  # checks split before any write
    dest = Path(destination)
    dest.mkdir(parents=True, exist_ok=True)

    patch = min(max(4, (size // 4) & ~1), size - 2)
    patches = {0: _checker(patch, cell=2), 1: _checker(patch, cell=1)}
    for v in range(count_videos):
        label = v % 2  # alternating original / fake
        video_id = f"vid{v:04d}"
        video_dir = dest / video_id
        video_dir.mkdir(exist_ok=True)
        rng = np.random.default_rng([seed, v])
        base, drift_phase = _video_base(rng, size)
        py0 = int(rng.integers(1, size - patch))
        px0 = int(rng.integers(1, size - patch))
        for f in range(frames_per_video):
            drift = 0.02 * np.sin(2.0 * np.pi * f / frames_per_video + drift_phase)
            frame = base + np.float32(drift)
            frame = frame + rng.uniform(
                -NOISE_AMPLITUDE, NOISE_AMPLITUDE, size=frame.shape
            ).astype(np.float32)
            py = int(np.clip(py0 + rng.integers(-1, 2), 0, size - patch))
            px = int(np.clip(px0 + rng.integers(-1, 2), 0, size - patch))
            frame[:, py : py + patch, px : px + patch] += patches[label]
            frame = np.clip(frame, 0.0, 1.0)
            name = f"{f}.ppm"
            write_ppm(frame, video_dir / name)
            manifest.rows.append(ManifestRow(f"{video_id}/{name}", label, video_id, f))
    write_manifest(manifest, dest / MANIFEST_NAME)
    return read_manifest(dest / MANIFEST_NAME, split)
