"""Image ingestion, preprocessing, patch flattening, and synthetic data.

Images are numpy arrays of shape (H, W, 3), float32, values in [0, 1].
The only mandatory decode format is binary PPM (P6, maxval 255); synthetic
datasets are persisted as PPM files plus a labels.tsv with count labels.
Labels are image-level totals only: nothing in this module stores or
exposes per-dot coordinates.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

IMAGENET_MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float32)
IMAGENET_STD = np.array([0.229, 0.224, 0.225], dtype=np.float32)

FULL_H, FULL_W = 768, 1152


class PPMError(ValueError):
    """Malformed PPM/PGM payload; carries the offending byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class LabelsError(ValueError):
    """Malformed labels.tsv line; the message names the file and line."""


_MAX_HEADER_DIGITS = 9  # no real width, height or maxval needs more


def finite_real(value):
    """True for an int or float, not a bool, that a float64 holds as a finite value."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _read_header_ints(buf, pos, count):
    """Parse `count` whitespace-separated ASCII ints, honoring # comments."""
    values = []
    while len(values) < count:
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos : pos + 1] == b"#":
            while pos < len(buf) and buf[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(buf) and buf[pos : pos + 1].isdigit():
            pos += 1
        if pos == start:
            raise PPMError("expected ASCII integer in header", start)
        if pos - start > _MAX_HEADER_DIGITS:
            raise PPMError("header integer too long", start)
        values.append(int(buf[start:pos]))
    return values, pos


def _load_netpbm(path, magic, channels):
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] != magic:
        raise PPMError(f"bad magic {buf[:2]!r}, expected {magic.decode()}", 0)
    if not (buf[2:3].isspace() or buf[2:3] == b"#"):
        raise PPMError("expected whitespace or a comment after the magic", 2)
    (width, height, maxval), pos = _read_header_ints(buf, 2, 3)
    if width == 0 or height == 0:
        raise PPMError(f"empty image: width {width}, height {height}", 2)
    if maxval != 255:
        raise PPMError(f"unsupported maxval {maxval}, only 255", 2)
    if not buf[pos : pos + 1].isspace():
        raise PPMError("expected one whitespace byte after maxval", pos)
    pos += 1
    expected = width * height * channels
    payload = buf[pos : pos + expected]
    if len(payload) < expected:
        raise PPMError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}", pos)
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float32) / 255.0
    shape = (height, width, channels) if channels == 3 else (height, width)
    return pixels.reshape(shape)


def load_ppm(path):
    """Decode a binary PPM (P6, maxval 255) into an (H, W, 3) float image."""
    return _load_netpbm(path, b"P6", 3)


def load_pgm(path):
    """Decode a binary PGM (P5, maxval 255) into an (H, W) float image."""
    return _load_netpbm(path, b"P5", 1)


def _save_netpbm(img, path, magic, channels):
    h, w, _ = img.shape if channels == 3 else (*img.shape, 1)  # a wrong rank raises
    if not np.isfinite(img).all():  # a NaN would be written as 0, silently
        raise ValueError(f"cannot write {path}: the image has a non-finite pixel")
    payload = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode())
        fh.write(payload.tobytes())


def save_ppm(img, path):
    """Write an (H, W, 3) float image in [0, 1] as binary PPM P6; a
    non-finite pixel raises ValueError."""
    _save_netpbm(img, path, "P6", 3)


def save_pgm(img, path):
    """Write an (H, W) float image in [0, 1], such as an attention map, as
    binary PGM P5; a non-finite pixel raises ValueError."""
    _save_netpbm(img, path, "P5", 1)


_RESIZE_BLOCK_BYTES = 1 << 20  # bytes of output rows in one resize_bilinear block


def _lerp_columns(rows, x0, x1, fx):
    """rows[:, x0] * (1 - fx) + rows[:, x1] * fx, as a new array."""
    out = rows[:, x0] * (1 - fx)
    out += rows[:, x1] * fx
    return out


def resize_bilinear(img, out_h, out_w):
    """Bilinear resize with half-pixel centers (align-corners false).

    Returns the input untouched when the size is unchanged. The float32
    output is written block by block, about 1 MiB of output rows at a
    time, from each source row gathered once per block. Each element is
    top * (1 - fy) + bot * fy, with top = img[y0, x0] * (1 - fx) +
    img[y0, x1] * fx and bot the same on row y1, computed in img's dtype
    promoted to float32 and then rounded to float32.
    """
    h, w = img.shape[:2]
    if (h, w) == (out_h, out_w):
        return img

    def _coords(n_out, n_in):
        src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = (src - lo).astype(np.float32)
        return lo, hi, frac

    y0, y1, fy = _coords(out_h, h)
    x0, x1, fx = _coords(out_w, w)
    fx = fx[:, None]
    out = np.empty((out_h, out_w) + img.shape[2:], np.float32)
    step = max(1, _RESIZE_BLOCK_BYTES // out[0].nbytes)
    for r in range(0, out_h, step):
        rows = slice(r, r + step)
        top = _lerp_columns(img[y0[rows]], x0, x1, fx)
        bot = _lerp_columns(img[y1[rows]], x0, x1, fx)
        fy_r = fy[rows, None, None]
        top *= 1 - fy_r
        bot *= fy_r
        np.add(top, bot, out=out[rows])
    return out


def fit_to_grid(img, side):
    """The one image -> tile-grid rule shared by training and scoring.

    A ``side`` x ``side`` image is returned as it is (one tile). Any other
    image is resized to 768x1152 and then to the 2x3 grid of ``side``
    tiles, which ``make_batch`` cuts into six. At side 384 the second
    resize returns its input; at smaller sides the grid equals splitting
    first and resizing each tile, bit for bit.
    """
    if img.shape[:2] == (side, side):
        return img
    return resize_bilinear(resize_bilinear(img, FULL_H, FULL_W), 2 * side, 3 * side)


def split_tiles(img):
    """Partition a 2s x 3s image into six s x s tiles, row-major."""
    h, w = img.shape[:2]
    if 3 * h != 2 * w:
        raise ValueError(f"split_tiles requires a 2s x 3s image, got {h}x{w}; resize first")
    s = h // 2
    return [img[r * s : (r + 1) * s, c * s : (c + 1) * s] for r in range(2) for c in range(3)]


def patchify(img, patch_size):
    """Flatten an image into its sequence of row-major K x K x 3 patches.

    Output shape is [N, K*K*3] with N = (H/K)*(W/K), patches ordered
    row-major over the patch grid.
    """
    h, w, c = img.shape
    k = patch_size
    if h % k or w % k:
        raise ValueError(f"image {h}x{w} not divisible by patch size {k}")
    gh, gw = h // k, w // k
    grid = img.reshape(gh, k, gw, k, c).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(grid.reshape(gh * gw, k * k * c))


def unpatchify(seq, h, w, patch_size):
    """Inverse of patchify: rebuild the (h, w, 3) image bit-exactly."""
    k = patch_size
    gh, gw = h // k, w // k
    grid = seq.reshape(gh, gw, k, k, 3).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(grid.reshape(h, w, 3))


def augment(img, rng):
    """Random horizontal flip (p 0.5) and grayscaling (p 0.1); count unaffected."""
    if rng.random() < 0.5:
        img = img[:, ::-1, :]
    if rng.random() < 0.1:
        lum = img[..., 0] * 0.299 + img[..., 1] * 0.587 + img[..., 2] * 0.114
        img = np.repeat(lum[..., None], 3, axis=2)
    return np.ascontiguousarray(img, dtype=np.float32)


def normalize(img):
    """Per-channel ImageNet standardization; output no longer confined to [0, 1].

    Runs over rows of W*3 values against the mean and deviation tiled
    along a row, not over a length-3 channel axis, with the operations of
    ``(img - IMAGENET_MEAN) / IMAGENET_STD``.
    """
    h, w, c = img.shape
    out = np.subtract(img.reshape(h, w * c), np.tile(IMAGENET_MEAN, w))
    out /= np.tile(IMAGENET_STD, w)
    return out.reshape(h, w, c).astype(np.float32, copy=False)


@dataclass
class SynthSpec:
    """Parameters of the synthetic dot-crowd generator.

    ``region`` restricts dot centers to a fractional (y0, y1, x0, x1) box
    of the canvas; the default covers everything.
    """

    side: int = 64
    count_min: int = 0
    count_max: int = 30
    dot_radius: float = 2.0
    noise_amp: float = 0.1
    seed: int = 0
    region: tuple = field(default=(0.0, 1.0, 0.0, 1.0))

    def __post_init__(self):
        for name, low in (("side", 1), ("count_min", 0), ("count_max", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ValueError(f"{name} must be an int >= {low}, got {value!r}")
        if self.count_min > self.count_max:
            raise ValueError("count_min must be <= count_max")
        for name, low in (("dot_radius", 1), ("noise_amp", 0)):
            value = getattr(self, name)
            if not (finite_real(value) and value >= low):
                raise ValueError(f"{name} must be finite and >= {low}, got {value!r}")
        r = self.region
        if not (isinstance(r, (tuple, list)) and len(r) == 4
                and all(finite_real(b) and 0 <= b <= 1 for b in r)
                and r[0] <= r[1] and r[2] <= r[3]):
            raise ValueError(f"region must be (y0, y1, x0, x1) with 0 <= y0 <= y1 <= 1 "
                             f"and 0 <= x0 <= x1 <= 1, got {r!r}")
        if self.side < 4 * self.dot_radius:
            raise ValueError(
                f"canvas side {self.side} too small for dot radius {self.dot_radius}")


def synth_generate(spec, n_images):
    """Generate (image, count) pairs: noisy background plus Gaussian dots.

    Deterministic given spec.seed. Only the total count is returned as the
    label; dot positions are discarded.
    """
    if isinstance(n_images, bool) or not isinstance(n_images, int) or n_images < 1:
        raise ValueError(f"n_images must be an int >= 1, got {n_images!r}")
    rng = np.random.default_rng(spec.seed)
    side = spec.side
    sigma = spec.dot_radius / 2.0
    yy, xx = np.mgrid[0:side, 0:side].astype(np.float32)
    y0f, y1f, x0f, x1f = spec.region
    out = []
    for _ in range(n_images):
        count = int(rng.integers(spec.count_min, spec.count_max + 1))
        img = rng.uniform(0.0, spec.noise_amp, size=(side, side, 3)).astype(np.float32)
        for _ in range(count):
            cy = rng.uniform(y0f * side, y1f * side)
            cx = rng.uniform(x0f * side, x1f * side)
            dot = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma ** 2))
            img += dot[..., None]
        out.append((np.clip(img, 0.0, 1.0).astype(np.float32), float(count)))
    return out


def write_dataset(pairs, out_dir):
    """Persist (image, count) pairs as PPM files plus labels.tsv."""
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for i, (img, count) in enumerate(pairs):
        name = f"img_{i:05d}.ppm"
        save_ppm(img, os.path.join(out_dir, name))
        lines.append(f"{name}\t{count:g}\n")
    with open(os.path.join(out_dir, "labels.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)


@dataclass
class PatchBatch:
    """A batch of flattened patch sequences with count-level labels only.

    ``data`` holds one row of sequences per tile, [sum(tiles), N, K*K*3];
    tiles of the same image are consecutive, and ``tiles`` has each image's
    tile count. ``labels`` has one image-level count per image; the sum of
    an image's tile predictions is supervised against it.
    """

    data: np.ndarray
    labels: np.ndarray
    tiles: tuple

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError(f"patch data must be [M, N, P], got {self.data.shape}")
        if len(self.tiles) != len(self.labels) or self.data.shape[0] != sum(self.tiles):
            raise ValueError("sequence count does not match the images' tile counts")
        if not np.all(np.isfinite(self.labels) & (np.asarray(self.labels) >= 0)):
            raise ValueError("count labels must be finite and non-negative")

    @property
    def batch(self):
        return len(self.labels)


def make_batch(pairs, patch_size, rng=None):
    """Turn (image, count) pairs into a PatchBatch.

    A 2s x 3s image, as ``fit_to_grid`` makes of any non-tile image, is cut
    into its six tiles; any other image is one tile. Each tile is augmented
    when ``rng`` is given, then normalized.
    """
    sequences = []
    labels = []
    tile_counts = []
    for img, count in pairs:
        h, w = img.shape[:2]
        tiles = split_tiles(img) if 3 * h == 2 * w else [img]
        tile_counts.append(len(tiles))
        for tile in tiles:
            if rng is not None:
                tile = augment(tile, rng)
            sequences.append(patchify(normalize(tile), patch_size))
        labels.append(count)
    return PatchBatch(data=np.stack(sequences),
                      labels=np.asarray(labels, dtype=np.float32),
                      tiles=tuple(tile_counts))


def read_labels(data_dir):
    """Parse ``data_dir/labels.tsv`` into [(name, count)] in file order.

    Each non-blank line is ``name<TAB>count``. The name is a relative path
    with no ``..`` part that is not the directory itself (``""``, ``.``),
    listed once under any spelling (``a.ppm`` and ``./a.ppm`` are one
    name); the count is finite and >= 0.
    """
    path = os.path.join(data_dir, "labels.tsv")
    labels, seen = [], set()
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), 1):  # \n, \r\n, \r as text mode
            where = f"{path} line {lineno}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise LabelsError(f"{where}: not UTF-8 at byte {exc.start}") from None
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise LabelsError(f"{where}: expected name<TAB>count, got {len(cols)} columns")
            name, text = cols
            try:
                count = float(text)
            except ValueError:
                raise LabelsError(f"{where}: count {text!r} is not a number") from None
            if not (math.isfinite(count) and count >= 0):
                raise LabelsError(f"{where}: count must be finite and >= 0, got {text!r}")
            if os.path.isabs(name) or ".." in name.split(os.sep):
                raise LabelsError(f"{where}: name {name!r} leaves the dataset directory")
            key = os.path.normpath(name)
            if key == ".":
                raise LabelsError(f"{where}: name {name!r} is the dataset directory, not a file")
            if key in seen:
                raise LabelsError(f"{where}: duplicate name {name!r}")
            seen.add(key)
            labels.append((name, count))
    return labels


class Dataset(Sequence):
    """A PPM + labels.tsv directory as a sequence of (image, count) pairs.

    ``labels`` is read once, by ``read_labels``; each lookup decodes its
    image afresh with ``load_ppm`` and keeps nothing.
    """

    def __init__(self, data_dir):
        self.data_dir = data_dir
        self.labels = read_labels(data_dir)

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, i):
        name, count = self.labels[i]
        return load_ppm(os.path.join(self.data_dir, name)), count
