"""Image I/O, preprocessing, patching, and synthetic dataset tests."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from patchcount import patchio
from patchcount.patchio import (Dataset, LabelsError, PPMError, SynthSpec, augment,
                                fit_to_grid, load_pgm, load_ppm, make_batch, normalize,
                                patchify, read_labels, resize_bilinear, save_ppm,
                                split_tiles, synth_generate, unpatchify, write_dataset)


def _write_ppm(path, w, h, payload, magic=b"P6", maxval=255):
    path.write_bytes(magic + f"\n{w} {h}\n{maxval}\n".encode() + payload)


class TestLoadPPM:
    def test_single_red_pixel(self, tmp_path):
        p = tmp_path / "a.ppm"
        _write_ppm(p, 1, 1, bytes([255, 0, 0]))
        img = load_ppm(p)
        npt.assert_array_equal(img, [[[1.0, 0.0, 0.0]]])

    def test_all_zero(self, tmp_path):
        p = tmp_path / "z.ppm"
        _write_ppm(p, 2, 2, bytes(12))
        npt.assert_array_equal(load_ppm(p), np.zeros((2, 2, 3)))

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "g.ppm"
        _write_ppm(p, 1, 1, bytes(3), magic=b"P5")
        with pytest.raises(PPMError, match="magic"):
            load_ppm(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.ppm"
        _write_ppm(p, 2, 2, bytes(5))
        with pytest.raises(PPMError, match="truncated"):
            load_ppm(p)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "m.ppm"
        _write_ppm(p, 1, 1, bytes(3), maxval=65535)
        with pytest.raises(PPMError, match="maxval"):
            load_ppm(p)

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# a comment\n1 1\n255\n" + bytes([0, 128, 255]))
        img = load_ppm(p)
        npt.assert_allclose(img, [[[0.0, 128 / 255, 1.0]]])

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = (rng.integers(0, 256, size=(5, 7, 3)) / 255.0).astype(np.float32)
        p = tmp_path / "r.ppm"
        save_ppm(img, p)
        npt.assert_allclose(load_ppm(p), img, atol=0.5 / 255)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("save", [save_ppm, patchio.save_pgm])
    def test_non_finite_pixel_is_not_written(self, tmp_path, bad, save):
        img = np.full((3, 4, 3), 0.5, dtype=np.float32)
        img[1, 2] = bad
        p = tmp_path / "x.pnm"
        with pytest.raises(ValueError, match="non-finite"):
            save(img if save is save_ppm else img[..., 0], p)
        assert not p.exists()


def _resize_whole(img, out_h, out_w):
    """resize_bilinear's formula on whole arrays, as it once ran."""
    def coords(n_out, n_in):
        src = np.clip((np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5,
                      0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.int64)
        return lo, np.minimum(lo + 1, n_in - 1), (src - lo).astype(np.float32)

    (y0, y1, fy), (x0, x1, fx) = coords(out_h, img.shape[0]), coords(out_w, img.shape[1])
    fy, fx = fy[:, None, None], fx[None, :, None]
    top = img[y0][:, x0] * (1 - fx) + img[y0][:, x1] * fx
    bot = img[y1][:, x0] * (1 - fx) + img[y1][:, x1] * fx
    return (top * (1 - fy) + bot * fy).astype(np.float32)


class TestResize:
    # up (a 709x709 eval image to the 768x1152 grid), down, odd, and a
    # single output row or column; the large ones span several row blocks
    @pytest.mark.parametrize("shape,out_hw", [((709, 709), (768, 1152)),
                                              ((480, 640), (768, 1152)),
                                              ((768, 1152), (128, 192)),
                                              ((13, 7), (5, 29)), ((2, 300), (301, 1))])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
    def test_bits_of_the_whole_array_formula(self, shape, out_hw, dtype):
        rng = np.random.default_rng(sum(shape))
        img = (rng.random(shape + (3,)) * (255 if dtype == np.uint8 else 1)).astype(dtype)
        got, expected = resize_bilinear(img, *out_hw), _resize_whole(img, *out_hw)
        assert got.dtype == expected.dtype == np.float32 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_identity(self):
        img = np.random.default_rng(1).random((6, 8, 3)).astype(np.float32)
        assert resize_bilinear(img, 6, 8) is img

    def test_center_average(self):
        img = np.array([[0.0, 2.0], [4.0, 6.0]], dtype=np.float32)[..., None]
        img = np.repeat(img, 3, axis=2)
        out = resize_bilinear(img, 1, 1)
        npt.assert_allclose(out, np.full((1, 1, 3), 3.0), atol=1e-6)

    def test_constant_preserved(self):
        img = np.full((4, 6, 3), 0.42, dtype=np.float32)
        out = resize_bilinear(img, 13, 5)
        npt.assert_allclose(out, 0.42, atol=1e-6)


class TestSplitTiles:
    def test_constant_tiles(self):
        img = np.full((768, 1152, 3), 0.5, dtype=np.float32)
        tiles = split_tiles(img)
        assert len(tiles) == 6
        for tile in tiles:
            assert tile.shape == (384, 384, 3)
            npt.assert_array_equal(tile, 0.5)

    def test_bright_pixel_partition(self):
        img = np.zeros((768, 1152, 3), dtype=np.float32)
        img[0, 0, 0] = 1.0
        tiles = split_tiles(img)
        assert tiles[0].max() == 1.0
        assert all(t.max() == 0.0 for t in tiles[1:])

    def test_reassembly_bit_exact(self):
        img = np.random.default_rng(2).random((768, 1152, 3)).astype(np.float32)
        tiles = split_tiles(img)
        rows = [np.concatenate(tiles[r * 3 : (r + 1) * 3], axis=1) for r in range(2)]
        npt.assert_array_equal(np.concatenate(rows, axis=0), img)

    def test_wrong_size_instructs_resize(self):
        with pytest.raises(ValueError, match="resize"):
            split_tiles(np.zeros((100, 100, 3), dtype=np.float32))

    def test_any_two_by_three_grid(self):
        img = np.random.default_rng(9).random((16, 24, 3)).astype(np.float32)
        tiles = split_tiles(img)
        assert [t.shape for t in tiles] == [(8, 8, 3)] * 6
        npt.assert_array_equal(tiles[4], img[8:, 8:16])


class TestFitToGrid:
    def test_tile_size_image_passes_through(self):
        img = np.zeros((64, 64, 3), dtype=np.float32)
        assert fit_to_grid(img, 64) is img
        assert make_batch([(img, 0.0)], 8).tiles == (1,)

    @pytest.mark.parametrize("side", [16, 64, 100, 200, 384])
    @pytest.mark.parametrize("shape", [(480, 480), (500, 900), (97, 131), (768, 1152)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_equals_split_then_resize_each_tile(self, shape, side):
        img = np.random.default_rng(side).random(shape + (3,)).astype(np.float32)
        got = make_batch([(fit_to_grid(img, side), 0.0)], 4).data
        tiles = split_tiles(resize_bilinear(img, 768, 1152))
        tiles = [resize_bilinear(t, side, side) for t in tiles]
        want = np.stack([patchify(normalize(t), 4) for t in tiles])
        assert np.array_equal(got, want)


class TestPatchify:
    def test_standard_shape(self):
        img = np.zeros((384, 384, 3), dtype=np.float32)
        assert patchify(img, 16).shape == (576, 768)

    def test_small_grid(self):
        img = np.zeros((32, 32, 3), dtype=np.float32)
        assert patchify(img, 16).shape == (4, 768)

    def test_constant_rows(self):
        img = np.full((32, 32, 3), 0.25, dtype=np.float32)
        seq = patchify(img, 16)
        npt.assert_array_equal(seq, 0.25)

    def test_non_divisible(self):
        with pytest.raises(ValueError, match="divisible"):
            patchify(np.zeros((30, 32, 3), dtype=np.float32), 16)

    def test_roundtrip_bit_exact(self):
        img = np.random.default_rng(3).random((64, 64, 3)).astype(np.float32)
        npt.assert_array_equal(unpatchify(patchify(img, 8), 64, 64, 8), img)

    def test_full_pipeline_shapes(self):
        # resize -> split -> patchify on a 1152x768 (WxH) input
        img = np.random.default_rng(4).random((700, 1000, 3)).astype(np.float32)
        full = resize_bilinear(img, 768, 1152)
        seqs = [patchify(t, 16) for t in split_tiles(full)]
        assert len(seqs) == 6
        assert all(s.shape == (576, 768) for s in seqs)


class _ScriptedRng:
    """Deterministic stand-in for Generator.random()."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestAugment:
    def test_flip_involution(self):
        img = np.random.default_rng(5).random((8, 8, 3)).astype(np.float32)
        once = augment(img, _ScriptedRng([0.0, 1.0]))  # flip, no gray
        twice = augment(once, _ScriptedRng([0.0, 1.0]))
        npt.assert_array_equal(twice, img)

    def test_grayscale_channels_equal(self):
        img = np.random.default_rng(6).random((8, 8, 3)).astype(np.float32)
        out = augment(img, _ScriptedRng([1.0, 0.0]))  # no flip, gray
        npt.assert_array_equal(out[..., 0], out[..., 1])
        npt.assert_array_equal(out[..., 1], out[..., 2])

    def test_label_untouched_by_batching(self):
        pairs = synth_generate(SynthSpec(side=32, count_min=4, count_max=4, seed=1), 3)
        batch = make_batch(pairs, 8, rng=np.random.default_rng(0))
        npt.assert_array_equal(batch.labels, [4.0, 4.0, 4.0])


class TestSynth:
    def test_empty_scene(self):
        pairs = synth_generate(SynthSpec(side=32, count_min=0, count_max=0, seed=2), 4)
        assert all(c == 0.0 for _, c in pairs)

    def test_deterministic(self):
        spec = SynthSpec(side=32, count_min=0, count_max=9, seed=3)
        a = synth_generate(spec, 3)
        b = synth_generate(spec, 3)
        for (ia, ca), (ib, cb) in zip(a, b):
            npt.assert_array_equal(ia, ib)
            assert ca == cb

    def test_degenerate_count_range(self):
        pairs = synth_generate(SynthSpec(side=32, count_min=5, count_max=5, seed=4), 8)
        assert all(c == 5.0 for _, c in pairs)

    def test_values_in_range(self):
        pairs = synth_generate(SynthSpec(side=32, count_min=10, count_max=10, seed=5), 2)
        for img, _ in pairs:
            assert img.min() >= 0.0 and img.max() <= 1.0

    @pytest.mark.parametrize("count_min", [-1, -5, True, 1.0])
    def test_count_min_must_be_non_negative_int(self, count_min):
        with pytest.raises(ValueError, match="count_min must be an int >= 0"):
            SynthSpec(count_min=count_min, count_max=2)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            SynthSpec(count_min=5, count_max=2)
        with pytest.raises(ValueError):
            SynthSpec(dot_radius=0.5)
        for radius in (math.nan, math.inf):
            with pytest.raises(ValueError, match="dot_radius must be finite and >= 1"):
                SynthSpec(dot_radius=radius)
        for noise in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise_amp must be finite and >= 0"):
                SynthSpec(noise_amp=noise)
        with pytest.raises(ValueError):
            SynthSpec(side=4, dot_radius=2.0)
        for field, value in (("dot_radius", "2"), ("noise_amp", None), ("side", "64"),
                             ("side", 64.5), ("side", 0), ("count_max", 2.5), ("seed", -1),
                             ("seed", 1.5), ("dot_radius", True), ("noise_amp", 10 ** 400),
                             ("region", (2.0, 3.0, 2.0, 3.0)), ("region", (0.5, 0.2, 0.0, 1.0)),
                             ("region", (0.0, 1.0, 0.6, 0.4)), ("region", (0.0, math.nan, 0.0, 1.0)),
                             ("region", (0.0, "1", 0.0, 1.0)), ("region", (0.0, 1.0)),
                             ("region", None)):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                SynthSpec(**{field: value})

    @pytest.mark.parametrize("n", [0, -1, True, 2.0, "3"])
    def test_bad_image_count(self, n):
        with pytest.raises(ValueError, match="n_images must be an int >= 1"):
            synth_generate(SynthSpec(side=16), n)

    def test_region_confines_dots(self):
        spec = SynthSpec(side=64, count_min=20, count_max=20, dot_radius=2.0,
                         noise_amp=0.0, seed=6, region=(0.0, 0.5, 0.0, 0.5))
        img, _ = synth_generate(spec, 1)[0]
        # mass outside the top-left quadrant is only gaussian tails
        assert img[:32, :32].sum() > 20 * img[40:, 40:].sum()

    def test_dataset_roundtrip(self, tmp_path):
        pairs = synth_generate(SynthSpec(side=16, count_min=0, count_max=3, seed=7), 5)
        write_dataset(pairs, tmp_path / "ds")
        loaded = Dataset(tmp_path / "ds")
        assert len(loaded) == 5
        assert loaded.labels == [(f"img_{i:05d}.ppm", c) for i, (_, c) in enumerate(pairs)]
        for (ia, ca), (ib, cb) in zip(pairs, loaded, strict=True):
            assert ca == cb
            npt.assert_allclose(ia, ib, atol=0.5 / 255)

    def test_dataset_decodes_on_every_lookup_only(self, tmp_path, monkeypatch):
        write_dataset(synth_generate(SynthSpec(side=16, seed=7), 3), tmp_path)
        calls, reads = [], []
        monkeypatch.setattr(patchio, "load_ppm",
                            lambda path, load=load_ppm: calls.append(path) or load(path))
        monkeypatch.setattr(patchio, "read_labels",
                            lambda d, read=read_labels: reads.append(d) or read(d))
        data = Dataset(tmp_path)
        assert (len(data), reads, calls) == (3, [tmp_path], [])
        first, again = data[1], data[-2]
        assert calls == [str(tmp_path / "img_00001.ppm")] * 2 and reads == [tmp_path]
        assert first[1] == again[1] and first[0] is not again[0]
        npt.assert_array_equal(first[0], again[0])
        with pytest.raises(IndexError):
            data[3]


class TestBatch:
    def test_normalize_standardizes(self):
        img = np.zeros((16, 16, 3), dtype=np.float32)
        out = normalize(img)
        npt.assert_allclose(out[0, 0], -patchio.IMAGENET_MEAN / patchio.IMAGENET_STD,
                            rtol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
    def test_normalize_has_the_bytes_of_broadcasting_over_channels(self, dtype):
        img = (np.random.default_rng(9).random((32, 48, 3)) * 255).astype(dtype)
        mean, std = patchio.IMAGENET_MEAN, patchio.IMAGENET_STD
        for view in [img, img[:, ::-1]] + split_tiles(img):
            want = ((view - mean) / std).astype(np.float32)
            got = normalize(view)
            assert got.dtype == np.float32 and got.shape == view.shape
            assert np.array_equal(got, want)

    def test_full_size_tiling(self):
        img = np.random.default_rng(8).random((768, 1152, 3)).astype(np.float32)
        batch = make_batch([(img, 9.0)], 16)
        assert batch.tiles == (6,)
        assert batch.data.shape == (6, 576, 768)
        assert batch.batch == 1

    def test_negative_label_rejected(self):
        img = np.zeros((16, 16, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            make_batch([(img, -1.0)], 8)

    @pytest.mark.parametrize("label", [float("nan"), float("inf")])
    def test_non_finite_label_rejected(self, label):
        # NaN fails no `< 0` test; the loss would then blame the model
        img = np.zeros((16, 16, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="finite and non-negative"):
            make_batch([(img, label)], 8)

    def test_load_pgm(self, tmp_path):
        p = tmp_path / "g.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_pgm(p)
        npt.assert_allclose(img, np.array([[0, 255], [128, 64]]) / 255.0)


@pytest.mark.parametrize("load, magic", [(load_ppm, b"P6"), (load_pgm, b"P5")])
@pytest.mark.parametrize("w, h", [(0, 0), (0, 5), (5, 0)])
def test_zero_size_header_raises_ppm_error(tmp_path, load, magic, w, h):
    p = tmp_path / "e.pnm"
    _write_ppm(p, w, h, bytes(75), magic=magic)
    with pytest.raises(PPMError, match="empty image"):
        load(p)


# one malformed third line per case (the second is blank), and the message it gives
BAD_LABEL_LINES = {
    "one_column": ("b.ppm\n", "got 1 columns"),
    "three_columns": ("b.ppm\t3\t1\n", "got 3 columns"),
    "not_a_number": ("b.ppm\tmany\n", "not a number"),
    "nan_count": ("b.ppm\tnan\n", "finite and >= 0"),
    "inf_count": ("b.ppm\tinf\n", "finite and >= 0"),
    "negative_count": ("b.ppm\t-5\n", "finite and >= 0"),
    "duplicate_name": ("a.ppm\t4\n", "duplicate name"),
    "absolute_name": ("{outside}\t3\n", "leaves the dataset directory"),
    "parent_name": ("../b.ppm\t3\n", "leaves the dataset directory"),
    "inner_parent_name": ("sub/../../b.ppm\t3\n", "leaves the dataset directory"),
    "empty_name": ("\t5\n", "is the dataset directory"),
    "dot_name": (".\t5\n", "is the dataset directory"),
    "dot_slash_name": ("./\t5\n", "is the dataset directory"),
    "duplicate_dot_slash_name": ("./a.ppm\t4\n", "duplicate name './a.ppm'"),
    "duplicate_double_slash_name": ("sub/a.ppm\t4\nsub//a.ppm\t4\n",
                                    "duplicate name 'sub//a.ppm'"),
}


@pytest.mark.parametrize("case", list(BAD_LABEL_LINES))
def test_malformed_labels_line_raises_labels_error(tmp_path, case):
    line, expect = BAD_LABEL_LINES[case]
    data = tmp_path / "ds"
    data.mkdir()
    img = np.zeros((8, 8, 3), dtype=np.float32)
    for path in (data / "a.ppm", data / "b.ppm", tmp_path / "b.ppm"):
        save_ppm(img, path)
    labels = data / "labels.tsv"
    labels.write_text("a.ppm\t2\n\n" + line.format(outside=tmp_path / "b.ppm"))
    last = 2 + line.count("\n")  # the case's last line
    for load in (read_labels, Dataset):
        with pytest.raises(LabelsError, match=expect) as exc:
            load(data)
        assert f"{labels} line {last}" in str(exc.value)


# (header bytes, the message and byte offset of the PPMError they raise)
BAD_SEPARATORS = {
    "letter_after_maxval": (b"\n1 1\n255X", "one whitespace byte after maxval", 10),
    "nothing_after_maxval": (b"\n1 1\n255", "one whitespace byte after maxval", 10),
    "digit_after_magic": (b"1 1 255\n", "after the magic", 2),
    "letter_after_magic": (b"x1 1 255\n", "after the magic", 2),
    "long_integer": (b"\n" + b"1" * 5000 + b" 1\n255\n", "too long", 3),
}


@pytest.mark.parametrize("load, magic", [(load_ppm, b"P6"), (load_pgm, b"P5")])
@pytest.mark.parametrize("case", sorted(BAD_SEPARATORS))
def test_bad_header_separator_raises_ppm_error(tmp_path, load, magic, case):
    header, expect, offset = BAD_SEPARATORS[case]
    p = tmp_path / "s.pnm"
    p.write_bytes(magic + header + bytes(3))
    with pytest.raises(PPMError, match=expect) as exc:
        load(p)
    assert exc.value.offset == offset


@pytest.mark.parametrize("header", [b" 1 1 255 ", b"\t1\t1\t255\r", b"#c\n1 1\n255\n",
                                    b"\n1 1 #c\n255\n"])
def test_header_separators_that_decode(tmp_path, header):
    p = tmp_path / "s.ppm"
    p.write_bytes(b"P6" + header + bytes([0, 51, 255]))
    npt.assert_allclose(load_ppm(p), [[[0.0, 0.2, 1.0]]])


def test_non_utf8_labels_raise_labels_error(tmp_path):
    labels = tmp_path / "labels.tsv"
    labels.write_bytes("a.ppm\t2\r\nbé.ppm\t3\n".encode() + b"c\xff.ppm\t1\n")
    with pytest.raises(LabelsError, match="not UTF-8 at byte 1") as exc:
        read_labels(tmp_path)
    assert f"{labels} line 3" in str(exc.value)
    labels.write_bytes("a.ppm\t2\r\nbé.ppm\t3\rc.ppm\t1".encode())
    assert read_labels(tmp_path) == [("a.ppm", 2.0), ("bé.ppm", 3.0), ("c.ppm", 1.0)]
