import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from vesselseg import data
from vesselseg.data import Image, Sample


# ---------------------------------------------------------------------------
# netpbm I/O


def test_load_p5_minimal(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]))
    img = data.load_image(p)
    assert (img.width, img.height, img.channels, img.maxval) == (2, 2, 1, 255)
    np.testing.assert_array_equal(img.pixels[:, :, 0], [[0, 64], [128, 255]])


def test_load_p6_minimal(tmp_path):
    p = tmp_path / "a.ppm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(range(12)))
    img = data.load_image(p)
    assert (img.width, img.height, img.channels) == (2, 2, 3)
    assert img.pixels[1, 1, 2] == 11


def test_load_with_comments_and_whitespace(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5 # a comment\n# another\n 2\t2 # yes\n255\n" + bytes(4))
    img = data.load_image(p)
    assert img.width == 2 and img.height == 2
    # a comment of any length: the header is parsed from the whole file, not a prefix
    p.write_bytes(b"P5\n#" + b"x" * 10_000 + b"\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    np.testing.assert_array_equal(data.load_image(p).pixels[:, :, 0], [[1, 2], [3, 4]])


def test_load_truncated_rejected_with_offset(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(data.PixmapError) as e:
        data.load_image(p)
    assert "truncated" in str(e.value) and "offset" in str(e.value)


def test_load_bad_magic_and_maxval(tmp_path):
    p = tmp_path / "b.pgm"
    p.write_bytes(b"P2\n2 2\n255\n" + bytes(4))
    with pytest.raises(data.PixmapError) as e:
        data.load_image(p)
    assert str(e.value) == f"{p}: bad magic b'P2' at offset 0, expected P5 or P6"
    p.write_bytes(b"P5\n2 2\n100\n" + bytes(4))
    with pytest.raises(data.PixmapError):
        data.load_image(p)


@pytest.mark.parametrize(
    "header, field, offset",
    [
        (b"P5\n1_0 2\n255\n", "width b'1_0'", 3),
        (b"P5\n2 +4\n255\n", "height b'+4'", 5),
        (b"P5\n2 2\n-0\n", "maxval b'-0'", 7),
    ],
    ids=["underscore-width", "plus-height", "minus-zero-maxval"],
)
def test_header_fields_must_be_ascii_digits(tmp_path, header, field, offset):
    # int() takes each of these, as 10, 4 and 0
    p = tmp_path / "h.pgm"
    p.write_bytes(header + bytes(40))
    with pytest.raises(data.PixmapError) as e:
        data.load_image(p)
    assert str(e.value).endswith(f"{field} at offset {offset} is not a decimal number")


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"P5\n2 3\n", "header ended early at offset 7"),
        (b"P5 2 3 # a comment running to the end of the file", "header ended early at offset 49"),
        (b"P5 2 3 255", "missing whitespace after maxval at offset 10"),
        (b"P5 2#3 1\n255\n" + bytes(6), "width b'2#3' at offset 3 is not a decimal number"),
        (b"P5\x852 2\n255\n" + bytes(4), "width b'\\x852' at offset 2 is not a decimal number"),
        (b"P5 2\xa02 2\n255\n" + bytes(4), "width b'2\\xa02' at offset 3 is not a decimal number"),
    ],
    ids=["no-maxval", "comment-to-eof", "no-byte-after-maxval", "hash-in-token", "x85", "xa0"],
)
def test_header_refusals_name_their_offset(tmp_path, raw, message):
    # '#' starts a comment only where a token could start, and only the six ASCII
    # whitespace bytes separate tokens
    p = tmp_path / "h.pgm"
    p.write_bytes(raw)
    with pytest.raises(data.PixmapError) as e:
        data.load_image(p)
    assert str(e.value) == f"{p}: {message}"


def test_header_separators_are_the_ascii_whitespace_bytes(tmp_path):
    # CR, tab, VT and FF separate tokens; a comment runs past a CR to the next LF, and the
    # one byte after maxval may be any of them
    p = tmp_path / "s.pgm"
    p.write_bytes(b"P5\r2\t3\x0b# a comment\r runs to LF only\n255\x0c" + bytes(range(6)))
    img = data.load_image(p)
    assert (img.width, img.height, img.maxval) == (2, 3, 255)
    np.testing.assert_array_equal(img.pixels.ravel(), range(6))


def test_header_padding_is_scanned_in_memory_that_does_not_grow_with_it(tmp_path):
    # 2 MB of blank lines and comments before the width
    p = tmp_path / "pad.pgm"
    p.write_bytes(b"P5" + b" \t\n#c 1\n" * 250_000 + b"2 2\n255\n" + bytes([1, 2, 3, 4]))
    data.load_image(p)  # a first read imports and caches what the read needs
    tracemalloc.start()
    try:
        img = data.load_image(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(img.pixels[:, :, 0], [[1, 2], [3, 4]])
    assert peak < 1.2 * p.stat().st_size, (peak, p.stat().st_size)


def test_header_field_too_long_for_int_is_pixmap_error(tmp_path):
    # int() refuses more than 4300 digits with a ValueError on current Pythons
    p = tmp_path / "h.pgm"
    p.write_bytes(b"P5\n" + b"9" * 5000 + b" 2\n255\n" + bytes(4))
    with pytest.raises(data.PixmapError):
        data.load_image(p)


def test_roundtrip_8bit_and_16bit(tmp_path):
    rng = np.random.default_rng(0)
    img8 = Image(pixels=rng.integers(0, 256, (5, 7, 3)).astype(np.uint8), maxval=255)
    p = tmp_path / "x.ppm"
    data.write_image(img8, p)
    assert p.read_bytes().startswith(b"P6\n7 5\n255\n")
    back = data.load_image(p)
    np.testing.assert_array_equal(back.pixels, img8.pixels)

    img16 = Image(pixels=rng.integers(0, 65536, (4, 3, 1)).astype(np.uint16), maxval=65535)
    p16 = tmp_path / "y.pgm"
    data.write_image(img16, p16)
    back16 = data.load_image(p16)
    assert back16.maxval == 65535
    np.testing.assert_array_equal(back16.pixels, img16.pixels)


def test_load_8bit_reads_pixels_into_one_writable_buffer(tmp_path):
    # the pixels are a view of the buffer the file was read into: no copy of the payload
    px = np.random.default_rng(7).integers(0, 256, (584, 565, 3), dtype=np.uint8)
    p = tmp_path / "photo.ppm"
    data.write_image(Image(px, 255), p)
    data.load_image(p)  # a first read imports and caches what the read needs
    tracemalloc.start()
    try:
        img = data.load_image(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(img.pixels, px)
    assert img.pixels.flags.writeable
    assert peak < 1.2 * p.stat().st_size, (peak, p.stat().st_size)


def test_16bit_payload_is_big_endian(tmp_path):
    img = Image(pixels=np.array([[[0x1234]]], dtype=np.uint16), maxval=65535)
    p = tmp_path / "be.pgm"
    data.write_image(img, p)
    assert p.read_bytes().endswith(bytes([0x12, 0x34]))


# ---------------------------------------------------------------------------
# z-score


def test_zscore_constant_channel_is_zero():
    img = Image(pixels=np.full((4, 4, 3), 77, dtype=np.uint8), maxval=255)
    out = data.zscore_normalize(img)
    assert np.all(out == 0)


def test_zscore_unit_stats():
    rng = np.random.default_rng(1)
    img = Image(pixels=rng.integers(0, 256, (16, 16, 3)).astype(np.uint8), maxval=255)
    out = data.zscore_normalize(img)
    for c in range(3):
        assert abs(out[:, :, c].mean()) < 1e-5
        assert abs(out[:, :, c].std() - 1.0) < 1e-5


def test_zscore_two_point_channel():
    img = Image(pixels=np.array([[[0], [255]]], dtype=np.uint8), maxval=255)
    out = data.zscore_normalize(img)
    np.testing.assert_allclose(out[:, :, 0], [[-1.0, 1.0]], atol=1e-6)


def zscore_whole_photo(image):
    """The float64-copy-of-the-photo z-score the per-channel version replaced."""
    px = image.pixels.astype(np.float64)
    out = np.zeros_like(px, dtype=np.float32)
    for c in range(image.channels):
        chan = px[:, :, c]
        std = chan.std()
        if std > 0:
            out[:, :, c] = ((chan - chan.mean()) / std).astype(np.float32)
    return out


def test_zscore_bit_equal_to_whole_photo_formula():
    rng = np.random.default_rng(41)
    for maxval, dtype in ((255, np.uint8), (65535, np.uint16)):
        for shape in ((37, 29, 3), (64, 61, 1)):
            px = rng.integers(0, maxval + 1, shape).astype(dtype)
            px[..., -1] = px[0, 0, -1]  # a constant channel maps to 0
            img = Image(pixels=px, maxval=maxval)
            out = data.zscore_normalize(img)
            assert out.dtype == np.float32 and out.tobytes() == zscore_whole_photo(img).tobytes()
            assert np.all(out[..., -1] == 0)


# ---------------------------------------------------------------------------
# augmentation


def make_sample(h=6, w=6, seed=0):
    rng = np.random.default_rng(seed)
    return Sample(
        id="s",
        x=rng.normal(size=(3, h, w)).astype(np.float32),
        y=(rng.uniform(size=(h, w)) > 0.7).astype(np.uint8),
    )


def test_augment_count_and_identity():
    s = make_sample()
    out = data.augment(s)
    assert len(out) == 8
    assert out[0] is s
    rect = make_sample(h=4, w=6)
    assert len(data.augment(rect)) == 4
    ids = [v.id for v in data.augment(s)]
    assert len(set(ids)) == 8


def test_augment_variants_are_views_of_their_source():
    for s in (make_sample(), make_sample(h=4, w=6)):
        for variant in data.augment(s)[1:]:
            for ours, source in ((variant.x, s.x), (variant.y, s.y)):
                assert np.shares_memory(ours, source), variant.id


def test_augment_group_laws():
    s = make_sample()
    flipped_twice = data.dihedral_transform(data.dihedral_transform(s.x, 0, True), 0, True)
    np.testing.assert_array_equal(flipped_twice, s.x)
    r = s.x
    for _ in range(4):
        r = data.dihedral_transform(r, 1, False)
    np.testing.assert_array_equal(r, s.x)


def test_rotation_coordinate_map():
    # (r, c) of an HxW image lands at (c, H-1-r) under one clockwise turn
    h, w = 4, 6
    arr = np.arange(h * w).reshape(h, w)
    rot = data.dihedral_transform(arr, 1, False)
    assert rot.shape == (w, h)
    for r in range(h):
        for c in range(w):
            assert rot[c, h - 1 - r] == arr[r, c]


def test_augment_transforms_xym_jointly():
    # x and y, the record's two maps, move together: a pixel marked in both lands at one place
    marked = np.zeros((6, 6), np.uint8)
    marked[1, 2] = 1
    s = Sample(id="s", x=np.stack([marked] * 3).astype(np.float32), y=marked)
    for variant in data.augment(s):
        assert len(np.argwhere(variant.y == 1)) == 1
        for channel in variant.x:
            np.testing.assert_array_equal(channel, variant.y)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.booleans(), st.integers(0, 2**31 - 1))
def test_dihedral_preserves_multiset(k, flip, seed):
    arr = np.random.default_rng(seed).integers(0, 100, (5, 5))
    out = data.dihedral_transform(arr, k, flip)
    assert sorted(out.ravel()) == sorted(arr.ravel())


# ---------------------------------------------------------------------------
# FOV mask


def disc_image(size=64, radius=24, bright=200, dark=5):
    rr, cc = np.mgrid[0:size, 0:size]
    center = (size - 1) / 2
    disc = (rr - center) ** 2 + (cc - center) ** 2 <= radius**2
    px = np.where(disc[..., None], bright, dark).astype(np.uint8)
    return Image(pixels=np.repeat(px, 3, axis=2), maxval=255), disc


def test_fov_mask_recovers_centered_disc():
    img, disc = disc_image()
    # two levels, one each side of the threshold: the mask is the disc, to the pixel
    np.testing.assert_array_equal(data.generate_fov_mask(img), disc)


def test_fov_mask_fully_bright():
    img = Image(pixels=np.full((8, 8, 3), 255, dtype=np.uint8), maxval=255)
    np.testing.assert_array_equal(data.generate_fov_mask(img), np.ones((8, 8), np.uint8))


def test_fov_mask_all_black_rejected():
    img = Image(pixels=np.zeros((8, 8, 3), dtype=np.uint8), maxval=255)
    with pytest.raises(data.DataError):
        data.generate_fov_mask(img)


@pytest.mark.parametrize("maxval", [255, 65535])
def test_fov_threshold_table_matches_float64_mean_for_every_sum(maxval):
    # one pixel per possible channel sum, channels filled in order
    sums = np.arange(3 * maxval + 1)
    px = np.stack([np.clip(sums - k * maxval, 0, maxval) for k in range(3)], axis=1)
    px = px.astype(np.uint8 if maxval == 255 else np.uint16)[:, None, :]
    lum = px.astype(np.float64).mean(axis=2) / maxval
    summed = px.sum(axis=2, dtype=np.uint32)
    for threshold in (data.DEFAULT_FOV_THRESHOLD, 0.0, 1 / 3, 0.5, 7 / 255, 0.9, 1.0):
        table = data._bright_sums(maxval, threshold)
        assert table.shape == (3 * maxval + 1,)
        np.testing.assert_array_equal(table[summed], lum >= threshold, err_msg=str(threshold))


@pytest.mark.parametrize("maxval", [255, 65535])
def test_fov_bright_cut_reproduces_the_table_at_every_sum(maxval):
    sums = np.arange(3 * maxval + 1)
    unreachable = np.nextafter(1.0, 2.0)  # no mean of channels reaches it
    for threshold in (data.DEFAULT_FOV_THRESHOLD, 0.0, 1 / 3, 0.5, 7 / 255, 0.9, 1.0, unreachable):
        cut = data._bright_cut(maxval, threshold)
        np.testing.assert_array_equal(
            sums >= cut, data._bright_sums(maxval, threshold), err_msg=str(threshold)
        )
    assert data._bright_cut(maxval, unreachable) == len(sums)
    dtype = np.uint8 if maxval == 255 else np.uint16
    white = Image(pixels=np.full((4, 4, 3), maxval, dtype), maxval=maxval)
    assert data.generate_fov_mask(white, 1.0).all()
    with pytest.raises(data.DataError, match="no blob found"):
        data.generate_fov_mask(white, unreachable)


@pytest.fixture(scope="module")
def ndimage():
    """scipy's ndimage, the oracle of the FOV tests that take it; they skip without scipy."""
    return pytest.importorskip("scipy.ndimage")


def test_fov_mask_fills_holes_and_is_single_component(ndimage):
    img, disc = disc_image()
    px = img.pixels.copy()
    px[30:33, 30:33] = 0  # interior hole
    px[2:4, 2:4] = 255  # stray corner blob, not connected to the center
    mask = data.generate_fov_mask(Image(pixels=px, maxval=255))
    assert np.all(mask[30:33, 30:33] == 1)
    assert np.all(mask[2:4, 2:4] == 0)
    _, n = ndimage.label(mask, structure=np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]]))
    assert n == 1


CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def fov_mask_fill_holes(bright, ndimage):
    """The blob pick and ``binary_fill_holes`` hole fill that one labeling
    of the outside replaced, on a thresholded frame."""
    labels, n = ndimage.label(bright, structure=CROSS)
    center = labels[bright.shape[0] // 2, bright.shape[1] // 2]
    if center == 0:
        sizes = ndimage.sum_labels(bright, labels, index=np.arange(1, n + 1))
        center = int(np.argmax(sizes)) + 1
    return ndimage.binary_fill_holes(labels == center, structure=CROSS).astype(np.uint8)


def assert_fov_mask_matches_fill_holes(bright, ndimage):
    bright = np.asarray(bright, dtype=bool)
    px = np.repeat(bright[:, :, None] * np.uint8(255), 3, axis=2)
    mask = data.generate_fov_mask(Image(pixels=px, maxval=255))
    assert mask.dtype == np.uint8
    np.testing.assert_array_equal(mask, fov_mask_fill_holes(bright, ndimage))
    return mask


@settings(max_examples=300, deadline=None)
@given(arrays(np.bool_, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=14)))
@example(np.ones((1, 9), bool))  # one row
@example(np.array([[1], [0], [1], [1], [0]], bool))  # one column
@example(np.ones((5, 6), bool))  # all bright
def test_fov_hole_fill_matches_binary_fill_holes(ndimage, bright):
    if not bright.any():
        with pytest.raises(data.DataError):
            data.generate_fov_mask(Image(pixels=np.zeros((*bright.shape, 3), np.uint8), maxval=255))
        return
    assert_fov_mask_matches_fill_holes(bright, ndimage)


@pytest.mark.parametrize(
    "rows,filled",
    [
        # a notch open to the frame border is outside, not a hole
        (["11111", "10001", "10001", "10001", "11011"], ["11111", "10001", "10001", "10001", "11011"]),
        # background reaching the border only diagonally is a hole under 4-connectivity
        (["0111", "1011", "1111", "1111"], ["0111", "1111", "1111", "1111"]),
        # a bright island inside the ring's hole is filled with it; the center is dark
        (
            ["000000000", "011111110", "010000010", "010100010", "010000010",
             "010000010", "010000010", "011111110", "000000000"],
            ["000000000", "011111110", "011111110", "011111110", "011111110",
             "011111110", "011111110", "011111110", "000000000"],
        ),
        (["1011101"], ["0011100"]),  # one row: nothing can be enclosed
        (["1", "1", "0", "1"], ["1", "1", "0", "0"]),  # one column
        (["111", "111"], ["111", "111"]),  # all bright
    ],
)
def test_fov_hole_fill_edge_cases(ndimage, rows, filled):
    mask = assert_fov_mask_matches_fill_holes([[c == "1" for c in r] for r in rows], ndimage)
    np.testing.assert_array_equal(mask, [[int(c) for c in r] for r in filled])


DRIVE_HW = (584, 565)


def drive_photo(bright):
    return Image(pixels=np.repeat(bright[:, :, None] * np.uint8(255), 3, axis=2), maxval=255)


def drive_disc():
    rr, cc = np.mgrid[0 : DRIVE_HW[0], 0 : DRIVE_HW[1]]
    return (rr - 291.5) ** 2 + (cc - 282) ** 2 <= 250**2


def disc_with_holes_and_blobs():
    b = drive_disc()
    b[250:300, 200:260] = False  # a hole
    b[100:200, 250:320] = False  # a hole holding a bright island
    b[140:160, 275:295] = True
    b[285:295, 450:] = False  # a channel from the disc to the frame border
    b[10:40, 10:40] = True  # stray blobs
    b[560:575, 530:560] = True
    b[0, 300] = True
    return drive_photo(b)


def photo_16bit():
    # speckled both ways: dark pixels inside the disc, bright ones outside it
    rng = np.random.default_rng(5)
    disc = drive_disc()
    lum = np.where(disc, rng.uniform(0.0, 0.6, DRIVE_HW), rng.uniform(0.0, 0.12, DRIVE_HW))
    tint = rng.uniform(0.5, 1.5, (*DRIVE_HW, 3))
    px = np.clip(lum[:, :, None] * tint * 65535, 0, 65535).astype(np.uint16)
    return Image(pixels=px, maxval=65535)


def dark_center_tie():
    b = np.zeros(DRIVE_HW, bool)
    b[40:140, 400:500] = True  # first in raster order
    b[420:520, 60:160] = True  # the same size
    return drive_photo(b)


def comb():
    b = np.zeros(DRIVE_HW, bool)
    b[:, ::2] = True  # 1-pixel teeth, joined along the bottom row
    b[-1] = True
    return drive_photo(b)


def spiral():
    # 1-pixel rings 2 apart, each joined to the next inside it
    h, w = DRIVE_HW
    b = np.zeros(DRIVE_HW, bool)
    for o in range(0, min(h, w) // 2, 2):
        b[o, max(o - 2, 0) : w - o] = True
        b[o : h - o, w - 1 - o] = True
        b[h - 1 - o, o : w - o] = True
        b[o + 2 : h - o, o] = True
    return drive_photo(b)


def serpentine():
    b = np.zeros(DRIVE_HW, bool)
    b[::2] = True  # every other row, joined at alternating ends
    b[1::4, -1] = True
    b[3::4, 0] = True
    return drive_photo(b)


@pytest.mark.parametrize(
    "make",
    [disc_with_holes_and_blobs, photo_16bit, dark_center_tie, comb, spiral, serpentine],
)
def test_fov_mask_matches_binary_fill_holes_at_drive_size(ndimage, make):
    photo = make()
    lum = photo.pixels.astype(np.float64).mean(axis=2) / photo.maxval
    mask = data.generate_fov_mask(photo)
    assert mask.dtype == np.uint8
    want = fov_mask_fill_holes(lum >= data.DEFAULT_FOV_THRESHOLD, ndimage)
    np.testing.assert_array_equal(mask, want)


# ---------------------------------------------------------------------------
# splits


def test_training_stems_stare_first_ten():
    ids = [f"im{i:04d}" for i in range(1, 21)]
    assert data.training_stems(ids[::-1], "stare") == ids[:10]


def test_training_stems_drive_by_name():
    ids = [f"{i:02d}_test" for i in range(1, 21)] + [f"{i}_training" for i in range(21, 41)]
    assert data.training_stems(ids, "drive") == [f"{i}_training" for i in range(21, 41)]


def test_training_stems_rejects_small_stare():
    with pytest.raises(ValueError):
        data.training_stems(["a", "b"], "stare")


def test_training_stems_custom_is_every_stem_sorted():
    # stem order, not path order: "a-b.ppm" sorts before "a.ppm"
    assert data.training_stems(["b", "a-b", "a"], "custom") == ["a", "a-b", "b"]


# ---------------------------------------------------------------------------
# padding


def test_pad_to_multiple_and_crop():
    arr = np.arange(3 * 5 * 6, dtype=np.float32).reshape(3, 5, 6)
    padded, off = data.pad_to_multiple(arr, 4)
    assert padded.shape == (3, 8, 8)
    top, left = off
    np.testing.assert_array_equal(padded[:, top : top + 5, left : left + 6], arr)
    same, off0 = data.pad_to_multiple(arr, 1)
    assert same is arr and off0 == (0, 0)


# ---------------------------------------------------------------------------
# binary maps


@pytest.mark.parametrize(
    "maxval, mark, want",
    [(255, 255, 1), (255, 128, 1), (65535, 32768, 1), (255, 0, 0), (65535, 0, 0)],
)
def test_load_binary_cuts_at_half_of_maxval(tmp_path, maxval, mark, want):
    px = np.zeros((4, 5, 1), np.uint16 if maxval > 255 else np.uint8)
    px[1:3, 2] = mark
    path = tmp_path / "m.pgm"
    data.write_image(Image(pixels=px, maxval=maxval), path)
    got = data.load_binary(path)
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, (px[:, :, 0] > 0) * np.uint8(want))


@pytest.mark.parametrize("maxval, peak", [(255, 1), (255, 127), (65535, 32767)])
def test_load_binary_refuses_marks_that_all_fall_under_half_of_maxval(tmp_path, maxval, peak):
    px = np.zeros((4, 5, 1), np.uint16 if maxval > 255 else np.uint8)
    px[0, 0], px[2, 3] = 1, peak
    path = tmp_path / "m.pgm"
    data.write_image(Image(pixels=px, maxval=maxval), path)
    with pytest.raises(data.DataError) as refused:
        data.load_binary(path)
    assert str(refused.value) == f"{path}: no value reaches half of maxval {maxval}, brightest {peak}"


# ---------------------------------------------------------------------------
# synthetic samples


def test_synthetic_deterministic():
    a = data.generate_synthetic_sample(64, 9)
    b = data.generate_synthetic_sample(64, 9)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.m, b.m)


def test_synthetic_vessels_inside_fov():
    for seed in range(10):
        s = data.generate_synthetic_sample(48, seed)
        assert np.all(s.m[s.y == 1] == 1)


def draw_vessels_per_step(rng, size, fov, radius):
    """The walker that stamps every step as it goes: the oracle for ``data._draw_vessels``."""
    vessels = np.zeros((size, size), dtype=bool)
    center = (size - 1) / 2.0

    def stamp(r, c, width):
        offs = data._STAMPS[width]
        rows = np.clip(np.round(r + offs[:, 0]).astype(int), 0, size - 1)
        cols = np.clip(np.round(c + offs[:, 1]).astype(int), 0, size - 1)
        keep = fov[rows, cols]
        vessels[rows[keep], cols[keep]] = True

    walkers = []
    for _ in range(3 + size // 48):
        r0 = rng.uniform(0, 0.2 * radius)
        th0 = rng.uniform(0, 2 * np.pi)
        walkers.append((center + r0 * np.sin(th0), center + r0 * np.cos(th0),
                        rng.uniform(0, 2 * np.pi), int(rng.integers(2, 4)), int(1.1 * radius)))
    while walkers:
        r, c, angle, width, steps = walkers.pop()
        for _ in range(steps):
            r += np.sin(angle)
            c += np.cos(angle)
            if (r - center) ** 2 + (c - center) ** 2 > (0.92 * radius) ** 2:
                break
            angle += rng.normal(0.0, 0.22)
            stamp(r, c, width)
            if rng.uniform() < 0.03 and len(walkers) < 40:
                walkers.append((r, c, angle + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.1),
                                max(1, width - 1), int(steps * 0.6)))
    return vessels


@pytest.mark.parametrize("size", [16, 24, 32, 48, 64, 96])
def test_synthetic_maps_match_the_per_step_walker(monkeypatch, size):
    # the walker draws the same numbers in the same order, and stamps are a union, so
    # recording the centres and stamping once per width gives the same map
    got = [data.generate_synthetic_raw(size, seed) for seed in range(10)]
    monkeypatch.setattr(data, "_draw_vessels", draw_vessels_per_step)
    want = [data.generate_synthetic_raw(size, seed) for seed in range(10)]
    for (img, y, m), (img_w, y_w, m_w) in zip(got, want):
        assert img.pixels.tobytes() == img_w.pixels.tobytes()
        assert y.tobytes() == y_w.tobytes() and m.tobytes() == m_w.tobytes()


def test_synthetic_vessel_fraction_band():
    fracs = [
        data.generate_synthetic_sample(64, seed).y[
            data.generate_synthetic_sample(64, seed).m == 1
        ].mean()
        for seed in range(100)
    ]
    assert min(fracs) >= 0.02 and max(fracs) <= 0.25


# ---------------------------------------------------------------------------
# dataset directory loading


def write_dataset(root, n=2, size=16, with_masks=True):
    (root / "images").mkdir(parents=True)
    (root / "labels").mkdir()
    if with_masks:
        (root / "masks").mkdir()
    rng = np.random.default_rng(0)
    for i in range(n):
        stem = f"img{i:02d}"
        px = rng.integers(30, 256, (size, size, 3)).astype(np.uint8)
        data.write_image(Image(pixels=px, maxval=255), root / "images" / f"{stem}.ppm")
        lbl = (rng.uniform(size=(size, size, 1)) > 0.8).astype(np.uint8) * 255
        data.write_image(Image(pixels=lbl, maxval=255), root / "labels" / f"{stem}.pgm")
        if with_masks:
            mk = np.full((size, size, 1), 255, dtype=np.uint8)
            data.write_image(Image(pixels=mk, maxval=255), root / "masks" / f"{stem}.pgm")


def test_load_dataset_reads_no_masks(tmp_path):
    # a training record is (id, x, y): masks/ only restricts eval, so it changes nothing here
    plain, masked = tmp_path / "plain", tmp_path / "masked"
    write_dataset(plain, n=2, with_masks=False)
    write_dataset(masked, n=2)
    got = [data.load_dataset(root, "custom") for root in (plain, masked)]
    for a, b in zip(*got):
        assert [f.name for f in fields(a)] == [f.name for f in fields(b)] == ["id", "x", "y"]
        assert a.id == b.id and a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()
    s = got[0][0]
    assert [t.id for t in got[0]] == ["img00", "img01"]
    assert s.x.shape == (3, 16, 16) and s.x.dtype == np.float32
    assert set(np.unique(s.y)) <= {0, 1}


def test_load_dataset_unmatched_basenames(tmp_path):
    write_dataset(tmp_path, n=2)
    (tmp_path / "labels" / "img01.pgm").unlink()
    with pytest.raises(data.DataError) as e:
        data.load_dataset(tmp_path, "custom")
    assert "img01" in str(e.value)
