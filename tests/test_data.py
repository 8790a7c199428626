import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import ndimage

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


def test_load_truncated_rejected_with_offset(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(data.PixmapError) as e:
        data.load_image(p)
    assert "truncated" in str(e.value) and "offset" in str(e.value)


def test_load_bad_magic_and_maxval(tmp_path):
    p = tmp_path / "b.pgm"
    p.write_bytes(b"P2\n2 2\n255\n" + bytes(4))
    with pytest.raises(data.PixmapError):
        data.load_image(p)
    p.write_bytes(b"P5\n2 2\n100\n" + bytes(4))
    with pytest.raises(data.PixmapError):
        data.load_image(p)


def test_roundtrip_8bit_and_16bit(tmp_path):
    rng = np.random.default_rng(0)
    img8 = Image(pixels=rng.integers(0, 256, (5, 7, 3)).astype(np.uint8), maxval=255)
    p = tmp_path / "x.ppm"
    data.write_image(img8, p)
    back = data.load_image(p)
    np.testing.assert_array_equal(back.pixels, img8.pixels)

    img16 = Image(pixels=rng.integers(0, 65536, (4, 3, 1)).astype(np.uint16), maxval=65535)
    p16 = tmp_path / "y.pgm"
    data.write_image(img16, p16)
    back16 = data.load_image(p16)
    assert back16.maxval == 65535
    np.testing.assert_array_equal(back16.pixels, img16.pixels)


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
        m=np.ones((h, w), dtype=np.uint8),
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
    s = make_sample()
    marked = np.zeros_like(s.y)
    marked[1, 2] = 1
    s = Sample(id="s", x=s.x, y=marked, m=marked.copy())
    for variant in data.augment(s):
        np.testing.assert_array_equal(variant.y, variant.m)
        pos_y = np.argwhere(variant.y == 1)
        assert len(pos_y) == 1


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
    mask = data.generate_fov_mask(img)
    # agreement everywhere except a 1-pixel boundary band
    rr, cc = np.mgrid[0:64, 0:64]
    center = (64 - 1) / 2
    dist = np.sqrt((rr - center) ** 2 + (cc - center) ** 2)
    inner = dist <= 24 - 1.5
    outer = dist >= 24 + 1.5
    assert np.all(mask[inner] == 1)
    assert np.all(mask[outer] == 0)


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


def test_fov_mask_fills_holes_and_is_single_component():
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


def fov_mask_fill_holes(bright):
    """The blob pick and ``binary_fill_holes`` hole fill that one labeling
    of the outside replaced, on a thresholded frame."""
    labels, n = ndimage.label(bright, structure=CROSS)
    center = labels[bright.shape[0] // 2, bright.shape[1] // 2]
    if center == 0:
        sizes = ndimage.sum_labels(bright, labels, index=np.arange(1, n + 1))
        center = int(np.argmax(sizes)) + 1
    return ndimage.binary_fill_holes(labels == center, structure=CROSS).astype(np.uint8)


def assert_fov_mask_matches_fill_holes(bright):
    bright = np.asarray(bright, dtype=bool)
    px = np.repeat(bright[:, :, None] * np.uint8(255), 3, axis=2)
    mask = data.generate_fov_mask(Image(pixels=px, maxval=255))
    assert mask.dtype == np.uint8
    np.testing.assert_array_equal(mask, fov_mask_fill_holes(bright))
    return mask


@settings(max_examples=300, deadline=None)
@given(arrays(np.bool_, array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=14)))
@example(np.ones((1, 9), bool))  # one row
@example(np.array([[1], [0], [1], [1], [0]], bool))  # one column
@example(np.ones((5, 6), bool))  # all bright
def test_fov_hole_fill_matches_binary_fill_holes(bright):
    if not bright.any():
        with pytest.raises(data.DataError):
            data.generate_fov_mask(Image(pixels=np.zeros((*bright.shape, 3), np.uint8), maxval=255))
        return
    assert_fov_mask_matches_fill_holes(bright)


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
def test_fov_hole_fill_edge_cases(rows, filled):
    mask = assert_fov_mask_matches_fill_holes([[c == "1" for c in r] for r in rows])
    np.testing.assert_array_equal(mask, [[int(c) for c in r] for r in filled])


# ---------------------------------------------------------------------------
# splits


def test_make_split_stare_first_ten():
    ids = [f"im{i:04d}" for i in range(1, 21)]
    plan = data.make_split(ids, "stare", seed=0)
    assert plan.train == ids[:10]
    assert plan.test == ids[10:]


def test_make_split_drive_by_name():
    ids = [f"{i:02d}_test" for i in range(1, 21)] + [f"{i}_training" for i in range(21, 41)]
    plan = data.make_split(ids, "drive", seed=0)
    assert all("_training" in i for i in plan.train)
    assert all("_test" in i for i in plan.test)
    assert len(plan.train) == 20 and len(plan.test) == 20


def test_make_split_rejects_small_stare():
    with pytest.raises(ValueError):
        data.make_split(["a", "b"], "stare", seed=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 60), st.integers(0, 1000))
def test_make_split_disjoint_union(n, seed):
    ids = [f"id{i:03d}" for i in range(n)]
    plan = data.make_split(ids, "custom", seed=seed, test_fraction=0.3)
    train, test = set(plan.train), set(plan.test)
    assert train | test == set(ids)
    assert not (train & test)


# ---------------------------------------------------------------------------
# padding


def test_pad_to_multiple_and_crop():
    arr = np.arange(3 * 5 * 6, dtype=np.float32).reshape(3, 5, 6)
    padded, off = data.pad_to_multiple(arr, 4)
    assert padded.shape == (3, 8, 8)
    back = data.crop_from_padding(padded, off, (5, 6))
    np.testing.assert_array_equal(back, arr)
    same, off0 = data.pad_to_multiple(arr, 1)
    assert same.shape == arr.shape and off0 == (0, 0)


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


def test_load_dataset_with_masks(tmp_path):
    write_dataset(tmp_path, n=2)
    samples = data.load_dataset(tmp_path)
    assert [s.id for s in samples] == ["img00", "img01"]
    s = samples[0]
    assert s.x.shape == (3, 16, 16) and s.x.dtype == np.float32
    assert set(np.unique(s.y)) <= {0, 1}
    assert np.all(s.m == 1)


def test_load_dataset_generates_masks_when_missing(tmp_path):
    write_dataset(tmp_path, n=1, with_masks=False)
    samples = data.load_dataset(tmp_path)
    assert samples[0].m.max() == 1


def test_load_dataset_unmatched_basenames(tmp_path):
    write_dataset(tmp_path, n=2)
    (tmp_path / "labels" / "img01.pgm").unlink()
    with pytest.raises(data.DataError) as e:
        data.load_dataset(tmp_path)
    assert "img01" in str(e.value)
