"""Image ingestion, normalization, augmentation, FOV masks, splits.

Storage formats are binary netpbm only: P6 pixmaps for color, P5 graymaps
for labels/masks/probability maps, maxval 255 or 65535 (16-bit samples are
big-endian).  A deterministic synthetic pseudo-fundus generator makes the
whole pipeline testable without any external data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage


class DataError(Exception):
    """Unusable input data (bad file, missing directory, empty dataset)."""


class PixmapError(DataError):
    """Malformed P5/P6 file."""


@dataclass
class Image:
    pixels: np.ndarray  # (H, W, C) uint8 or uint16, channel-interleaved
    maxval: int

    def __post_init__(self):
        if self.pixels.ndim != 3 or self.pixels.shape[2] not in (1, 3):
            raise ValueError(f"image pixels must be (H,W,1) or (H,W,3), got {self.pixels.shape}")
        if self.maxval not in (255, 65535):
            raise ValueError(f"maxval must be 255 or 65535, got {self.maxval}")

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]

    @property
    def channels(self):
        return self.pixels.shape[2]


@dataclass
class Sample:
    """One training record: normalized fundus, binary vessel map, FOV mask."""

    id: str
    x: np.ndarray  # float32 (3, H, W), z-scored
    y: np.ndarray  # uint8 (H, W) in {0,1}
    m: np.ndarray  # uint8 (H, W) in {0,1}


@dataclass
class SplitPlan:
    train: list
    test: list


# ---------------------------------------------------------------------------
# netpbm I/O


def _parse_header(buf, path):
    # tokens separated by whitespace; '#' starts a comment running to newline
    pos = 2  # past magic
    tokens = []
    while len(tokens) < 3:
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos : pos + 1] == b"#":
            while pos < len(buf) and buf[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PixmapError(f"{path}: header ended early at offset {pos}")
        tokens.append(buf[start:pos])
    if pos >= len(buf):
        raise PixmapError(f"{path}: missing whitespace after maxval at offset {pos}")
    pos += 1  # exactly one whitespace byte separates header from payload
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise PixmapError(f"{path}: non-numeric header fields {tokens}") from None
    return width, height, maxval, pos


def load_image(path) -> Image:
    """Read a binary P6 (RGB) or P5 (gray) file, 8- or 16-bit."""
    buf = Path(path).read_bytes()
    magic = buf[:2]
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise PixmapError(f"{path}: bad magic {magic!r} at offset 0, expected P5 or P6")
    width, height, maxval, pos = _parse_header(buf, path)
    if width < 1 or height < 1:
        raise PixmapError(f"{path}: bad dimensions {width}x{height}")
    if maxval not in (255, 65535):
        raise PixmapError(f"{path}: unsupported maxval {maxval}, expected 255 or 65535")
    bytes_per = 1 if maxval == 255 else 2
    need = width * height * channels * bytes_per
    payload = buf[pos : pos + need]
    if len(payload) < need:
        raise PixmapError(
            f"{path}: truncated payload at offset {pos + len(payload)}, "
            f"wanted {need} bytes from offset {pos}"
        )
    dtype = ">u2" if bytes_per == 2 else np.uint8
    arr = np.frombuffer(payload, dtype=dtype).reshape(height, width, channels)
    if bytes_per == 2:
        arr = arr.astype(np.uint16)
    else:
        arr = arr.copy()
    return Image(pixels=arr, maxval=maxval)


def write_image(image: Image, path):
    """Write P6 for 3-channel, P5 for 1-channel; lossless round-trip."""
    magic = b"P6" if image.channels == 3 else b"P5"
    header = magic + f"\n{image.width} {image.height}\n{image.maxval}\n".encode()
    if image.maxval == 65535:
        payload = image.pixels.astype(">u2").tobytes()
    else:
        payload = image.pixels.astype(np.uint8).tobytes()
    Path(path).write_bytes(header + payload)


# ---------------------------------------------------------------------------
# normalization


def zscore_normalize(image: Image) -> np.ndarray:
    """Per-channel (p - mean) / population-std as float32 (H, W, C).

    A constant channel maps to all zeros.
    """
    out = np.zeros(image.pixels.shape, dtype=np.float32)
    for c in range(image.channels):
        chan = image.pixels[:, :, c].astype(np.float64)
        std = chan.std()
        if std > 0:
            chan -= chan.mean()
            chan /= std
            out[:, :, c] = chan
    return out


# ---------------------------------------------------------------------------
# augmentation: the dihedral group of quarter turns and a left-right flip


def dihedral_transform(arr, quarter_turns, flip):
    """Apply flip-then-rotation to the trailing two (H, W) axes.

    Rotation is clockwise; pixel (r, c) of an HxW image lands at
    (c, H-1-r) after one quarter turn.
    """
    out = arr
    if flip:
        out = np.flip(out, axis=-1)
    if quarter_turns % 4:
        out = np.rot90(out, k=-(quarter_turns % 4), axes=(-2, -1))
    return np.ascontiguousarray(out)


def augment(sample: Sample) -> list[Sample]:
    """All flip/rotation variants, x, y, m transformed jointly.

    Square samples get the full 8-element group; rectangular ones only the
    4 variants that keep their shape.  The identity variant is the original
    sample itself.
    """
    square = sample.y.shape[0] == sample.y.shape[1]
    turns = (0, 1, 2, 3) if square else (0, 2)
    out = []
    for k in turns:
        for flip in (False, True):
            if k == 0 and not flip:
                out.append(sample)
                continue
            tag = f"r{k * 90}" + ("f" if flip else "")
            out.append(
                Sample(
                    id=f"{sample.id}@{tag}",
                    x=dihedral_transform(sample.x, k, flip),
                    y=dihedral_transform(sample.y, k, flip),
                    m=dihedral_transform(sample.m, k, flip),
                )
            )
    return out


# ---------------------------------------------------------------------------
# FOV mask


DEFAULT_FOV_THRESHOLD = 20.0 / 255.0

_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def _bright_sums(maxval, threshold):
    """For each possible 3-channel sum, whether ``(sum / 3) / maxval``
    reaches the threshold, in the float64 arithmetic of a per-pixel mean."""
    sums = np.arange(3 * maxval + 1, dtype=np.float64)
    return sums / 3 / maxval >= threshold


def generate_fov_mask(fundus: Image, luminance_threshold=DEFAULT_FOV_THRESHOLD) -> np.ndarray:
    """Bright center blob of a fundus photo as a {0,1} mask.

    Mean-channel luminance ``(sum / 3) / maxval`` is thresholded; the
    4-connected component under the center pixel wins (largest component if
    the center is dark), then interior holes are filled.  A hole is a
    4-connected component of everything outside the blob that does not touch
    the frame border, as in ``ndimage.binary_fill_holes`` with the same
    cross structure; one labeling of the outside finds them all.
    """
    if fundus.channels != 3:
        raise ValueError(f"FOV detection needs a 3-channel image, got {fundus.channels}")
    px = fundus.pixels
    # explicit adds: .sum(axis=2) over the 3-long channel axis is about 8x slower
    sums = px[:, :, 0].astype(np.uint32) + px[:, :, 1] + px[:, :, 2]
    bright = _bright_sums(fundus.maxval, luminance_threshold)[sums]
    if not bright.any():
        raise DataError("no blob found: no pixel reaches the luminance threshold")
    labels, n = ndimage.label(bright, structure=_CROSS)
    center = labels[fundus.height // 2, fundus.width // 2]
    if center == 0:
        sizes = ndimage.sum_labels(bright, labels, index=np.arange(1, n + 1))
        center = int(np.argmax(sizes)) + 1
    outside, n = ndimage.label(labels != center, structure=_CROSS)
    # label 0 is the blob; a component reaching the frame border is not a hole
    fill = np.ones(n + 1, dtype=np.uint8)
    fill[outside[[0, -1]]] = 0
    fill[outside[:, [0, -1]]] = 0
    fill[0] = 1
    return fill[outside]


# ---------------------------------------------------------------------------
# dataset splits


def make_split(ids, dataset_kind, seed, test_fraction=0.2) -> SplitPlan:
    """Partition ids into train/test per dataset convention.

    stare: first 10 train, rest test.  drive: published halves by name
    ("_training" / "_test" stems).  custom: seeded shuffle with the given
    test fraction.  Validation is split later from the augmented training
    pool (training.split_train_val).
    """
    if not ids:
        raise ValueError("make_split: empty id list")
    ids = sorted(ids)
    if dataset_kind == "stare":
        if len(ids) <= 10:
            raise ValueError(f"stare split needs more than 10 ids, got {len(ids)}")
        train, test = ids[:10], ids[10:]
    elif dataset_kind == "drive":
        train = [i for i in ids if "_training" in i]
        test = [i for i in ids if "_test" in i]
        stray = [i for i in ids if i not in train and i not in test]
        if stray:
            raise ValueError(f"drive split: ids without _training/_test marker: {stray}")
        if not train:
            raise ValueError("drive split: no training ids")
    elif dataset_kind == "custom":
        n_test = round(len(ids) * test_fraction)
        if n_test >= len(ids) and n_test > 0:
            raise ValueError(f"test fraction {test_fraction} leaves no training ids")
        perm = np.random.default_rng([seed, 20011]).permutation(len(ids))
        test = sorted(ids[i] for i in perm[:n_test])
        train = sorted(ids[i] for i in perm[n_test:])
    else:
        raise ValueError(f"unknown dataset kind {dataset_kind!r}")
    return SplitPlan(train=train, test=test)


# ---------------------------------------------------------------------------
# padding for sizes the generator cannot take directly


def pad_to_multiple(arr, multiple):
    """Zero-pad the trailing two axes up to the next multiple; returns offsets."""
    h, w = arr.shape[-2], arr.shape[-1]
    ph = (-h) % multiple
    pw = (-w) % multiple
    top, left = ph // 2, pw // 2
    if ph == 0 and pw == 0:
        return arr, (0, 0)
    pad = [(0, 0)] * (arr.ndim - 2) + [(top, ph - top), (left, pw - left)]
    return np.pad(arr, pad), (top, left)


def crop_from_padding(arr, offsets, out_hw):
    top, left = offsets
    h, w = out_hw
    return arr[..., top : top + h, left : left + w]


def pad_sample(sample: Sample, multiple) -> Sample:
    x, _ = pad_to_multiple(sample.x, multiple)
    y, _ = pad_to_multiple(sample.y, multiple)
    m, _ = pad_to_multiple(sample.m, multiple)
    return Sample(id=sample.id, x=x, y=y, m=m)


# ---------------------------------------------------------------------------
# directory loading: <root>/images/*.ppm, <root>/labels/*.pgm, [masks/*.pgm]


def binarize(img: Image) -> np.ndarray:
    """First channel as {0,1}: 1 where the value is at least half of maxval."""
    return (img.pixels[:, :, 0] >= (img.maxval + 1) // 2).astype(np.uint8)


def load_dataset(root, fov_threshold=DEFAULT_FOV_THRESHOLD):
    """Load samples matched by basename stem across images/labels[/masks]."""
    root = Path(root)
    img_dir, lbl_dir, mask_dir = root / "images", root / "labels", root / "masks"
    if not img_dir.is_dir() or not lbl_dir.is_dir():
        raise DataError(f"dataset root {root} needs images/ and labels/ directories")
    images = {p.stem: p for p in sorted(img_dir.glob("*.ppm"))}
    labels = {p.stem: p for p in sorted(lbl_dir.glob("*.pgm"))}
    if not images:
        raise DataError(f"no .ppm files under {img_dir}")
    missing = sorted(set(images) ^ set(labels))
    if missing:
        raise DataError(f"unmatched basenames between images/ and labels/: {missing}")
    masks = {p.stem: p for p in sorted(mask_dir.glob("*.pgm"))} if mask_dir.is_dir() else {}

    samples = []
    for stem in sorted(images):
        img = load_image(images[stem])
        if img.channels != 3:
            raise DataError(f"{images[stem]}: fundus images must be 3-channel P6")
        lbl = load_image(labels[stem])
        if lbl.pixels.shape[:2] != img.pixels.shape[:2]:
            raise DataError(f"{stem}: label size differs from image size")
        if stem in masks:
            mimg = load_image(masks[stem])
            if mimg.pixels.shape[:2] != img.pixels.shape[:2]:
                raise DataError(f"{stem}: mask size differs from image size")
            m = binarize(mimg)
        else:
            try:
                m = generate_fov_mask(img, fov_threshold)
            except DataError as exc:
                raise DataError(f"{images[stem]}: {exc}") from exc
        x = zscore_normalize(img).transpose(2, 0, 1)
        samples.append(Sample(id=stem, x=x, y=binarize(lbl), m=m))
    return samples


# ---------------------------------------------------------------------------
# synthetic pseudo-fundus generation


def _stamp_offsets(width):
    r = (width - 1) / 2 + 0.3
    rr = int(np.ceil(r))
    offs = [
        (dr, dc)
        for dr in range(-rr, rr + 1)
        for dc in range(-rr, rr + 1)
        if dr * dr + dc * dc <= r * r
    ]
    return np.array(offs, dtype=np.int64)


_STAMPS = {w: _stamp_offsets(w) for w in (1, 2, 3)}


def _draw_vessels(rng, size, fov, radius):
    vessels = np.zeros((size, size), dtype=bool)
    center = (size - 1) / 2.0

    def stamp(r, c, width):
        offs = _STAMPS[width]
        rows = np.clip(np.round(r + offs[:, 0]).astype(int), 0, size - 1)
        cols = np.clip(np.round(c + offs[:, 1]).astype(int), 0, size - 1)
        keep = fov[rows, cols]
        vessels[rows[keep], cols[keep]] = True

    walkers = []
    for _ in range(3 + size // 48):
        r0 = rng.uniform(0, 0.2 * radius)
        th0 = rng.uniform(0, 2 * np.pi)
        walkers.append(
            (
                center + r0 * np.sin(th0),
                center + r0 * np.cos(th0),
                rng.uniform(0, 2 * np.pi),
                int(rng.integers(2, 4)),
                int(1.1 * radius),
            )
        )
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
                walkers.append(
                    (
                        r,
                        c,
                        angle + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.1),
                        max(1, width - 1),
                        int(steps * 0.6),
                    )
                )
    return vessels


def _box_blur3(arr):
    out = arr.copy()
    for axis in (0, 1):
        out = out + np.roll(out, 1, axis=axis) + np.roll(out, -1, axis=axis)
    return out / 9.0


def generate_synthetic_raw(size, seed):
    """Deterministic pseudo-fundus as (Image, vessel map, FOV mask).

    The gold map and FOV mask are consistent by construction: every vessel
    pixel lies inside the mask.
    """
    rng = np.random.default_rng(seed)
    radius = 0.46 * size
    center = (size - 1) / 2.0
    rr, cc = np.mgrid[0:size, 0:size]
    dist2 = (rr - center) ** 2 + (cc - center) ** 2
    fov = dist2 <= radius * radius

    vessels = _draw_vessels(rng, size, fov, radius)
    # deterministic top-up so every seed lands in a usable density band
    while vessels[fov].mean() < 0.04:
        extra = _draw_vessels(rng, size, fov, radius)
        vessels |= extra

    base = np.array([0.72, 0.44, 0.22])  # reddish fundus tint
    falloff = 1.0 - 0.35 * np.clip(dist2 / (radius * radius), 0.0, 1.0)
    coarse = rng.normal(0.0, 0.05, (max(size // 8, 1),) * 2)
    texture = np.kron(coarse, np.ones((8, 8)))[:size, :size]
    shade = _box_blur3(vessels.astype(np.float64))
    px = np.zeros((size, size, 3))
    for ch in range(3):
        chan = base[ch] * falloff * (1.0 + texture)
        chan = chan * (1.0 - 0.38 * vessels - 0.18 * np.clip(shade - vessels, 0, 1))
        chan = np.where(fov, chan, 0.02)
        px[:, :, ch] = chan + rng.normal(0.0, 0.01, (size, size))
    img = Image(pixels=(np.clip(px, 0, 1) * 255).astype(np.uint8), maxval=255)
    return img, (vessels & fov).astype(np.uint8), fov.astype(np.uint8)


def generate_synthetic_sample(size, seed) -> Sample:
    """Normalized Sample view of :func:`generate_synthetic_raw`."""
    img, y, m = generate_synthetic_raw(size, seed)
    return Sample(
        id=f"synth-{seed}",
        x=zscore_normalize(img).transpose(2, 0, 1),
        y=y,
        m=m,
    )
