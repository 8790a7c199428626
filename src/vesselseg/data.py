"""Image ingestion, normalization, augmentation, FOV masks, splits.

Storage formats are binary netpbm only: P6 pixmaps for color, P5 graymaps
for labels/masks/probability maps, maxval 255 or 65535 (16-bit samples are
big-endian).  A deterministic synthetic pseudo-fundus generator makes the
whole pipeline testable without any external data.
"""

from __future__ import annotations

import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np


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
    """One training record: normalized fundus and binary vessel map."""

    id: str
    x: np.ndarray  # float32 (3, H, W), z-scored
    y: np.ndarray  # uint8 (H, W) in {0,1}


@dataclass
class SyntheticSample(Sample):
    """A generated record, with the FOV mask it was drawn in, for scoring."""

    m: np.ndarray  # uint8 (H, W) in {0,1}


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
        token = buf[start:pos]
        if not token.isdigit():  # ASCII digits: int() would also take b"+4", b"-0" and b"1_0"
            name = ("width", "height", "maxval")[len(tokens)]
            raise PixmapError(
                f"{path}: {name} {token[:20]!r} at offset {start} is not a decimal number"
            )
        tokens.append(token)
    if pos >= len(buf):
        raise PixmapError(f"{path}: missing whitespace after maxval at offset {pos}")
    pos += 1  # exactly one whitespace byte separates header from payload
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:  # more digits than int() converts
        raise PixmapError(f"{path}: a header field has too many digits") from None
    return width, height, maxval, pos


def read_file(path) -> bytes:
    """The bytes of the file at path.  A FIFO, socket or device, whose read could block, is
    refused unread; a missing path or a directory fails in the read."""
    mode = Path(path).stat().st_mode
    if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
        raise DataError(f"{path} is not a regular file")
    return Path(path).read_bytes()


def load_image(path) -> Image:
    """Read a binary P6 (RGB) or P5 (gray) file, 8- or 16-bit."""
    buf = read_file(path)
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
    """Flip-then-rotation of the trailing two (H, W) axes, as a view of arr.

    Rotation is clockwise; pixel (r, c) of an HxW image lands at
    (c, H-1-r) after one quarter turn.
    """
    out = arr
    if flip:
        out = np.flip(out, axis=-1)
    if quarter_turns % 4:
        out = np.rot90(out, k=-(quarter_turns % 4), axes=(-2, -1))
    return out


def augment(sample: Sample) -> list[Sample]:
    """All flip/rotation variants, x and y transformed jointly, as views of the sample's arrays.

    Square samples get the full 8-element group; rectangular ones only the
    4 variants that keep their shape.  The identity variant is the original
    sample itself.  No variant copies a pixel; ``training.to_batch`` does.
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
                )
            )
    return out


# ---------------------------------------------------------------------------
# FOV mask


DEFAULT_FOV_THRESHOLD = 20.0 / 255.0


def _bright_sums(maxval, threshold):
    """For each possible 3-channel sum, whether ``(sum / 3) / maxval``
    reaches the threshold, in the float64 arithmetic of a per-pixel mean."""
    sums = np.arange(3 * maxval + 1, dtype=np.float64)
    return sums / 3 / maxval >= threshold


def _bright_cut(maxval, threshold):
    """The least 3-channel sum that ``_bright_sums`` marks bright, or
    ``3 * maxval + 1`` when none is; the table is monotone in the sum, so its
    false entries are a prefix."""
    table = _bright_sums(maxval, threshold)
    return len(table) - int(np.count_nonzero(table))


def _components(starts, stops, stride):
    """Each run's 4-connected component, named by the component's first run.

    Runs are half-open ``[start, stop)`` offsets into a row-major frame with
    row stride ``stride``, sorted, none spanning two rows.  The runs that
    touch a run from the row above are those that overlap it once moved
    down a row: one slice ``[lo, hi)`` of the sorted runs.  Each run hooks
    onto ``lo`` and keeps the rest of its slice as links.  Then, as in
    Shiloach and Vishkin's hook-and-shortcut scheme, pointer jumping makes
    every run point at its root, and each link between two roots hooks the
    larger root onto the smaller, until no link joins two roots.  A hook
    only ever points to an earlier run, so a root is its component's first
    run in raster order: the order in which ``ndimage.label`` numbers them.
    """
    n = len(starts)
    lo = np.searchsorted(stops, starts - stride, side="right")
    hi = np.searchsorted(starts, stops - stride, side="left")
    lab = np.where(hi > lo, lo, np.arange(n))
    more = np.maximum(hi - lo - 1, 0)
    below = np.repeat(np.arange(n), more)
    above = np.arange(len(below)) + np.repeat(lo + 1 - (np.cumsum(more) - more), more)
    while True:
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                break
            lab = up
        ra, rb = lab[below], lab[above]
        apart = ra != rb
        if not apart.any():
            return lab
        below, above, ra, rb = below[apart], above[apart], ra[apart], rb[apart]
        np.minimum.at(lab, np.maximum(ra, rb), np.minimum(ra, rb))


def generate_fov_mask(fundus: Image, luminance_threshold=DEFAULT_FOV_THRESHOLD) -> np.ndarray:
    """Bright center blob of a fundus photo as a {0,1} mask.

    Mean-channel luminance ``(sum / 3) / maxval`` is thresholded; the
    4-connected component under the center pixel wins (the largest, first in
    raster order on ties, if the center is dark), then interior holes are
    filled: the result is ``ndimage.binary_fill_holes`` of that component
    with the cross structure.

    The frame is handled as runs of bright pixels along its rows.  Each row
    gets a dark pixel on either side, so one pass over the flattened frame
    finds every run; ``_components`` labels the runs.  The rows' gaps between
    the blob's runs are labeled the same way; a gap component that reaches
    the frame border is outside and every other one is a hole.  The mask is
    painted from the outside runs' bounds in one ``np.repeat``.
    """
    if fundus.channels != 3:
        raise ValueError(f"FOV detection needs a 3-channel image, got {fundus.channels}")
    px = fundus.pixels
    h, w = fundus.height, fundus.width
    stride = w + 2
    # explicit adds: .sum(axis=2) over the 3-long channel axis is about 8x slower
    acc = np.uint16 if px.dtype == np.uint8 else np.uint32  # 3 * 255 fits 16 bits
    sums = px[:, :, 0].astype(acc) + px[:, :, 1] + px[:, :, 2]
    bright = np.zeros((h, stride), dtype=bool)
    np.greater_equal(sums, _bright_cut(fundus.maxval, luminance_threshold), out=bright[:, 1:-1])
    flat = bright.ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    if not len(edges):
        raise DataError("no blob found: no pixel reaches the luminance threshold")
    starts, stops = edges[0::2], edges[1::2]
    lab = _components(starts, stops, stride)

    center = (h // 2) * stride + w // 2 + 1
    at = np.searchsorted(starts, center, side="right") - 1
    if at >= 0 and center < stops[at]:
        blob = lab[at]
    else:
        blob = np.argmax(np.bincount(lab, weights=stops - starts))
    in_blob = lab == blob

    # each row's frame pixels outside the blob's runs, as runs; each concatenation
    # is two sorted halves, which the stable sort merges in linear time
    rows = np.arange(h) * stride
    gap_starts = np.sort(np.concatenate([rows + 1, stops[in_blob]]), kind="stable")
    gap_stops = np.sort(np.concatenate([starts[in_blob], rows + w + 1]), kind="stable")
    nonempty = gap_starts < gap_stops
    gap_starts, gap_stops = gap_starts[nonempty], gap_stops[nonempty]
    gap_lab = _components(gap_starts, gap_stops, stride)
    row = gap_starts // stride
    border = (row == 0) | (row == h - 1) | (gap_starts == row * stride + 1)
    border |= gap_stops == row * stride + w + 1
    reaches = np.zeros(len(gap_starts), dtype=bool)
    reaches[gap_lab[border]] = True
    outside = reaches[gap_lab]

    # frame offsets of the outside runs; the mask alternates 1, 0, 1, ... between them
    shift = 2 * row[outside] + 1
    bounds = np.empty(2 * np.count_nonzero(outside) + 2, dtype=np.int64)
    bounds[0], bounds[-1] = 0, h * w
    bounds[1:-1:2] = gap_starts[outside] - shift
    bounds[2:-1:2] = gap_stops[outside] - shift
    values = np.ones(len(bounds) - 1, dtype=np.uint8)
    values[1::2] = 0
    return np.repeat(values, np.diff(bounds)).reshape(h, w)


# ---------------------------------------------------------------------------
# training stems


def training_stems(stems, dataset_kind) -> list:
    """The sorted stems that train reads, picked by name per dataset convention.

    stare: the first 10 (the rest are the test half).  drive: the published
    "_training" half; every stem must carry "_training" or "_test".  custom:
    every stem.  Held-out images are scored from their own directory with
    infer and eval.  Validation is split later from the training images,
    before they are augmented (training.split_train_val).
    """
    stems = sorted(stems)
    if dataset_kind == "stare":
        if len(stems) <= 10:
            raise ValueError(f"stare split needs more than 10 ids, got {len(stems)}")
        return stems[:10]
    if dataset_kind == "drive":
        stray = [s for s in stems if "_training" not in s and "_test" not in s]
        if stray:
            raise ValueError(f"drive split: ids without _training/_test marker: {stray}")
        train = [s for s in stems if "_training" in s]
        if not train:
            raise ValueError("drive split: no training ids")
        return train
    if dataset_kind == "custom":
        return stems
    raise ValueError(f"unknown dataset kind {dataset_kind!r}")


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


# ---------------------------------------------------------------------------
# directory loading: <root>/images/*.ppm, <root>/labels/*.pgm


def stem_paths(directory, suffix):
    """``{stem: path}`` of the files in directory with this suffix, in name order."""
    d = Path(directory)
    if not d.is_dir():
        raise DataError(f"{directory} is not a readable directory")
    return {p.stem: p for p in sorted(d.iterdir()) if p.suffix == suffix}


def load_photo(path) -> Image:
    """A fundus photo: a 3-channel P6 image."""
    img = load_image(path)
    if img.channels != 3:
        raise DataError(f"{path}: fundus images must be 3-channel P6")
    return img


def load_binary(path) -> np.ndarray:
    """A label or FOV mask: a 1-channel P5 image as a {0,1} map, 1 where the value is at
    least half of maxval."""
    img = load_image(path)
    if img.channels != 1:
        raise DataError(f"{path}: expected 1-channel P5")
    return (img.pixels[:, :, 0] >= (img.maxval + 1) // 2).astype(np.uint8)


def detect_fov(photo: Image, path, threshold) -> np.ndarray:
    """``generate_fov_mask`` of the photo read from path; a failure names the file."""
    try:
        return generate_fov_mask(photo, threshold)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def load_dataset(root, dataset_kind):
    """The training samples of root, matched by basename stem across images/ and labels/.

    The listings are checked over every stem, then ``training_stems`` picks the
    stems to train on by name, and only their photos and labels are read, in
    stem order.
    """
    root = Path(root)
    img_dir = root / "images"
    images = stem_paths(img_dir, ".ppm")
    labels = stem_paths(root / "labels", ".pgm")
    if not images:
        raise DataError(f"no .ppm files under {img_dir}")
    missing = sorted(set(images) ^ set(labels))
    if missing:
        raise DataError(f"unmatched basenames between images/ and labels/: {missing}")
    try:
        stems = training_stems(images, dataset_kind)
    except ValueError as exc:
        raise DataError(f"{root}: cannot be split as dataset={dataset_kind}: {exc}") from exc

    samples = []
    for stem in stems:
        img = load_photo(images[stem])
        y = load_binary(labels[stem])
        if y.shape != img.pixels.shape[:2]:
            raise DataError(f"{stem}: label size differs from image size")
        x = zscore_normalize(img).transpose(2, 0, 1)
        samples.append(Sample(id=stem, x=x, y=y))
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
    """A random-walk vessel tree: each step's centre is recorded under its width, and every
    width's stamps go down in one pass once the walk ends (their union is order-free)."""
    vessels = np.zeros((size, size), dtype=bool)
    center = (size - 1) / 2.0
    centers = {w: [] for w in _STAMPS}

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
            centers[width].append((r, c))
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
    for width, points in centers.items():
        if not points:
            continue
        offs = _STAMPS[width]
        at = np.array(points)
        rows = np.clip(np.round(at[:, :1] + offs[:, 0]).astype(int), 0, size - 1)
        cols = np.clip(np.round(at[:, 1:] + offs[:, 1]).astype(int), 0, size - 1)
        keep = fov[rows, cols]
        vessels[rows[keep], cols[keep]] = True
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


def generate_synthetic_sample(size, seed) -> SyntheticSample:
    """Normalized SyntheticSample view of :func:`generate_synthetic_raw`."""
    img, y, m = generate_synthetic_raw(size, seed)
    return SyntheticSample(
        id=f"synth-{seed}",
        x=zscore_normalize(img).transpose(2, 0, 1),
        y=y,
        m=m,
    )
