"""FOV-restricted evaluation: ROC/PR curves, Otsu threshold, dice, overlays.

A uint16 score is a level: level k scores ``LEVELS[k]``, k/65535, as a
16-bit probability map stores it, and ``ScoredPixels`` reads uint16 scores
so.  Curves put a threshold at every distinct score with ties grouped,
and integrate by trapezoid in one ``_curve`` for ROC and PR, so the ROC
area equals the tie-corrected rank statistic.  Scores are grouped by
counting: each pixel holds a level, an index into an ascending table of
scores (``LEVELS`` for uint16 levels, so 16-bit maps sort nothing; the
``np.unique`` of float scores), and ``bincount`` of the levels and of the
vessel pixels' levels, summed over fixed chunks so that no intp copy holds
all of them, gives every distinct score's pixel and vessel counts, grouped
once per ``ScoredPixels``.  ``predicted`` is the one binarizer, a cut on
levels, and ``_counts`` the one tp/fp/fn/tn count.  The Otsu search runs
over the 255 boundaries of a 256-bin histogram with exact integer moments,
making the argmax reproducible against an exhaustive sweep; the pooled
histogram bins the grouped distinct scores weighted by their pixel counts.

``fov_pixels`` reduces one image to its FOV pixels.  ``evaluate_pixels``
takes those per-image parts, copies them into one pooled allocation and
drops each part as it is copied, then counts each image's tp/fp/fn/tn from
its slice of the pooled levels; ``evaluate`` is ``fov_pixels`` of every
image followed by ``evaluate_pixels``.  ``vesselseg eval`` reduces each
image as soon as it is read, so its memory follows the FOV pixel count,
not the frame size.  ``write_curve_csv`` writes several curves in one
call: a column they share bit for bit, as ROC and PR share their
thresholds and ROC's tpr is PR's recall, is formatted once, and rows are
formatted a chunk at a time.  A value in [1.2e-7, 1), as every curve value
but 0, 1 and the +inf anchor is while each class has fewer than 8.3M
pixels, gets the correctly rounded digits of ``"%.9g"`` by integer
arithmetic on its exact binary value; its text goes into fixed byte slots
with a 0 byte for every character the format omits, and the 0 bytes are
dropped as the chunk is written.  Any other value is formatted by
``"%.9g"`` itself, so the files are byte for byte those of the format.
"""

from __future__ import annotations

import re
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import Image


# score of each 16-bit level: a uint16 map holds levels on the 65535 scale
LEVELS = np.arange(65536) / 65535


@dataclass
class ScoredPixels:
    """Index-aligned scores and labels of the pixels inside the FOV.

    Scores are uint16 levels, level k scoring ``LEVELS[k]``, or finite floats.
    Labels are 0/1 (or bool).
    """

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        self.scores = np.asarray(self.scores)
        if self.scores.dtype != np.uint16:
            self.scores = self.scores.astype(np.float64, copy=False)
            # NaN carries through min and max: no pool-size boolean temporary is needed
            if self.scores.size and not np.isfinite([self.scores.min(), self.scores.max()]).all():
                raise ValueError("scores must be finite")
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise ValueError(
                f"scores and labels must be equal-length vectors, got "
                f"{self.scores.shape} and {self.labels.shape}"
            )
        # unsigned labels are 0/1 when none exceeds 1: no pool-size boolean
        # temporaries, whose placement moved the peak RSS of repeated evals
        if self.labels.dtype.kind in "bu":
            ok = self.labels.size == 0 or self.labels.max() <= 1
        else:
            ok = ((self.labels == 0) | (self.labels == 1)).all()
        if not ok:
            raise ValueError("labels must be 0 or 1")

    @cached_property
    def leveled(self):
        """(values, levels): an ascending table of scores and each pixel's index into it."""
        if self.scores.dtype == np.uint16:
            return LEVELS, self.scores
        values = np.unique(self.scores)
        return values, np.searchsorted(values, self.scores)

    @cached_property
    def grouped(self):
        """``_group_counts`` of these pixels, computed on first use."""
        return _group_counts(self)


@dataclass
class Curve:
    """Points as (n+1, 3) float64 rows of (threshold, x, y), threshold ascending
    and the +inf anchor last; plus the area.

    x/y are (fpr, tpr) for ROC and (recall, precision) for PR.
    """

    points: np.ndarray
    auc: float


@dataclass
class ImageEval:
    image_id: str
    dice: float
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass
class MetricsReport:
    roc: Curve
    pr: Curve
    roc_auc: float
    pr_auc: float
    otsu_threshold: float
    per_image: list
    total: ImageEval
    per_image_thresholds: list | None = None


# levels per bincount call: its intp copy of them stays at 2 MB
_COUNT_CHUNK = 1 << 18


def _group_counts(sp: ScoredPixels):
    """Cumulative true/false positive counts at each distinct score, descending."""
    values, levels = sp.leveled
    pixels = np.zeros(len(values), dtype=np.intp)
    vessels = np.zeros(len(values), dtype=np.intp)
    for lo in range(0, levels.size, _COUNT_CHUNK):
        chunk = levels[lo : lo + _COUNT_CHUNK]
        pixels += np.bincount(chunk, minlength=len(values))
        vessels += np.bincount(chunk[sp.labels[lo : lo + _COUNT_CHUNK] == 1], minlength=len(values))
    seen = np.flatnonzero(pixels)[::-1]
    cum_tp = np.cumsum(vessels[seen])
    cum_fp = np.cumsum(pixels[seen]) - cum_tp
    return values[seen], cum_tp, cum_fp


def _curve(thresholds, x, y, y0):
    """(Curve, area) through the grouped points: the area by trapezoid from (0, y0), the
    points ascending in threshold with the (+inf, 0, y0) anchor last."""
    auc = float(np.trapezoid(np.concatenate([[y0], y]), np.concatenate([[0.0], x])))
    # the grouped thresholds are distinct and descending, so reversing sorts them
    points = np.vstack([np.column_stack([thresholds, x, y])[::-1], (float("inf"), 0.0, y0)])
    return Curve(points=points, auc=auc), auc


def _class_counts(cum_tp, cum_fp):
    """(positives, negatives): the grouped counts at the lowest threshold."""
    return (int(cum_tp[-1]), int(cum_fp[-1])) if cum_tp.size else (0, 0)


def roc_auc(sp: ScoredPixels):
    """ROC curve and area; needs both classes present."""
    thresholds, cum_tp, cum_fp = sp.grouped
    p, n = _class_counts(cum_tp, cum_fp)
    if p == 0 or n == 0:
        raise ValueError(f"ROC needs both classes; got {p} positives, {n} negatives")
    return _curve(thresholds, cum_fp / n, cum_tp / p, 0.0)


def pr_auc(sp: ScoredPixels):
    """Precision/recall curve and area; needs at least one positive."""
    thresholds, cum_tp, cum_fp = sp.grouped
    p, _ = _class_counts(cum_tp, cum_fp)
    if p == 0:
        raise ValueError("PR curve needs at least one positive label")
    precision = cum_tp / (cum_tp + cum_fp)
    # anchored at recall zero with the first point's precision
    return _curve(thresholds, cum_tp / p, precision, float(precision[0]))


OTSU_BINS = 256


def _otsu_histogram(scores, weights=None):
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("otsu_threshold: empty scores")
    if np.isnan(scores).any():
        raise ValueError("otsu_threshold: scores hold NaN")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        # float64 weight sums stay exact integers below 2**53 pixels
        if not (np.all(weights >= 0) and weights.sum() < 2**53):  # false for NaN and inf too
            raise ValueError("otsu_threshold: weights must be >= 0 and sum below 2**53")
        if not np.all(weights == np.floor(weights)):
            raise ValueError("otsu_threshold: weights must be whole numbers of pixels")
    bins = np.minimum((np.clip(scores, 0.0, 1.0) * OTSU_BINS).astype(np.int64), OTSU_BINS - 1)
    counts = np.bincount(bins, weights=weights, minlength=OTSU_BINS).astype(np.int64)
    if not counts.any():
        raise ValueError("otsu_threshold: weights sum to 0 pixels")
    return counts


def otsu_threshold(scores, weights=None):
    """Boundary of a 256-bin histogram over [0,1] maximizing between-class variance.

    ``weights`` gives how many pixels hold each score (one each when None);
    weights that are negative, NaN or fractional, or sum to 0 or to 2**53 or more, are
    refused, as are NaN scores.
    Lowest maximizing boundary wins ties; a single occupied bin returns that
    bin's upper boundary.
    """
    counts = _otsu_histogram(scores, weights)
    occupied = np.nonzero(counts)[0]
    if len(occupied) == 1:
        return float((occupied[0] + 1) / OTSU_BINS)
    # integer cumulants keep the float64 variance expression exactly
    # reproducible against a per-boundary re-summation
    cum_n = np.cumsum(counts).astype(np.float64)
    cum_s = np.cumsum(counts * np.arange(OTSU_BINS, dtype=np.int64)).astype(np.float64)
    total_n, total_s = cum_n[-1], cum_s[-1]
    best_k, best_var = None, -1.0
    for k in range(1, OTSU_BINS):
        w0 = cum_n[k - 1]
        w1 = total_n - w0
        if w0 == 0.0 or w1 == 0.0:
            continue
        s0 = cum_s[k - 1]
        mu_diff = s0 / w0 - (total_s - s0) / w1
        var = w0 * w1 * mu_diff * mu_diff
        if var > best_var:
            best_var, best_k = var, k
    return float(best_k / OTSU_BINS)


def _check_shapes(pred, gold, mask):
    if pred.shape != gold.shape or pred.shape != mask.shape:
        raise ValueError(
            f"shape mismatch: pred {pred.shape}, gold {gold.shape}, mask {mask.shape}"
        )


def _counts(pred, labels):
    """(tp, fp, fn, tn) of boolean predictions against index-aligned 0/1 labels."""
    tp = int(np.count_nonzero(pred & labels))
    fp = int(np.count_nonzero(pred)) - tp
    fn = int(np.count_nonzero(labels)) - tp
    return tp, fp, fn, pred.size - tp - fp - fn


def _confusion(pred, gold, mask):
    _check_shapes(pred, gold, mask)
    inside = mask.astype(bool)
    return _counts(pred.astype(bool)[inside], gold.astype(bool)[inside])


def predicted(levels, values, thr):
    """The binarizer: which pixels score at least thr, given their levels into ``values``,
    an ascending table of scores."""
    # values ascend, so a score reaches thr exactly when its level reaches the cut
    return levels >= int(np.searchsorted(values, thr))


def _dice(tp, fp, fn):
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 1.0
    return 2.0 * tp / denom


def dice(pred, gold, mask):
    """2*|pred&gold| / (|pred|+|gold|) over mask=1 pixels; 1.0 when both empty."""
    tp, fp, fn, _ = _confusion(pred, gold, mask)
    return _dice(tp, fp, fn)


def overlay(pred, gold, mask) -> Image:
    """TP green, FP blue, FN red inside the mask; black elsewhere."""
    _check_shapes(pred, gold, mask)
    inside = mask.astype(bool)
    p = pred.astype(bool) & inside
    g = gold.astype(bool) & inside
    px = np.zeros((*pred.shape, 3), dtype=np.uint8)
    px[p & g] = (0, 255, 0)
    px[p & ~g] = (0, 0, 255)
    px[~p & g] = (255, 0, 0)
    return Image(pixels=px, maxval=255)


def fov_pixels(prob_map, gold, mask):
    """One image's in-FOV pixels as 1-D (scores, labels) in the map's dtype, labels 0/1 uint8."""
    prob_map, gold, inside = np.asarray(prob_map), np.asarray(gold), np.asarray(mask, dtype=bool)
    _check_shapes(prob_map, gold, inside)
    return prob_map[inside], gold[inside].astype(np.uint8)


def _pool(parts):
    """Pooled ``ScoredPixels`` of per-image (scores, labels) parts, and each
    image's [start, end) bounds in them.

    The pool is one allocation; each part is dropped from ``parts`` as soon as
    it is copied, so the parts and the pool are never all alive at once.
    """
    kinds = {scores.dtype == np.uint16 for scores, _ in parts}
    if len(kinds) > 1:
        raise ValueError("evaluate: maps mix uint16 levels with float scores")
    leveled = kinds.pop()
    bounds = np.cumsum([0] + [len(labels) for _, labels in parts]).tolist()
    scores = np.empty(bounds[-1], dtype=np.uint16 if leveled else np.float64)
    labels = np.empty(bounds[-1], dtype=np.uint8)
    for start, end in zip(bounds[:-1], bounds[1:]):
        scores[start:end], labels[start:end] = parts.pop(0)
    return ScoredPixels(scores, labels), bounds


def evaluate(prob_maps, golds, masks, ids=None, per_image_threshold=False) -> MetricsReport:
    """Pooled-FOV curves and AUCs, one Otsu threshold, per-image dice.

    All FOV pixels across images feed a single ROC/PR computation and a
    single Otsu threshold; per_image_threshold switches to one Otsu cut per
    image instead.  Maps hold float scores, or all are uint16 levels whose
    score is ``level / 65535``, as ``vesselseg eval`` loads them.
    """
    if not (len(prob_maps) == len(golds) == len(masks)):
        raise ValueError(
            f"evaluate: length mismatch: {len(prob_maps)} maps, "
            f"{len(golds)} golds, {len(masks)} masks"
        )
    parts = [fov_pixels(*image) for image in zip(prob_maps, golds, masks)]
    return evaluate_pixels(parts, ids, per_image_threshold)


def unnamable_ids(ids):
    """The ids a ``summary.csv`` row cannot name: ``ALL``, which names the aggregate row,
    and any holding a ',', CR or LF, which would split the row."""
    return [i for i in ids if str(i) == "ALL" or re.search("[,\r\n]", str(i))]


def evaluate_pixels(parts, ids=None, per_image_threshold=False) -> MetricsReport:
    """``evaluate`` of images already reduced by ``fov_pixels``.

    ``parts`` holds one (scores, labels) pair per image and is emptied: the
    pooled pixels take its place, so a caller that keeps no other reference
    to the parts holds each FOV pixel once.
    """
    if not parts:
        raise ValueError("evaluate: empty input")
    if ids is None:
        ids = [f"image{i:03d}" for i in range(len(parts))]
    elif len(ids) != len(parts):
        raise ValueError(f"evaluate: {len(ids)} ids for {len(parts)} images")
    refused = unnamable_ids(ids)
    if refused:
        raise ValueError(
            "evaluate: ids summary.csv cannot name (a ',', CR or LF, or 'ALL'): "
            + ", ".join(map(repr, refused))
        )

    pooled, bounds = _pool(parts)
    roc_curve, roc_area = roc_auc(pooled)
    pr_curve, pr_area = pr_auc(pooled)
    thresholds, cum_tp, cum_fp = pooled.grouped
    pooled_thr = otsu_threshold(thresholds, np.diff(cum_tp + cum_fp, prepend=0))

    values, levels = pooled.leveled
    per_image = []
    per_thr = [] if per_image_threshold else None
    tot = np.zeros(4, dtype=np.int64)
    for img_id, start, end in zip(ids, bounds[:-1], bounds[1:]):
        image_levels, labels = levels[start:end], pooled.labels[start:end]
        thr = otsu_threshold(values[image_levels]) if per_image_threshold else pooled_thr
        if per_thr is not None:
            per_thr.append(thr)
        counts = _counts(predicted(image_levels, values, thr), labels)
        tot += counts
        per_image.append(ImageEval(img_id, _dice(*counts[:3]), *counts))
    total = ImageEval("ALL", _dice(*tot[:3]), *map(int, tot))
    return MetricsReport(
        roc=roc_curve,
        pr=pr_curve,
        roc_auc=roc_area,
        pr_auc=pr_area,
        otsu_threshold=pooled_thr,
        per_image=per_image,
        total=total,
        per_image_thresholds=per_thr,
    )


# ---------------------------------------------------------------------------
# CSV emission


def fmt(v):
    """A float at 9 significant digits, enough to round-trip a float32."""
    return f"{v:.9g}"


# rows per formatting pass: one pass's arrays stay near 1 MB
_CSV_ROWS = 1 << 13

# values whose digits come from integer arithmetic: above 1.2e-7 the decimal exponent is at
# least -7, so x * 10**(8 - exponent) needs at most 5**15, and each 26-bit half of a 53-bit
# significand times 5**15 stays below 2**62
_LOW, _HIGH = 1.2e-7, 1.0
_POW5 = 5 ** np.arange(16, dtype=np.uint64)
# a field is four little-endian 4-byte words: "%.9g" of a float64 is at most 16 characters,
# as in "-1.23456789e-308"
_WORD = np.dtype("<u4")


def _words(texts, width):
    """(len(texts), width) words: each text's ASCII, then 0 bytes."""
    text = "".join(t.ljust(4 * width, "\0") for t in texts)
    return np.frombuffer(text.encode("ascii"), dtype=_WORD).reshape(len(texts), width)


# digit triple i at i, and at 1000 + i with its trailing zeros as 0 bytes
_TRIPLES = _words(
    [f"{i:03d}" for i in range(1000)] + [f"{i:03d}".rstrip("0") for i in range(1000)], 1
)[:, 0]
# by E + 7 for E in [-7, 0]: "0." and the leading zeros over word 0 and the first byte of
# word 1 when E >= -4, the exponent's word when E <= -5
_HEAD0, _HEAD1 = _words(["", "", "", "0.000", "0.00", "0.0", "0.", ""], 2).T
_EXPONENTS = _words(["e-07", "e-06", "e-05", "", "", "", "", ""], 1)[:, 0]


def _scaled(m, q, k):
    """(floor(m * 2**q * 10**k), its exact remainder numerator, the denominator's bit count s).

    m < 2**53, k <= 15, and s = -(q + k) is in [26, 62].
    """
    s = (-(q + k)).astype(np.uint64)
    p = _POW5[k]
    hi = (m >> 26) * p  # < 2**27 * 5**15 < 2**62
    lo = (m & ((1 << 26) - 1)) * p
    t = s - 26
    # m * 5**k = hi * 2**26 + lo; splitting hi at bit t keeps the sum below 2**63
    low = ((hi & ((1 << t) - 1)) << 26) + lo
    return (hi >> t) + (low >> s), low & ((1 << s) - 1), s


def _digits(x):
    """(D, E) with D the 9 significant digits of each x in [_LOW, _HIGH), correctly rounded
    half to even from x's exact binary value, and x ~ D * 10**(E - 8)."""
    f, e = np.frexp(x)
    m = (f * 2.0**53).astype(np.uint64)  # x = m * 2**(e - 53), exactly
    q = e.astype(np.int64) - 53
    # log10 is off by at most an ulp, so its floor misses E only next to a power of ten
    exp = np.floor(np.log10(x)).astype(np.int64)
    d, rem, s = _scaled(m, q, 8 - exp)
    miss = np.flatnonzero((d < 10**8) | (d >= 10**9))
    if miss.size:
        exp[miss] += np.where(d[miss] < 10**8, -1, 1)
        d[miss], rem[miss], s[miss] = _scaled(m[miss], q[miss], 8 - exp[miss])
    # half to even: an odd D rounds up at exactly half
    d += rem + (d & 1) > 1 << (s - 1)
    carry = d == 10**9
    d[carry] = 10**8
    return d.astype(np.uint32), exp + carry


def _formatted(column):
    """``fmt`` of each value as a row of four words: the ASCII of "%.9g" % v, with a
    0 byte in every slot the text leaves empty.

    A value in [_LOW, _HIGH) takes its digits d0..d8 from ``_digits``.  With exponent
    E >= -4 its bytes are [0 . z z][z d0 d1 d2][d3 d4 d5 -][d6 d7 d8 -], z a leading
    zero or 0 byte; otherwise [d0 . d1 d2][d3 d4 d5 -][d6 d7 d8 -][e - 0 X].  Trailing
    zero digits, and a point with no digit after it, are 0 bytes.  Any other value, and
    one that rounds up to 1, is formatted by "%.9g" itself.
    """
    inside = (column >= _LOW) & (column < _HIGH)
    d, exp = _digits(np.where(inside, column, 0.5))
    t1, t2 = d // 1000 % 1000, d % 1000
    # a triple's trailing zeros are dropped when every triple after it is zero
    w0 = _TRIPLES[d // 10**6 + 1000 * ((t1 == 0) & (t2 == 0))]
    w1 = _TRIPLES[t1 + 1000 * (t2 == 0)]
    w2 = _TRIPLES[t2 + 1000]
    fixed, row = exp >= -4, exp + 7
    # [d0 d1 d2 -] as [d0 . d1 d2], with no point when d1 and d2 are 0 bytes
    sci0 = (w0 & 0xFF) | (w0 > 0xFF) * _WORD.type(ord(".") << 8) | (w0 & 0xFFFF00) << 8
    out = np.empty((len(column), 4), dtype=_WORD)
    out[:, 0] = np.where(fixed, _HEAD0[row], sci0)
    out[:, 1] = np.where(fixed, _HEAD1[row] | w0 << 8, w1)
    out[:, 2] = np.where(fixed, w1, w2)
    out[:, 3] = np.where(fixed, w2, _EXPONENTS[row])
    other = np.flatnonzero(~inside | (exp == 0))
    if other.size:
        out[other] = _words(["%.9g" % v for v in column[other].tolist()], 4)
    return out


def write_curve_csv(*curves):
    """Write each (curve, path) pair as a ``threshold,x,y`` CSV: byte for byte the
    lines ``f"{t:.9g},{x:.9g},{y:.9g}"`` of its points.

    A column that several curves share bit for bit is formatted once: ROC and
    PR share their thresholds, and ROC's tpr is PR's recall.  Rows go out in
    chunks of ``_CSV_ROWS``.  ``_formatted`` gives a value in [1.2e-7, 1) its
    digits by integer arithmetic and any other value its ``"%.9g"`` text, each
    in 16 fixed byte slots with a 0 byte where the text is shorter; a chunk's
    rows are one array of fields and separators, written with the 0 bytes
    dropped, so no array holds a whole curve.
    """
    # distinct columns by their bytes, which tell -0.0 from 0.0 as the format does
    index = {}
    layouts = [
        [index.setdefault(c.tobytes(), len(index)) for c in curve.points.T] for curve, _ in curves
    ]
    columns = [np.frombuffer(b) for b in index]
    separators = _words([",", ",", "\n"], 1).T
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "wb")) for _, path in curves]
        for fh in files:
            fh.write(b"threshold,x,y\n")
        for lo in range(0, max(map(len, columns), default=0), _CSV_ROWS):
            fields = [_formatted(c[lo : lo + _CSV_ROWS]) for c in columns]
            for fh, layout in zip(files, layouts):
                rows = np.empty((len(fields[layout[0]]), 3, 5), dtype=_WORD)
                for i, j in enumerate(layout):
                    rows[:, i, :4] = fields[j]
                rows[:, :, 4] = separators
                fh.write(rows.tobytes().translate(None, b"\0"))


def write_summary_csv(report: MetricsReport, path):
    """Per-image and ``ALL`` rows, then the AUCs and the pooled Otsu threshold.  A report with
    per-image thresholds adds a ``threshold`` column: each image's, and an empty ``ALL`` field."""
    header, tails = "image_id,dice,tp,fp,fn,tn", [""] * (len(report.per_image) + 1)
    if report.per_image_thresholds is not None:
        header += ",threshold"
        tails = [f",{fmt(t)}" for t in report.per_image_thresholds] + [","]
    lines = [header]
    for ev, tail in zip(report.per_image + [report.total], tails):
        lines.append(f"{ev.image_id},{fmt(ev.dice)},{ev.tp},{ev.fp},{ev.fn},{ev.tn}{tail}")
    lines.append("roc_auc,pr_auc,otsu_threshold")
    lines.append(f"{fmt(report.roc_auc)},{fmt(report.pr_auc)},{fmt(report.otsu_threshold)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
