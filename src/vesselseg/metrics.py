"""FOV-restricted evaluation: ROC/PR curves, Otsu threshold, dice, overlays.

A uint16 score is a level: level k scores ``LEVELS[k]``, k/65535, as a
16-bit probability map stores it, and ``ScoredPixels`` reads uint16
scores so.  Curves put a threshold at every distinct score with ties
grouped, and integrate by trapezoid in one ``_curve`` for ROC and PR, so
the ROC area equals the tie-corrected rank statistic.  Scores are grouped
by counting: each score is an entry of an ascending table (``LEVELS``
for uint16 levels, so 16-bit maps sort nothing; the ``np.unique`` of
float scores, each found by ``searchsorted``), and ``np.add.at`` over
fixed chunks counts each entry's pixels and vessel pixels.  ``predicted``
is the one binarizer, a cut on levels.  The Otsu search runs over the 255
boundaries of a 256-bin histogram with exact integer moments, making the
argmax reproducible against an exhaustive sweep.

Evaluation pools counts, not pixels.  ``Tally.add`` adds one image's FOV
pixels (``fov_pixels``) to the pooled pixel and vessel counts of each
entry and keeps of the image only its cut table: its pixel and vessel
counts in all and at or above each cut ``searchsorted(values, j/256)``,
j = 1..256, read from how much the pooled counts at the cuts grew.
Every threshold ``otsu_threshold`` returns is such a j/256: an image's
tp/fp/fn/tn at the threshold applied to it are read from its cut table,
and so is its Otsu histogram, whose bins lie between the cuts; the pooled
histogram is that of the pooled counts at the cuts.  ``Tally.report``
groups the pooled counts into the curves.  ``vesselseg eval`` adds each
image as it is read, so its memory follows neither the frame size nor
the number of images; ``evaluate`` counts uint16 maps the same way, and
float maps against one ``np.unique`` table of all their FOV scores.

``write_curve_csv`` writes several curves in one call: a column they
share bit for bit, as ROC and PR share their thresholds and ROC's tpr is
PR's recall, is formatted once, and rows are formatted a chunk at a time.
A value in [1.2e-7, 1), as every curve value but 0, 1 and the +inf
anchor is while each class has fewer than 8.3M pixels, gets the correctly
rounded digits of ``"%.9g"`` by integer arithmetic on its exact binary
value; its text goes into fixed byte slots with a 0 byte for every
character the format omits, and the 0 bytes are dropped as the chunk is
written.  Any other value is formatted by ``"%.9g"`` itself, so the
files are byte for byte those of the format.
"""

from __future__ import annotations

import re
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .data import Image


# score of each 16-bit level: a uint16 map holds levels on the 65535 scale
LEVELS = np.arange(65536) / 65535


@dataclass
class ScoredPixels:
    """Index-aligned scores and labels of the pixels inside the FOV, checked on construction.

    Scores are uint16 levels, level k scoring ``LEVELS[k]``, or finite floats,
    kept as float64.  Labels are 0/1 (or bool).
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


# scores per counting pass: a pass's label mask, and a float pass's intp entries, stay small
_COUNT_CHUNK = 1 << 18


def _count(counts, scores, labels, values):
    """Add to counts[0] how many pixels score each entry of ``values``, an ascending table
    holding every score, and to counts[1] how many vessel pixels do; uint16 scores are
    levels into the table, and labels are 0/1."""
    for lo in range(0, scores.size, _COUNT_CHUNK):
        entries = scores[lo : lo + _COUNT_CHUNK]
        if entries.dtype != np.uint16:
            entries = np.searchsorted(values, entries)
        # unlike bincount, add.at makes no intp copy of uint16 levels and no table-size result
        np.add.at(counts[0], entries, 1)
        np.add.at(counts[1], entries[labels[lo : lo + _COUNT_CHUNK] == 1], 1)


def _grouped(values, pixels, vessels):
    """Cumulative true/false positive counts at each distinct score, descending."""
    seen = np.flatnonzero(pixels)[::-1]
    cum_tp = np.cumsum(vessels[seen])
    cum_fp = np.cumsum(pixels[seen]) - cum_tp
    return values[seen], cum_tp, cum_fp


def _group_counts(sp: ScoredPixels):
    """``_grouped`` counts of the pixels: uint16 scores by ``LEVELS``, floats by their ``np.unique``."""
    values = LEVELS if sp.scores.dtype == np.uint16 else np.unique(sp.scores)
    counts = np.zeros((2, len(values)), dtype=np.intp)
    _count(counts, sp.scores, sp.labels, values)
    return _grouped(values, *counts)


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


def _roc(thresholds, cum_tp, cum_fp):
    p, n = _class_counts(cum_tp, cum_fp)
    if p == 0 or n == 0:
        raise ValueError(f"ROC needs both classes; got {p} positives, {n} negatives")
    return _curve(thresholds, cum_fp / n, cum_tp / p, 0.0)


def _pr(thresholds, cum_tp, cum_fp):
    p, _ = _class_counts(cum_tp, cum_fp)
    if p == 0:
        raise ValueError("PR curve needs at least one positive label")
    precision = cum_tp / (cum_tp + cum_fp)
    # anchored at recall zero with the first point's precision
    return _curve(thresholds, cum_tp / p, precision, float(precision[0]))


def roc_auc(sp: ScoredPixels):
    """ROC curve and area; needs both classes present."""
    return _roc(*_group_counts(sp))


def pr_auc(sp: ScoredPixels):
    """Precision/recall curve and area; needs at least one positive."""
    return _pr(*_group_counts(sp))


OTSU_BINS = 256


def _otsu_histogram(scores):
    scores = np.asarray(scores, dtype=np.float64)
    if np.isnan(scores).any():
        raise ValueError("otsu_threshold: scores hold NaN")
    bins = np.minimum((np.clip(scores, 0.0, 1.0) * OTSU_BINS).astype(np.int64), OTSU_BINS - 1)
    return np.bincount(bins, minlength=OTSU_BINS)


def _otsu(counts):
    """Boundary of an int64 256-bin histogram over [0,1] maximizing between-class variance.

    Lowest maximizing boundary wins ties; a single occupied bin returns that
    bin's upper boundary.  A histogram of no pixels is refused.
    """
    occupied = np.flatnonzero(counts)
    if len(occupied) == 0:
        raise ValueError("otsu_threshold: no pixels to threshold")
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


def otsu_threshold(scores):
    """``_otsu`` of the scores binned over [0,1]; NaN scores and no scores are refused."""
    return _otsu(_otsu_histogram(scores))


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


def fov_pixels(prob_map, gold, mask) -> ScoredPixels:
    """One image's pixels inside the mask."""
    prob_map, gold, inside = np.asarray(prob_map), np.asarray(gold), np.asarray(mask, dtype=bool)
    _check_shapes(prob_map, gold, inside)
    return ScoredPixels(prob_map[inside], gold[inside])


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
    kinds = {np.asarray(m).dtype == np.uint16 for m in prob_maps}
    if len(kinds) > 1:
        raise ValueError("evaluate: maps mix uint16 levels with float scores")
    images, values = map(fov_pixels, prob_maps, golds, masks), LEVELS
    if kinds == {False}:
        images = list(images)
        values = np.unique(np.concatenate([p.scores for p in images]))
    tally = Tally(values, per_image_threshold)
    for pixels in images:
        tally.add(pixels)
    return tally.report(ids)


def unnamable_ids(ids):
    """The ids a ``summary.csv`` row cannot name: ``ALL``, which names the aggregate row,
    any holding a ',', CR or LF, which would split the row, and any that is not UTF-8 text:
    a lone surrogate, as a file name's undecodable byte reads, encodes to no UTF-8."""
    return [i for i in ids if str(i) == "ALL" or re.search("[,\r\n\ud800-\udfff]", str(i))]


# every threshold ``otsu_threshold`` returns is one of these j/256, j = 1..256
_CUTS = np.arange(1, OTSU_BINS + 1) / OTSU_BINS


def _cut_otsu(cut_table):
    """``otsu_threshold`` of the pixels a cut table counts: ``_otsu`` of its histogram, whose
    bins [j/256, (j+1)/256) lie between the cuts, the top bin taking scores >= 1 too, and the
    bottom one scores < 0."""
    return _otsu(np.append(-np.diff(cut_table[0, :OTSU_BINS]), cut_table[0, OTSU_BINS - 1]))


class Tally:
    """Images reduced to counts as they are added, and the report the counts give.

    ``values`` is an ascending table holding every score added: ``LEVELS`` for
    uint16 levels.  ``counts`` holds the pooled pixel and vessel counts of each
    entry.  Each image keeps its cut table: column j counts its pixels (row 0)
    and vessel pixels (row 1) at or above j/256 for j >= 1, and all of them for j = 0.
    """

    def __init__(self, values=LEVELS, per_image_threshold=False):
        self.values, self.per_image_threshold = values, per_image_threshold
        self.counts = np.zeros((2, len(values)), dtype=np.intp)
        self.images = []
        # ``predicted`` keeps the entries from the cut on; column 0 cuts at the first entry.
        # The table splits into runs of entries that start at a cut: _run_of maps each
        # cut to its run, or past the last run when it lies past the table's end
        cuts = np.concatenate([[0], np.searchsorted(values, _CUTS)])
        self._starts = np.unique(cuts[cuts < len(values)])
        self._run_of = np.searchsorted(self._starts, cuts)
        self._pooled_cuts = np.zeros((2, OTSU_BINS + 1), dtype=np.intp)

    def add(self, pixels: ScoredPixels):
        """Count one image's FOV pixels (``fov_pixels``), whose scores are in ``values``."""
        _count(self.counts, pixels.scores, pixels.labels, self.values)
        # the pooled counts at or above each cut, by runs; this image's are what they grew by
        runs = np.add.reduceat(self.counts, self._starts, axis=1)
        tails = np.zeros((2, len(self._starts) + 1), dtype=np.intp)
        tails[:, :-1] = np.cumsum(runs[:, ::-1], axis=1)[:, ::-1]
        pooled = tails[:, self._run_of]
        self.images.append(pooled - self._pooled_cuts)
        self._pooled_cuts = pooled

    def report(self, ids=None) -> MetricsReport:
        """The report of the images added, ``ids`` naming them in order."""
        if not self.images:
            raise ValueError("evaluate: empty input")
        if ids is None:
            ids = [f"image{i:03d}" for i in range(len(self.images))]
        elif len(ids) != len(self.images):
            raise ValueError(f"evaluate: {len(ids)} ids for {len(self.images)} images")
        refused = unnamable_ids(ids)
        if refused:
            raise ValueError(
                "evaluate: ids summary.csv cannot name (a ',', CR or LF, not UTF-8, or 'ALL'): "
                + ", ".join(map(repr, refused))
            )

        grouped = _grouped(self.values, *self.counts)
        roc_curve, roc_area = _roc(*grouped)
        pr_curve, pr_area = _pr(*grouped)
        pooled_thr = _cut_otsu(self._pooled_cuts)

        per_thr = list(map(_cut_otsu, self.images)) if self.per_image_threshold else None
        per_image, tot = [], np.zeros(4, dtype=np.int64)
        for img_id, cut_table, thr in zip(ids, self.images, per_thr or [pooled_thr] * len(ids)):
            (n, predicted_n), (vessels, tp) = cut_table[:, [0, round(thr * OTSU_BINS)]].tolist()
            counts = (tp, predicted_n - tp, vessels - tp, n - predicted_n - vessels + tp)
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
    # distinct columns by their bits, which tell -0.0 from 0.0 as the format does; each
    # column is compared as an int64 view, not copied
    columns, layouts = [], []
    for curve, _ in curves:
        layout = []
        for column in curve.points.T:
            bits = column.view(np.int64)
            same = (j for j, c in enumerate(columns) if np.array_equal(c.view(np.int64), bits))
            layout.append(next(same, len(columns)))
            if layout[-1] == len(columns):
                columns.append(column)
        layouts.append(layout)
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
