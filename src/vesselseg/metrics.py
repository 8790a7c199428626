"""FOV-restricted evaluation: ROC/PR curves, Otsu threshold, dice, overlays.

Curves put a threshold at every distinct score with ties grouped, and
integrate by trapezoid, so the ROC area equals the tie-corrected rank
statistic.  Both curves come from one plain sort of the pooled scores,
grouped once per ``ScoredPixels`` and shared by ROC and PR: each distinct
score's at-or-above counts are binary searches into the sorted scores and
into the sorted positive scores.  The Otsu search runs over the 255
boundaries of a 256-bin histogram with exact integer moments, making the
argmax reproducible against an exhaustive sweep; the pooled histogram bins
the grouped distinct scores weighted by their pixel counts.  ``evaluate``
gathers each image's FOV pixels once and counts each image's tp/fp/fn/tn
from its slice of the pooled pixels.  A curve CSV is written by one
``%``-format of all its values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .data import Image


@dataclass
class ScoredPixels:
    """Index-aligned scores and labels of the pixels inside the FOV.

    Scores must be finite and labels 0/1 (or bool).
    """

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise ValueError(
                f"scores and labels must be equal-length vectors, got "
                f"{self.scores.shape} and {self.labels.shape}"
            )
        if not np.isfinite(self.scores).all():
            raise ValueError("scores must be finite")
        if not ((self.labels == 0) | (self.labels == 1)).all():
            raise ValueError("labels must be 0 or 1")

    @cached_property
    def grouped(self):
        """``_group_counts`` of these pixels, computed on first use."""
        return _group_counts(self)


@dataclass
class Curve:
    """Points as (threshold, x, y) with threshold ascending; plus the area.

    x/y are (fpr, tpr) for ROC and (recall, precision) for PR.
    """

    points: list
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


def _group_counts(sp: ScoredPixels):
    """Cumulative true/false positive counts at each distinct score, descending."""
    s = np.sort(sp.scores)
    pos = np.sort(sp.scores[sp.labels == 1])
    # the last element of each run of equal scores is its distinct value
    thresholds = s[np.append(np.flatnonzero(np.diff(s)), len(s) - 1)]
    at_or_above = len(s) - np.searchsorted(s, thresholds)
    cum_tp = len(pos) - np.searchsorted(pos, thresholds)
    cum_fp = at_or_above - cum_tp
    return thresholds[::-1], cum_tp[::-1], cum_fp[::-1]


def _points(thresholds, x, y, anchor):
    """(threshold, x, y) tuples ascending in threshold, ending at the +inf anchor."""
    # the grouped thresholds are distinct and descending, so reversing sorts them
    return list(zip(thresholds[::-1].tolist(), x[::-1].tolist(), y[::-1].tolist())) + [anchor]


def roc_auc(sp: ScoredPixels):
    """ROC curve and area; needs both classes present."""
    p = int(np.sum(sp.labels == 1))
    n = int(np.sum(sp.labels == 0))
    if p == 0 or n == 0:
        raise ValueError(f"ROC needs both classes; got {p} positives, {n} negatives")
    thresholds, cum_tp, cum_fp = sp.grouped
    tpr = cum_tp / p
    fpr = cum_fp / n
    # trapezoid from the (0,0) anchor through each grouped threshold
    xs = np.concatenate([[0.0], fpr])
    ys = np.concatenate([[0.0], tpr])
    auc = float(np.trapezoid(ys, xs))
    points = _points(thresholds, fpr, tpr, (float("inf"), 0.0, 0.0))
    return Curve(points=points, auc=auc), auc


def pr_auc(sp: ScoredPixels):
    """Precision/recall curve and area; needs at least one positive."""
    p = int(np.sum(sp.labels == 1))
    if p == 0:
        raise ValueError("PR curve needs at least one positive label")
    thresholds, cum_tp, cum_fp = sp.grouped
    recall = cum_tp / p
    precision = cum_tp / (cum_tp + cum_fp)
    # anchor at recall zero with the first point's precision
    xs = np.concatenate([[0.0], recall])
    ys = np.concatenate([[precision[0]], precision])
    auc = float(np.trapezoid(ys, xs))
    points = _points(thresholds, recall, precision, (float("inf"), 0.0, float(precision[0])))
    return Curve(points=points, auc=auc), auc


OTSU_BINS = 256


def _otsu_histogram(scores, weights=None):
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("otsu_threshold: empty scores")
    bins = np.minimum((np.clip(scores, 0.0, 1.0) * OTSU_BINS).astype(np.int64), OTSU_BINS - 1)
    # float64 weight sums stay exact integers below 2**53 pixels
    return np.bincount(bins, weights=weights, minlength=OTSU_BINS).astype(np.int64)


def otsu_threshold(scores, weights=None):
    """Boundary of a 256-bin histogram over [0,1] maximizing between-class variance.

    ``weights`` gives how many pixels hold each score (one each when None).
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


def _confusion(pred, gold, mask):
    if pred.shape != gold.shape or pred.shape != mask.shape:
        raise ValueError(
            f"shape mismatch: pred {pred.shape}, gold {gold.shape}, mask {mask.shape}"
        )
    inside = mask.astype(bool)
    p = pred.astype(bool)[inside]
    g = gold.astype(bool)[inside]
    tp = int(np.sum(p & g))
    fp = int(np.sum(p & ~g))
    fn = int(np.sum(~p & g))
    tn = int(np.sum(~p & ~g))
    return tp, fp, fn, tn


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
    if pred.shape != gold.shape or pred.shape != mask.shape:
        raise ValueError(
            f"shape mismatch: pred {pred.shape}, gold {gold.shape}, mask {mask.shape}"
        )
    inside = mask.astype(bool)
    p = pred.astype(bool) & inside
    g = gold.astype(bool) & inside
    px = np.zeros((*pred.shape, 3), dtype=np.uint8)
    px[p & g] = (0, 255, 0)
    px[p & ~g] = (0, 0, 255)
    px[~p & g] = (255, 0, 0)
    return Image(pixels=px, maxval=255)


def _fov_pixels(prob_maps, golds, masks):
    """Pooled in-FOV scores and 0/1 labels, and each image's [start, end) bounds in them.

    The per-image arrays are freed on return, before the pooled sort.
    """
    scores, labels = [], []
    for pm, gold, mask in zip(prob_maps, golds, masks):
        inside = mask.astype(bool)
        scores.append(np.asarray(pm, dtype=np.float64)[inside])
        labels.append(np.asarray(gold)[inside].astype(np.uint8))
    bounds = np.cumsum([0] + [len(s) for s in scores]).tolist()
    return ScoredPixels(np.concatenate(scores), np.concatenate(labels)), bounds


def evaluate(prob_maps, golds, masks, ids=None, per_image_threshold=False) -> MetricsReport:
    """Pooled-FOV curves and AUCs, one Otsu threshold, per-image dice.

    All FOV pixels across images feed a single ROC/PR computation and a
    single Otsu threshold; per_image_threshold switches to one Otsu cut per
    image instead.
    """
    if not prob_maps:
        raise ValueError("evaluate: empty input")
    if not (len(prob_maps) == len(golds) == len(masks)):
        raise ValueError(
            f"evaluate: length mismatch: {len(prob_maps)} maps, "
            f"{len(golds)} golds, {len(masks)} masks"
        )
    if ids is None:
        ids = [f"image{i:03d}" for i in range(len(prob_maps))]

    pooled, bounds = _fov_pixels(prob_maps, golds, masks)
    roc_curve, roc_area = roc_auc(pooled)
    pr_curve, pr_area = pr_auc(pooled)
    thresholds, cum_tp, cum_fp = pooled.grouped
    pooled_thr = otsu_threshold(thresholds, np.diff(cum_tp + cum_fp, prepend=0))

    per_image = []
    per_thr = [] if per_image_threshold else None
    tot = np.zeros(4, dtype=np.int64)
    for img_id, start, end in zip(ids, bounds[:-1], bounds[1:]):
        scores, labels = pooled.scores[start:end], pooled.labels[start:end]
        thr = otsu_threshold(scores) if per_image_threshold else pooled_thr
        if per_thr is not None:
            per_thr.append(thr)
        pred = scores >= thr
        tp = int(np.count_nonzero(pred & labels))
        fp = int(np.count_nonzero(pred)) - tp
        fn = int(np.count_nonzero(labels)) - tp
        tn = len(scores) - tp - fp - fn
        tot += (tp, fp, fn, tn)
        per_image.append(ImageEval(img_id, _dice(tp, fp, fn), tp, fp, fn, tn))
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


def write_curve_csv(curve: Curve, path):
    # "%.9g" % v is fmt(v) for a float; one format call writes every point
    rows = "%.9g,%.9g,%.9g\n" * len(curve.points) % tuple(chain.from_iterable(curve.points))
    with open(path, "w") as fh:
        fh.write("threshold,x,y\n" + rows)


def write_summary_csv(report: MetricsReport, path):
    lines = ["image_id,dice,tp,fp,fn,tn"]
    for ev in report.per_image + [report.total]:
        lines.append(f"{ev.image_id},{fmt(ev.dice)},{ev.tp},{ev.fp},{ev.fn},{ev.tn}")
    lines.append("roc_auc,pr_auc,otsu_threshold")
    lines.append(f"{fmt(report.roc_auc)},{fmt(report.pr_auc)},{fmt(report.otsu_threshold)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
