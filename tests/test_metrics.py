import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vesselseg import metrics
from vesselseg.metrics import ScoredPixels


# ---------------------------------------------------------------------------
# oracles


def mann_whitney_auc(scores, labels):
    """Tie-corrected pairwise comparison statistic, O(P*N)."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def pr_auc_bruteforce(scores, labels):
    """Per-threshold sweep with direct counting, trapezoid over recall."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    p = int((labels == 1).sum())
    pts = []
    for t in sorted(set(scores.tolist()), reverse=True):
        sel = scores >= t
        tp = int((labels[sel] == 1).sum())
        fp = int((labels[sel] == 0).sum())
        pts.append((tp / p, tp / (tp + fp)))
    area = 0.0
    prev_r, prev_p = 0.0, pts[0][1]
    for r, q in pts:
        area += (r - prev_r) * (q + prev_p) / 2.0
        prev_r, prev_p = r, q
    return area


def otsu_bruteforce(scores):
    """Exhaustive 255-boundary search re-summing the histogram per split."""
    counts = metrics._otsu_histogram(scores)
    occupied = np.nonzero(counts)[0]
    if len(occupied) == 1:
        return float((occupied[0] + 1) / 256)
    best_k, best_var = None, -1.0
    for k in range(1, 256):
        w0 = float(sum(int(c) for c in counts[:k]))
        w1 = float(sum(int(c) for c in counts[k:]))
        if w0 == 0.0 or w1 == 0.0:
            continue
        s0 = float(sum(i * int(c) for i, c in enumerate(counts[:k])))
        s1 = float(sum(i * int(c) for i, c in enumerate(counts[k:], start=k)))
        mu_diff = s0 / w0 - s1 / w1
        var = w0 * w1 * mu_diff * mu_diff
        if var > best_var:
            best_var, best_k = var, k
    return float(best_k / 256)


def group_counts_argsort(sp):
    """Stable descending argsort, then a cumulative sum at each run's end."""
    order = np.argsort(-sp.scores, kind="stable")
    s = sp.scores[order]
    pos = sp.labels[order].astype(np.int64)
    boundaries = np.nonzero(np.diff(s))[0]
    ends = np.append(boundaries, len(s) - 1)
    cum_tp = np.cumsum(pos)[ends]
    cum_fp = (ends + 1) - cum_tp
    return s[ends], cum_tp, cum_fp


def curves_argsort(sp):
    """ROC and PR points and areas built point by point from the argsort grouping."""
    thresholds, cum_tp, cum_fp = group_counts_argsort(sp)
    p = int(np.sum(sp.labels == 1))
    n = int(np.sum(sp.labels == 0))
    fpr, tpr = cum_fp / n, cum_tp / p
    roc_area = float(np.trapezoid(np.concatenate([[0.0], tpr]), np.concatenate([[0.0], fpr])))
    roc_points = [[float("inf"), 0.0, 0.0]]
    roc_points += [[float(t), float(x), float(y)] for t, x, y in zip(thresholds, fpr, tpr)]
    roc_points.sort(key=lambda q: q[0])
    recall, precision = cum_tp / p, cum_tp / (cum_tp + cum_fp)
    pr_area = float(
        np.trapezoid(np.concatenate([[precision[0]], precision]), np.concatenate([[0.0], recall]))
    )
    pr_points = [[float("inf"), 0.0, float(precision[0])]]
    pr_points += [[float(t), float(r), float(q)] for t, r, q in zip(thresholds, recall, precision)]
    pr_points.sort(key=lambda q: q[0])
    return roc_points, roc_area, pr_points, pr_area


# ---------------------------------------------------------------------------
# roc


def test_roc_perfect_separation():
    sp = ScoredPixels([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    _, auc = metrics.roc_auc(sp)
    assert auc == pytest.approx(1.0)


def test_roc_all_scores_identical_is_chance():
    sp = ScoredPixels([0.5] * 10, [1, 0] * 5)
    _, auc = metrics.roc_auc(sp)
    assert auc == pytest.approx(0.5)


def test_roc_matches_mann_whitney_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = 200
        scores = np.round(rng.uniform(0, 1, n), 2)  # force ties
        labels = (rng.uniform(0, 1, n) > 0.6).astype(np.uint8)
        if labels.sum() in (0, n):
            continue
        _, auc = metrics.roc_auc(ScoredPixels(scores, labels))
        assert auc == pytest.approx(mann_whitney_auc(scores, labels), abs=1e-9)


def test_roc_rejects_single_class():
    with pytest.raises(ValueError):
        metrics.roc_auc(ScoredPixels([0.5, 0.6], [1, 1]))


@pytest.mark.parametrize(
    "labels,message",
    [
        ([1, 1], "ROC needs both classes; got 2 positives, 0 negatives"),
        ([0, 0, 0], "ROC needs both classes; got 0 positives, 3 negatives"),
        ([], "ROC needs both classes; got 0 positives, 0 negatives"),
    ],
)
def test_one_class_messages_pinned(labels, message):
    scores = np.linspace(0.1, 0.9, len(labels))
    with pytest.raises(ValueError) as roc:
        metrics.roc_auc(ScoredPixels(scores, np.array(labels, np.uint8)))
    assert str(roc.value) == message
    if not any(labels):
        with pytest.raises(ValueError) as pr:
            metrics.pr_auc(ScoredPixels(scores, np.array(labels, np.uint8)))
        assert str(pr.value) == "PR curve needs at least one positive label"


def test_roc_invariant_under_increasing_transform():
    rng = np.random.default_rng(1)
    scores = rng.uniform(0.01, 0.99, 100)
    labels = (rng.uniform(0, 1, 100) > 0.5).astype(np.uint8)
    _, a1 = metrics.roc_auc(ScoredPixels(scores, labels))
    _, a2 = metrics.roc_auc(ScoredPixels(scores**3, labels))
    assert a1 == pytest.approx(a2, abs=1e-12)


def test_roc_label_flip_complement():
    rng = np.random.default_rng(2)
    scores = rng.uniform(0, 1, 150)
    labels = (rng.uniform(0, 1, 150) > 0.4).astype(np.uint8)
    _, a = metrics.roc_auc(ScoredPixels(scores, labels))
    _, b = metrics.roc_auc(ScoredPixels(scores, 1 - labels))
    assert a + b == pytest.approx(1.0, abs=1e-9)


def test_roc_curve_monotone_in_threshold():
    rng = np.random.default_rng(3)
    scores = np.round(rng.uniform(0, 1, 80), 1)
    labels = (rng.uniform(0, 1, 80) > 0.5).astype(np.uint8)
    curve, _ = metrics.roc_auc(ScoredPixels(scores, labels))
    ts = [p[0] for p in curve.points]
    assert ts == sorted(ts)
    xs = [p[1] for p in curve.points]
    ys = [p[2] for p in curve.points]
    assert all(a >= b for a, b in zip(xs, xs[1:]))
    assert all(a >= b for a, b in zip(ys, ys[1:]))


# ---------------------------------------------------------------------------
# grouping against the argsort oracle


def assert_matches_argsort(scores, labels):
    sp = ScoredPixels(scores, labels)
    grouped = metrics._group_counts(sp)
    for got, want in zip(grouped, group_counts_argsort(sp)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    roc_points, roc_area, pr_points, pr_area = curves_argsort(sp)
    roc_curve, area = metrics.roc_auc(sp)
    assert roc_curve.points.tolist() == roc_points
    assert area == roc_curve.auc == roc_area
    pr_curve, area = metrics.pr_auc(sp)
    assert pr_curve.points.tolist() == pr_points
    assert area == pr_curve.auc == pr_area


def tie_heavy_scores(rng, n, kind):
    u = rng.uniform(0, 1, n)
    if kind == "k/65535":
        return np.round(u * 65535) / 65535
    return np.round(u, kind)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(2, 400),
    st.sampled_from([1, 2, 4, "k/65535"]),
    st.floats(0.05, 0.95),
)
def test_grouping_matches_argsort_oracle(seed, n, kind, vessel_share):
    rng = np.random.default_rng(seed)
    labels = (rng.uniform(0, 1, n) < vessel_share).astype(np.uint8)
    labels[0], labels[-1] = 1, 0  # both classes, so both curves exist
    assert_matches_argsort(tie_heavy_scores(rng, n, kind), labels)


@pytest.mark.parametrize(
    "scores,labels",
    [
        ([0.5] * 7, [1, 0, 0, 1, 0, 0, 0]),  # a single distinct score
        ([0.3, 0.9, 0.1, 0.3, 0.7], [0, 0, 1, 0, 0]),  # one positive, near the bottom
        ([0.2, 0.9, 0.5, 0.2, 0.9], [0, 1, 0, 0, 0]),  # a positive only at the top score
        ([0.4, 0.8], [1, 0]),  # n = 2, distinct scores
        ([0.6, 0.6], [0, 1]),  # n = 2, one tied score
    ],
)
def test_grouping_matches_argsort_oracle_edge_cases(scores, labels):
    assert_matches_argsort(scores, labels)


@pytest.mark.parametrize("chunk", [1, 7, 999, 1000, 1001])
def test_grouping_in_chunks_matches_one_chunk(monkeypatch, chunk):
    # counting fixed chunks of levels and adding the counts changes no value
    # or dtype, for level tables and for float scores
    rng = np.random.default_rng(41)
    levels = rng.integers(0, 65536, 1000).astype(np.uint16)
    levels[:300] = 17  # a level shared across chunk boundaries
    labels = (rng.uniform(0, 1, 1000) < 0.3).astype(np.uint8)
    scores = tie_heavy_scores(rng, 1000, 2)
    whole = [
        metrics._group_counts(ScoredPixels(levels, labels)),
        metrics._group_counts(ScoredPixels(scores, labels)),
    ]
    monkeypatch.setattr(metrics, "_COUNT_CHUNK", chunk)
    chunked = [
        metrics._group_counts(ScoredPixels(levels, labels)),
        metrics._group_counts(ScoredPixels(scores, labels)),
    ]
    for got, want in zip(chunked, whole):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert_matches_argsort(scores, labels)


@pytest.mark.parametrize("n_levels", [1, 5, 300, None])
def test_uint16_scores_are_levels_scoring_level_over_65535(n_levels):
    # a uint16 score k is the float score LEVELS[k]: same grouped counts, curves and areas
    rng = np.random.default_rng(43)
    pool = rng.integers(0, 65536, n_levels) if n_levels else np.arange(65536)
    levels = rng.choice(pool, 2000).astype(np.uint16)
    labels = (rng.uniform(0, 1, 2000) < 0.3).astype(np.uint8)
    labels[:2] = (0, 1)
    got, want = ScoredPixels(levels, labels), ScoredPixels(metrics.LEVELS[levels], labels)
    assert got.scores is levels and want.scores.dtype == np.float64
    for a, b in zip(got.grouped, want.grouped):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    for fn in (metrics.roc_auc, metrics.pr_auc):
        (a, a_auc), (b, b_auc) = fn(got), fn(want)
        assert a.points.tolist() == b.points.tolist() and a.auc == b.auc == a_auc == b_auc


def test_grouping_makes_no_intp_copy_of_all_levels():
    n = 3_000_000
    levels = np.random.default_rng(42).integers(0, 65536, n).astype(np.uint16)
    labels = (levels % 8 == 0).astype(np.uint8)
    sp = ScoredPixels(levels, labels)
    tracemalloc.start()
    try:
        metrics._group_counts(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * np.dtype(np.intp).itemsize / 2, peak


def test_roc_and_pr_share_one_grouping(monkeypatch):
    calls = []
    original = metrics._group_counts

    def counting(sp):
        calls.append(sp)
        return original(sp)

    monkeypatch.setattr(metrics, "_group_counts", counting)
    sp = ScoredPixels([0.1, 0.4, 0.4, 0.9], [0, 1, 0, 1])
    metrics.roc_auc(sp)
    metrics.pr_auc(sp)
    assert len(calls) == 1 and calls[0] is sp


# ---------------------------------------------------------------------------
# input checks


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scored_pixels_rejects_non_finite_score(bad):
    with pytest.raises(ValueError, match="finite"):
        ScoredPixels([0.2, bad, 0.7], [0, 1, 1])


@pytest.mark.parametrize(
    "labels", [[0, 2, 1], [0, 1, -1], [0.5, 1, 0], np.array([0, 2, 1], np.uint8)]
)
def test_scored_pixels_rejects_labels_other_than_0_1(labels):
    with pytest.raises(ValueError, match="0 or 1"):
        ScoredPixels([0.2, 0.5, 0.7], labels)


def test_scored_pixels_checks_unsigned_labels_without_a_full_size_copy():
    n = 3_000_000
    levels = np.random.default_rng(43).integers(0, 65536, n).astype(np.uint16)
    labels = (levels % 8 == 0).astype(np.uint8)
    tracemalloc.start()
    try:
        ScoredPixels(levels, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n / 2, peak  # one boolean temporary of the labels is n bytes


def test_scored_pixels_checks_float_scores_without_a_full_size_copy():
    n = 3_000_000
    scores = np.random.default_rng(44).uniform(size=n)
    labels = (scores > 0.9).astype(np.uint8)
    tracemalloc.start()
    try:
        ScoredPixels(scores, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n / 2, peak  # a boolean temporary of the scores is n bytes


def test_scored_pixels_accepts_bool_labels():
    scores = [0.2, 0.5, 0.5, 0.7]
    as_bool = ScoredPixels(scores, np.array([False, True, False, True]))
    as_int = ScoredPixels(scores, np.array([0, 1, 0, 1], np.uint8))
    for curve in (metrics.roc_auc, metrics.pr_auc):
        a, b = curve(as_bool)[0], curve(as_int)[0]
        assert a.points.tolist() == b.points.tolist() and a.auc == b.auc


# ---------------------------------------------------------------------------
# pr


def test_pr_perfect_separation():
    sp = ScoredPixels([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    _, auc = metrics.pr_auc(sp)
    assert auc == pytest.approx(1.0)


def test_pr_constant_scores_give_positive_fraction():
    sp = ScoredPixels([0.7] * 10, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    _, auc = metrics.pr_auc(sp)
    assert auc == pytest.approx(0.3)


def test_pr_matches_bruteforce_sweep():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = 60
        scores = np.round(rng.uniform(0, 1, n), 2)
        labels = (rng.uniform(0, 1, n) > 0.5).astype(np.uint8)
        if labels.sum() == 0:
            continue
        _, auc = metrics.pr_auc(ScoredPixels(scores, labels))
        assert auc == pytest.approx(pr_auc_bruteforce(scores, labels), abs=1e-9)


def test_pr_rejects_no_positives():
    with pytest.raises(ValueError):
        metrics.pr_auc(ScoredPixels([0.1, 0.2], [0, 0]))


# ---------------------------------------------------------------------------
# otsu


def test_otsu_bimodal():
    scores = np.array([0.2] * 50 + [0.8] * 50)
    thr = metrics.otsu_threshold(scores)
    assert 0.2 < thr <= 0.8
    assert thr == otsu_bruteforce(scores)


def test_otsu_degenerate_single_bin():
    thr = metrics.otsu_threshold(np.full(10, 0.5))
    # 0.5*256 = bin 128; upper boundary is 129/256
    assert thr == pytest.approx(129 / 256)


def test_otsu_matches_exhaustive_sweep():
    rng = np.random.default_rng(5)
    for _ in range(200):
        kind = rng.integers(0, 3)
        n = int(rng.integers(5, 400))
        if kind == 0:
            scores = rng.uniform(0, 1, n)
        elif kind == 1:
            scores = np.clip(
                np.concatenate(
                    [rng.normal(0.3, 0.1, n), rng.normal(0.75, 0.05, max(n // 2, 1))]
                ),
                0,
                1,
            )
        else:
            scores = rng.beta(0.5, 0.5, n)
        assert metrics.otsu_threshold(scores) == otsu_bruteforce(scores)


# ---------------------------------------------------------------------------
# dice


def square(h=8, w=8):
    return np.zeros((h, w), dtype=np.uint8)


def test_dice_identical_masks():
    g = square()
    g[2:5, 2:5] = 1
    assert metrics.dice(g, g, np.ones_like(g)) == 1.0


def test_dice_disjoint_masks():
    a, b = square(), square()
    a[0:2, 0:2] = 1
    b[5:7, 5:7] = 1
    assert metrics.dice(a, b, np.ones_like(a)) == 0.0


def test_dice_half_overlap():
    a, b = np.zeros(300, np.uint8), np.zeros(300, np.uint8)
    a[:100] = 1
    b[50:150] = 1
    m = np.ones(300, np.uint8)
    assert metrics.dice(a.reshape(15, 20), b.reshape(15, 20), m.reshape(15, 20)) == pytest.approx(0.5)


def test_dice_empty_is_one():
    z = square()
    assert metrics.dice(z, z, np.ones_like(z)) == 1.0


def test_dice_symmetric_and_mask_restricted():
    rng = np.random.default_rng(6)
    a = (rng.uniform(size=(10, 10)) > 0.6).astype(np.uint8)
    b = (rng.uniform(size=(10, 10)) > 0.6).astype(np.uint8)
    m = (rng.uniform(size=(10, 10)) > 0.3).astype(np.uint8)
    assert metrics.dice(a, b, m) == metrics.dice(b, a, m)
    a2 = a.copy()
    a2[m == 0] = 1 - a2[m == 0]  # changes outside the mask are invisible
    assert metrics.dice(a, b, m) == metrics.dice(a2, b, m)


def test_dice_shape_mismatch():
    with pytest.raises(ValueError):
        metrics.dice(square(4, 4), square(5, 5), square(4, 4))


# ---------------------------------------------------------------------------
# overlay


def test_overlay_identical_green_black_only():
    g = square()
    g[2:4, 3:6] = 1
    img = metrics.overlay(g, g, np.ones_like(g))
    colors = {tuple(c) for c in img.pixels.reshape(-1, 3)}
    assert colors <= {(0, 0, 0), (0, 255, 0)}


def test_overlay_all_false_positive_blue():
    m = np.ones((4, 4), np.uint8)
    img = metrics.overlay(np.ones((4, 4), np.uint8), np.zeros((4, 4), np.uint8), m)
    assert np.all(img.pixels == np.array([0, 0, 255], dtype=np.uint8))


def test_overlay_counts_reconcile_with_confusion():
    rng = np.random.default_rng(7)
    pred = (rng.uniform(size=(12, 12)) > 0.5).astype(np.uint8)
    gold = (rng.uniform(size=(12, 12)) > 0.5).astype(np.uint8)
    mask = (rng.uniform(size=(12, 12)) > 0.2).astype(np.uint8)
    img = metrics.overlay(pred, gold, mask)
    tp, fp, fn, _ = metrics._confusion(pred, gold, mask)
    px = img.pixels.reshape(-1, 3)
    assert int(np.sum(np.all(px == (0, 255, 0), axis=1))) == tp
    assert int(np.sum(np.all(px == (0, 0, 255), axis=1))) == fp
    assert int(np.sum(np.all(px == (255, 0, 0), axis=1))) == fn


def test_overlay_black_outside_mask():
    mask = np.zeros((4, 4), np.uint8)
    img = metrics.overlay(np.ones((4, 4), np.uint8), np.ones((4, 4), np.uint8), mask)
    assert np.all(img.pixels == 0)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_perfect_prediction():
    gold = (np.random.default_rng(8).uniform(size=(16, 16)) > 0.8).astype(np.uint8)
    probs = gold.astype(np.float64)
    mask = np.ones_like(gold)
    report = metrics.evaluate([probs], [gold], [mask])
    assert report.roc_auc == pytest.approx(1.0)
    assert report.per_image[0].dice == 1.0
    assert report.total.dice == 1.0


def test_evaluate_duplication_invariance():
    rng = np.random.default_rng(9)
    gold = (rng.uniform(size=(16, 16)) > 0.7).astype(np.uint8)
    probs = np.clip(gold * 0.6 + rng.uniform(0, 0.4, gold.shape), 0, 1)
    mask = np.ones_like(gold)
    single = metrics.evaluate([probs], [gold], [mask])
    double = metrics.evaluate([probs, probs], [gold, gold], [mask, mask])
    assert single.roc_auc == pytest.approx(double.roc_auc, abs=1e-12)
    assert single.pr_auc == pytest.approx(double.pr_auc, abs=1e-12)
    assert single.otsu_threshold == double.otsu_threshold


def test_evaluate_report_matches_standalone_ops():
    rng = np.random.default_rng(10)
    maps, golds, masks = [], [], []
    for _ in range(3):
        gold = (rng.uniform(size=(12, 12)) > 0.75).astype(np.uint8)
        golds.append(gold)
        maps.append(np.clip(gold * 0.5 + rng.uniform(0, 0.5, gold.shape), 0, 1))
        masks.append((rng.uniform(size=(12, 12)) > 0.1).astype(np.uint8))
    report = metrics.evaluate(maps, golds, masks)

    pooled_scores = np.concatenate([m[k.astype(bool)] for m, k in zip(maps, masks)])
    pooled_labels = np.concatenate([g[k.astype(bool)] for g, k in zip(golds, masks)])
    sp = ScoredPixels(pooled_scores, pooled_labels)
    assert report.roc_auc == pytest.approx(metrics.roc_auc(sp)[1], abs=1e-12)
    assert report.pr_auc == pytest.approx(metrics.pr_auc(sp)[1], abs=1e-12)
    assert report.otsu_threshold == metrics.otsu_threshold(pooled_scores)
    for ev, pm, gold, mask in zip(report.per_image, maps, golds, masks):
        pred = (pm >= report.otsu_threshold).astype(np.uint8)
        assert ev.dice == metrics.dice(pred, gold, mask)


def test_evaluate_per_image_threshold_mode():
    rng = np.random.default_rng(11)
    golds = [(rng.uniform(size=(8, 8)) > 0.6).astype(np.uint8) for _ in range(2)]
    maps = [np.clip(g * 0.7 + rng.uniform(0, 0.3, g.shape), 0, 1) for g in golds]
    masks = [np.ones((8, 8), np.uint8)] * 2
    report = metrics.evaluate(maps, golds, masks, per_image_threshold=True)
    assert len(report.per_image_thresholds) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 600), st.sampled_from([1, 2, 4, "k/65535"]))
def test_pooled_otsu_histogram_matches_per_pixel_bins(seed, n, kind):
    rng = np.random.default_rng(seed)
    scores = tie_heavy_scores(rng, n, kind)
    scores[: n // 10] *= 1.5  # some scores above 1 land in the top bin
    labels = (rng.uniform(0, 1, n) < 0.3).astype(np.uint8)
    thresholds, cum_tp, cum_fp = ScoredPixels(scores, labels).grouped
    counts = np.diff(cum_tp + cum_fp, prepend=0)
    hist = metrics._otsu_histogram(thresholds, counts)
    want = metrics._otsu_histogram(scores)
    assert hist.dtype == want.dtype == np.int64
    assert np.array_equal(hist, want)
    assert metrics.otsu_threshold(thresholds, counts) == metrics.otsu_threshold(scores)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.booleans())
@example(seed=6495, n_images=1, per_image=False)  # draws a 1x1 first image
def test_evaluate_per_image_counts_match_full_size_confusion(seed, n_images, per_image):
    rng = np.random.default_rng(seed)
    maps, golds, masks = [], [], []
    for i in range(n_images):
        shape = tuple(rng.integers(1, 12, 2))
        if i == 0:  # flat[0] and flat[-1] must be two pixels
            shape = (shape[0], max(shape[1], 2))
        gold = (rng.uniform(size=shape) < 0.3).astype(np.uint8)
        mask = (rng.uniform(size=shape) < 0.8).astype(np.uint8) * np.uint8(rng.choice([1, 255]))
        mask.flat[0] = 1  # every FOV is non-empty
        if i == 0:  # the pooled FOV holds a vessel and a background pixel
            gold.flat[0], gold.flat[-1], mask.flat[-1] = 1, 0, 1
        maps.append(np.round(np.clip(gold * 0.4 + rng.uniform(0, 0.7, shape), 0, 1), 2))
        golds.append(gold)
        masks.append(mask)
    report = metrics.evaluate(maps, golds, masks, per_image_threshold=per_image)
    pooled = np.concatenate([m[k.astype(bool)] for m, k in zip(maps, masks)])
    assert report.otsu_threshold == metrics.otsu_threshold(pooled)
    thresholds = report.per_image_thresholds or [report.otsu_threshold] * n_images
    total = np.zeros(4, np.int64)
    for ev, pm, gold, mask, thr in zip(report.per_image, maps, golds, masks, thresholds):
        if per_image:
            assert thr == metrics.otsu_threshold(pm[mask.astype(bool)])
        pred = (pm >= thr).astype(np.uint8)
        counts = metrics._confusion(pred, gold, mask)
        assert (ev.tp, ev.fp, ev.fn, ev.tn) == counts
        assert all(type(c) is int for c in (ev.tp, ev.fp, ev.fn, ev.tn))
        assert ev.dice == metrics.dice(pred, gold, mask)
        total += counts
    assert (report.total.tp, report.total.fp, report.total.fn, report.total.tn) == tuple(total)


def test_8bit_level_scores_equal_16bit_level_scores():
    k = np.arange(256)
    assert (k * 257 / 65535 == k / 255).all()
    assert np.array_equal(metrics.LEVELS[k * 257], k / 255)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.lists(st.sampled_from([255, 65535]), min_size=1, max_size=4),
    st.sampled_from([3, 40, None]),
    st.booleans(),
)
@example(seed=0, maxvals=[255, 65535], n_levels=None, per_image=True)  # a mix of the two
def test_evaluate_level_maps_match_float_maps(seed, maxvals, n_levels, per_image):
    rng = np.random.default_rng(seed)
    level_maps, float_maps, golds, masks = [], [], [], []
    for i, maxval in enumerate(maxvals):
        shape = (int(rng.integers(1, 12)), int(rng.integers(2 if i == 0 else 1, 12)))
        gold = (rng.uniform(size=shape) < 0.3).astype(np.uint8)
        mask = (rng.uniform(size=shape) < 0.8).astype(np.uint8)
        mask.flat[0] = 1
        if i == 0:  # the pooled FOV holds a vessel and a background pixel
            gold.flat[0], gold.flat[-1], mask.flat[-1] = 1, 0, 1
        # n_levels draws from a few distinct levels, so images tie within and across
        pool = rng.integers(0, maxval + 1, n_levels) if n_levels else np.arange(maxval + 1)
        level = rng.choice(pool, shape)
        level_maps.append((level * (65535 // maxval)).astype(np.uint16))
        float_maps.append(level / maxval)
        golds.append(gold)
        masks.append(mask)
    got = metrics.evaluate(level_maps, golds, masks, per_image_threshold=per_image)
    want = metrics.evaluate(float_maps, golds, masks, per_image_threshold=per_image)
    for a, b in ((got.roc, want.roc), (got.pr, want.pr)):
        assert a.points.tolist() == b.points.tolist() and a.auc == b.auc
    assert (got.roc_auc, got.pr_auc) == (want.roc_auc, want.pr_auc)
    assert got.otsu_threshold == want.otsu_threshold
    assert got.per_image_thresholds == want.per_image_thresholds
    assert got.per_image == want.per_image and got.total == want.total


@pytest.mark.parametrize("dtype", [np.uint16, np.uint8, np.float32, np.float64])
def test_fov_pixels_keeps_levels_or_float64_scores_inside_the_mask(dtype):
    rng = np.random.default_rng(13)
    prob = rng.integers(0, 256, (5, 7)).astype(dtype)
    gold = (rng.uniform(size=(5, 7)) < 0.3).astype(np.uint8)
    mask = (rng.uniform(size=(5, 7)) < 0.6).astype(np.uint8) * np.uint8(255)
    scores, labels = metrics.fov_pixels(prob, gold, mask)
    inside = mask > 0
    assert scores.dtype == dtype
    assert labels.dtype == np.uint8
    assert np.array_equal(scores, prob[inside]) and np.array_equal(labels, gold[inside])
    # pooled, a uint16 map stays levels and any other map becomes float64 scores
    pooled, _ = metrics._pool([(scores, labels)])
    assert pooled.scores.dtype == (np.uint16 if dtype == np.uint16 else np.float64)
    assert np.array_equal(pooled.scores, scores)


@pytest.mark.parametrize("per_image", [False, True])
def test_evaluate_pixels_matches_evaluate_and_empties_its_parts(per_image):
    rng = np.random.default_rng(14)
    maps, golds, masks = [], [], []
    for shape in ((6, 9), (4, 4), (7, 3)):
        gold = (rng.uniform(size=shape) < 0.3).astype(np.uint8)
        gold.flat[:2] = (1, 0)
        mask = (rng.uniform(size=shape) < 0.7).astype(np.uint8)
        mask.flat[:2] = 1
        maps.append(rng.integers(0, 65536, shape).astype(np.uint16))
        golds.append(gold)
        masks.append(mask)
    want = metrics.evaluate(maps, golds, masks, ids=["a", "b", "c"], per_image_threshold=per_image)
    parts = [metrics.fov_pixels(*image) for image in zip(maps, golds, masks)]
    got = metrics.evaluate_pixels(parts, ids=["a", "b", "c"], per_image_threshold=per_image)
    assert parts == []
    for a, b in ((got.roc, want.roc), (got.pr, want.pr)):
        assert a.points.tolist() == b.points.tolist() and a.auc == b.auc
    assert got.otsu_threshold == want.otsu_threshold
    assert got.per_image_thresholds == want.per_image_thresholds
    assert got.per_image == want.per_image and got.total == want.total


def test_evaluate_pixels_rejects_no_parts():
    with pytest.raises(ValueError, match="empty input"):
        metrics.evaluate_pixels([])


def test_evaluate_rejects_maps_mixing_levels_and_floats():
    gold, mask = np.array([[1, 0]], np.uint8), np.ones((1, 2), np.uint8)
    levels, scores = np.array([[65535, 0]], np.uint16), np.array([[1.0, 0.0]])
    with pytest.raises(ValueError, match="mix"):
        metrics.evaluate([levels, scores], [gold] * 2, [mask] * 2)


def test_evaluate_rejects_maps_golds_and_masks_of_different_shapes():
    gold = np.zeros((3, 3), np.uint8)
    with pytest.raises(ValueError, match=r"pred \(2, 2\), gold \(3, 3\), mask \(2, 2\)"):
        metrics.evaluate([np.zeros((2, 2))], [gold], [np.ones((2, 2), np.uint8)])


def test_evaluate_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        metrics.evaluate([], [], [])
    with pytest.raises(ValueError):
        metrics.evaluate([np.zeros((2, 2))], [], [])


@pytest.mark.parametrize("n_ids", [2, 4])
def test_evaluate_rejects_ids_not_one_per_image(n_ids):
    rng = np.random.default_rng(5)
    maps = [rng.uniform(size=(8, 8)) for _ in range(3)]
    golds = [(rng.uniform(size=(8, 8)) > 0.7).astype(np.uint8) for _ in range(3)]
    masks = [np.ones((8, 8), np.uint8)] * 3
    ids = [f"im{i}" for i in range(n_ids)]
    with pytest.raises(ValueError, match=f"{n_ids} ids for 3 images"):
        metrics.evaluate(maps, golds, masks, ids=ids)
    report = metrics.evaluate(maps, golds, masks, ids=["p", "q", "r"])
    assert [e.image_id for e in report.per_image] == ["p", "q", "r"]
    assert report.total.tp + report.total.fp + report.total.fn + report.total.tn == 192


def test_evaluate_refuses_ids_summary_csv_cannot_name():
    maps = [np.array([[0.2, 0.8]])] * 5
    golds, masks = [np.array([[0, 1]], np.uint8)] * 5, [np.ones((1, 2), np.uint8)] * 5
    ids = ["a,b", "ok", "ALL", "c\nd", "e\rf"]
    assert metrics.unnamable_ids(ids) == ["a,b", "ALL", "c\nd", "e\rf"]
    assert metrics.unnamable_ids(["all", "ALL2", 7, "a b"]) == []
    with pytest.raises(ValueError, match="summary.csv cannot name") as refused:
        metrics.evaluate(maps, golds, masks, ids=ids)
    assert all(repr(i) in str(refused.value) for i in metrics.unnamable_ids(ids))
    assert "'ok'" not in str(refused.value)


@pytest.mark.parametrize(
    "weights,match",
    [
        ([0, 0], "sum to 0"),
        ([3, -3], ">= 0"),
        ([5, -1], ">= 0"),
        ([1, np.nan], ">= 0"),
        ([1, np.inf], "below 2"),
        ([2.0**53, 1], "below 2"),
        ([0.5, 0.5], "whole numbers"),  # would truncate to a sum of 0 pixels
        ([1.5, 1.5], "whole numbers"),  # would truncate to one pixel each
    ],
)
def test_otsu_rejects_weights_that_are_not_pixel_counts(weights, match):
    with pytest.raises(ValueError, match=match):
        metrics.otsu_threshold([0.2, 0.7], weights=weights)


def test_otsu_refuses_nan_scores_before_binning_them():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the cast of NaN to a bin warns
        with pytest.raises(ValueError, match="NaN"):
            metrics.otsu_threshold([0.2, float("nan")])
        # infinities still bin at the ends of [0, 1]
        counts = metrics._otsu_histogram([float("-inf"), 0.2, float("inf")])
    assert (counts[0], counts[51], counts[-1], counts.sum()) == (1, 1, 1, 3)


# ---------------------------------------------------------------------------
# csv formats


def test_curve_csv_format(tmp_path):
    sp = ScoredPixels([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    curve, _ = metrics.roc_auc(sp)
    path = tmp_path / "roc.csv"
    metrics.write_curve_csv((curve, path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "threshold,x,y"
    assert len(lines) == len(curve.points) + 1


def test_curve_csv_bytes_match_per_point_fstrings(tmp_path):
    edge = [-0.0, 0.0, 5e-324, 1 / 3, 1e16, 0.1, 1.0, 2.0 / 3.0, 123456789.0, 1e-7]
    points = [(t, x, y) for t, x, y in zip(edge, edge[3:] + edge[:3], edge[7:] + edge[:7])]
    points.append((float("inf"), 0.0, 1 / 3))
    path = tmp_path / "curve.csv"
    metrics.write_curve_csv((metrics.Curve(points=np.array(points), auc=0.5), path))
    lines = ["threshold,x,y"] + [f"{t:.9g},{x:.9g},{y:.9g}" for t, x, y in points]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("rows", [1, 2, 3, 4096])
def test_curves_written_together_match_per_point_fstrings(tmp_path, monkeypatch, rows):
    # ROC and PR share their thresholds and tpr/recall, and are formatted
    # once; a column equal but for the sign of a zero is not shared, and a
    # curve of another length is written in the same passes
    rng = np.random.default_rng(15)
    sp = ScoredPixels(np.round(rng.uniform(size=40), 1), (rng.uniform(size=40) < 0.4).astype(int))
    roc, pr = metrics.roc_auc(sp)[0], metrics.pr_auc(sp)[0]
    signed = roc.points.copy()
    signed[signed == 0.0] = -0.0
    short = metrics.Curve(points=roc.points[3:], auc=0.0)
    curves = [roc, pr, metrics.Curve(points=signed, auc=0.0), short]
    monkeypatch.setattr(metrics, "_CSV_ROWS", rows)
    metrics.write_curve_csv(*[(c, tmp_path / f"curve{i}.csv") for i, c in enumerate(curves)])
    for i, curve in enumerate(curves):
        want = "".join(f"{t:.9g},{x:.9g},{y:.9g}\n" for t, x, y in curve.points.tolist())
        assert (tmp_path / f"curve{i}.csv").read_text() == "threshold,x,y\n" + want
    assert "-0," in (tmp_path / "curve2.csv").read_text()


def assert_csv_writes_percent_g(values):
    """write_curve_csv of a curve whose columns hold values writes "%.9g" of each."""
    values = np.asarray(values, dtype=np.float64)
    points = np.column_stack([values, values[::-1], np.roll(values, 1)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curve.csv"
        metrics.write_curve_csv((metrics.Curve(points=points, auc=0.0), path))
        got = path.read_bytes()
    want = "".join("%.9g,%.9g,%.9g\n" % tuple(p) for p in points.tolist())
    assert got == ("threshold,x,y\n" + want).encode()


def test_csv_writes_percent_g_of_every_level():
    assert_csv_writes_percent_g(metrics.LEVELS)


# values at the edges of the integer-digit range and of the fixed/exponent switch, dyadic
# values that sit exactly half-way at 9 digits (2**-14 is 6.103515625e-05), and values
# the digits do not cover
EDGE_VALUES = np.concatenate([
    [x for b in (1.2e-7, 1e-4, 1e-5) for x in (np.nextafter(b, 0), b, np.nextafter(b, 1))],
    [2.0**-14, 0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, 5e-324, 2.0, -0.25, 1e-7, 1e16],
    [np.nextafter(1.0, 0), 0.9999999995, 0.99999999949999, 9.9999999995e-5, 9.99999999949e-6],
    [j * 2.0**-k for k in range(1, 45) for j in range(1, 64, 2)],
])


def test_csv_writes_percent_g_of_edge_values():
    assert_csv_writes_percent_g(EDGE_VALUES)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**23), st.integers(1, 2**23)), min_size=1, max_size=200))
@example([(1, 3), (1, 7), (1, 1000), (1, 16384), (3, 65536), (1, 2**20), (1, 4425104)])
def test_csv_writes_percent_g_of_rationals(pairs):
    assert_csv_writes_percent_g([a % (b + 1) / b for a, b in pairs])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=200))
def test_csv_writes_percent_g_of_doubles_in_unit_interval(values):
    assert_csv_writes_percent_g(values)


@pytest.mark.parametrize("rows", [5, 4096])
def test_curve_csv_bytes_match_per_point_fstrings_over_the_digit_range(tmp_path, monkeypatch, rows):
    # every column mixes values with integer digits and values formatted one by one
    rng = np.random.default_rng(20)
    n = 3000
    columns = [
        np.concatenate([rng.choice(metrics.LEVELS, n - len(EDGE_VALUES)), EDGE_VALUES]),
        np.concatenate([rng.integers(0, 4425105, n - 40) / 4425104, EDGE_VALUES[:40]]),
        rng.permutation(np.concatenate([10 ** rng.uniform(-8, 0, n - 60), EDGE_VALUES[-60:]])),
    ]
    points = np.column_stack(columns)
    monkeypatch.setattr(metrics, "_CSV_ROWS", rows)
    path = tmp_path / "curve.csv"
    metrics.write_curve_csv((metrics.Curve(points=points, auc=0.5), path))
    want = "".join(f"{t:.9g},{x:.9g},{y:.9g}\n" for t, x, y in points.tolist())
    assert path.read_bytes() == ("threshold,x,y\n" + want).encode()


def test_summary_csv_format(tmp_path):
    gold = (np.random.default_rng(12).uniform(size=(8, 8)) > 0.7).astype(np.uint8)
    report = metrics.evaluate([gold.astype(float)], [gold], [np.ones_like(gold)], ids=["im1"])
    path = tmp_path / "summary.csv"
    metrics.write_summary_csv(report, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "image_id,dice,tp,fp,fn,tn"
    assert lines[1].startswith("im1,")
    assert lines[2].startswith("ALL,")
    assert lines[3] == "roc_auc,pr_auc,otsu_threshold"


# ---------------------------------------------------------------------------
# property checks


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(10, 120))
def test_roc_rank_statistic_property(seed, n):
    rng = np.random.default_rng(seed)
    scores = np.round(rng.uniform(0, 1, n), 1)
    labels = (rng.uniform(0, 1, n) > 0.5).astype(np.uint8)
    if labels.sum() in (0, n):
        return
    _, auc = metrics.roc_auc(ScoredPixels(scores, labels))
    assert auc == pytest.approx(mann_whitney_auc(scores, labels), abs=1e-9)
    assert 0.0 <= auc <= 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 300))
def test_otsu_exhaustive_property(seed, n):
    scores = np.random.default_rng(seed).uniform(0, 1, n)
    assert metrics.otsu_threshold(scores) == otsu_bruteforce(scores)
