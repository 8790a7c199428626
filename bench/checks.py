"""Output checks. They run in the benchmark's parent process after the
workload process has exited, so they are neither timed nor in its peak RSS.

Each check returns one (ok, message) pair per op; a failed op counts in
``failed`` and against ``ok_frac``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from inputs import read_pnm

# An infer output is round(p * 65535) of a float32 forward. It may differ
# from the float64 forward by half a quantization step (7.6e-6) plus the
# float32 rounding, which was under 1e-7 at DRIVE geometry.
INFER_TOL = 2e-5
ROC_TOL = 1e-8  # summary.csv prints 9 significant digits


# ---------------------------------------------------------------------------
# train-64: one verdict per invocation, applied to each of its rounds


def check_train(out_dir, rounds):
    out_dir = Path(out_dir)
    hist = out_dir / "history.csv"
    ckpt = out_dir / "best.ckpt"
    if not hist.is_file() or not ckpt.is_file() or ckpt.stat().st_size == 0:
        return False, f"{out_dir.parent.name}: best.ckpt or history.csv missing"
    rows = [line.split(",") for line in hist.read_text().strip().splitlines()[1:]]
    if len(rows) != rounds:
        return False, f"{out_dir.parent.name}: history has {len(rows)} rounds, expected {rounds}"
    losses = np.array([[float(v) for v in row[1:]] for row in rows])
    if not np.all(np.isfinite(losses)):
        return False, f"{out_dir.parent.name}: non-finite loss in history.csv"
    seg = losses[:, 2]
    q = max(1, rounds // 4)
    first, last = seg[:q].mean(), seg[-q:].mean()
    if not last < first:
        return False, f"{out_dir.parent.name}: seg_loss did not fall ({first:.4f} -> {last:.4f})"
    return True, f"{out_dir.parent.name}: {rounds} finite rounds, seg_loss {first:.4f} -> {last:.4f}"


# ---------------------------------------------------------------------------
# infer-drive: shape and format, then agreement with a float64 forward


def float64_reference(src_ckpt, photo_path):
    """The checkpoint's generator run in float64 on the z-scored photo."""
    from vesselseg import models, training
    from vesselseg.autograd import Tensor

    g, _ = training.rebuild_models(training.load_checkpoint(src_ckpt))
    for p in g.params.values():
        p.data = p.data.astype(np.float64)
        p.requires_grad, p.grad = False, None
    px = read_pnm(photo_path)[2].astype(np.float64)
    x = ((px - px.mean(axis=(0, 1))) / px.std(axis=(0, 1))).transpose(2, 0, 1)
    h, w = x.shape[1:]
    ph, pw = -h % g.spec.divisor, -w % g.spec.divisor
    top, left = ph // 2, pw // 2
    x = np.pad(x, ((0, 0), (top, ph - top), (left, pw - left)))
    out = models.generator_forward(g, Tensor(x[None])).data[0, 0]
    return out[top : top + h, left : left + w]


def check_infer(outputs, ckpt, photos):
    """outputs: [(output path, photo index)] for every op that returned 0."""
    refs = {}
    verdicts = []
    for path, k in outputs:
        if k not in refs:
            refs[k] = float64_reference(ckpt, photos[k])
        try:
            magic, maxval, q = read_pnm(path)
        except (OSError, ValueError) as exc:
            verdicts.append((False, f"{Path(path).name}: unreadable ({exc})"))
            continue
        shape = refs[k].shape
        if magic != "P5" or maxval != 65535 or q.shape != shape:
            verdicts.append(
                (False, f"{Path(path).name}: {magic} maxval {maxval} {q.shape}, want P5 65535 {shape}")
            )
            continue
        err = float(np.max(np.abs(q / 65535.0 - refs[k])))
        verdicts.append(
            (err <= INFER_TOL, f"{Path(path).name}: max |p - p64| = {err:.2e} (tol {INFER_TOL:g})")
        )
    return verdicts


# ---------------------------------------------------------------------------
# eval-drive20: ROC AUC against Mann-Whitney, ALL row against a direct count


class EvalTruth:
    """Pooled FOV scores and labels of an eval input set, from its files."""

    def __init__(self, inputs_dir):
        d = Path(inputs_dir)
        self.maps = []
        for pred in sorted((d / "preds").glob("*.pgm")):
            q = read_pnm(pred)[2]
            gold = read_pnm(d / "golds" / pred.name)[2] >= 128
            fov = read_pnm(d / "truth" / pred.name)[2] >= 128
            self.maps.append((q, gold, fov))
        self.auc = self._mann_whitney()

    def _mann_whitney(self):
        # U statistic from per-score class counts: every positive beats the
        # negatives scored below it and ties with half of those level with it
        pos = np.zeros(65536, dtype=np.int64)
        neg = np.zeros(65536, dtype=np.int64)
        for q, gold, fov in self.maps:
            pos += np.bincount(q[fov & gold], minlength=65536)
            neg += np.bincount(q[fov & ~gold], minlength=65536)
        below = np.concatenate([[0], np.cumsum(neg)[:-1]])
        u2 = int(np.sum(pos * (2 * below + neg)))  # twice U, exact in integers
        return u2 / (2 * int(pos.sum()) * int(neg.sum()))

    def counts_at(self, thr):
        tp = fp = fn = 0
        for q, gold, fov in self.maps:
            pred = (q.astype(np.float64) / 65535.0 >= thr)[fov]
            g = gold[fov]
            tp += int(np.sum(pred & g))
            fp += int(np.sum(pred & ~g))
            fn += int(np.sum(~pred & g))
        return tp, fp, fn


def check_eval(out_dir, truth):
    out_dir = Path(out_dir)
    try:
        lines = (out_dir / "summary.csv").read_text().strip().splitlines()
        all_row = next(line for line in lines if line.startswith("ALL,")).split(",")
        auc, _, thr = (float(v) for v in lines[-1].split(","))
        tp, fp, fn = (int(v) for v in all_row[2:5])
    except (OSError, StopIteration, ValueError) as exc:
        return False, f"{out_dir.name}: unreadable summary.csv ({exc})"
    for curve in ("roc.csv", "pr.csv"):
        if not (out_dir / curve).is_file():
            return False, f"{out_dir.name}: {curve} missing"
    direct = truth.counts_at(thr)
    gap = abs(auc - truth.auc)
    ok = gap <= ROC_TOL and (tp, fp, fn) == direct and math.isfinite(auc)
    return ok, (
        f"{out_dir.name}: roc_auc {auc:.9g} vs Mann-Whitney {truth.auc:.9g} (gap {gap:.1e}); "
        f"ALL tp/fp/fn {(tp, fp, fn)} vs direct count {direct} at otsu {thr:g}"
    )
