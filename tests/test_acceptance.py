"""End-to-end acceptance gate: one test per criterion, printed pass/fail.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  The desk-scale learnability runs (criteria 5, 6, 8) take a few
minutes combined; everything else finishes in seconds.
"""

import math

import numpy as np
import pytest

from vesselseg import autograd as ag
from vesselseg import cli, data, metrics, models, training
from vesselseg.autograd import Tensor
from vesselseg.metrics import ScoredPixels
from vesselseg.models import DiscriminatorVariant, GeneratorSpec


def report(criterion, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness, >= 20 random instances per operator


def central_diff(fn, arr, h=1e-3):
    grad = np.zeros_like(arr)
    for idx in np.ndindex(*arr.shape):
        up, dn = arr.copy(), arr.copy()
        up[idx] += h
        dn[idx] -= h
        grad[idx] = (fn(up) - fn(dn)) / (2.0 * h)
    return grad


def grad_gap(build_loss, arrays, wrt):
    arrays = [a.astype(np.float64) for a in arrays]
    tensors = [Tensor(a, requires_grad=(i == wrt)) for i, a in enumerate(arrays)]
    loss = build_loss(*tensors)
    ag.backward(loss)
    analytic = tensors[wrt].grad

    def f(x):
        alt = list(arrays)
        alt[wrt] = x
        return float(build_loss(*[Tensor(a) for a in alt]).data)

    numeric = central_diff(f, arrays[wrt])
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def wsum(t, w):
    return ag.mul(ag.global_mean(ag.mul(t, Tensor(w))), float(t.data.size))


def test_criterion_1_gradients():
    rng = np.random.default_rng(101)
    n_inst = 20
    worst = {}

    def track(name, gap):
        worst[name] = max(worst.get(name, 0.0), gap)

    for i in range(n_inst):
        x = rng.uniform(-1, 1, (1, 2, 4, 4))
        k = rng.uniform(-1, 1, (2, 2, 3, 3))
        b = rng.uniform(-1, 1, 2)
        w = rng.uniform(0.2, 1.0, (1, 2, 4, 4)) * rng.choice([-1, 1], (1, 2, 4, 4))
        track(
            "conv2d",
            grad_gap(lambda xt, kt, bt: wsum(ag.conv2d(xt, kt, bt, 1, 1), w), [x, k, b], i % 3),
        )

        kt_ = rng.uniform(-1, 1, (2, 2, 2, 2))
        wt = rng.uniform(0.2, 1.0, (1, 2, 8, 8)) * rng.choice([-1, 1], (1, 2, 8, 8))
        track(
            "transposed_conv2d",
            grad_gap(
                lambda xt, kk, bt: wsum(ag.transposed_conv2d(xt, kk, bt, 2), wt), [x, kt_, b], i % 3
            ),
        )

        while True:
            xp = rng.uniform(-1, 1, (1, 2, 4, 4))
            win = xp.reshape(1, 2, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
            if np.diff(np.sort(win, axis=1), axis=1).min() >= 5e-3:
                break
        wp = rng.uniform(0.2, 1.0, (1, 2, 2, 2))
        track("maxpool2x2", grad_gap(lambda t: wsum(ag.maxpool2x2(t), wp), [xp], 0))

        xa = rng.uniform(-1, 1, (3, 4))
        xa = np.where(np.abs(xa) < 5e-3, xa + 0.01, xa)
        wa = rng.uniform(0.2, 1.0, (3, 4))
        track("relu", grad_gap(lambda t: wsum(ag.relu(t), wa), [xa], 0))
        track("leaky_relu", grad_gap(lambda t: wsum(ag.leaky_relu(t, 0.2), wa), [xa], 0))
        track("sigmoid", grad_gap(lambda t: wsum(ag.sigmoid(t), wa), [xa], 0))

        ca = rng.uniform(-1, 1, (1, 2, 3, 3))
        cb = rng.uniform(-1, 1, (1, 1, 3, 3))
        wc = rng.uniform(0.2, 1.0, (1, 3, 3, 3))
        track(
            "concat_channels",
            grad_gap(lambda at, bt: wsum(ag.concat_channels(at, bt), wc), [ca, cb], i % 2),
        )
        track("global_mean", grad_gap(lambda t: ag.global_mean(ag.mul(t, t)), [ca], 0))

        real = rng.uniform(0.1, 0.9, (1, 1, 3, 3))
        fake = rng.uniform(0.1, 0.9, (1, 1, 3, 3))
        gold = (rng.uniform(0, 1, (1, 1, 3, 3)) > 0.5).astype(np.float64)
        track("d_loss", grad_gap(lambda t: training.d_loss(t, Tensor(fake)), [real], 0))
        track("d_loss", grad_gap(lambda t: training.d_loss(Tensor(real), t), [fake], 0))
        track("g_gan_loss", grad_gap(lambda t: training.g_gan_loss(t), [fake], 0))
        track("seg_loss", grad_gap(lambda t: training.seg_loss(t, Tensor(gold)), [real], 0))

    bad = {k: v for k, v in worst.items() if v >= 1e-3}
    detail = ", ".join(f"{k}={v:.2e}" for k, v in sorted(worst.items()))
    report(1, not bad, f"max relative FD error per op over {n_inst} instances: {detail}")


# ---------------------------------------------------------------------------
# criterion 2: metric oracles


def mann_whitney(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def otsu_exhaustive(scores):
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
        d = s0 / w0 - s1 / w1
        var = w0 * w1 * d * d
        if var > best_var:
            best_var, best_k = var, k
    return float(best_k / 256)


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(202)

    worst_roc = 0.0
    done = 0
    while done < 1000:
        n = 200
        scores = np.round(rng.uniform(0, 1, n), rng.integers(1, 4))
        labels = (rng.uniform(0, 1, n) > rng.uniform(0.2, 0.8)).astype(np.uint8)
        if labels.sum() in (0, n):
            continue
        _, auc = metrics.roc_auc(ScoredPixels(scores, labels))
        worst_roc = max(worst_roc, abs(auc - mann_whitney(scores, labels)))
        done += 1
    ok_roc = worst_roc < 1e-9

    otsu_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 300))
        kind = rng.integers(0, 3)
        if kind == 0:
            scores = rng.uniform(0, 1, n)
        elif kind == 1:
            scores = np.round(rng.uniform(0, 1, n), 1)
        else:
            scores = np.clip(rng.normal(rng.uniform(0.2, 0.8), 0.1, n), 0, 1)
        if metrics.otsu_threshold(scores) != otsu_exhaustive(scores):
            otsu_ok = False
            break

    dice_ok = True
    for _ in range(200):
        pred = (rng.uniform(size=(9, 9)) > 0.5).astype(np.uint8)
        gold = (rng.uniform(size=(9, 9)) > 0.5).astype(np.uint8)
        mask = (rng.uniform(size=(9, 9)) > 0.2).astype(np.uint8)
        inside = mask.astype(bool)
        tp = int(np.sum((pred & gold)[inside]))
        p_sum = int(pred[inside].sum())
        g_sum = int(gold[inside].sum())
        want = 1.0 if p_sum + g_sum == 0 else 2.0 * tp / (p_sum + g_sum)
        if metrics.dice(pred, gold, mask) != want:
            dice_ok = False
            break

    report(
        2,
        ok_roc and otsu_ok and dice_ok,
        f"roc vs Mann-Whitney max gap {worst_roc:.2e} on 1000 instances; "
        f"otsu exhaustive exact on 1000: {otsu_ok}; dice exact: {dice_ok}",
    )


# ---------------------------------------------------------------------------
# criterion 3: analytic loss values


def test_criterion_3_analytic_losses():
    half = Tensor(np.full((1, 1, 4, 4), 0.5, dtype=np.float32))
    d_val = float(training.d_loss(half, half).data)
    gold = Tensor((np.arange(16).reshape(1, 1, 4, 4) % 2).astype(np.float32))
    s_val = float(training.seg_loss(half, gold).data)
    total = training.g_total_loss(0.7, 0.05, 10.0)
    ok = (
        abs(d_val - 1.3863) < 1e-4
        and abs(s_val - 0.6931) < 1e-4
        and total == pytest.approx(0.7 + 10.0 * 0.05, abs=0)
    )
    report(3, ok, f"d_loss(.5,.5)={d_val:.5f}, seg_loss(.5)={s_val:.5f}, g_total={total}")


# ---------------------------------------------------------------------------
# criterion 4: discriminator shape taxonomy on 64x64


def test_criterion_4_decision_shapes():
    rng = np.random.default_rng(404)
    x = Tensor(rng.uniform(-1, 1, (1, 3, 64, 64)).astype(np.float32))
    y = Tensor(rng.uniform(0, 1, (1, 1, 64, 64)).astype(np.float32))

    def n_dec(variant):
        d = models.build_discriminator(variant, (64, 64), 8, seed=1)
        return models.decisions_per_image(models.discriminator_forward(d, x, y))

    pix = n_dec(DiscriminatorVariant.pixel())
    img = n_dec(DiscriminatorVariant.image())
    p10 = n_dec(DiscriminatorVariant.patch(10))
    p80 = n_dec(models.parse_variant("patch80", (64, 64)))
    ok = pix == 64 * 64 and img == 1 and 1 < p10 < 64 * 64 and 1 < p80 < 64 * 64
    report(4, ok, f"decisions: pixel={pix}, image={img}, patch10={p10}, patch80(capped)={p80}")


# ---------------------------------------------------------------------------
# criterion 5: discriminator learnability (< 5 min)


def test_criterion_5_discriminator_learns():
    samples = [data.generate_synthetic_sample(64, 5000 + i) for i in range(4)]
    g = models.build_generator(GeneratorSpec(scales=2, base_channels=8), seed=50)
    d = models.build_discriminator(DiscriminatorVariant.pixel(), (64, 64), 8, seed=51)
    x_arr, y_arr = training.to_batch(samples)
    x, y = Tensor(x_arr), Tensor(y_arr)
    with ag.no_grad():  # generator stays frozen
        fakes = models.generator_forward(g, x)

    opt = ag.Adam(d.parameters(), lr=1e-2, beta1=0.9, beta2=0.999)
    for _ in range(200):
        loss = training.d_loss(
            models.discriminator_forward(d, x, y),
            models.discriminator_forward(d, x, fakes),
        )
        opt.zero_grad()
        ag.backward(loss)
        opt.step()

    real_dec = models.discriminator_forward(d, x, y).data
    fake_dec = models.discriminator_forward(d, x, fakes).data
    acc = ((real_dec > 0.5).sum() + (fake_dec < 0.5).sum()) / (real_dec.size + fake_dec.size)
    report(5, acc >= 0.95, f"real-vs-fake accuracy {acc:.4f} after 200 steps")


# ---------------------------------------------------------------------------
# criteria 6 + 8: full-objective learnability and end-to-end determinism


def _train_run(tmp_path, tag, disc):
    cfg_path = tmp_path / f"{tag}.cfg"
    cfg_path.write_text(cli.desk_config(disc, rounds=300, seed=7, size=64, count=8))
    out = tmp_path / tag
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0, f"train exited {rc}"
    return out


def _train_set_dice(out_dir):
    cfg = cli.parse_config_text((out_dir / "config.resolved").read_text())
    pool = cli._synthetic_samples(cfg)
    train, _ = training.split_train_val(pool, cli.train_config(cfg))
    ckpt = training.load_checkpoint(out_dir / "best.ckpt")
    g, _ = training.rebuild_models(ckpt)
    maps, golds, masks = [], [], []
    for s in train:
        maps.append(cli.probability_map(g, s.x).astype(np.float64))
        golds.append(s.y)
        masks.append(s.m)
    return metrics.evaluate(maps, golds, masks).total.dice


def _seg_trend(out_dir):
    lines = (out_dir / "history.csv").read_text().strip().splitlines()[1:]
    segs = [float(l.split(",")[3]) for l in lines]
    q = max(1, len(segs) // 4)
    return np.mean(segs[:q]), np.mean(segs[-q:]), all(np.isfinite(segs))


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("desk")
    gan_a = _train_run(tmp, "gan_a", "image")
    gan_b = _train_run(tmp, "gan_b", "image")  # identical config+seed, for criterion 8
    unet = _train_run(tmp, "unet", "none")
    return gan_a, gan_b, unet


def test_criterion_6_full_objective_learns(desk_runs):
    gan_a, _, unet = desk_runs
    dice_gan = _train_set_dice(gan_a)
    dice_unet = _train_set_dice(unet)
    first_q, last_q, finite = _seg_trend(gan_a)
    trend_ok = finite and last_q < first_q
    ok = dice_gan >= 0.90 and dice_unet >= 0.90 and trend_ok
    report(
        6,
        ok,
        f"train-set dice: adversarial={dice_gan:.4f}, unet-only={dice_unet:.4f}; "
        f"seg_loss first-quarter mean {first_q:.4f} -> last-quarter mean {last_q:.4f}",
    )


def test_criterion_7_evaluate_matches_independent_recompute():
    # paper-scale table numbers need full-resolution training and the real
    # converted datasets; the automated stand-in checks the evaluate
    # pipeline against a direct 64-bit recomputation on a fixed pair
    rng = np.random.default_rng(707)
    gold = (rng.uniform(size=(64, 64)) > 0.85).astype(np.uint8)
    probs = np.clip(gold * rng.uniform(0.55, 0.95, gold.shape)
                    + (1 - gold) * rng.uniform(0.0, 0.45, gold.shape), 0, 1)
    mask = (rng.uniform(size=(64, 64)) > 0.15).astype(np.uint8)

    rep = metrics.evaluate([probs], [gold], [mask])

    inside = mask.astype(bool)
    s = probs[inside].astype(np.float64)
    l = gold[inside].astype(np.int64)
    mw = mann_whitney(s, l)

    # direct PR recomputation via descending threshold sweep
    pr = 0.0
    p_total = l.sum()
    prev_r, prev_p = 0.0, None
    for t in sorted(set(s.tolist()), reverse=True):
        sel = s >= t
        tp = int(l[sel].sum())
        fp = int(sel.sum() - tp)
        r, q = tp / p_total, tp / (tp + fp)
        if prev_p is None:
            prev_p = q
        pr += (r - prev_r) * (q + prev_p) / 2.0
        prev_r, prev_p = r, q

    thr = otsu_exhaustive(s)
    pred = (probs >= thr).astype(np.uint8)
    tp = int(np.sum((pred & gold)[inside]))
    dice_direct = 2.0 * tp / (pred[inside].sum() + gold[inside].sum())

    ok = (
        abs(rep.roc_auc - mw) < 1e-9
        and abs(rep.pr_auc - pr) < 1e-9
        and rep.otsu_threshold == thr
        and abs(rep.total.dice - dice_direct) < 1e-9
    )
    report(
        7,
        ok,
        f"evaluate vs 64-bit recompute: roc gap {abs(rep.roc_auc - mw):.2e}, "
        f"pr gap {abs(rep.pr_auc - pr):.2e}, otsu equal {rep.otsu_threshold == thr}, "
        f"dice gap {abs(rep.total.dice - dice_direct):.2e}",
    )


def test_criterion_8_end_to_end_determinism(desk_runs):
    gan_a, gan_b, _ = desk_runs
    ckpt_same = (gan_a / "best.ckpt").read_bytes() == (gan_b / "best.ckpt").read_bytes()
    hist_same = (gan_a / "history.csv").read_bytes() == (gan_b / "history.csv").read_bytes()
    report(8, ckpt_same and hist_same,
           f"byte-identical repeat run: checkpoint={ckpt_same}, history={hist_same}")
