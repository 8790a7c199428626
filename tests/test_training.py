import dataclasses
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vesselseg import autograd as ag
from vesselseg import data, models, training
from vesselseg.autograd import Tensor
from vesselseg.models import DiscriminatorVariant, GeneratorSpec
from vesselseg.training import TrainConfig


def dmap(values):
    return Tensor(np.asarray(values, dtype=np.float32).reshape(1, 1, *np.asarray(values).shape[-2:]))


# ---------------------------------------------------------------------------
# loss values


def test_d_loss_at_half():
    half = Tensor(np.full((1, 1, 2, 2), 0.5, dtype=np.float32))
    loss = training.d_loss(half, half)
    assert float(loss.data) == pytest.approx(-2 * math.log(0.5), abs=1e-4)


def test_d_loss_perfect_discriminator_near_zero():
    real = Tensor(np.full((1, 1, 3, 3), 1.0 - 1e-7, dtype=np.float32))
    fake = Tensor(np.full((1, 1, 3, 3), 1e-7, dtype=np.float32))
    assert float(training.d_loss(real, fake).data) == pytest.approx(0.0, abs=1e-5)


def test_d_loss_matches_float64_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        real = rng.uniform(0.01, 0.99, (2, 1, 4, 4))
        fake = rng.uniform(0.01, 0.99, (2, 1, 4, 4))
        got = float(training.d_loss(Tensor(real.astype(np.float32)), Tensor(fake.astype(np.float32))).data)
        want = -np.log(real).mean() - np.log1p(-fake).mean()
        assert got == pytest.approx(want, rel=1e-5)


def test_d_loss_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        training.d_loss(dmap(np.full((2, 2), 0.5)), dmap(np.full((3, 3), 0.5)))


def test_d_loss_swap_symmetry():
    # swapping roles via (real, fake) -> (1-fake, 1-real) keeps the value
    rng = np.random.default_rng(1)
    real = rng.uniform(0.05, 0.95, (1, 1, 3, 3)).astype(np.float32)
    fake = rng.uniform(0.05, 0.95, (1, 1, 3, 3)).astype(np.float32)
    a = float(training.d_loss(Tensor(real), Tensor(fake)).data)
    b = float(training.d_loss(Tensor(1.0 - fake), Tensor(1.0 - real)).data)
    assert a == pytest.approx(b, rel=1e-5)


def test_g_gan_loss_values_and_monotonicity():
    half = Tensor(np.full((1, 1, 2, 2), 0.5, dtype=np.float32))
    assert float(training.g_gan_loss(half).data) == pytest.approx(math.log(2.0), abs=1e-4)
    fooled = Tensor(np.full((1, 1, 2, 2), 1.0 - 1e-7, dtype=np.float32))
    assert float(training.g_gan_loss(fooled).data) == pytest.approx(0.0, abs=1e-5)

    rng = np.random.default_rng(2)
    for _ in range(10):
        vals = rng.uniform(0.05, 0.9, (1, 1, 3, 3)).astype(np.float32)
        base = float(training.g_gan_loss(Tensor(vals)).data)
        bumped = vals.copy()
        i, j = rng.integers(0, 3), rng.integers(0, 3)
        bumped[0, 0, i, j] += 0.05
        assert float(training.g_gan_loss(Tensor(bumped)).data) < base


def test_seg_loss_values():
    gold = Tensor(np.array([[[[0.0, 1.0], [1.0, 0.0]]]], dtype=np.float32))
    exact = Tensor(gold.data.copy())
    v = float(training.seg_loss(exact, gold).data)
    assert 0.0 < v < 1e-6  # clamp floor

    half = Tensor(np.full((1, 1, 2, 2), 0.5, dtype=np.float32))
    assert float(training.seg_loss(half, gold).data) == pytest.approx(math.log(2.0), abs=1e-4)

    wrong = Tensor(1.0 - gold.data)
    assert float(training.seg_loss(wrong, gold).data) == pytest.approx(-math.log(1e-7), rel=1e-3)


def test_seg_loss_rejects_non_binary_gold():
    pred = Tensor(np.full((1, 1, 2, 2), 0.5, dtype=np.float32))
    with pytest.raises(ValueError):
        training.seg_loss(pred, Tensor(np.full((1, 1, 2, 2), 0.5, dtype=np.float32)))


def test_losses_non_negative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        fake = Tensor(rng.uniform(0, 1, (1, 1, 4, 4)).astype(np.float32))
        real = Tensor(rng.uniform(0, 1, (1, 1, 4, 4)).astype(np.float32))
        gold = Tensor((rng.uniform(0, 1, (1, 1, 4, 4)) > 0.5).astype(np.float32))
        assert float(training.g_gan_loss(fake).data) >= 0
        assert float(training.seg_loss(real, gold).data) >= 0


def test_g_total_loss_arithmetic():
    assert training.g_total_loss(0.7, 0.05, 10.0) == pytest.approx(1.2)
    assert training.g_total_loss(0.33, 9.9, 0.0) == pytest.approx(0.33)
    with pytest.raises(ValueError):
        training.g_total_loss(0.0, 0.0, -1.0)


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    gold_arr = (rng.uniform(0, 1, (1, 1, 3, 3)) > 0.5).astype(np.float64)

    def fd_check(build, arr):
        t = Tensor(arr.copy(), requires_grad=True)
        loss = build(t)
        ag.backward(loss)
        analytic = t.grad.copy()
        h = 1e-3
        num = np.zeros_like(arr)
        for idx in np.ndindex(*arr.shape):
            up, dn = arr.copy(), arr.copy()
            up[idx] += h
            dn[idx] -= h
            num[idx] = (float(build(Tensor(up)).data) - float(build(Tensor(dn)).data)) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(num)), 1e-6)
        assert np.max(np.abs(analytic - num) / denom) < 1e-3

    for _ in range(5):
        probs = rng.uniform(0.1, 0.9, (1, 1, 3, 3))
        other = rng.uniform(0.1, 0.9, (1, 1, 3, 3))
        fd_check(lambda t: training.d_loss(t, Tensor(other)), probs)
        fd_check(lambda t: training.d_loss(Tensor(other), t), probs)
        fd_check(training.g_gan_loss, probs)
        fd_check(
            lambda t: training.g_total_loss(
                training.g_gan_loss(t), training.seg_loss(t, Tensor(gold_arr)), 10.0
            ),
            probs,
        )


# the losses as each was written out before they shared one cross entropy: an oracle that
# the losses must match bit for bit, values and grads


def clamped_oracle(t):
    return ag.clamp(t, training.EPS, 1.0 - training.EPS)


def d_loss_oracle(d_real, d_fake):
    real_term = ag.global_mean(ag.log(clamped_oracle(d_real)))
    fake_term = ag.global_mean(ag.log(clamped_oracle(ag.rsub(d_fake, 1.0))))
    return ag.neg(ag.add(real_term, fake_term))


def g_gan_loss_oracle(d_fake):
    return ag.neg(ag.global_mean(ag.log(clamped_oracle(d_fake))))


def seg_loss_oracle(pred, gold):
    pos = ag.mul(gold, ag.log(clamped_oracle(pred)))
    negt = ag.mul(ag.rsub(gold, 1.0), ag.log(clamped_oracle(ag.rsub(pred, 1.0))))
    return ag.neg(ag.global_mean(ag.add(pos, negt)))


def edge_probabilities(rng, shape):
    """float32 probabilities holding 0, 1, 1e-9, the clamp bounds and their float32
    neighbours, the rest uniform, in a shuffled order."""
    f32 = np.float32
    lo, hi = f32(training.EPS), f32(1.0 - training.EPS)
    edges = [0, 1e-9, np.nextafter(lo, f32(0)), lo, np.nextafter(lo, f32(1)),
             np.nextafter(hi, f32(0)), hi, np.nextafter(hi, f32(1)), 1]  # fmt: skip
    p = rng.uniform(size=math.prod(shape)).astype(f32)
    p[: len(edges)] = edges
    return rng.permutation(p).reshape(shape)


@pytest.mark.parametrize("seed", range(4))
def test_losses_match_the_oracle_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    shape = (2, 1, 4, 5)
    real, fake = edge_probabilities(rng, shape), edge_probabilities(rng, shape)
    gold = Tensor((rng.uniform(size=shape) > 0.5).astype(np.float32))
    cases = [
        (training.d_loss, d_loss_oracle, (real, fake), ()),
        (training.g_gan_loss, g_gan_loss_oracle, (fake,), ()),
        (training.seg_loss, seg_loss_oracle, (real,), (gold,)),
    ]
    for loss_fn, oracle, probs, consts in cases:
        runs = []
        for fn in (loss_fn, oracle):
            ins = [Tensor(a.copy(), requires_grad=True) for a in probs]
            loss = fn(*ins, *consts)
            ag.backward(loss)
            runs.append((loss.data.tobytes(), [t.grad for t in ins]))
        (got, got_grads), (want, want_grads) = runs
        assert got == want, loss_fn.__name__
        for a, b in zip(got_grads, want_grads):
            assert np.array_equal(a, b), loss_fn.__name__


# ---------------------------------------------------------------------------
# train_round


def tiny_setup(n_samples=2, size=32, seed=0, variant=None):
    samples = [data.generate_synthetic_sample(size, seed * 100 + i) for i in range(n_samples)]
    g = models.build_generator(GeneratorSpec(scales=2, base_channels=4), seed=seed)
    d = None
    if variant is not None:
        d = models.build_discriminator(variant, (size, size), 4, seed=seed + 1)
    return g, d, samples


def snapshot(model):
    return {k: p.data.copy() for k, p in model.params.items()}


def test_train_round_freezes_generator_in_d_phase():
    g, d, samples = tiny_setup(variant=DiscriminatorVariant.pixel())
    cfg = TrainConfig(rounds=1, seed=1)
    before = snapshot(g)

    # run only the discriminator phase by monkeypatching: compare parameters
    # right after a full round's d-phase is impractical, so instead train one
    # round and verify the generator moved only via its own optimizer by
    # replaying: a d-only round is rounds with lr 0 for g is equivalent;
    # here we check the simpler published contract with opt_g.lr = 0.
    opt_g = ag.Adam(g.parameters(), lr=0.0, beta1=cfg.beta1, beta2=cfg.beta2)
    opt_d = ag.Adam(d.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    training.train_round(g, d, samples, cfg, round_index=1, opt_g=opt_g, opt_d=opt_d)
    after = snapshot(g)
    for k in before:
        np.testing.assert_array_equal(before[k], after[k])


def test_train_round_deterministic():
    stats = []
    for _ in range(2):
        g, d, samples = tiny_setup(variant=DiscriminatorVariant.patch(10))
        cfg = TrainConfig(rounds=1, seed=7)
        opt_g = ag.Adam(g.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
        opt_d = ag.Adam(d.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
        s = [
            training.train_round(g, d, samples, cfg, round_index=r, opt_g=opt_g, opt_d=opt_d)
            for r in (1, 2)
        ]
        stats.append([(x.d_loss, x.g_gan_loss, x.seg_loss) for x in s])
    assert stats[0] == stats[1]


def test_train_round_overfits_tiny_set():
    # 2 images, 50 rounds with lambda=10 drive the pixel cross entropy
    # below 0.1; wide generator and smooth betas keep the run stable
    samples = [data.generate_synthetic_sample(32, 500 + i) for i in range(2)]
    g = models.build_generator(GeneratorSpec(scales=2, base_channels=16), seed=5)
    d = models.build_discriminator(DiscriminatorVariant.pixel(), (32, 32), 4, seed=6)
    cfg = TrainConfig(rounds=50, seed=5, lr=8e-3, beta1=0.9, lambda_=10.0)
    opt_g = ag.Adam(g.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    opt_d = ag.Adam(d.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    last = None
    for r in range(1, cfg.rounds + 1):
        last = training.train_round(g, d, samples, cfg, round_index=r, opt_g=opt_g, opt_d=opt_d)
    assert last.seg_loss < 0.1


def test_to_batch_of_views_matches_to_batch_of_copies():
    rng = np.random.default_rng(4)
    for h, w in ((8, 8), (8, 12)):
        s = data.Sample(
            id="s",
            x=rng.normal(size=(3, h, w)).astype(np.float32),
            y=(rng.uniform(size=(h, w)) > 0.7).astype(np.uint8),
        )
        for v in data.augment(s):
            copy = data.Sample(v.id, *(np.ascontiguousarray(a) for a in (v.x, v.y)))
            for ours, theirs in zip(training.to_batch([v]), training.to_batch([copy])):
                assert ours.dtype == np.float32 and ours.flags.c_contiguous
                assert ours.tobytes() == theirs.tobytes(), v.id


def test_discriminator_can_learn_real_vs_fake():
    # frozen random generator, 4 samples, 200 discriminator steps
    g, d, samples = tiny_setup(n_samples=4, size=32, seed=5, variant=DiscriminatorVariant.pixel())
    cfg = TrainConfig(seed=5, lr=1e-2, lambda_=0.0)
    x, y = training.to_batch(samples)
    xt, yt = Tensor(x), Tensor(y)
    fakes = mdl_forward_detached(g, xt)
    opt_d = ag.Adam(d.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    for _ in range(200):
        loss = training.d_loss(
            models.discriminator_forward(d, xt, yt),
            models.discriminator_forward(d, xt, fakes),
        )
        opt_d.zero_grad()
        ag.backward(loss)
        opt_d.step()
    real_dec = models.discriminator_forward(d, xt, yt).data
    fake_dec = models.discriminator_forward(d, xt, fakes).data
    acc = ((real_dec > 0.5).sum() + (fake_dec < 0.5).sum()) / (real_dec.size + fake_dec.size)
    assert acc >= 0.95


def test_g_phase_backward_leaves_frozen_discriminator_grads():
    g, d, samples = tiny_setup(variant=DiscriminatorVariant.patch(10))
    x, y = (Tensor(a) for a in training.to_batch(samples))
    rng = np.random.default_rng(9)
    for p in d.params.values():
        p.grad[...] = rng.uniform(-1, 1, p.grad.shape)
    before = {k: p.grad.copy() for k, p in d.params.items()}
    with ag.frozen(d.params.values()):
        pred = models.generator_forward(g, x)
        gan = training.g_gan_loss(models.discriminator_forward(d, x, pred))
        ag.backward(training.g_total_loss(gan, training.seg_loss(pred, y), 10.0))
    for k, p in d.params.items():
        assert p.grad.tobytes() == before[k].tobytes(), k
    assert all(np.any(p.grad != 0) for p in g.params.values())


def test_train_round_unfreezes_discriminator():
    g, d, samples = tiny_setup(variant=DiscriminatorVariant.pixel())
    cfg = TrainConfig(seed=1)
    opt_g = ag.Adam(g.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    opt_d = ag.Adam(d.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    training.train_round(g, d, samples, cfg, 1, opt_g, opt_d)
    assert all(p.requires_grad for p in d.params.values())
    # a NaN lambda passes the D phase and fails the G phase mid-loop; set after
    # construction because TrainConfig refuses it
    cfg.lambda_ = float("nan")
    with pytest.raises(ag.NumericalError, match="generator"):
        training.train_round(g, d, samples, cfg, 1, opt_g, opt_d)
    assert all(p.requires_grad for p in d.params.values())


@pytest.mark.parametrize("variant", [DiscriminatorVariant.image(), None], ids=["image", "none"])
def test_train_round_refuses_a_non_finite_loss_before_any_step(variant):
    # no floating-point trap: the loss check, not an overflow in some op, must refuse the NaN
    g, d, samples = tiny_setup(n_samples=1, variant=variant)
    samples[0].x[0, 3, 5] = np.nan
    cfg = TrainConfig(seed=1)
    opt_g = ag.Adam(g.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    opt_d = ag.Adam(d.parameters(), cfg.lr, cfg.beta1, cfg.beta2) if d is not None else None
    # the discriminator epoch runs first, so with a discriminator its loss is the one refused
    model, opt, phase = (g, opt_g, "generator") if d is None else (d, opt_d, "discriminator")
    before = snapshot(model)
    with np.errstate(all="ignore"), pytest.raises(ag.NumericalError) as refused:
        training.train_round(g, d, samples, cfg, 1, opt_g, opt_d)
    assert str(refused.value) == f"non-finite {phase} loss at round 1, batch 0"
    assert opt.t == 0
    assert not any(m.any() or v.any() for m, v in zip(opt.m.values(), opt.v.values()))
    for k, p in model.params.items():
        assert p.data.tobytes() == before[k].tobytes() and not p.grad.any(), k


def mdl_forward_detached(g, x):
    with ag.no_grad():
        return models.generator_forward(g, x)


# ---------------------------------------------------------------------------
# fit


def test_fit_single_round_returns_it():
    g, d, samples = tiny_setup(n_samples=3, variant=None)
    cfg = TrainConfig(rounds=1, seed=2)
    result = training.fit(g, d, *training.split_train_val(samples, cfg), cfg)
    assert result.checkpoint.round_index == 1


def test_fit_selects_min_validation_loss():
    g, _, samples = tiny_setup(n_samples=3, variant=None)
    cfg = TrainConfig(rounds=3, seed=2)
    injected = iter([0.9, 0.4, 0.6])
    split = training.split_train_val(samples, cfg)
    result = training.fit(g, None, *split, cfg, val_loss_fn=lambda *a: next(injected))
    assert result.checkpoint.round_index == 2
    assert result.checkpoint.val_g_loss == pytest.approx(0.4)


def test_fit_tie_keeps_earliest():
    g, _, samples = tiny_setup(n_samples=3, variant=None)
    cfg = TrainConfig(rounds=2, seed=2)
    injected = iter([0.5, 0.5])
    split = training.split_train_val(samples, cfg)
    result = training.fit(g, None, *split, cfg, val_loss_fn=lambda *a: next(injected))
    assert result.checkpoint.round_index == 1


def test_fit_rejects_empty_validation():
    g, _, samples = tiny_setup(n_samples=1, variant=None)
    cfg = TrainConfig(rounds=1, seed=0)
    with pytest.raises(ValueError):
        training.fit(g, None, samples, [], cfg)
    with pytest.raises(ValueError):
        training.split_train_val(samples, cfg)


def test_split_train_val_ratio():
    samples = [data.Sample(id=str(i), x=np.zeros((3, 8, 8), np.float32),
                           y=np.zeros((8, 8), np.uint8))
               for i in range(160)]
    train, val = training.split_train_val(samples, TrainConfig(seed=0))
    assert len(train) == 152 and len(val) == 8
    assert {s.id for s in train} | {s.id for s in val} == {str(i) for i in range(160)}


# ---------------------------------------------------------------------------
# checkpoints


def make_checkpoint(with_disc=True, seed=0):
    # four samples split two and two, so val_g_loss is a mean of two batch losses
    g, d, samples = tiny_setup(
        n_samples=4, variant=DiscriminatorVariant.patch(10) if with_disc else None, seed=seed
    )
    cfg = TrainConfig(rounds=1, seed=seed, val_fraction=0.5)
    return training.fit(g, d, *training.split_train_val(samples, cfg), cfg).checkpoint, samples


def assert_same_checkpoint(loaded, saved):
    for f in dataclasses.fields(training.Checkpoint):
        got, want = getattr(loaded, f.name), getattr(saved, f.name)
        if f.name.endswith("_params") and want is not None:
            assert list(got) == list(want), f.name
            for k in want:
                assert got[k].dtype == want[k].dtype and got[k].tobytes() == want[k].tobytes(), k
        else:
            assert type(got) is type(want) and got == want, f.name


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    ckpt, samples = make_checkpoint()
    # a mean of two float32 losses that float32 cannot hold, so a float32 store would lose it
    assert float(np.float32(ckpt.val_g_loss)) != ckpt.val_g_loss
    path = tmp_path / "m.ckpt"
    training.save_checkpoint(ckpt, path)
    loaded = training.load_checkpoint(path)
    assert_same_checkpoint(loaded, ckpt)

    # magic, version, metadata and the generator's float32 parameters: no
    # discriminator and no optimizer state
    raw = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", raw, training._HEAD)
    meta = json.loads(raw[training._HEAD + 4 : training._HEAD + 4 + meta_len])
    assert sorted(meta) == ["gen_spec", "round", "val_g_loss"]
    assert meta["gen_spec"] == [ckpt.gen_spec.scales, ckpt.gen_spec.base_channels]
    n_params = sum(v.size for v in ckpt.gen_params.values())
    assert len(raw) == training._HEAD + 4 + meta_len + 4 * n_params + training._DIGEST

    g1, _ = training.rebuild_models(ckpt)
    g2, _ = training.rebuild_models(loaded)
    x, _ = training.to_batch(samples[:1])
    out1 = models.generator_forward(g1, Tensor(x)).data
    out2 = models.generator_forward(g2, Tensor(x)).data
    np.testing.assert_array_equal(out1, out2)


def test_checkpoint_roundtrip_without_discriminator(tmp_path):
    ckpt, _ = make_checkpoint(with_disc=False)
    path = tmp_path / "m.ckpt"
    training.save_checkpoint(ckpt, path)
    assert_same_checkpoint(training.load_checkpoint(path), ckpt)


def test_checkpoint_bad_magic(tmp_path):
    ckpt, _ = make_checkpoint(with_disc=False)
    path = tmp_path / "m.ckpt"
    training.save_checkpoint(ckpt, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(training.CheckpointError) as e:
        training.load_checkpoint(path)
    assert "VGANCKPT" in str(e.value)


def test_checkpoint_truncation_rejected_with_offset(tmp_path):
    ckpt, _ = make_checkpoint(with_disc=False)
    path = tmp_path / "m.ckpt"
    training.save_checkpoint(ckpt, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(training.CheckpointError) as e:
        training.load_checkpoint(path)
    assert "offset" in str(e.value)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lambda_=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=1.5)
    with pytest.raises(ValueError):
        TrainConfig(seed=-1)
    for bad in (
        {"lambda_": float("nan")},
        {"lambda_": float("inf")},
        {"lr": 0.0},
        {"lr": float("nan")},
        {"beta1": 2.0},
        {"beta2": 1.0},
        {"beta1": float("nan")},
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


def saved_bytes(ckpt, tmp_path):
    path = tmp_path / "m.ckpt"
    training.save_checkpoint(ckpt, path)
    return path, path.read_bytes()


def with_digest(body):
    return body + hashlib.sha256(body).digest()


def body_of(raw):
    return raw[: -training._DIGEST]


def test_checkpoint_v1_refused(tmp_path):
    # a v1 file had no digest
    ckpt, _ = make_checkpoint(with_disc=False)
    path, raw = saved_bytes(ckpt, tmp_path)
    path.write_bytes(training.MAGIC + struct.pack("<H", 1) + body_of(raw)[training._HEAD :])
    with pytest.raises(training.CheckpointError, match="version 1 at offset 8"):
        training.load_checkpoint(path)


def test_checkpoint_v2_refused(tmp_path):
    ckpt, _ = make_checkpoint(with_disc=False)
    path, raw = saved_bytes(ckpt, tmp_path)
    body = training.MAGIC + struct.pack("<H", 2) + body_of(raw)[training._HEAD :]
    path.write_bytes(with_digest(body))
    with pytest.raises(training.CheckpointError, match="version 2 at offset 8"):
        training.load_checkpoint(path)


def test_checkpoint_v3_refused(tmp_path):
    # v3 also stored a config fingerprint and the discriminator's spec and weights
    ckpt, _ = make_checkpoint()
    path, raw = saved_bytes(ckpt, tmp_path)
    v3 = with_meta(raw, lambda meta: meta.update(fingerprint="0" * 64, disc_spec=None))
    body = training.MAGIC + struct.pack("<H", 3) + body_of(v3)[training._HEAD :]
    path.write_bytes(with_digest(body))
    with pytest.raises(training.CheckpointError, match="version 3 at offset 8"):
        training.load_checkpoint(path)


def test_checkpoint_payload_length_must_match(tmp_path):
    ckpt, _ = make_checkpoint()
    path, raw = saved_bytes(ckpt, tmp_path)
    end = len(raw) - training._DIGEST
    # trailing bytes, say Adam state appended, are refused where they start
    path.write_bytes(with_digest(body_of(raw) + b"\0" * 12))
    with pytest.raises(training.CheckpointError, match=f"12 bytes left over .* at offset {end}$"):
        training.load_checkpoint(path)
    # a payload that stops short is refused at the parameter it cuts off
    last = list(models.param_shapes(models.generator_layout(ckpt.gen_spec)))[-1][0]
    path.write_bytes(with_digest(body_of(raw)[:-2]))
    with pytest.raises(training.CheckpointError) as e:
        training.load_checkpoint(path)
    want = f"wanted 4 bytes for generator parameter {last} at offset {end - 4}, 2 left"
    assert want in str(e.value)


def with_meta(raw, edit):
    """raw's checkpoint with its metadata changed by edit, sealed with a fresh digest."""
    (n,) = struct.unpack_from("<I", raw, training._HEAD)
    start = training._HEAD + 4
    meta = json.loads(raw[start : start + n])
    edit(meta)
    text = json.dumps(meta).encode()
    rest = body_of(raw)[start + n :]
    return with_digest(raw[: training._HEAD] + struct.pack("<I", len(text)) + text + rest)


def _set(key, value, index=None):
    def edit(meta):
        if index is None:
            meta[key] = value
        else:
            meta[key][index] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_set("gen_spec", "8", 1), r"gen_spec\[1\] has the wrong", id="str-entry"),
        pytest.param(_set("gen_spec", True, 0), r"gen_spec\[0\] has the wrong", id="bool-entry"),
        pytest.param(_set("gen_spec", [2]), "gen_spec has the wrong type", id="short-spec"),
        pytest.param(_set("gen_spec", [3, 2, 8, 3]), "gen_spec has the wrong type", id="v3-spec"),
        pytest.param(_set("round", 1.0), "round has the wrong type: 1.0", id="float-round"),
        pytest.param(_set("val_g_loss", 1), "val_g_loss has the wrong type: 1", id="int-loss"),
        pytest.param(_set("gen_spec", 0, 1), "describes no model: .*base_channels=0", id="zero-width"),
        pytest.param(_set("gen_spec", 0, 0), "describes no model: .*scales=0", id="zero-scales"),
        pytest.param(_set("gen_spec", {}), "gen_spec has the wrong type", id="object-spec"),
        pytest.param(_set("opt_g", [1.0]), "exactly the keys", id="extra-key"),
        pytest.param(_set("disc_spec", None), "exactly the keys", id="disc-spec-key"),
        pytest.param(lambda meta: meta.pop("round"), "exactly the keys", id="missing-key"),
    ],
)
def test_checkpoint_metadata_of_wrong_type_refused(tmp_path, edit, message):
    ckpt, _ = make_checkpoint()
    path, raw = saved_bytes(ckpt, tmp_path)
    path.write_bytes(with_meta(raw, lambda meta: None))
    assert_same_checkpoint(training.load_checkpoint(path), ckpt)
    path.write_bytes(with_meta(raw, edit))
    with pytest.raises(training.CheckpointError, match=message):
        training.load_checkpoint(path)


def test_checkpoint_digest_mismatch_refused(tmp_path):
    ckpt, _ = make_checkpoint(with_disc=False)
    path, raw = saved_bytes(ckpt, tmp_path)
    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(flipped))
    with pytest.raises(training.CheckpointError, match="sha256"):
        training.load_checkpoint(path)


@pytest.mark.parametrize("fault", ["missing", "extra", "shape", "dtype"])
def test_rebuild_refuses_parameters_unlike_the_spec(fault, tmp_path):
    ckpt, _ = make_checkpoint()
    params = ckpt.gen_params
    if fault == "missing":
        del params["head_w"]
    elif fault == "extra":
        params["layer9_w"] = np.zeros((1, 1, 1, 1), np.float32)
    elif fault == "shape":
        params["head_b"] = np.zeros(5, np.float32)
    else:  # saved as float32, it would load as other values than these
        params["head_b"] = params["head_b"].astype(np.float64) + 1e-12
    with pytest.raises(training.CheckpointError):
        training.rebuild_models(ckpt)
    with pytest.raises(training.CheckpointError):
        training.save_checkpoint(ckpt, tmp_path / "m.ckpt")
    assert not (tmp_path / "m.ckpt").exists()


def test_checkpoint_mutants_load_or_raise_checkpoint_error(tmp_path):
    # flip bytes of the body and re-seal it with a fresh digest, so each mutant
    # reaches the metadata decoder and the spec checks: 400 random flips over the
    # whole body, and every single-bit flip of the header and the metadata
    ckpt, _ = make_checkpoint()
    path, raw = saved_bytes(ckpt, tmp_path)
    body = body_of(raw)
    (meta_len,) = struct.unpack_from("<I", body, training._HEAD)
    rng = np.random.default_rng(1234)
    flips = [(int(rng.integers(len(body))), int(rng.integers(1, 256))) for _ in range(400)]
    flips += [(i, 1 << b) for i in range(training._HEAD + 4 + meta_len) for b in range(8)]
    outcomes = set()
    for at, mask in flips:
        mutant = bytearray(body)
        mutant[at] ^= mask
        path.write_bytes(with_digest(bytes(mutant)))
        try:
            training.rebuild_models(training.load_checkpoint(path))
            outcomes.add("loaded")
        except training.CheckpointError:
            outcomes.add("refused")
    assert outcomes == {"loaded", "refused"}  # weight flips load, header and spec flips are refused


# ---------------------------------------------------------------------------
# determinism across BLAS threading

_BLAS_PROBE = """
import hashlib
import numpy as np
from vesselseg import autograd as ag, models, training
from vesselseg.data import Sample
from vesselseg.models import DiscriminatorVariant, GeneratorSpec

rng = np.random.default_rng(71)
x = rng.standard_normal((3, 256, 256)).astype(np.float32)
y = (rng.uniform(size=(256, 256)) < 0.15).astype(np.uint8)
g = models.build_generator(GeneratorSpec(), seed=72)
d = models.build_discriminator(DiscriminatorVariant.image(), (256, 256), 8, seed=73)
digest = hashlib.sha256()
with ag.no_grad():
    digest.update(models.generator_forward(g, ag.Tensor(x[None])).data.tobytes())
sample = Sample(id="s", x=x, y=y)
cfg = training.TrainConfig(seed=74)
opt_g = ag.Adam(g.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
opt_d = ag.Adam(d.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
stats = training.train_round(g, d, [sample], cfg, 1, opt_g, opt_d)
digest.update(repr((stats.d_loss, stats.g_gan_loss, stats.seg_loss)).encode())
for model in (g, d):
    for name, p in model.parameters():
        digest.update(name.encode() + p.data.tobytes())
print(digest.hexdigest())
"""


def test_outputs_do_not_depend_on_blas_threads():
    src = str(Path(training.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
