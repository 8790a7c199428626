import hashlib
import io
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
            cfg.eps_clamp,
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
    training.train_round(g, d, samples, cfg)
    assert all(p.requires_grad for p in d.params.values())
    # a NaN lambda passes the D phase and fails the G phase mid-loop; set after
    # construction because TrainConfig refuses it
    cfg.lambda_ = float("nan")
    with pytest.raises(ag.NumericalError, match="generator"):
        training.train_round(g, d, samples, cfg)
    assert all(p.requires_grad for p in d.params.values())


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
                           y=np.zeros((8, 8), np.uint8), m=np.ones((8, 8), np.uint8))
               for i in range(160)]
    train, val = training.split_train_val(samples, TrainConfig(seed=0))
    assert len(train) == 152 and len(val) == 8
    assert {s.id for s in train} | {s.id for s in val} == {str(i) for i in range(160)}


# ---------------------------------------------------------------------------
# checkpoints


def make_checkpoint(with_disc=True, seed=0):
    g, d, samples = tiny_setup(
        n_samples=3, variant=DiscriminatorVariant.patch(10) if with_disc else None, seed=seed
    )
    cfg = TrainConfig(rounds=1, seed=seed)
    return training.fit(g, d, *training.split_train_val(samples, cfg), cfg).checkpoint, samples


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    ckpt, samples = make_checkpoint()
    path = tmp_path / "m.ckpt"
    training.save_checkpoint(ckpt, path)
    loaded = training.load_checkpoint(path)

    assert loaded.round_index == ckpt.round_index
    assert loaded.fingerprint == ckpt.fingerprint
    assert loaded.gen_spec == ckpt.gen_spec
    for k in ckpt.gen_params:
        np.testing.assert_array_equal(loaded.gen_params[k], ckpt.gen_params[k])
    for k in ckpt.disc_params:
        np.testing.assert_array_equal(loaded.disc_params[k], ckpt.disc_params[k])
    raw = path.read_bytes()
    names = training._read_records(raw, training._HEAD, len(raw) - training._DIGEST)
    assert {n.split("/")[0] for n in names} == {"meta", "g", "d"}  # no optimizer state

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
    loaded = training.load_checkpoint(path)
    assert loaded.disc_spec is None and loaded.disc_params is None


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
        TrainConfig(eps_clamp=0.7)
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


def test_checkpoint_v1_refused(tmp_path):
    # a v1 file: the same records plus Adam state, and no digest
    ckpt, _ = make_checkpoint(with_disc=False)
    buf = io.BytesIO()
    buf.write(training.MAGIC + struct.pack("<H", 1))
    for name, values in training._records(ckpt):
        training._write_record(buf, name, values)
    training._write_record(buf, "opt_g/t", np.array([1.0], np.float32))
    path = tmp_path / "v1.ckpt"
    path.write_bytes(buf.getvalue())
    with pytest.raises(training.CheckpointError, match="version 1"):
        training.load_checkpoint(path)
    # relabelled as v2 with a valid digest, the Adam record is left over
    v2 = bytearray(buf.getvalue())
    v2[len(training.MAGIC)] = training.VERSION
    path.write_bytes(with_digest(bytes(v2)))
    with pytest.raises(training.CheckpointError, match="opt_g/t"):
        training.load_checkpoint(path)


def test_checkpoint_digest_mismatch_refused(tmp_path):
    ckpt, _ = make_checkpoint(with_disc=False)
    path, raw = saved_bytes(ckpt, tmp_path)
    flipped = bytearray(raw)
    flipped[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(flipped))
    with pytest.raises(training.CheckpointError, match="sha256"):
        training.load_checkpoint(path)


@pytest.mark.parametrize("fault", ["missing", "extra", "shape"])
def test_rebuild_refuses_parameters_unlike_the_spec(fault):
    ckpt, _ = make_checkpoint()
    params = ckpt.disc_params if fault == "extra" else ckpt.gen_params
    if fault == "missing":
        del params["head_w"]
    elif fault == "extra":
        params["layer9_w"] = np.zeros((1, 1, 1, 1), np.float32)
    else:
        params["head_b"] = np.zeros(5, np.float32)
    with pytest.raises(training.CheckpointError):
        training.rebuild_models(ckpt)


def test_checkpoint_mutants_load_or_raise_checkpoint_error(tmp_path):
    # flip one byte of the body and re-seal it with a fresh digest, so each
    # mutant reaches the record parser and the spec checks
    ckpt, _ = make_checkpoint()
    path, raw = saved_bytes(ckpt, tmp_path)
    body = raw[: -training._DIGEST]
    rng = np.random.default_rng(1234)
    refused = 0
    for _ in range(400):
        mutant = bytearray(body)
        mutant[rng.integers(len(body))] ^= int(rng.integers(1, 256))
        path.write_bytes(with_digest(bytes(mutant)))
        try:
            training.rebuild_models(training.load_checkpoint(path))
        except training.CheckpointError:
            refused += 1
    assert 0 < refused < 400  # weight flips load, header and spec flips are refused


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
sample = Sample(id="s", x=x, y=y, m=np.ones_like(y))
stats = training.train_round(g, d, [sample], training.TrainConfig(seed=74))
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
