"""Adversarial + cross-entropy objective, alternating training, checkpoints.

The discriminator minimizes -mean log D(x,y) - mean log(1-D(x,G(x))); the
generator minimizes the non-saturating surrogate -mean log D(x,G(x)) plus
a weighted pixel cross entropy.  Decisions are averaged, not summed, so
loss magnitudes stay comparable across discriminator variants.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import models as mdl
from .autograd import Adam, NumericalError, Tensor


class CheckpointError(ValueError):
    """Malformed checkpoint file."""


@dataclass
class TrainConfig:
    lambda_: float = 10.0
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    rounds: int = 1
    batch_size: int = 1
    seed: int = 0
    val_fraction: float = 1.0 / 20.0
    eps_clamp: float = 1e-7

    def __post_init__(self):
        # each test is written so that NaN fails it; messages use the config keys
        if not 0.0 <= self.lambda_ < math.inf:
            raise ValueError(f"lambda must be non-negative and finite, got {self.lambda_}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError(f"beta1 and beta2 must lie in [0,1), got {self.beta1}, {self.beta2}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in (0,1), got {self.val_fraction}")
        if not 0.0 < self.eps_clamp < 0.5:
            raise ValueError(f"eps_clamp must lie in (0,0.5), got {self.eps_clamp}")
        if self.rounds < 1 or self.batch_size < 1:
            raise ValueError(
                f"rounds and batch_size must be positive, got {self.rounds}, {self.batch_size}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


# ---------------------------------------------------------------------------
# losses


def _clamped(t, eps):
    return ag.clamp(t, eps, 1.0 - eps)


def d_loss(d_real, d_fake, eps=1e-7):
    """Discriminator objective over real and generated decision maps."""
    if d_real.data.shape != d_fake.data.shape:
        raise ValueError(
            f"decision map shape mismatch: real {d_real.data.shape} vs fake {d_fake.data.shape}"
        )
    real_term = ag.global_mean(ag.log(_clamped(d_real, eps)))
    fake_term = ag.global_mean(ag.log(_clamped(ag.rsub(d_fake, 1.0), eps)))
    return ag.neg(ag.add(real_term, fake_term))


def g_gan_loss(d_fake, eps=1e-7):
    """Non-saturating generator term: small when the discriminator is fooled."""
    return ag.neg(ag.global_mean(ag.log(_clamped(d_fake, eps))))


def seg_loss(pred, gold, eps=1e-7):
    """Pixel binary cross entropy against a {0,1} gold map."""
    gold_vals = gold.data if isinstance(gold, Tensor) else np.asarray(gold)
    if not np.all((gold_vals == 0) | (gold_vals == 1)):
        raise ValueError("gold standard must contain only 0/1 values")
    if pred.data.shape != gold_vals.shape:
        raise ValueError(
            f"prediction shape {pred.data.shape} does not match gold {gold_vals.shape}"
        )
    gold_t = gold if isinstance(gold, Tensor) else Tensor(gold_vals)
    p = _clamped(pred, eps)
    pos = ag.mul(gold_t, ag.log(p))
    negt = ag.mul(ag.rsub(gold_t, 1.0), ag.log(_clamped(ag.rsub(pred, 1.0), eps)))
    return ag.neg(ag.global_mean(ag.add(pos, negt)))


def g_total_loss(g_gan, seg, lambda_):
    """Adversarial term plus lambda-weighted segmentation term."""
    if lambda_ < 0:
        raise ValueError(f"lambda must be non-negative, got {lambda_}")
    if isinstance(seg, Tensor):
        return ag.add(g_gan, ag.mul(seg, float(lambda_)))
    return g_gan + lambda_ * seg


# ---------------------------------------------------------------------------
# batching


def to_batch(samples):
    """Stack samples into (x, y) arrays of shape (B,3,H,W) and (B,1,H,W)."""
    x = np.stack([s.x for s in samples]).astype(np.float32)
    y = np.stack([s.y for s in samples]).astype(np.float32)[:, None, :, :]
    return x, y


def _batches(samples, order, batch_size):
    for start in range(0, len(order), batch_size):
        chunk = [samples[i] for i in order[start : start + batch_size]]
        x, y = to_batch(chunk)
        yield Tensor(x), Tensor(y)


@dataclass
class RoundStats:
    round_index: int
    d_loss: float = float("nan")
    g_gan_loss: float = float("nan")
    seg_loss: float = float("nan")
    val_g_loss: float = float("nan")


def _check_finite(value, round_index, batch_index, phase):
    if not np.isfinite(value):
        raise NumericalError(
            f"non-finite {phase} loss at round {round_index}, batch {batch_index}"
        )


def train_round(g, d, train_set, cfg, round_index=1, opt_g=None, opt_d=None):
    """One discriminator epoch then one generator epoch over train_set.

    Pass persistent optimizers to keep Adam state across rounds; the batch
    order is a seeded shuffle derived from (cfg.seed, round_index).
    """
    if not train_set:
        raise ValueError("train_round: empty training set")
    if opt_g is None:
        opt_g = Adam(g.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    if opt_d is None and d is not None:
        opt_d = Adam(d.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    eps = cfg.eps_clamp
    order = np.random.default_rng([cfg.seed, round_index]).permutation(len(train_set))

    stats = RoundStats(round_index)
    if d is not None:
        losses = []
        for bi, (x, y) in enumerate(_batches(train_set, order, cfg.batch_size)):
            with ag.no_grad():
                fake = mdl.generator_forward(g, x)
            loss = d_loss(
                mdl.discriminator_forward(d, x, y),
                mdl.discriminator_forward(d, x, fake),
                eps,
            )
            _check_finite(float(loss.data), round_index, bi, "discriminator")
            opt_d.zero_grad()
            ag.backward(loss)
            opt_d.step()
            losses.append(float(loss.data))
        stats.d_loss = float(np.mean(losses))

    gan_losses, seg_losses = [], []
    with ag.frozen(d.params.values() if d is not None else ()):
        for bi, (x, y) in enumerate(_batches(train_set, order, cfg.batch_size)):
            pred = mdl.generator_forward(g, x)
            seg = seg_loss(pred, y, eps)
            if d is not None:
                gan = g_gan_loss(mdl.discriminator_forward(d, x, pred), eps)
                total = g_total_loss(gan, seg, cfg.lambda_)
                gan_losses.append(float(gan.data))
            else:
                total = seg
            _check_finite(float(total.data), round_index, bi, "generator")
            opt_g.zero_grad()
            ag.backward(total)
            opt_g.step()
            seg_losses.append(float(seg.data))
    stats.seg_loss = float(np.mean(seg_losses))
    if gan_losses:
        stats.g_gan_loss = float(np.mean(gan_losses))
    return stats


def validation_loss(g, d, val_set, cfg):
    """Mean generator objective over the validation set, no updates."""
    eps = cfg.eps_clamp
    totals = []
    with ag.no_grad():
        for x, y in _batches(val_set, list(range(len(val_set))), cfg.batch_size):
            pred = mdl.generator_forward(g, x)
            seg = seg_loss(pred, y, eps)
            if d is not None:
                gan = g_gan_loss(mdl.discriminator_forward(d, x, pred), eps)
                totals.append(float(g_total_loss(gan, seg, cfg.lambda_).data))
            else:
                totals.append(float(seg.data))
    return float(np.mean(totals))


def split_train_val(samples, cfg):
    """Seeded split of the (augmented) pool into train and validation parts."""
    n = len(samples)
    n_val = max(1, round(n * cfg.val_fraction))
    if n_val >= n:
        raise ValueError(f"validation split would leave no training data ({n} samples)")
    perm = np.random.default_rng([cfg.seed, 10007]).permutation(n)
    val_idx = set(perm[:n_val].tolist())
    train = [samples[i] for i in range(n) if i not in val_idx]
    val = [samples[i] for i in range(n) if i in val_idx]
    return train, val


# ---------------------------------------------------------------------------
# fit and checkpoints


@dataclass
class Checkpoint:
    round_index: int
    gen_spec: mdl.GeneratorSpec
    disc_spec: mdl.DiscriminatorSpec | None
    gen_params: dict
    disc_params: dict | None
    val_g_loss: float
    fingerprint: str


@dataclass
class FitResult:
    checkpoint: Checkpoint
    history: list = field(default_factory=list)


def config_fingerprint(cfg, g, d):
    text = f"{cfg!r}|{g.spec!r}|{d.spec if d is not None else None!r}"
    return hashlib.sha256(text.encode()).hexdigest()


def _snapshot(g, d, round_index, val_loss, fingerprint):
    return Checkpoint(
        round_index=round_index,
        gen_spec=g.spec,
        disc_spec=d.spec if d is not None else None,
        gen_params={k: p.data.copy() for k, p in g.params.items()},
        disc_params={k: p.data.copy() for k, p in d.params.items()} if d is not None else None,
        val_g_loss=val_loss,
        fingerprint=fingerprint,
    )


def fit(g, d, train, val, cfg, val_loss_fn=None, progress=None):
    """Run cfg.rounds alternating rounds; keep the best-validation checkpoint.

    train and val are the two parts of :func:`split_train_val`.  Returns a
    FitResult whose checkpoint is the one with minimum validation generator
    loss (earliest round on ties).  val_loss_fn may be injected for testing;
    it receives (g, d, val, cfg).
    """
    if not val:
        raise ValueError("empty validation split")
    opt_g = Adam(g.parameters(), cfg.lr, cfg.beta1, cfg.beta2)
    opt_d = Adam(d.parameters(), cfg.lr, cfg.beta1, cfg.beta2) if d is not None else None
    evaluate = val_loss_fn if val_loss_fn is not None else validation_loss
    fingerprint = config_fingerprint(cfg, g, d)

    history = []
    best = None
    for r in range(1, cfg.rounds + 1):
        stats = train_round(g, d, train, cfg, round_index=r, opt_g=opt_g, opt_d=opt_d)
        stats.val_g_loss = float(evaluate(g, d, val, cfg))
        history.append(stats)
        if best is None or stats.val_g_loss < best.val_g_loss:
            best = _snapshot(g, d, r, stats.val_g_loss, fingerprint)
        if progress is not None:
            progress(stats)
    return FitResult(checkpoint=best, history=history)


def _restore(spec, layout, arrays, what):
    # islice: a corrupt spec can describe far more parameters than were stored
    want = dict(itertools.islice(mdl.param_shapes(layout), len(arrays) + 1))
    got = {k: v.shape for k, v in arrays.items()}
    if want != got:
        differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        raise CheckpointError(f"{what} parameters missing, unexpected or misshapen: {differ}")
    return mdl.Model(spec, {k: mdl.parameter(k, arrays[k].copy()) for k in want})


def rebuild_models(ckpt: Checkpoint):
    """Reconstruct (generator, discriminator) holding exactly the checkpointed weights.

    Raises CheckpointError unless the stored parameter names and shapes are
    exactly those the stored specs build.
    """
    gs, ds = ckpt.gen_spec, ckpt.disc_spec
    g = _restore(gs, mdl.generator_layout(gs), ckpt.gen_params, "generator")
    d = None
    if ds is not None:
        d = _restore(ds, mdl.discriminator_layout(ds), ckpt.disc_params, "discriminator")
    return g, d


# ---------------------------------------------------------------------------
# checkpoint serialization: magic, u16 version, per-tensor records of
# (u16 name length, name bytes, u32 rank, u32 extents, little-endian f32 data),
# then the sha256 of everything before it.  Records: meta/*, g/<param> and,
# with a discriminator, d/<param>; no optimizer state is stored.

MAGIC = b"VGANCKPT"
VERSION = 2
_HEAD = len(MAGIC) + 2
_DIGEST = hashlib.sha256().digest_size

_KIND_CODES = {"pixel": 1, "patch": 2, "image": 3}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


def _write_record(fh, name, values):
    arr = np.ascontiguousarray(np.asarray(values, dtype="<f4"))
    name_b = name.encode()
    fh.write(struct.pack("<H", len(name_b)))
    fh.write(name_b)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.tobytes())


def _records(ckpt):
    yield "meta/round", np.array([ckpt.round_index], dtype=np.float32)
    yield "meta/val_g_loss", np.array([ckpt.val_g_loss], dtype=np.float32)
    fp = np.frombuffer(ckpt.fingerprint.encode(), dtype=np.uint8).astype(np.float32)
    yield "meta/config_fingerprint", fp
    gs = ckpt.gen_spec
    yield "meta/gen_spec", np.array(
        [gs.in_channels, gs.scales, gs.base_channels, gs.kernel_size], dtype=np.float32
    )
    ds = ckpt.disc_spec
    if ds is not None:
        yield "meta/disc_spec", np.array(
            [
                _KIND_CODES[ds.variant.kind],
                ds.variant.patch_size or 0,
                ds.base_channels,
                ds.input_size[0],
                ds.input_size[1],
            ],
            dtype=np.float32,
        )
    for k, v in ckpt.gen_params.items():
        yield f"g/{k}", v
    if ckpt.disc_params is not None:
        for k, v in ckpt.disc_params.items():
            yield f"d/{k}", v


def save_checkpoint(ckpt: Checkpoint, path):
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<H", VERSION))
    for name, values in _records(ckpt):
        _write_record(buf, name, values)
    body = buf.getvalue()
    Path(path).write_bytes(body + hashlib.sha256(body).digest())


def _read_records(raw, pos, end):
    records = {}

    def take(n, what):
        nonlocal pos
        if n > end - pos:
            raise CheckpointError(
                f"truncated checkpoint: wanted {n} bytes for {what} at offset {pos}"
            )
        pos += n
        return raw[pos - n : pos]

    while pos < end:
        at = pos
        (name_len,) = struct.unpack("<H", take(2, "record header"))
        try:
            name = take(name_len, "record name").decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"record name at offset {at + 2} is not UTF-8") from None
        if name in records:
            raise CheckpointError(f"duplicate record {name!r} at offset {at}")
        (rank,) = struct.unpack("<I", take(4, f"rank of {name}"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, f"extents of {name}"))
        raw_values = take(4 * math.prod(shape), f"values of {name}")
        records[name] = np.frombuffer(raw_values, dtype="<f4").reshape(shape).copy()
    return records


def _decode(records):
    def take(name):
        return records.pop(name).ravel()

    def collect(prefix):
        names = [n for n in records if n.startswith(prefix)]
        return {n[len(prefix) :]: records.pop(n) for n in names}

    (round_index,) = (int(v) for v in take("meta/round"))
    (val_g_loss,) = (float(v) for v in take("meta/val_g_loss"))
    fp = take("meta/config_fingerprint")
    if not np.all((fp >= 0) & (fp < 128) & (fp == np.floor(fp))):
        raise ValueError("meta/config_fingerprint holds values that are not ASCII codes")
    fingerprint = bytes(fp.astype(np.uint8)).decode()
    gi, gs, gb, gk = (int(v) for v in take("meta/gen_spec"))
    gen_spec = mdl.GeneratorSpec(gi, gs, gb, gk)
    disc_spec = None
    if "meta/disc_spec" in records:
        kind_code, patch, base, h, w = (int(v) for v in take("meta/disc_spec"))
        variant = mdl.DiscriminatorVariant(_KIND_NAMES[kind_code], patch or None)
        disc_spec = mdl.discriminator_spec(variant, (h, w), base)
    return Checkpoint(
        round_index=round_index,
        gen_spec=gen_spec,
        disc_spec=disc_spec,
        gen_params=collect("g/"),
        disc_params=collect("d/") if disc_spec is not None else None,
        val_g_loss=val_g_loss,
        fingerprint=fingerprint,
    )


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint exactly as saved, or raise CheckpointError."""
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(
            f"bad magic at offset 0: expected {MAGIC!r}, got {raw[: len(MAGIC)]!r}"
        )
    if raw[len(MAGIC) : _HEAD] != struct.pack("<H", VERSION):
        version = int.from_bytes(raw[len(MAGIC) : _HEAD], "little")
        raise CheckpointError(f"unsupported checkpoint version {version} at offset {len(MAGIC)}")
    end = max(len(raw) - _DIGEST, _HEAD)
    if hashlib.sha256(raw[:end]).digest() != raw[end:]:
        raise CheckpointError(
            f"corrupt or truncated checkpoint: the sha256 at offset {end} does not match "
            "the bytes before it"
        )
    records = _read_records(raw, _HEAD, end)
    try:
        ckpt = _decode(records)
    except (KeyError, ValueError, OverflowError) as exc:  # a missing record is a KeyError
        name = type(exc).__name__
        raise CheckpointError(f"malformed checkpoint metadata ({name}: {exc})") from None
    if records:
        raise CheckpointError(f"unexpected checkpoint records {sorted(records)}")
    return ckpt
