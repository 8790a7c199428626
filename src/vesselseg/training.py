"""Adversarial + cross-entropy objective, alternating training, checkpoints.

The discriminator minimizes -mean log D(x,y) - mean log(1-D(x,G(x))); the
generator minimizes the non-saturating surrogate -mean log D(x,G(x)) plus
a weighted pixel cross entropy.  Decisions are averaged, not summed, so
loss magnitudes stay comparable across discriminator variants.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import models as mdl
from .autograd import Adam, NumericalError, Tensor
from .data import read_file


class CheckpointError(ValueError):
    """Malformed checkpoint file."""


@dataclass
class TrainConfig:
    lambda_: float = 10.0
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    rounds: int = 10
    batch_size: int = 1
    seed: int = 0
    val_fraction: float = 1.0 / 20.0

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
        if self.rounds < 1 or self.batch_size < 1:
            raise ValueError(
                f"rounds and batch_size must be positive, got {self.rounds}, {self.batch_size}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


# ---------------------------------------------------------------------------
# losses


EPS = 1e-7  # probabilities are clamped into [EPS, 1 - EPS] before each log


def _bce(p, target):
    """Mean binary cross entropy of probabilities p against a target of 1, 0 or a {0,1}
    Tensor: -mean log q, where q is p where the target is 1 and 1 - p where it is 0."""
    if isinstance(target, Tensor):
        t = target.data  # p * (2t - 1) + (1 - t) is exact in float32
        q = ag.add(ag.mul(p, Tensor(2 * t - 1)), Tensor(1 - t))
    else:
        q = p if target == 1 else ag.rsub(p, 1.0)
    return ag.neg(ag.global_mean(ag.log(ag.clamp(q, EPS, 1.0 - EPS))))


def d_loss(d_real, d_fake):
    """Discriminator objective over real and generated decision maps."""
    if d_real.data.shape != d_fake.data.shape:
        raise ValueError(
            f"decision map shape mismatch: real {d_real.data.shape} vs fake {d_fake.data.shape}"
        )
    return ag.add(_bce(d_real, 1), _bce(d_fake, 0))


def g_gan_loss(d_fake):
    """Non-saturating generator term: small when the discriminator is fooled."""
    return _bce(d_fake, 1)


def seg_loss(pred, gold):
    """Pixel binary cross entropy against a {0,1} gold map Tensor."""
    if not np.all((gold.data == 0) | (gold.data == 1)):
        raise ValueError("gold standard must contain only 0/1 values")
    if pred.shape != gold.shape:
        raise ValueError(f"prediction shape {pred.shape} does not match gold {gold.shape}")
    return _bce(pred, gold)


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
    """C-ordered float32 (B,3,H,W) and (B,1,H,W) copies of samples, which may be views."""
    x = np.array([s.x for s in samples], dtype=np.float32)  # np.stack keeps a view's strides
    y = np.array([s.y for s in samples], dtype=np.float32)[:, None, :, :]
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


def _g_losses(g, d, x, y, cfg):
    """(seg, gan, total) generator losses of one batch; gan is None without a discriminator."""
    pred = mdl.generator_forward(g, x)
    seg = seg_loss(pred, y)
    if d is None:
        return seg, None, seg
    gan = g_gan_loss(mdl.discriminator_forward(d, x, pred))
    return seg, gan, g_total_loss(gan, seg, cfg.lambda_)


def _step(opt, loss, round_index, batch_index, phase):
    """One optimizer step on loss, whose value it returns; a non-finite loss is refused
    before any gradient is taken, so the parameters and the optimizer state stay as they were."""
    value = float(loss.data)
    if not np.isfinite(value):
        raise NumericalError(
            f"non-finite {phase} loss at round {round_index}, batch {batch_index}"
        )
    opt.zero_grad()
    ag.backward(loss)
    opt.step()
    return value


def train_round(g, d, train_set, cfg, round_index, opt_g, opt_d):
    """One discriminator epoch then one generator epoch over train_set.

    opt_g and opt_d (None when d is) keep their Adam state across rounds; the
    batch order is a seeded shuffle derived from (cfg.seed, round_index).
    """
    if not train_set:
        raise ValueError("train_round: empty training set")
    order = np.random.default_rng([cfg.seed, round_index]).permutation(len(train_set))

    stats = RoundStats(round_index)
    if d is not None:
        losses = []
        for bi, (x, y) in enumerate(_batches(train_set, order, cfg.batch_size)):
            with ag.no_grad():
                fake = mdl.generator_forward(g, x)
            loss = d_loss(mdl.discriminator_forward(d, x, y), mdl.discriminator_forward(d, x, fake))
            losses.append(_step(opt_d, loss, round_index, bi, "discriminator"))
        stats.d_loss = float(np.mean(losses))

    gan_losses, seg_losses = [], []
    with ag.frozen(d.params.values() if d is not None else ()):
        for bi, (x, y) in enumerate(_batches(train_set, order, cfg.batch_size)):
            seg, gan, total = _g_losses(g, d, x, y, cfg)
            if gan is not None:
                gan_losses.append(float(gan.data))
            seg_losses.append(float(seg.data))
            _step(opt_g, total, round_index, bi, "generator")
    stats.seg_loss = float(np.mean(seg_losses))
    if gan_losses:
        stats.g_gan_loss = float(np.mean(gan_losses))
    return stats


def validation_loss(g, d, val_set, cfg):
    """Mean generator objective over the validation set, no updates."""
    totals = []
    with ag.no_grad():
        for x, y in _batches(val_set, list(range(len(val_set))), cfg.batch_size):
            totals.append(float(_g_losses(g, d, x, y, cfg)[2].data))
    return float(np.mean(totals))


def split_train_val(samples, cfg):
    """Seeded split of the source samples into train and validation parts, before any
    augmentation, so that no validation sample is a variant of a training one."""
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
    gen_params: dict
    val_g_loss: float


@dataclass
class FitResult:
    checkpoint: Checkpoint
    history: list = field(default_factory=list)


def _adam(model, what, cfg):
    """Adam over model's parameters named ``what.name``, so that an error says which model."""
    return Adam([(f"{what}.{k}", p) for k, p in model.parameters()], cfg.lr, cfg.beta1, cfg.beta2)


def fit(g, d, train, val, cfg):
    """Run cfg.rounds alternating rounds; keep the best-validation checkpoint.

    train and val are the two parts of :func:`split_train_val`.  Returns a
    FitResult whose checkpoint is the one with minimum validation generator
    loss (earliest round on ties).
    """
    if not val:
        raise ValueError("empty validation split")
    opt_g = _adam(g, "generator", cfg)
    opt_d = _adam(d, "discriminator", cfg) if d is not None else None

    history = []
    best = None
    for r in range(1, cfg.rounds + 1):
        try:  # an overflow anywhere in a round, say from a huge lambda or lr, ends the run
            with np.errstate(over="raise", invalid="raise"):
                stats = train_round(g, d, train, cfg, round_index=r, opt_g=opt_g, opt_d=opt_d)
                stats.val_g_loss = float(validation_loss(g, d, val, cfg))
        except FloatingPointError as exc:
            raise NumericalError(f"round {r}: {exc}") from None
        history.append(stats)
        if best is None or stats.val_g_loss < best.val_g_loss:
            params = {k: p.data.copy() for k, p in g.params.items()}
            best = Checkpoint(r, g.spec, params, stats.val_g_loss)
    return FitResult(checkpoint=best, history=history)


def _param_names(ckpt):
    """The generator's parameter names in build order, if ckpt holds exactly them as
    float32 arrays of their shapes."""
    layout = mdl.generator_layout(ckpt.gen_spec)
    # islice: a corrupt spec can describe far more parameters than were stored
    shapes = itertools.islice(mdl.param_shapes(layout), len(ckpt.gen_params) + 1)
    want = {k: (shape, "float32") for k, shape in shapes}
    got = {k: (v.shape, v.dtype.name) for k, v in ckpt.gen_params.items()}
    if want != got:
        differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        raise CheckpointError(
            f"generator parameters missing, unexpected, misshapen or not float32: {differ}"
        )
    return list(want)


def rebuild_models(ckpt: Checkpoint):
    """(generator, None): the generator holding exactly the checkpointed weights.

    A checkpoint holds no discriminator.  The pair and the name stay because
    ``bench/checks.py`` and the acceptance gate unpack ``g, _ = ...`` and
    ``bench/tracing.py`` wraps this function by name.  Raises
    CheckpointError unless the parameters are exactly those the spec builds.
    """
    params = {k: Tensor(ckpt.gen_params[k].copy(), requires_grad=True) for k in _param_names(ckpt)}
    return mdl.Model(ckpt.gen_spec, params), None


# ---------------------------------------------------------------------------
# checkpoint serialization, version 4: the magic, a u16 version, a u32 length
# and that many bytes of UTF-8 JSON metadata (round, val_g_loss and gen_spec
# as [scales, base_channels]), the little-endian f32 values of every generator
# parameter in mdl.param_shapes order, then the sha256 of everything before
# it.  Parameter names and shapes are not stored, because the spec fixes
# them; neither the discriminator, which only training uses, nor optimizer
# state is stored.

MAGIC = b"VGANCKPT"
VERSION = 4
_HEAD = len(MAGIC) + 2
_DIGEST = hashlib.sha256().digest_size
_META_KEYS = ("round", "val_g_loss", "gen_spec")


def save_checkpoint(ckpt: Checkpoint, path):
    """Write ckpt; raise CheckpointError if its parameters are not those its spec builds."""
    gs = ckpt.gen_spec
    meta = {
        "round": ckpt.round_index,
        "val_g_loss": ckpt.val_g_loss,
        "gen_spec": [gs.scales, gs.base_channels],
    }
    text = json.dumps(meta).encode()
    chunks = [MAGIC, struct.pack("<HI", VERSION, len(text)), text]
    chunks += [np.asarray(ckpt.gen_params[k], "<f4").tobytes() for k in _param_names(ckpt)]
    body = b"".join(chunks)
    Path(path).write_bytes(body + hashlib.sha256(body).digest())


def _typed(value, kinds, what):
    """value if its type is exactly one of kinds (a bool or float is no int); a list of
    kinds types a list entry by entry."""
    if type(kinds) is list:
        if type(value) is list and len(value) == len(kinds):
            return [_typed(v, k, f"{what}[{i}]") for i, (v, k) in enumerate(zip(value, kinds))]
    elif type(value) in kinds:
        return value
    raise CheckpointError(f"checkpoint metadata {what} has the wrong type: {value!r}")


def _decode_meta(text):
    """The Checkpoint of a metadata text, its parameters still empty."""
    try:
        meta = json.loads(text.decode())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"checkpoint metadata is not UTF-8 JSON: {exc}") from None
    if type(meta) is not dict or meta.keys() != set(_META_KEYS):
        raise CheckpointError(
            f"checkpoint metadata must be an object with exactly the keys {_META_KEYS}, "
            f"got {text[:200]!r}"
        )
    gen = _typed(meta["gen_spec"], [(int,)] * 2, "gen_spec")
    try:
        gen_spec = mdl.GeneratorSpec(*gen)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint metadata describes no model: {exc}") from None
    return Checkpoint(
        round_index=_typed(meta["round"], (int,), "round"),
        gen_spec=gen_spec,
        gen_params={},
        val_g_loss=_typed(meta["val_g_loss"], (float,), "val_g_loss"),
    )


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint exactly as saved, or raise CheckpointError (DataError for a FIFO or
    device, which is not read)."""
    raw = read_file(path)
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(
            f"bad magic at offset 0: expected {MAGIC!r}, got {bytes(raw[: len(MAGIC)])!r}"
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
    pos = _HEAD

    def take(n, what):
        nonlocal pos
        if n > end - pos:
            raise CheckpointError(
                f"truncated checkpoint: wanted {n} bytes for {what} at offset {pos}, "
                f"{end - pos} left"
            )
        pos += n
        return raw[pos - n : pos]

    (meta_len,) = struct.unpack("<I", take(4, "the metadata length"))
    ckpt = _decode_meta(bytes(take(meta_len, "the metadata")))
    for k, shape in mdl.param_shapes(mdl.generator_layout(ckpt.gen_spec)):
        values = take(4 * math.prod(shape), f"generator parameter {k}")
        ckpt.gen_params[k] = np.frombuffer(values, "<f4").reshape(shape)
    if pos != end:
        raise CheckpointError(f"{end - pos} bytes left over after the parameters at offset {pos}")
    return ckpt
