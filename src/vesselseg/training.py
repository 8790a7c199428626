"""Adversarial + cross-entropy objective, alternating training, checkpoints.

The discriminator minimizes -mean log D(x,y) - mean log(1-D(x,G(x))); the
generator minimizes the non-saturating surrogate -mean log D(x,G(x)) plus
a weighted pixel cross entropy.  Decisions are averaged, not summed, so
loss magnitudes stay comparable across discriminator variants.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

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
        if self.lambda_ < 0:
            raise ValueError(f"lambda must be non-negative, got {self.lambda_}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must lie in (0,1), got {self.val_fraction}")
        if not 0.0 < self.eps_clamp < 0.5:
            raise ValueError(f"eps_clamp must lie in (0,0.5), got {self.eps_clamp}")
        if self.rounds < 1 or self.batch_size < 1:
            raise ValueError("rounds and batch_size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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
    opt_g_state: dict
    opt_d_state: dict | None
    val_g_loss: float
    fingerprint: str


@dataclass
class FitResult:
    checkpoint: Checkpoint
    history: list = field(default_factory=list)
    train_samples: list = field(default_factory=list)
    val_samples: list = field(default_factory=list)


def config_fingerprint(cfg, g, d):
    text = f"{cfg!r}|{g.spec!r}|{d.spec if d is not None else None!r}"
    return hashlib.sha256(text.encode()).hexdigest()


def _snapshot(g, d, opt_g, opt_d, round_index, val_loss, fingerprint):
    return Checkpoint(
        round_index=round_index,
        gen_spec=g.spec,
        disc_spec=d.spec if d is not None else None,
        gen_params={k: p.data.copy() for k, p in g.params.items()},
        disc_params={k: p.data.copy() for k, p in d.params.items()} if d is not None else None,
        opt_g_state=opt_g.state_dict(),
        opt_d_state=opt_d.state_dict() if opt_d is not None else None,
        val_g_loss=val_loss,
        fingerprint=fingerprint,
    )


def fit(g, d, samples, cfg, val_loss_fn=None, progress=None):
    """Run cfg.rounds alternating rounds; keep the best-validation checkpoint.

    Returns a FitResult whose checkpoint is the one with minimum validation
    generator loss (earliest round on ties).  val_loss_fn may be injected
    for testing; it receives (g, d, val_samples, cfg).
    """
    train, val = split_train_val(samples, cfg)
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
            best = _snapshot(g, d, opt_g, opt_d, r, stats.val_g_loss, fingerprint)
        if progress is not None:
            progress(stats)
    return FitResult(checkpoint=best, history=history, train_samples=train, val_samples=val)


def rebuild_models(ckpt: Checkpoint):
    """Reconstruct (generator, discriminator) with the checkpointed weights."""
    g = mdl.build_generator(ckpt.gen_spec, seed=0)
    for k, arr in ckpt.gen_params.items():
        g.params[k].data = arr.copy()
    d = None
    if ckpt.disc_spec is not None:
        spec = ckpt.disc_spec
        d = mdl.build_discriminator(spec.variant, spec.input_size, spec.base_channels, seed=0)
        for k, arr in ckpt.disc_params.items():
            d.params[k].data = arr.copy()
    return g, d


# ---------------------------------------------------------------------------
# checkpoint serialization: magic, u16 version, then per-tensor records of
# (u16 name length, name bytes, u32 rank, u32 extents, little-endian f32 data)

MAGIC = b"VGANCKPT"
VERSION = 1

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


def _meta_records(ckpt):
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


def _opt_records(prefix, state):
    yield f"{prefix}/t", np.array([state["t"]], dtype=np.float32)
    for k, v in state["m"].items():
        yield f"{prefix}/m/{k}", v
    for k, v in state["v"].items():
        yield f"{prefix}/v/{k}", v


def save_checkpoint(ckpt: Checkpoint, path):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", VERSION))
        for name, values in _meta_records(ckpt):
            _write_record(fh, name, values)
        for k, v in ckpt.gen_params.items():
            _write_record(fh, f"g/{k}", v)
        for name, values in _opt_records("opt_g", ckpt.opt_g_state):
            _write_record(fh, name, values)
        if ckpt.disc_params is not None:
            for k, v in ckpt.disc_params.items():
                _write_record(fh, f"d/{k}", v)
            for name, values in _opt_records("opt_d", ckpt.opt_d_state):
                _write_record(fh, name, values)


def _read_exact(fh, n, what):
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(
            f"truncated checkpoint: wanted {n} bytes for {what} at offset {fh.tell() - len(data)}"
        )
    return data


def _read_records(fh):
    records = {}
    while True:
        head = fh.read(2)
        if not head:
            return records
        if len(head) != 2:
            raise CheckpointError(f"truncated record header at offset {fh.tell() - len(head)}")
        (name_len,) = struct.unpack("<H", head)
        name = _read_exact(fh, name_len, "record name").decode()
        (rank,) = struct.unpack("<I", _read_exact(fh, 4, f"rank of {name}"))
        shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"extents of {name}"))
        count = int(np.prod(shape)) if rank else 1
        raw = _read_exact(fh, 4 * count, f"values of {name}")
        records[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    return records


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(
                f"bad magic at offset 0: expected {MAGIC!r}, got {magic!r}"
            )
        version_raw = _read_exact(fh, 2, "version")
        (version,) = struct.unpack("<H", version_raw)
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version} at offset 8")
        records = _read_records(fh)

    def take(name):
        if name not in records:
            raise CheckpointError(f"checkpoint missing required record {name!r}")
        return records.pop(name)

    round_index = int(take("meta/round")[0])
    val_g_loss = float(take("meta/val_g_loss")[0])
    fingerprint = bytes(take("meta/config_fingerprint").astype(np.uint8)).decode()
    gi, gs, gb, gk = (int(v) for v in take("meta/gen_spec"))
    gen_spec = mdl.GeneratorSpec(gi, gs, gb, gk)

    disc_spec = None
    if "meta/disc_spec" in records:
        kind_code, patch, base, h, w = (int(v) for v in take("meta/disc_spec"))
        variant = mdl.DiscriminatorVariant(_KIND_NAMES[kind_code], patch or None)
        probe = mdl.build_discriminator(variant, (h, w), base, seed=0)
        disc_spec = probe.spec

    def collect(prefix):
        got = {}
        for name in [n for n in records if n.startswith(prefix)]:
            got[name[len(prefix) :]] = records.pop(name)
        return got

    def opt_state(prefix):
        t = int(take(f"{prefix}/t")[0])
        return {"t": t, "m": collect(f"{prefix}/m/"), "v": collect(f"{prefix}/v/")}

    gen_params = collect("g/")
    opt_g_state = opt_state("opt_g")
    disc_params = None
    opt_d_state = None
    if disc_spec is not None:
        disc_params = collect("d/")
        opt_d_state = opt_state("opt_d")
    return Checkpoint(
        round_index=round_index,
        gen_spec=gen_spec,
        disc_spec=disc_spec,
        gen_params=gen_params,
        disc_params=disc_params,
        opt_g_state=opt_g_state,
        opt_d_state=opt_d_state,
        val_g_loss=val_g_loss,
        fingerprint=fingerprint,
    )
