"""Command-line entry point: train / infer / eval / overlay.

Configuration is a flat key=value file; unknown keys are rejected and the
fully resolved configuration is echoed into the output directory, so a run
is reproducible from config.resolved alone.  Exit codes: 0 success,
1 usage/config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import data, metrics, models, training
from .autograd import NumericalError, Tensor, no_grad
from .data import DataError, Image
from .models import GeneratorSpec
from .training import CheckpointError, TrainConfig


class ConfigError(Exception):
    """Unusable configuration or command line."""


EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL = 0, 1, 2, 3


# ---------------------------------------------------------------------------
# run configuration

CONFIG_SCHEMA = {
    # model
    "scales": (int, 2),
    "base_channels": (int, 8),
    "discriminator": (models.VARIANT_NAMES, "image"),
    # training
    "lambda": (float, 10.0),
    "lr": (float, 2e-4),
    "beta1": (float, 0.5),
    "beta2": (float, 0.999),
    "rounds": (int, 10),
    "batch_size": (int, 1),
    "seed": (int, 0),
    "val_fraction": (float, 1.0 / 20.0),
    # data
    "dataset": (("drive", "stare", "custom", "synthetic"), "synthetic"),
    "data_dir": (str, ""),
    "image_size": (int, 64),
    "synthetic_count": (int, 8),
    "augment": (("on", "off"), "on"),
    "test_fraction": (float, 0.2),
    "fov_threshold": (float, data.DEFAULT_FOV_THRESHOLD),
}


def parse_config_text(text, source="<config>"):
    """Parse key=value lines onto the defaults; collect every bad line."""
    cfg = {k: default for k, (_, default) in CONFIG_SCHEMA.items()}
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"{source}:{lineno}: expected key=value, got {raw!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_SCHEMA:
            errors.append(f"{source}:{lineno}: unknown key {key!r}")
            continue
        kind = CONFIG_SCHEMA[key][0]
        if isinstance(kind, tuple):
            if value not in kind:
                errors.append(
                    f"{source}:{lineno}: {key} must be one of {'|'.join(kind)}, got {value!r}"
                )
                continue
            cfg[key] = value
        else:
            try:
                cfg[key] = kind(value)
            except ValueError:
                errors.append(f"{source}:{lineno}: {key} expects {kind.__name__}, got {value!r}")
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


def resolve_config(config_path=None, seed_override=None):
    text = Path(config_path).read_text() if config_path else ""
    cfg = parse_config_text(text, source=str(config_path) if config_path else "<defaults>")
    if seed_override is not None:
        cfg["seed"] = seed_override
    return cfg


def config_lines(cfg):
    return [f"{k}={cfg[k]}" for k in CONFIG_SCHEMA]


def write_resolved(cfg, out_dir):
    (Path(out_dir) / "config.resolved").write_text("\n".join(config_lines(cfg)) + "\n")


def _check_fov_threshold(value, name):
    """A FOV luminance threshold is a fraction of maxval: finite and in [0, 1]."""
    if not 0.0 <= value <= 1.0:  # false for NaN too
        raise ConfigError(f"{name} {value} outside [0, 1]")


# ---------------------------------------------------------------------------
# train


@contextmanager
def _config_keys(cfg, *keys):
    """Report a ValueError raised while deriving from these keys as a ConfigError naming them."""
    try:
        yield
    except ValueError as exc:
        named = ", ".join(f"{k}={cfg[k]}" for k in keys)
        raise ConfigError(f"{named}: {exc}" if named else str(exc)) from None


def train_config(cfg):
    """The TrainConfig of a resolved config; a bad value is a ConfigError naming its key."""
    with _config_keys(cfg):  # TrainConfig's messages name the key
        return TrainConfig(
            lambda_=cfg["lambda"],
            lr=cfg["lr"],
            beta1=cfg["beta1"],
            beta2=cfg["beta2"],
            rounds=cfg["rounds"],
            batch_size=cfg["batch_size"],
            seed=cfg["seed"],
            val_fraction=cfg["val_fraction"],
        )


def _synthetic_samples(cfg):
    size, count, seed = cfg["image_size"], cfg["synthetic_count"], cfg["seed"]
    div = 2 ** cfg["scales"]
    if size < div or size % div:
        raise ConfigError(f"image_size {size} is not a positive multiple of 2**scales = {div}")
    return [data.generate_synthetic_sample(size, seed * 100003 + i) for i in range(count)]


def _real_samples(cfg):
    root = Path(cfg["data_dir"])
    if not cfg["data_dir"] or not root.is_dir():
        raise DataError(f"data_dir {cfg['data_dir']!r} is not a readable directory")
    samples = data.load_dataset(root, cfg["fov_threshold"])
    try:
        plan = data.make_split(
            [s.id for s in samples], cfg["dataset"], cfg["seed"], test_fraction=cfg["test_fraction"]
        )
    except ValueError as exc:
        raise DataError(
            f"data_dir {cfg['data_dir']!r} cannot be split as dataset={cfg['dataset']}: {exc}"
        ) from exc
    by_id = {s.id: s for s in samples}
    pool = [by_id[i] for i in plan.train]
    sizes = {s.y.shape for s in pool}
    if len(sizes) > 1:
        raise DataError(f"training images must share one size, got {sorted(sizes)}")
    div = 2 ** cfg["scales"]
    return [data.pad_sample(s, div) for s in pool]


def _history_lines(history):
    lines = ["round,d_loss,g_gan_loss,seg_loss,val_g_loss"]
    for st in history:
        values = (st.d_loss, st.g_gan_loss, st.seg_loss, st.val_g_loss)
        lines.append(",".join([str(st.round_index), *map(metrics.fmt, values)]))
    return lines


def cmd_train(args):
    cfg = resolve_config(args.config, args.seed)
    # derive everything from the config before the output directory exists
    _check_fov_threshold(cfg["fov_threshold"], "fov_threshold")
    train_cfg = train_config(cfg)
    with _config_keys(cfg, "scales", "base_channels"):
        gen_spec = GeneratorSpec(scales=cfg["scales"], base_channels=cfg["base_channels"])
    if cfg["dataset"] == "synthetic":
        pool = _synthetic_samples(cfg)
    else:
        pool = _real_samples(cfg)
    if cfg["augment"] == "on":
        pool = [v for s in pool for v in data.augment(s)]
    pool_key = "synthetic_count" if cfg["dataset"] == "synthetic" else "data_dir"
    with _config_keys(cfg, pool_key, "augment", "val_fraction"):
        train, val = training.split_train_val(pool, train_cfg)

    h, w = pool[0].y.shape
    g = models.build_generator(gen_spec, seed=cfg["seed"])
    variant = models.parse_variant(cfg["discriminator"], (h, w))
    d = None
    if variant is not None:
        d = models.build_discriminator(variant, (h, w), cfg["base_channels"], seed=cfg["seed"] + 1)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved(cfg, out)
    result = training.fit(g, d, train, val, train_cfg)
    training.save_checkpoint(result.checkpoint, out / "best.ckpt")
    (out / "history.csv").write_text("\n".join(_history_lines(result.history)) + "\n")
    print(
        f"best round {result.checkpoint.round_index} "
        f"(val_g_loss={result.checkpoint.val_g_loss:.6g}); wrote {out}/best.ckpt"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# infer


def probability_map(g, x_chw):
    """Run the generator over a z-scored (3,H,W) array of any size.

    The forward pass builds no graph, so each layer's buffers are freed as
    soon as the next layer has consumed them.
    """
    div = g.spec.divisor
    h, w = x_chw.shape[-2:]
    padded, offsets = data.pad_to_multiple(x_chw, div)
    with no_grad():
        out = models.generator_forward(g, Tensor(padded[None].astype(np.float32)))
    return data.crop_from_padding(out.data[0, 0], offsets, (h, w))


def cmd_infer(args):
    ckpt = training.load_checkpoint(args.checkpoint)
    g, _ = training.rebuild_models(ckpt)
    img = data.load_image(args.image)
    if img.channels != 3:
        raise DataError(f"{args.image}: inference needs a 3-channel P6 fundus image")
    x = data.zscore_normalize(img).transpose(2, 0, 1)
    probs = probability_map(g, x)
    quantized = np.round(probs * 65535.0).astype(np.uint16)
    data.write_image(Image(pixels=quantized[:, :, None], maxval=65535), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _load_prob(path):
    img = data.load_image(path)
    if img.channels != 1:
        raise DataError(f"{path}: probability maps must be 1-channel P5")
    return img.pixels[:, :, 0].astype(np.float64) / img.maxval


def _load_binary(path):
    img = data.load_image(path)
    if img.channels != 1:
        raise DataError(f"{path}: expected 1-channel P5")
    return data.binarize(img)


def _fov_mask(path, threshold):
    fundus = data.load_image(path)
    if fundus.channels != 3:
        raise DataError(f"{path}: FOV detection needs a 3-channel P6 fundus image")
    try:
        return data.generate_fov_mask(fundus, threshold)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _stem_map(directory, suffixes=(".pgm",)):
    d = Path(directory)
    if not d.is_dir():
        raise DataError(f"{directory} is not a readable directory")
    return {p.stem: p for p in sorted(d.iterdir()) if p.suffix in suffixes}


def cmd_eval(args):
    _check_fov_threshold(args.fov_threshold, "--fov-threshold")
    preds = _stem_map(args.pred_dir)
    golds = _stem_map(args.gold_dir)
    if not preds:
        raise DataError(f"no .pgm probability maps under {args.pred_dir}")
    mismatched = sorted(set(preds) ^ set(golds))
    if mismatched:
        raise DataError(
            "unmatched basenames between pred and gold directories: " + ", ".join(mismatched)
        )
    masks = _stem_map(args.mask_dir) if args.mask_dir else {}
    if args.mask_dir:
        missing = sorted(set(preds) - set(masks))
        if missing:
            raise DataError("mask directory lacks masks for: " + ", ".join(missing))
    images = _stem_map(args.image_dir, suffixes=(".ppm",)) if args.image_dir else {}

    notes = []
    prob_list, gold_list, mask_list, ids = [], [], [], []
    for stem in sorted(preds):
        probs = _load_prob(preds[stem])
        gold = _load_binary(golds[stem])
        if probs.shape != gold.shape:
            raise DataError(f"{stem}: prediction {probs.shape} and gold {gold.shape} differ")
        if stem in masks:
            mask = _load_binary(masks[stem])
        elif stem in images:
            mask = _fov_mask(images[stem], args.fov_threshold)
            notes.append(f"{stem}: FOV mask synthesized from {images[stem]}")
        else:
            mask = np.ones_like(gold)
            notes.append(f"{stem}: no mask available, counted all pixels")
        if mask.shape != gold.shape:
            raise DataError(f"{stem}: mask {mask.shape} and gold {gold.shape} differ")
        if args.per_image_otsu and not mask.any():
            raise DataError(f"{stem}: empty FOV mask, no pixel to pick an Otsu threshold from")
        prob_list.append(probs)
        gold_list.append(gold)
        mask_list.append(mask)
        ids.append(stem)
    # the pooled ROC needs vessel and background pixels inside the FOV
    fov = sum(int(np.count_nonzero(m)) for m in mask_list)
    vessel = sum(int(np.count_nonzero(g & m)) for g, m in zip(gold_list, mask_list))
    for count, kind in ((vessel, "vessel"), (fov - vessel, "background")):
        if count == 0:
            raise DataError(f"no {kind} pixel inside the FOV of any gold map: {', '.join(ids)}")

    report = metrics.evaluate(
        prob_list, gold_list, mask_list, ids=ids, per_image_threshold=args.per_image_otsu
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics.write_curve_csv(report.roc, out / "roc.csv")
    metrics.write_curve_csv(report.pr, out / "pr.csv")
    metrics.write_summary_csv(report, out / "summary.csv")
    if notes:
        (out / "notes.txt").write_text("\n".join(notes) + "\n")
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
    print(
        f"roc_auc={report.roc_auc:.6g} pr_auc={report.pr_auc:.6g} "
        f"dice={report.total.dice:.6g} otsu={report.otsu_threshold:.6g}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# overlay


def cmd_overlay(args):
    probs = _load_prob(args.pred)
    gold = _load_binary(args.gold)
    if gold.shape != probs.shape:
        raise DataError(f"{args.gold}: gold {gold.shape} and prediction {probs.shape} differ")
    if args.mask:
        mask = _load_binary(args.mask)
        if mask.shape != probs.shape:
            raise DataError(f"{args.mask}: mask {mask.shape} and prediction {probs.shape} differ")
    else:
        mask = np.ones_like(gold)
    if args.threshold == "otsu":
        if not mask.any():
            raise DataError(f"{args.mask}: empty FOV mask, no pixel to pick an Otsu threshold from")
        thr = metrics.otsu_threshold(probs[mask.astype(bool)])
    else:
        try:
            thr = float(args.threshold)
        except ValueError:
            raise ConfigError(
                f"--threshold must be 'otsu' or a real number, got {args.threshold!r}"
            ) from None
        if not 0.0 <= thr <= 1.0:
            raise ConfigError(f"--threshold {thr} outside [0, 1]")
    pred = (probs >= thr).astype(np.uint8)
    data.write_image(metrics.overlay(pred, gold, mask), args.out)
    print(f"wrote {args.out} (threshold={thr:.6g})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="vesselseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model and keep the best-validation checkpoint")
    t.add_argument("--config", help="key=value config file; defaults apply when omitted")
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--seed", type=int, help="override the config seed")
    t.set_defaults(fn=cmd_train)

    i = sub.add_parser("infer", help="write a 16-bit probability map for one fundus image")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--image", required=True, help="P6 fundus image")
    i.add_argument("--out", required=True, help="output P5 path")
    i.set_defaults(fn=cmd_infer)

    e = sub.add_parser("eval", help="FOV-restricted metrics over matched directories")
    e.add_argument("--pred-dir", required=True, help="P5 probability maps")
    e.add_argument("--gold-dir", required=True, help="P5 gold-standard maps")
    e.add_argument("--mask-dir", help="P5 FOV masks; synthesized or all-ones when absent")
    e.add_argument("--image-dir", help="P6 fundus images used to synthesize missing masks")
    e.add_argument("--fov-threshold", type=float, default=data.DEFAULT_FOV_THRESHOLD)
    e.add_argument("--per-image-otsu", action="store_true", help="one threshold per image")
    e.add_argument("--out", required=True, help="output directory for CSVs")
    e.set_defaults(fn=cmd_eval)

    o = sub.add_parser("overlay", help="TP/FP/FN overlay image for one prediction")
    o.add_argument("--pred", required=True, help="P5 probability map")
    o.add_argument("--gold", required=True, help="P5 gold-standard map")
    o.add_argument("--mask", help="P5 FOV mask; all-ones when absent")
    o.add_argument("--threshold", default="otsu", help="'otsu' or a fixed value in [0,1]")
    o.add_argument("--out", required=True, help="output P6 path")
    o.set_defaults(fn=cmd_overlay)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
