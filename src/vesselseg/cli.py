"""Command-line entry point: train / infer / eval / overlay.

Configuration is a flat key=value file; unknown keys are rejected and the
fully resolved configuration is echoed into the output directory, so a run
is reproducible from config.resolved alone.  Exit codes: 0 success,
1 usage/config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import re
import sys
import time
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

def _keyed_fields(spec_type):
    """(key, field) of each field of a dataclass: ``lambda_`` is keyed ``lambda``."""
    return [(f.name.rstrip("_"), f) for f in dataclasses.fields(spec_type)]


# the model and training keys are the fields of GeneratorSpec and TrainConfig, with their defaults
CONFIG_SCHEMA = {
    # model
    **{key: (type(f.default), f.default) for key, f in _keyed_fields(GeneratorSpec)},
    "discriminator": (models.VARIANT_NAMES, "image"),
    # training
    **{key: (type(f.default), f.default) for key, f in _keyed_fields(TrainConfig)},
    # data
    "dataset": (("drive", "stare", "custom", "synthetic"), "synthetic"),
    "data_dir": (str, ""),
    "image_size": (int, 64),
    "synthetic_count": (int, 8),
    "augment": (("on", "off"), "on"),
}


# An int value matches -?[0-9]+ and a float value is ASCII without "_": int() and
# float() alone also take "1_0", "+3" and non-ASCII digits such as "٣".
_VALUE_FORMS = {int: r"-?[0-9]+", float: r"[^_\x80-\U0010ffff]*", str: r".*"}


def _value(kind, text):
    """kind(text) for text in kind's form in ``_VALUE_FORMS``; ValueError for any other text."""
    if not re.fullmatch(_VALUE_FORMS[kind], text):
        raise ValueError(text)
    return kind(text)


def _option(kind):
    """An argparse type taking the numbers a config value takes."""

    def convert(text):
        return _value(kind, text)

    convert.__name__ = kind.__name__  # argparse refuses with "invalid int value: '1_0'"
    return convert


def parse_config_text(text, source="<config>"):
    """Parse key=value lines onto the defaults; collect every bad line.  A key is set once."""
    cfg = {k: default for k, (_, default) in CONFIG_SCHEMA.items()}
    errors, set_on = [], {}
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
        if key in set_on:
            errors.append(f"{source}:{lineno}: {key} already set on line {set_on[key]}")
            continue
        set_on[key] = lineno
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
                cfg[key] = _value(kind, value)
            except ValueError:
                errors.append(f"{source}:{lineno}: {key} expects {kind.__name__}, got {value!r}")
    if errors:
        raise ConfigError("\n".join(errors))
    return cfg


def desk_config(discriminator, rounds, seed, size, count):
    """Config text of the desk-scale synthetic run the scripts and the acceptance gate train."""
    return (
        f"dataset=synthetic\nimage_size={size}\nsynthetic_count={count}\naugment=off\n"
        f"scales=2\nbase_channels=8\ndiscriminator={discriminator}\n"
        f"lambda=10\nlr=0.002\nbeta1=0.9\nbatch_size=1\nrounds={rounds}\nseed={seed}\n"
    )


def resolve_config(config_path=None, seed_override=None):
    try:
        text = data.read_file(config_path).decode() if config_path else ""
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{config_path}: not UTF-8 at byte offset {exc.start}") from None
    cfg = parse_config_text(text, source=str(config_path) if config_path else "<defaults>")
    if seed_override is not None:
        cfg["seed"] = seed_override
    return cfg


def config_lines(cfg):
    return [f"{k}={cfg[k]}" for k in CONFIG_SCHEMA]


def _check_fraction(value, name):
    """Refuse an option value that is not a fraction: finite and in [0, 1]."""
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


def _from_config(spec_type, cfg, *keys):
    """spec_type read from a resolved config; its ValueError is a ConfigError naming ``keys``."""
    with _config_keys(cfg, *keys):
        return spec_type(**{f.name: cfg[key] for key, f in _keyed_fields(spec_type)})


def train_config(cfg):
    """The TrainConfig of a resolved config; a bad value is a ConfigError naming its key."""
    return _from_config(TrainConfig, cfg)  # TrainConfig's messages name the key


def _check_scales(cfg, side, *keys):
    """2**scales must not exceed the smaller image side, compared with no power built:
    for a side n >= 1, 2**s <= n exactly when s < n.bit_length()."""
    if side < 1 or cfg["scales"] >= side.bit_length():
        named = ", ".join(f"{k}={cfg[k]}" for k in ("scales", *keys))
        raise ConfigError(f"{named}: 2**scales exceeds the smaller image side {side}")


def _synthetic_samples(cfg):
    size, count, seed = cfg["image_size"], cfg["synthetic_count"], cfg["seed"]
    _check_scales(cfg, size, "image_size")
    return [data.generate_synthetic_sample(size, seed * 100003 + i) for i in range(count)]


def _real_samples(cfg):
    root = Path(cfg["data_dir"])
    if not cfg["data_dir"] or not root.is_dir():
        raise DataError(f"data_dir {cfg['data_dir']!r} is not a readable directory")
    pool = data.load_dataset(root, cfg["dataset"])
    sizes = {s.y.shape for s in pool}
    if len(sizes) > 1:
        raise DataError(f"training images must share one size, got {sorted(sizes)}")
    _check_scales(cfg, min(pool[0].y.shape))
    return pool


def _history_lines(history):
    """history.csv: a column for each ``RoundStats`` field, ``round_index`` headed ``round``."""
    _, *names = (f.name for f in dataclasses.fields(training.RoundStats))
    lines = [",".join(["round", *names])]
    for st in history:
        round_index, *values = dataclasses.astuple(st)
        lines.append(",".join([str(round_index), *map(metrics.fmt, values)]))
    return lines


def cmd_train(args):
    cfg = resolve_config(args.config, args.seed)
    # derive everything from the config before the output directory exists
    train_cfg = train_config(cfg)
    gen_spec = _from_config(GeneratorSpec, cfg, "scales", "base_channels")
    pool = _synthetic_samples(cfg) if cfg["dataset"] == "synthetic" else _real_samples(cfg)
    # every side is zero-padded up to the generator's divisor, as infer pads a photo
    div = gen_spec.divisor
    pool = [data.Sample(s.id, *(data.pad_to_multiple(a, div)[0] for a in (s.x, s.y))) for s in pool]
    pool_key = "synthetic_count" if cfg["dataset"] == "synthetic" else "data_dir"
    with _config_keys(cfg, pool_key, "val_fraction"):
        train, val = training.split_train_val(pool, train_cfg)
    # augment after the split, so that validation holds no twin of a training image
    if cfg["augment"] == "on":
        train = [v for s in train for v in data.augment(s)]

    h, w = pool[0].y.shape
    g = models.build_generator(gen_spec, seed=cfg["seed"])
    variant = models.parse_variant(cfg["discriminator"], (h, w))
    d = None
    if variant is not None:
        d = models.build_discriminator(variant, (h, w), cfg["base_channels"], seed=cfg["seed"] + 1)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved").write_text("\n".join(config_lines(cfg)) + "\n")
    # an earlier run's model must not outlive its config, say when this run fails
    for name in ("best.ckpt", "history.csv"):
        (out / name).unlink(missing_ok=True)
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
    soon as the next layer has consumed them.  A float32 input is used
    as it is, not copied.
    """
    h, w = x_chw.shape[-2:]
    padded, (top, left) = data.pad_to_multiple(x_chw, g.spec.divisor)
    with no_grad():
        out = models.generator_forward(g, Tensor(padded[None], dtype=np.float32))
    return out.data[0, 0, top : top + h, left : left + w]


def cmd_infer(args):
    ckpt = training.load_checkpoint(args.checkpoint)
    g, _ = training.rebuild_models(ckpt)
    x = data.zscore_normalize(data.load_photo(args.image)).transpose(2, 0, 1)
    try:  # weights that load but overflow float32 would otherwise quantize to a zero map
        with np.errstate(over="raise", invalid="raise"):
            probs = probability_map(g, x)
            quantized = np.round(probs * 65535.0).astype(np.uint16)
    except FloatingPointError as exc:
        raise NumericalError(f"{args.checkpoint}: forward pass: {exc}") from None
    data.write_image(Image(pixels=quantized[:, :, None], maxval=65535), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _load_prob(path):
    """A P5 probability map as uint16 levels on the 65535 scale (``metrics.LEVELS``).

    An 8-bit level k becomes 257·k, whose score 257k/65535 is the same
    double as k/255.
    """
    img = data.load_image(path)
    if img.channels != 1:
        raise DataError(f"{path}: probability maps must be 1-channel P5")
    levels = img.pixels[:, :, 0]
    if img.maxval == 65535:
        return levels
    return levels.astype(np.uint16) * np.uint16(65535 // img.maxval)


def _eval_pixels(stem, preds, golds, masks, images, args, notes):
    """``metrics.fov_pixels`` of one image; its full-size maps are freed on return."""
    probs = _load_prob(preds[stem])
    gold = data.load_binary(golds[stem])
    if probs.shape != gold.shape:
        raise DataError(f"{stem}: prediction {probs.shape} and gold {gold.shape} differ")
    if stem in masks:
        mask = data.load_binary(masks[stem])
    elif stem in images:
        mask = data.detect_fov(data.load_photo(images[stem]), images[stem], args.fov_threshold)
        notes.append(f"{stem}: FOV mask synthesized from {images[stem]}")
    else:
        mask = np.ones_like(gold)
        notes.append(f"{stem}: no mask available, counted all pixels")
    if mask.shape != gold.shape:
        raise DataError(f"{stem}: mask {mask.shape} and gold {gold.shape} differ")
    if args.per_image_otsu and not mask.any():
        raise DataError(f"{stem}: empty FOV mask, no pixel to pick an Otsu threshold from")
    return metrics.fov_pixels(probs, gold, mask)


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory_mapped():
    """Have glibc serve frame-sized arrays from the heap and keep the heap's freed top mapped.

    Every command frees and re-allocates a working set many times in one
    process: eval once per image, infer once per layer, and training once per
    step.  With glibc's defaults each large array is mapped afresh and the
    heap's freed top is handed back to the kernel, so every step faults the
    same memory in again: about 3,800 minor page faults per 64x64 training
    round.  Here arrays under 32 MiB come from the heap, and up to 64 MiB of
    freed heap top stays mapped.  :func:`main` calls this once, before any
    command runs.  Without a ``mallopt`` (not glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # the highest values glibc's own dynamic thresholds reach on 64-bit
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def cmd_eval(args):
    start = time.perf_counter()
    _check_fraction(args.fov_threshold, "--fov-threshold")
    preds = data.stem_paths(args.pred_dir, ".pgm")
    golds = data.stem_paths(args.gold_dir, ".pgm")
    if not preds:
        raise DataError(f"no .pgm probability maps under {args.pred_dir}")
    refused = metrics.unnamable_ids(sorted(preds))
    if refused:
        raise DataError(
            "stems summary.csv cannot name (a ',', CR or LF, not UTF-8, or 'ALL'): "
            + ", ".join(map(repr, refused))
        )
    mismatched = sorted(set(preds) ^ set(golds))
    if mismatched:
        raise DataError(
            "unmatched basenames between pred and gold directories: " + ", ".join(mismatched)
        )
    masks = data.stem_paths(args.mask_dir, ".pgm") if args.mask_dir else {}
    if args.mask_dir:
        missing = sorted(set(preds) - set(masks))
        if missing:
            raise DataError("mask directory lacks masks for: " + ", ".join(missing))
    images = data.stem_paths(args.image_dir, ".ppm") if args.image_dir else {}

    notes, ids = [], sorted(preds)
    # each image is counted as it is read, and only its counts are kept
    tally = metrics.Tally(per_image_threshold=args.per_image_otsu)
    for stem in ids:
        tally.add(_eval_pixels(stem, preds, golds, masks, images, args, notes))
    # the pooled ROC needs vessel and background pixels inside the FOV
    fov, vessel = tally.counts.sum(axis=1).tolist()
    for count, kind in ((vessel, "vessel"), (fov - vessel, "background")):
        if count == 0:
            raise DataError(f"no {kind} pixel inside the FOV of any gold map: {', '.join(ids)}")

    report = tally.report(ids)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics.write_curve_csv((report.roc, out / "roc.csv"), (report.pr, out / "pr.csv"))
    metrics.write_summary_csv(report, out / "summary.csv")
    if notes:
        # a path's undecodable bytes are written back as they are on disk
        (out / "notes.txt").write_text("\n".join(notes) + "\n", errors="surrogateescape")
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
    else:  # a note an earlier run left in this directory no longer holds
        (out / "notes.txt").unlink(missing_ok=True)
    otsu = "per-image" if args.per_image_otsu else f"{report.otsu_threshold:.6g}"
    print(
        f"roc_auc={report.roc_auc:.6g} pr_auc={report.pr_auc:.6g} "
        f"dice={report.total.dice:.6g} otsu={otsu}"
    )
    print(
        f"eval: {len(ids)} images, {fov} FOV pixels, {time.perf_counter() - start:.2f} s",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# overlay


def cmd_overlay(args):
    thr = None
    if args.threshold != "otsu":
        try:
            thr = _value(float, args.threshold)
        except ValueError:
            raise ConfigError(
                f"--threshold must be 'otsu' or a real number, got {args.threshold!r}"
            ) from None
        _check_fraction(thr, "--threshold")
    probs = _load_prob(args.pred)
    gold = data.load_binary(args.gold)
    mask = data.load_binary(args.mask) if args.mask else np.ones_like(gold)
    for path, role, arr in ((args.gold, "gold", gold), (args.mask, "mask", mask)):
        if arr.shape != probs.shape:
            raise DataError(f"{path}: {role} {arr.shape} and prediction {probs.shape} differ")
    if thr is None:
        if not mask.any():
            raise DataError(f"{args.mask}: empty FOV mask, no pixel to pick an Otsu threshold from")
        thr = metrics.otsu_threshold(metrics.LEVELS[probs[mask.astype(bool)]])
    pred = metrics.predicted(probs, metrics.LEVELS, thr)
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
    t.add_argument("--seed", type=_option(int), help="override the config seed")
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
    e.add_argument("--fov-threshold", type=_option(float), default=data.DEFAULT_FOV_THRESHOLD)
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
    _keep_freed_memory_mapped()
    parser = build_parser()
    args = None
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
    except MemoryError as exc:
        # what no size check caught: the command's inputs do not fit in memory
        command = getattr(args, "command", parser.prog)
        print(f"data error: {command}: out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return EXIT_DATA


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
