"""Seeded input generators for infer-drive and eval-drive20.

Runs in its own process, so neither its time nor its memory counts against
the workload process:

    python3 bench/inputs.py --workload eval-drive20 --seed 3 --src src --out DIR [--smoke]

It writes the inputs under DIR and their properties to DIR/inputs.json. The
same seed gives byte-identical files. The synthetic fundus generator of the
program is not used: at 584 pixels it takes about 22 s per image and draws
about 60% vessels. These generators take milliseconds per image.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
from scipy import ndimage  # noqa: E402

import workloads  # noqa: E402

FOV_FRACTION = 2.0 / 3.0  # share of the frame inside the field of view
VESSEL_FRACTION = 0.12  # share of FOV pixels that are vessel


# ---------------------------------------------------------------------------
# binary netpbm, written and read without the program's own reader


def write_pnm(path, pixels, maxval):
    """P6 for (H,W,3), P5 for (H,W); 16-bit samples big-endian."""
    magic = b"P6" if pixels.ndim == 3 else b"P5"
    h, w = pixels.shape[:2]
    dtype = ">u2" if maxval == 65535 else np.uint8
    header = magic + f"\n{w} {h}\n{maxval}\n".encode()
    Path(path).write_bytes(header + pixels.astype(dtype).tobytes())


_HEADER = re.compile(rb"P([56])\s+(\d+)\s+(\d+)\s+(\d+)\s")


def read_pnm(path):
    """(magic, maxval, pixels as (H,W) or (H,W,3) unsigned ints)."""
    buf = Path(path).read_bytes()
    m = _HEADER.match(buf)
    if m is None:
        raise ValueError(f"{path}: not a binary netpbm file")
    magic = "P" + m.group(1).decode()
    w, h, maxval = (int(g) for g in m.group(2, 3, 4))
    shape = (h, w, 3) if magic == "P6" else (h, w)
    dtype = ">u2" if maxval == 65535 else np.uint8
    count = int(np.prod(shape))
    body = np.frombuffer(buf, dtype=dtype, count=count, offset=m.end())
    return magic, maxval, body.reshape(shape).astype(np.uint16 if maxval == 65535 else np.uint8)


# ---------------------------------------------------------------------------
# generators


def fov_disc(rng, hw):
    """A disc covering about FOV_FRACTION of the frame, center jittered."""
    h, w = hw
    radius = np.sqrt(rng.uniform(0.98, 1.02) * FOV_FRACTION * h * w / np.pi)
    cy = (h - 1) / 2 + rng.uniform(-3, 3) * h / 584
    cx = (w - 1) / 2 + rng.uniform(-3, 3) * w / 565
    rr, cc = np.mgrid[0:h, 0:w]
    return (rr - cy) ** 2 + (cc - cx) ** 2 <= radius * radius


def vessel_map(rng, fov):
    """Curvy thin lines: the near-zero band of smoothed noise, VESSEL_FRACTION of the FOV."""
    sigma = max(1.0, 5.0 * fov.shape[0] / 584)
    field = np.abs(ndimage.gaussian_filter(rng.standard_normal(fov.shape), sigma))
    cut = np.quantile(field[fov], VESSEL_FRACTION)
    return (field <= cut) & fov


def fundus_photo(rng, fov, vessels):
    """8-bit RGB pseudo-fundus: a reddish disc with darker vessels on black.

    Inside the disc the mean-channel luminance stays well above the
    program's FOV threshold (20/255) and outside well below it, so FOV
    detection recovers the disc exactly.
    """
    h, w = fov.shape
    rr, cc = np.mgrid[0:h, 0:w]
    d2 = ((rr - (h - 1) / 2) ** 2 + (cc - (w - 1) / 2) ** 2) / (0.5 * min(h, w)) ** 2
    falloff = 1.0 - 0.35 * np.clip(d2, 0.0, 1.0)
    shade = 1.0 - 0.4 * vessels
    px = np.empty((h, w, 3))
    for ch, tint in enumerate((0.72, 0.44, 0.22)):
        inside = tint * falloff * shade + rng.normal(0.0, 0.01, (h, w))
        outside = 0.02 + rng.uniform(-0.01, 0.01, (h, w))
        px[:, :, ch] = np.where(fov, inside, outside)
    return np.round(np.clip(px, 0.0, 1.0) * 255).astype(np.uint8)


def probability_map(rng, gold, fov):
    """16-bit scores, as infer writes them; separable but overlapping classes."""
    smooth = ndimage.gaussian_filter(rng.standard_normal(gold.shape), 2.0)
    logit = np.where(gold, 1.5, -2.0) + 1.2 * rng.standard_normal(gold.shape) + 3.0 * smooth
    logit = np.where(fov, logit, logit - 3.0)
    return np.round(65535.0 / (1.0 + np.exp(-logit))).astype(np.uint16)


# ---------------------------------------------------------------------------
# per-workload input sets


def make_infer(out, seed, sizes, src):
    """Photos at DRIVE geometry plus a checkpoint from a short train-64 run."""
    rng = np.random.default_rng([seed, 1])
    photos, fov_fracs, vessel_fracs = [], [], []
    for i in range(sizes.infer_photos):
        fov = fov_disc(rng, sizes.photo_hw)
        vessels = vessel_map(rng, fov)
        path = out / f"photo{i}.ppm"
        write_pnm(path, fundus_photo(rng, fov, vessels), 255)
        photos.append(path.name)
        fov_fracs.append(float(fov.mean()))
        vessel_fracs.append(float(vessels[fov].mean()))

    sys.path.insert(0, str(src))
    from vesselseg import cli

    cfg = out / "ckpt.cfg"
    cfg.write_text(
        workloads.train_config(seed, sizes.ckpt_rounds, sizes.train_size, sizes.train_count)
    )
    with open(out / "ckpt.log", "w") as log:
        stdout, sys.stdout = sys.stdout, log
        try:
            rc = cli.main(["train", "--config", str(cfg), "--out", str(out / "ckpt")])
        finally:
            sys.stdout = stdout
    if rc != 0:
        raise SystemExit(f"checkpoint training exited {rc}")
    return {
        "photos": photos,
        "checkpoint": "ckpt/best.ckpt",
        "props": {
            "size": "x".join(map(str, sizes.photo_hw)),
            "photos": len(photos),
            "fov_fraction": round(float(np.mean(fov_fracs)), 4),
            "vessel_fraction": round(float(np.mean(vessel_fracs)), 4),
            "checkpoint_rounds": sizes.ckpt_rounds,
        },
    }


def make_eval(out, seed, sizes):
    """Probability maps, gold maps and photos; true FOV discs kept for the checks."""
    rng = np.random.default_rng([seed, 2])
    for sub in ("preds", "golds", "images", "truth"):
        (out / sub).mkdir()
    fov_px = vessel_px = 0
    seen = np.zeros(65536, dtype=bool)
    for i in range(sizes.eval_maps):
        stem = f"{i + 1:02d}_test"
        fov = fov_disc(rng, sizes.photo_hw)
        gold = vessel_map(rng, fov)
        scores = probability_map(rng, gold, fov)
        write_pnm(out / "preds" / f"{stem}.pgm", scores, 65535)
        write_pnm(out / "golds" / f"{stem}.pgm", gold.astype(np.uint8) * 255, 255)
        write_pnm(out / "images" / f"{stem}.ppm", fundus_photo(rng, fov, gold), 255)
        write_pnm(out / "truth" / f"{stem}.pgm", fov.astype(np.uint8) * 255, 255)
        fov_px += int(fov.sum())
        vessel_px += int(gold.sum())
        seen[scores[fov]] = True
    h, w = sizes.photo_hw
    return {
        "props": {
            "size": f"{h}x{w}",
            "maps": sizes.eval_maps,
            "fov_fraction": round(fov_px / (sizes.eval_maps * h * w), 4),
            "vessel_fraction": round(vessel_px / fov_px, 4),
            "fov_pixels": fov_px,
            "distinct_scores": int(seen.sum()),
        }
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("infer-drive", "eval-drive20"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True, help="directory holding the vesselseg package")
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.workload == "infer-drive":
        made = make_infer(out, args.seed, sizes, Path(args.src))
    else:
        made = make_eval(out, args.seed, sizes)
    (out / "inputs.json").write_text(json.dumps(made, indent=1))


if __name__ == "__main__":
    main()
