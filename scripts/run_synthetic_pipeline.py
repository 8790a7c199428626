#!/usr/bin/env python3
"""End-to-end desk-scale run on generated data: train, infer, eval, overlay.

Everything lands under --out; no external data needed.  With the defaults
this takes a couple of minutes on one CPU core.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from vesselseg import cli, data, models
from vesselseg.data import Image


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/synthetic")
    ap.add_argument("--rounds", type=int, default=60)
    ap.add_argument("--image-size", type=int, default=64)
    ap.add_argument("--count", type=int, default=8)
    ap.add_argument("--discriminator", default="image", choices=models.VARIANT_NAMES)
    ap.add_argument("--seed", type=int, default=33)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "run.cfg"
    cfg_path.write_text(
        cli.desk_config(args.discriminator, args.rounds, args.seed, args.image_size, args.count)
    )
    run_dir = out / "train"
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(run_dir)])
    if rc != 0:
        return rc

    # held-out samples the trainer never saw
    eval_dirs = {name: out / name for name in ("fundus", "pred", "gold", "mask")}
    for d in eval_dirs.values():
        d.mkdir(exist_ok=True)
    for i in range(4):
        fundus, gold, mask = data.generate_synthetic_raw(args.image_size, 990_000 + i)
        stem = f"test{i}"
        data.write_image(fundus, eval_dirs["fundus"] / f"{stem}.ppm")
        for name, binary in (("gold", gold), ("mask", mask)):
            pixels = (binary[:, :, None] * 255).astype(np.uint8)
            data.write_image(Image(pixels=pixels, maxval=255), eval_dirs[name] / f"{stem}.pgm")
        rc = cli.main([
            "infer",
            "--checkpoint", str(run_dir / "best.ckpt"),
            "--image", str(eval_dirs["fundus"] / f"{stem}.ppm"),
            "--out", str(eval_dirs["pred"] / f"{stem}.pgm"),
        ])
        if rc != 0:
            return rc

    rc = cli.main([
        "eval",
        "--pred-dir", str(eval_dirs["pred"]),
        "--gold-dir", str(eval_dirs["gold"]),
        "--mask-dir", str(eval_dirs["mask"]),
        "--out", str(out / "report"),
    ])
    if rc != 0:
        return rc

    return cli.main([
        "overlay",
        "--pred", str(eval_dirs["pred"] / "test0.pgm"),
        "--gold", str(eval_dirs["gold"] / "test0.pgm"),
        "--mask", str(eval_dirs["mask"] / "test0.pgm"),
        "--out", str(out / "overlay_test0.ppm"),
    ])


if __name__ == "__main__":
    sys.exit(main())
