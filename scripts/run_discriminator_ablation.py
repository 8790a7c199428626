#!/usr/bin/env python3
"""Discriminator ablation on synthetic data: one row per decision level.

Trains the same generator under each discriminator choice (none, pixel,
patch10, patch80, image) with a shared corpus and seed, then reports
held-out ROC AUC, PR AUC, and Otsu dice per variant.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from vesselseg import cli, data, metrics, models, training


def evaluate_checkpoint(ckpt_path, test_samples):
    ckpt = training.load_checkpoint(ckpt_path)
    g, _ = training.rebuild_models(ckpt)
    maps, golds, masks = [], [], []
    for s in test_samples:
        maps.append(cli.probability_map(g, s.x).astype(np.float64))
        golds.append(s.y)
        masks.append(s.m)
    return metrics.evaluate(maps, golds, masks)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/ablation")
    ap.add_argument("--rounds", type=int, default=60)
    ap.add_argument("--image-size", type=int, default=64)
    ap.add_argument("--count", type=int, default=8)
    ap.add_argument("--seed", type=int, default=33)
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    test_samples = [
        data.generate_synthetic_sample(args.image_size, 880_000 + i) for i in range(4)
    ]

    rows = []
    for variant in models.VARIANT_NAMES:
        cfg_path = out / f"{variant}.cfg"
        cfg_path.write_text(
            cli.desk_config(variant, args.rounds, args.seed, args.image_size, args.count)
        )
        run_dir = out / variant
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(run_dir)])
        if rc != 0:
            return rc
        rep = evaluate_checkpoint(run_dir / "best.ckpt", test_samples)
        rows.append((variant, rep.roc_auc, rep.pr_auc, rep.total.dice))

    print(f"\n{'discriminator':<16}{'roc_auc':>10}{'pr_auc':>10}{'dice':>10}")
    for variant, roc, pr, dc in rows:
        print(f"{variant:<16}{roc:>10.4f}{pr:>10.4f}{dc:>10.4f}")
    csv = out / "ablation.csv"
    csv.write_text(
        "discriminator,roc_auc,pr_auc,dice\n"
        + "\n".join(f"{v},{r:.6f},{p:.6f},{d:.6f}" for v, r, p, d in rows)
        + "\n"
    )
    print(f"\nwrote {csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
