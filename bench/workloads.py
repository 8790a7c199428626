"""The benchmark's workloads: their sizes, the config they train with, and the
command line each op runs.

Every op goes through ``vesselseg.cli.main`` exactly as a CLI user would type
it. ``--smoke`` shrinks every size so the whole benchmark runs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("train-64", "infer-drive", "eval-drive20")

DRIVE_HW = (584, 565)  # DRIVE fundus photos are 565 wide and 584 high


@dataclass(frozen=True)
class Sizes:
    train_size: int  # side of the synthetic training images
    train_count: int  # synthetic corpus size
    photo_hw: tuple  # (height, width) of the photos and maps
    eval_maps: int  # probability maps per eval call
    infer_photos: int  # distinct photos infer cycles through
    ckpt_rounds: int  # rounds of the short training run that makes infer's checkpoint


FULL = Sizes(
    train_size=64, train_count=8, photo_hw=DRIVE_HW, eval_maps=20, infer_photos=2, ckpt_rounds=3
)
SMOKE = Sizes(
    train_size=16, train_count=8, photo_hw=(36, 35), eval_maps=3, infer_photos=2, ckpt_rounds=1
)

# Seconds per train-64 round at the seed commit (2 cores, 1 BLAS thread). A
# train invocation must fix its round count up front, so train-64 sizes its
# runs from --seconds with this figure; a faster program then measures the
# same rounds in less time.
ROUND_S_ESTIMATE = 0.35
MIN_ROUNDS = 8  # the seg_loss trend check compares quarters of the run


def train_config(seed, rounds, size, count):
    """The acceptance gate's desk config, at the given size and round count."""
    return (
        "dataset=synthetic\n"
        f"image_size={size}\n"
        f"synthetic_count={count}\n"
        "augment=off\n"
        "scales=2\n"
        "base_channels=8\n"
        "discriminator=image\n"
        "lambda=10\n"
        "lr=0.002\n"
        "beta1=0.9\n"
        "batch_size=1\n"
        f"rounds={rounds}\n"
        f"seed={seed}\n"
    )


def rounds_for(share_s):
    return max(MIN_ROUNDS, round(share_s / ROUND_S_ESTIMATE))


def op_megapixels(workload, sizes):
    """Input megapixels one op consumes."""
    h, w = sizes.photo_hw
    if workload == "train-64":
        return sizes.train_count * sizes.train_size**2 / 1e6
    if workload == "infer-drive":
        return h * w / 1e6
    return sizes.eval_maps * h * w / 1e6
