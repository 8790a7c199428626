import contextlib
import hashlib
import io
import json
import os
import platform
import re
import runpy
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from vesselseg import cli, data, metrics, models, training
from vesselseg.autograd import Tensor
from vesselseg.data import Image


def run(argv):
    return cli.main(argv)


def write_cfg(path, **overrides):
    base = {
        "dataset": "synthetic",
        "image_size": 32,
        "synthetic_count": 3,
        "scales": 2,
        "base_channels": 4,
        "rounds": 2,
        "discriminator": "pixel",
        "augment": "off",
        "seed": 11,
    }
    base.update(overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
    return path


# ---------------------------------------------------------------------------
# config parsing


def test_unknown_and_bad_keys_all_listed(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("bogus=1\nscales=abc\nrounds=2\nanother_bad=3\n")
    rc = run(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG


def test_config_error_message_lists_every_line(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("bogus=1\nscales=abc\n")
    run(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert "bogus" in err and "scales" in err


def test_config_that_is_not_utf8_is_located_config_exit(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"rounds=1\nseed=\xff\xfe\n")
    out = tmp_path / "o"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {cfg}: not UTF-8 at byte offset 14\n"
    assert not out.exists()


def test_key_set_twice_is_located_config_exit(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("rounds=5\nseed=1\nrounds=10\n")
    out = tmp_path / "o"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {cfg}:3: rounds already set on line 1\n"
    assert not out.exists()


def test_defaults_documented_for_every_key(tmp_path, monkeypatch):
    # config.resolved of an empty config is the README's Configuration table, one line a key:
    # a changed GeneratorSpec or TrainConfig default shows here.  The run stops once it is written
    def stop(*args):
        raise cli.NumericalError("stopped before training")

    monkeypatch.setattr(training, "fit", stop)
    out = tmp_path / "o"
    assert run(["train", "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert (out / "config.resolved").read_text().splitlines() == [
        "scales=2",
        "base_channels=8",
        "discriminator=image",
        "lambda=10.0",
        "lr=0.0002",
        "beta1=0.5",
        "beta2=0.999",
        "rounds=10",
        "batch_size=1",
        "seed=0",
        "val_fraction=0.05",
        "dataset=synthetic",
        "data_dir=",
        "image_size=64",
        "synthetic_count=8",
        "augment=on",
    ]


def test_resolved_config_reparses_identically(tmp_path):
    out = tmp_path / "runs"
    write_cfg(tmp_path / "c.cfg", rounds=1)
    assert run(["train", "--config", str(tmp_path / "c.cfg"), "--out", str(out)]) == 0
    resolved = (out / "config.resolved").read_text()
    reparsed = cli.parse_config_text(resolved)
    assert cli.config_lines(reparsed) == resolved.strip().split("\n")


def test_missing_data_dir_exit_code(capsys, tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", dataset="custom", data_dir=str(tmp_path / "absent"))
    rc = run(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_DATA
    assert "absent" in capsys.readouterr().err


def _dataset(root, n=3, size=16, width=None, stems=None):
    rng = np.random.default_rng(6)
    shape = (size, width or size)
    for sub in ("images", "labels"):
        (root / sub).mkdir(parents=True)
    for stem in stems or [f"im{i}" for i in range(n)]:
        px = rng.integers(40, 200, (*shape, 3)).astype(np.uint8)
        gold = (rng.uniform(size=(*shape, 1)) > 0.7).astype(np.uint8) * 255
        data.write_image(Image(pixels=px, maxval=255), root / "images" / f"{stem}.ppm")
        data.write_image(Image(pixels=gold, maxval=255), root / "labels" / f"{stem}.pgm")
    return root


# stare needs more than 10 images; drive needs a _training or _test marker on every stem
@pytest.mark.parametrize("dataset", ["stare", "drive"])
def test_unsplittable_dataset_is_data_exit(capsys, tmp_path, dataset):
    root = _dataset(tmp_path / "ds")
    cfg = write_cfg(tmp_path / "c.cfg", dataset=dataset, data_dir=str(root))
    out = tmp_path / "o"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(root) in err and f"dataset={dataset}" in err
    assert not out.exists()


def test_train_reads_only_the_training_stems(tmp_path):
    # a DRIVE directory's _test half is held out unread, so a photo there that is not
    # netpbm changes nothing
    stems = ["21_training", "22_training", "23_training"]
    clean = _dataset(tmp_path / "clean", stems=stems)
    held = _dataset(tmp_path / "held", stems=[*stems, "01_test"])
    (held / "images" / "01_test.ppm").write_text("not netpbm\n")
    for root in (clean, held):
        cfg = write_cfg(tmp_path / f"{root.name}.cfg", dataset="drive", data_dir=str(root),
                        rounds=1)
        out = tmp_path / f"{root.name}-run"
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("best.ckpt", "history.csv"):
        a, b = (tmp_path / f"{d}-run" / name for d in ("clean", "held"))
        assert a.read_bytes() == b.read_bytes(), name


def test_custom_dataset_trains_on_every_image(tmp_path):
    root = _dataset(tmp_path / "ds", n=5)
    pool = cli._real_samples(cli.parse_config_text(f"dataset=custom\ndata_dir={root}\n"))
    assert [s.id for s in pool] == [f"im{i}" for i in range(5)]


def _write_p6(path, size=16):
    """A 3-channel P6 image under a .pgm name, where a label belongs."""
    px = np.zeros((size, size, 3), np.uint8)
    px[::2] = 255  # vessels in the red channel, which a red-channel read would take
    data.write_image(Image(pixels=px, maxval=255), path)


@pytest.mark.parametrize("role", ["labels"])
def test_train_refuses_three_channel_label_or_mask(capsys, tmp_path, role):
    root = _dataset(tmp_path / "ds")
    bad = root / role / "im1.pgm"
    _write_p6(bad)
    cfg = write_cfg(tmp_path / "c.cfg", dataset="custom", data_dir=str(root))
    out = tmp_path / "o"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {bad}: expected 1-channel P5\n"
    assert not out.exists()


@pytest.mark.parametrize("role", ["train-label", "eval-gold", "eval-mask", "overlay-mask"])
def test_a_0_1_map_under_maxval_255_is_data_exit_naming_it(capsys, tmp_path, role):
    # its vessels would otherwise all fall under half of maxval and read as background
    if role == "train-label":
        root = _dataset(tmp_path / "ds")
        bad, shape = root / "labels" / "im1.pgm", (16, 16)
        cfg = write_cfg(tmp_path / "c.cfg", dataset="custom", data_dir=str(root))
        argv, out = ["train", "--config", str(cfg)], tmp_path / "o"
    elif role.startswith("eval"):
        pred_d, gold_d, mask_d = _gold_dirs(tmp_path)
        bad, shape = (gold_d if role == "eval-gold" else mask_d) / "im1.pgm", (16, 16)
        argv = ["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
                "--mask-dir", str(mask_d)]
        out = tmp_path / "report"
    else:
        pred_p, gold_p = _overlay_inputs(tmp_path)
        bad, shape = tmp_path / "mask.pgm", (12, 12)
        argv = ["overlay", "--pred", str(pred_p), "--gold", str(gold_p), "--mask", str(bad)]
        out = tmp_path / "ov.ppm"
    marks = np.zeros((*shape, 1), np.uint8)
    marks[::2, 1::3] = 1
    data.write_image(Image(pixels=marks, maxval=255), bad)
    assert run(argv + ["--out", str(out)]) == cli.EXIT_DATA
    want = f"data error: {bad}: no value reaches half of maxval 255, brightest 1\n"
    assert capsys.readouterr().err == want
    assert not out.exists()


def test_train_and_eval_refuse_a_label_with_one_message(capsys, tmp_path):
    root = _dataset(tmp_path / "ds")
    _write_p6(root / "labels" / "im0.pgm")
    with pytest.raises(data.DataError) as refused:
        data.load_dataset(root, "custom")
    pred = tmp_path / "pred"
    pred.mkdir()
    for stem in ("im0", "im1", "im2"):
        data.write_image(Image(np.full((16, 16, 1), 128, np.uint8), 255), pred / f"{stem}.pgm")
    argv = ["eval", "--pred-dir", str(pred), "--gold-dir", str(root / "labels")]
    assert run([*argv, "--out", str(tmp_path / "o")]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {refused.value}\n"


def test_train_reads_no_masks_directory(tmp_path):
    # FOV masks only restrict eval; a P6 file, a text file and a FIFO under masks/ would each
    # fail or block a read, and the subprocess's timeout turns a block into a failure
    plain, masked = _dataset(tmp_path / "plain"), _dataset(tmp_path / "masked")
    (masked / "masks").mkdir()
    _write_p6(masked / "masks" / "im0.pgm")
    (masked / "masks" / "im1.pgm").write_text("not netpbm\n")
    os.mkfifo(masked / "masks" / "im2.pgm")
    argvs = []
    for root in (plain, masked):
        cfg = write_cfg(tmp_path / f"{root.name}.cfg", dataset="custom", data_dir=str(root),
                        image_size=16, rounds=1)
        argvs.append(["train", "--config", str(cfg), "--out", str(tmp_path / f"{root.name}-run")])
    done = _python(["-c", f"from vesselseg import cli\nprint([cli.main(a) for a in {argvs!r}])"])
    assert done.stdout.splitlines()[-1] == "[0, 0]", done.stderr
    for name in ("best.ckpt", "history.csv"):
        a, b = (tmp_path / f"{d}-run" / name for d in ("plain", "masked"))
        assert a.read_bytes() == b.read_bytes(), name


def test_usage_error_is_config_exit():
    assert run(["train"]) == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "key,value",
    [
        ("lambda", -1),
        ("lambda", "nan"),
        ("lr", "nan"),
        ("beta1", 2),
        ("rounds", 0),
        ("batch_size", 0),
        ("val_fraction", 1.5),
        ("seed", -1),
        ("scales", 0),
        ("base_channels", 0),
        ("synthetic_count", 0),
        ("synthetic_count", 1),
        ("image_size", 0),
        # fov_threshold is a key of older configs: unknown now, whatever its value
        ("fov_threshold", -0.5),
        ("fov_threshold", 1.5),
        ("fov_threshold", "nan"),
        ("fov_threshold", "0.0784313725"),
        # so is test_fraction, since train reads only the training stems
        ("test_fraction", -0.5),
        ("test_fraction", "inf"),
        ("test_fraction", 0.2),
        ("rounds", "1_0"),
        ("seed", "+3"),
        ("base_channels", "\u0663"),  # ARABIC-INDIC DIGIT THREE, which int() reads as 3
        ("lambda", "1_0.5"),
    ],
)
def test_bad_config_value_is_located_config_exit(capsys, tmp_path, key, value):
    cfg = write_cfg(tmp_path / "c.cfg", **{key: value})
    out = tmp_path / "o"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()  # refused before anything is written


@pytest.mark.parametrize("pool", ["synthetic", "custom"])
@pytest.mark.parametrize("scales", [5, 62, 20000])
def test_scales_beyond_the_image_side_is_config_exit(capsys, tmp_path, pool, scales):
    # 16x16 images take at most 2**4; the message names the keys but never builds the power
    source = {"image_size": 16}
    if pool == "custom":
        source = {"dataset": "custom", "data_dir": str(_dataset(tmp_path / "ds", size=16))}
    cfg = write_cfg(tmp_path / "c.cfg", scales=scales, **source)
    out = tmp_path / "o"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    named = f"scales={scales}" + (", image_size=16" if pool == "synthetic" else "")
    want = f"config error: {named}: 2**scales exceeds the smaller image side 16\n"
    assert capsys.readouterr().err == want
    assert not out.exists()


_INT_KEYS = sorted(k for k, (kind, _) in cli.CONFIG_SCHEMA.items() if kind is int)
_FLOAT_KEYS = sorted(k for k, (kind, _) in cli.CONFIG_SCHEMA.items() if kind is float)
# only numerals that parsing refuses: an accepted size or round count could allocate or loop
_REFUSED_INTS = st.one_of(
    st.integers(0, 99).map(lambda n: f"{n}_0"),
    st.integers(0, 99).map(lambda n: f"+{n}"),
    st.text("\u0660\u0663\u0969\uff13", min_size=1, max_size=3),  # non-ASCII decimal digits
    st.just(""),
    st.just("9" * 5000),
)
_FLOATS = st.one_of(
    st.floats().map(repr),  # extreme, subnormal, negative, nan and inf
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e39", "-1e-320", "3.4028236e38"]),
    st.integers(0, 99).map(lambda n: f"{n}_0.5"),
    st.text("\u0660\u0663\uff11.", min_size=1, max_size=4),  # float() reads these digits
)


@settings(max_examples=60, derandomize=True, deadline=None)
@example([("lambda", "1e39")])  # overflows float32 where the loss is scaled
@example([("lr", "1e38")])  # overflows a forward matmul after the first update
@given(
    st.lists(st.tuples(st.sampled_from(_FLOAT_KEYS), _FLOATS), min_size=1, max_size=2)
    | st.lists(
        st.tuples(st.sampled_from(_INT_KEYS), _REFUSED_INTS)
        | st.tuples(st.sampled_from(_FLOAT_KEYS), _FLOATS),
        min_size=1,
        max_size=3,
    )
)
def test_config_values_end_in_a_documented_exit(overrides):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_cfg(Path(tmp) / "c.cfg", **{"image_size": 16, "rounds": 1, **dict(overrides)})
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(["train", "--config", str(cfg), "--out", str(Path(tmp) / "o")])
    event(f"exit {rc}")
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_NUMERICAL)
    assert (stdout if rc == cli.EXIT_OK else stderr).getvalue().strip()
    if any(k in _INT_KEYS for k, _ in overrides):
        assert rc == cli.EXIT_CONFIG, stderr.getvalue()


# ---------------------------------------------------------------------------
# train


def test_train_writes_outputs_and_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["train", "--config", str(cfg), "--out", str(out_a), "--seed", "7"]) == 0
    assert run(["train", "--config", str(cfg), "--out", str(out_b), "--seed", "7"]) == 0
    for name in ("best.ckpt", "history.csv", "config.resolved"):
        assert (out_a / name).exists()
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    header = (out_a / "history.csv").read_text().splitlines()[0]
    assert header == "round,d_loss,g_gan_loss,seg_loss,val_g_loss"


@pytest.mark.parametrize("size", [12, 20])
def test_train_takes_a_synthetic_size_that_is_not_a_multiple_of_8(tmp_path, size):
    # the texture grid covers the image in 8-pixel cells, the last one cropped
    cfg = write_cfg(tmp_path / "c.cfg", image_size=size, scales=2, rounds=1)
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def _spy(monkeypatch, owner, name):
    """[(args, result)] of each call of owner.name, which still runs."""
    calls, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append((args, real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("size, padded", [(18, 20), (64, 64)])
def test_train_zero_pads_synthetic_images_up_to_the_generator_divisor(
    tmp_path, monkeypatch, size, padded
):
    # the pool is padded as infer pads a photo, and the discriminator is sized from it; a side
    # that needs no padding is trained on the drawn arrays themselves, not on copies
    drawn_calls = _spy(monkeypatch, cli, "_synthetic_samples")
    split_calls = _spy(monkeypatch, training, "split_train_val")
    built = _spy(monkeypatch, models, "build_discriminator")
    cfg = write_cfg(tmp_path / "c.cfg", image_size=size, scales=2, rounds=1, discriminator="image")
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    ((_, drawn),) = drawn_calls
    (((pool, _), _),) = split_calls
    (((_, hw, *_), _),) = built
    assert hw == (padded, padded)
    assert [s.id for s in pool] == [s.id for s in drawn]
    for s, d in zip(pool, drawn):
        for got, a in ((s.x, d.x), (s.y, d.y)):
            assert a.shape[-2:] == (size, size) and got.shape[-2:] == (padded, padded)
            want = data.pad_to_multiple(a, 4)[0]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert np.shares_memory(got, a) == (size == padded)


def test_train_without_discriminator(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", discriminator="none")
    out, again = tmp_path / "o", tmp_path / "again"
    for o in (out, again):
        assert run(["train", "--config", str(cfg), "--out", str(o)]) == 0
    for name in ("best.ckpt", "history.csv"):
        assert (out / name).read_bytes() == (again / name).read_bytes(), name
    lines = (out / "history.csv").read_text().strip().splitlines()[1:]
    for line in lines:
        _, d, gan, seg, val = line.split(",")
        assert d == "nan" and gan == "nan"
        assert float(seg) > 0 and np.isfinite(float(val))
    ckpt = training.load_checkpoint(out / "best.ckpt")
    layout = models.generator_layout(ckpt.gen_spec)
    assert list(ckpt.gen_params) == [k for k, _ in models.param_shapes(layout)]


def test_overflowing_adam_step_is_numerical_exit(tmp_path, capsys):
    # lambda=1e38 overflows the squared gradient of the generator's first
    # update; without the check every later update would be 0 and the run
    # would end with exit 0 and a frozen seg_loss
    cfg = write_cfg(tmp_path / "c.cfg", image_size=16, synthetic_count=4, rounds=3)
    cfg.write_text(cfg.read_text() + "lambda=1e38\n")
    out = tmp_path / "o"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: Adam step 1: parameter 'generator.enc0_conv1_w' overflowed" in err
    assert not (out / "best.ckpt").exists()


def test_failed_rerun_removes_the_earlier_model(tmp_path):
    # config.resolved is rewritten before training, so the earlier run's files must not stay
    # beside it: they would not come from the config it holds
    out = tmp_path / "o"
    assert run(["train", "--config", str(write_cfg(tmp_path / "a.cfg")), "--out", str(out)]) == 0
    cfg = write_cfg(tmp_path / "b.cfg", lr="1e38", seed=5)
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert {"lr=1e+38", "seed=5"} <= set((out / "config.resolved").read_text().splitlines())
    assert not (out / "best.ckpt").exists() and not (out / "history.csv").exists()


def test_train_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", seed=1)
    out = tmp_path / "o"
    assert run(["train", "--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
    assert "seed=9" in (out / "config.resolved").read_text()


def test_augmented_train_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", image_size=16, synthetic_count=3, rounds=1, augment="on")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ("best.ckpt", "history.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("dataset,variants", [("synthetic", 8), ("custom", 4)])
def test_validation_holds_no_twin_of_a_training_image(tmp_path, monkeypatch, dataset, variants):
    # a square synthetic pool has 8 dihedral variants per image, a rectangular directory 4
    passed = []
    real_fit = training.fit

    def fit(g, d, train, val, cfg):
        passed.append((train, val))
        return real_fit(g, d, train, val, cfg)

    monkeypatch.setattr(training, "fit", fit)
    source = {}
    if dataset == "custom":
        root = _dataset(tmp_path / "ds", n=4, size=16, width=24)
        source = {"dataset": "custom", "data_dir": str(root)}
    cfg = write_cfg(tmp_path / "c.cfg", image_size=16, synthetic_count=4, rounds=1, augment="on",
                    **source)
    assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    [(train, val)] = passed
    val_stems = {s.id.split("@")[0] for s in val}
    assert val_stems == {s.id for s in val}  # the sources as they are
    assert len(train) == variants * (4 - len(val))
    assert not val_stems & {s.id.split("@")[0] for s in train}


# ---------------------------------------------------------------------------
# infer


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    cfg = write_cfg(root / "c.cfg")
    out = root / "run"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    sample = data.generate_synthetic_sample(32, 11 * 100003)
    return out, sample, root


def _as_p6(sample, path):
    # undo nothing: write a synthetic fundus-like P6 from the stored mask
    # band; tests only need a valid 3-channel image of the right size
    rng = np.random.default_rng(0)
    px = (rng.uniform(40, 200, (*sample.y.shape, 3))).astype(np.uint8)
    data.write_image(Image(pixels=px, maxval=255), path)


def test_infer_roundtrip_quantization(trained_run, tmp_path):
    out_dir, sample, _ = trained_run
    img_path = tmp_path / "f.ppm"
    _as_p6(sample, img_path)
    out_path = tmp_path / "prob.pgm"
    assert run(["infer", "--checkpoint", str(out_dir / "best.ckpt"),
                "--image", str(img_path), "--out", str(out_path)]) == 0
    img = data.load_image(out_path)
    assert img.maxval == 65535
    assert img.pixels.shape[:2] == sample.y.shape

    # recompute in-process and compare at the quantization bound
    ckpt = training.load_checkpoint(out_dir / "best.ckpt")
    g, _ = training.rebuild_models(ckpt)
    x = data.zscore_normalize(data.load_image(img_path)).transpose(2, 0, 1)
    probs = cli.probability_map(g, x)
    stored = img.pixels[:, :, 0].astype(np.float64) / 65535.0
    assert np.max(np.abs(stored - probs)) <= 1.0 / 65535.0


def test_infer_odd_size_pads_and_crops(trained_run, tmp_path):
    out_dir, _, _ = trained_run
    rng = np.random.default_rng(1)
    px = rng.integers(0, 256, (30, 26, 3)).astype(np.uint8)
    img_path = tmp_path / "odd.ppm"
    data.write_image(Image(pixels=px, maxval=255), img_path)
    out_path = tmp_path / "odd.pgm"
    assert run(["infer", "--checkpoint", str(out_dir / "best.ckpt"),
                "--image", str(img_path), "--out", str(out_path)]) == 0
    assert data.load_image(out_path).pixels.shape[:2] == (30, 26)


def test_infer_corrupt_checkpoint_is_data_exit(trained_run, tmp_path, capsys):
    out_dir, sample, _ = trained_run
    img_path = tmp_path / "f.ppm"
    _as_p6(sample, img_path)
    raw = (out_dir / "best.ckpt").read_bytes()
    flipped = bytearray(raw)
    flipped[len(raw) // 3] ^= 0x40
    body = raw[training._HEAD : -training._DIGEST]  # after the version, before the digest
    older = [training.MAGIC + struct.pack("<H", v) + body for v in (1, 2)]
    for bad_bytes in [bytes(flipped), raw[:-7], *older]:
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bad_bytes)
        rc = run(["infer", "--checkpoint", str(bad), "--image", str(img_path),
                  "--out", str(tmp_path / "p.pgm")])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")
        assert not (tmp_path / "p.pgm").exists()


def test_infer_directory_checkpoint_is_data_exit(trained_run, tmp_path, capsys):
    _, sample, _ = trained_run
    img_path = tmp_path / "f.ppm"
    _as_p6(sample, img_path)
    rc = run(["infer", "--checkpoint", str(tmp_path), "--image", str(img_path),
              "--out", str(tmp_path / "p.pgm")])
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: ")
    assert not (tmp_path / "p.pgm").exists()


@pytest.mark.parametrize("command", ["infer", "eval", "train"])
def test_fifo_input_is_refused_not_read(trained_run, tmp_path, command):
    # reading a FIFO blocks until a writer opens it; the subprocess's timeout turns a hang into
    # a failure
    _, sample, _ = trained_run
    if command == "infer":
        fifo = tmp_path / "fifo.ckpt"
        img_path = tmp_path / "f.ppm"
        _as_p6(sample, img_path)
        argv = ["infer", "--checkpoint", str(fifo), "--image", str(img_path),
                "--out", str(tmp_path / "p.pgm")]
    elif command == "train":
        fifo = tmp_path / "fifo.cfg"
        argv = ["train", "--config", str(fifo), "--out", str(tmp_path / "run")]
    else:
        pred_d, gold_d, _ = _gold_dirs(tmp_path)
        fifo = pred_d / "c.pgm"
        data.write_image(Image(np.zeros((16, 16, 1), np.uint8), 255), gold_d / "c.pgm")
        argv = ["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
                "--out", str(tmp_path / "report")]
    os.mkfifo(fifo)
    done = _python(["-c", f"from vesselseg import cli\nprint(cli.main({argv!r}))"])
    assert done.stdout == f"{cli.EXIT_DATA}\n"
    assert done.stderr == f"data error: {fifo} is not a regular file\n"


def test_infer_overflowing_forward_pass_is_numerical_exit(trained_run, tmp_path, capsys):
    # the weights load (valid digest, float32) but overflow float32 in the forward pass
    out_dir, sample, _ = trained_run
    img_path = tmp_path / "f.ppm"
    _as_p6(sample, img_path)
    ckpt = training.load_checkpoint(out_dir / "best.ckpt")
    ckpt.gen_params = {k: v * np.float32(1e30) for k, v in ckpt.gen_params.items()}
    huge = tmp_path / "huge.ckpt"
    training.save_checkpoint(ckpt, huge)
    out_path = tmp_path / "p.pgm"
    rc = run(["infer", "--checkpoint", str(huge), "--image", str(img_path), "--out", str(out_path)])
    assert rc == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(f"numerical failure: {huge}: forward pass: ")
    assert not out_path.exists()


def test_infer_byte_identical_repeat(trained_run, tmp_path):
    out_dir, sample, _ = trained_run
    img_path = tmp_path / "f.ppm"
    _as_p6(sample, img_path)
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    for p in (p1, p2):
        assert run(["infer", "--checkpoint", str(out_dir / "best.ckpt"),
                    "--image", str(img_path), "--out", str(p)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# eval


def _gold_dirs(tmp_path, n=2, size=16):
    pred_d, gold_d, mask_d = tmp_path / "pred", tmp_path / "gold", tmp_path / "mask"
    for d in (pred_d, gold_d, mask_d):
        d.mkdir()
    rng = np.random.default_rng(3)
    for i in range(n):
        gold = (rng.uniform(size=(size, size)) > 0.7).astype(np.uint8)
        stem = f"im{i}"
        data.write_image(Image(pixels=(gold[:, :, None] * 255).astype(np.uint8), maxval=255),
                         gold_d / f"{stem}.pgm")
        data.write_image(Image(pixels=(gold[:, :, None].astype(np.uint16) * 65535), maxval=65535),
                         pred_d / f"{stem}.pgm")
        data.write_image(Image(pixels=np.full((size, size, 1), 255, np.uint8), maxval=255),
                         mask_d / f"{stem}.pgm")
    return pred_d, gold_d, mask_d


def test_eval_perfect_prediction(tmp_path, capsys):
    pred_d, gold_d, mask_d = _gold_dirs(tmp_path)
    out = tmp_path / "report"
    rc = run(["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
              "--mask-dir", str(mask_d), "--out", str(out)])
    assert rc == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()
    all_row = [l for l in summary if l.startswith("ALL,")][0]
    assert float(all_row.split(",")[1]) == 1.0
    assert float(summary[-1].split(",")[0]) == 1.0  # roc_auc
    assert (out / "roc.csv").exists() and (out / "pr.csv").exists()


def test_eval_missing_mask_dir_noted(tmp_path, capsys):
    pred_d, gold_d, _ = _gold_dirs(tmp_path)
    out = tmp_path / "report"
    rc = run(["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d), "--out", str(out)])
    assert rc == 0
    assert (out / "notes.txt").exists()
    assert "no mask available" in (out / "notes.txt").read_text()


def test_eval_rerun_removes_a_note_that_no_longer_holds(tmp_path):
    pred_d, gold_d, mask_d = _gold_dirs(tmp_path)
    out = tmp_path / "report"
    argv = ["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d), "--out", str(out)]
    assert run(argv) == 0
    assert "no mask available" in (out / "notes.txt").read_text()
    assert run(argv + ["--mask-dir", str(mask_d)]) == 0
    assert not (out / "notes.txt").exists()


def test_eval_reports_images_fov_pixels_and_seconds_on_stderr(tmp_path, capsys):
    pred_d, gold_d, mask_d = _gold_dirs(tmp_path, n=3)
    mask = np.zeros((16, 16, 1), np.uint8)
    mask[3:8] = 255  # im1's FOV is 5 of its 16 rows
    data.write_image(Image(pixels=mask, maxval=255), mask_d / "im1.pgm")
    out = tmp_path / "report"
    assert run(["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
                "--mask-dir", str(mask_d), "--out", str(out)]) == 0
    line = capsys.readouterr().err.splitlines()[-1]
    m = re.fullmatch(r"eval: (\d+) images, (\d+) FOV pixels, (\d+\.\d\d) s", line)
    assert m, line
    assert (int(m[1]), int(m[2])) == (3, 2 * 256 + 5 * 16)
    all_row = (out / "summary.csv").read_text().splitlines()[4].split(",")
    assert all_row[0] == "ALL" and sum(map(int, all_row[2:6])) == int(m[2])
    # nothing timing-dependent is written: the report is the three CSVs
    assert sorted(p.name for p in out.iterdir()) == ["pr.csv", "roc.csv", "summary.csv"]


def test_eval_unmatched_basenames_listed(tmp_path, capsys):
    pred_d, gold_d, mask_d = _gold_dirs(tmp_path, n=3)
    (gold_d / "im2.pgm").unlink()
    out = tmp_path / "report"
    rc = run(["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
              "--mask-dir", str(mask_d), "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert "im2" in capsys.readouterr().err


def test_eval_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = run(["eval", "--pred-dir", str(empty), "--gold-dir", str(empty),
              "--out", str(tmp_path / "r")])
    assert rc == cli.EXIT_DATA


def test_eval_gold_without_vessels_in_fov_is_data_exit(tmp_path, capsys):
    pred_d, gold_d, mask_d = _gold_dirs(tmp_path)
    for stem in ("im0", "im1"):
        data.write_image(Image(pixels=np.zeros((16, 16, 1), np.uint8), maxval=255),
                         gold_d / f"{stem}.pgm")
    out = tmp_path / "report"
    rc = run(["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
              "--mask-dir", str(mask_d), "--out", str(out)])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "no vessel pixel" in err and "im0" in err
    assert not out.exists()


def test_eval_per_image_otsu_empty_fov_is_data_exit(tmp_path, capsys):
    pred_d, gold_d, mask_d = _gold_dirs(tmp_path)
    data.write_image(Image(pixels=np.zeros((16, 16, 1), np.uint8), maxval=255), mask_d / "im1.pgm")
    out = tmp_path / "report"
    rc = run(["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
              "--mask-dir", str(mask_d), "--per-image-otsu", "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert "im1" in capsys.readouterr().err
    assert not out.exists()


def test_eval_refuses_stems_summary_csv_cannot_name(tmp_path, capsys):
    pred_d, gold_d, mask_d = _gold_dirs(tmp_path)
    # a byte that is not UTF-8 reads as a lone surrogate, which summary.csv cannot encode
    bad = ["a,b", "ALL", "c\nd", "e\rf", os.fsdecode(b"g\xff")]
    for stem in bad:  # not netpbm: the stems are refused before any map is read
        for d in (pred_d, gold_d, mask_d):
            (d / f"{stem}.pgm").write_text("not netpbm\n")
    out = tmp_path / "report"
    rc = run(["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
              "--mask-dir", str(mask_d), "--out", str(out)])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "summary.csv" in err and all(repr(stem) in err for stem in bad)
    assert "'im0'" not in err and "not netpbm" not in err
    assert not out.exists()


def test_eval_single_channel_fundus_is_data_exit(tmp_path, capsys):
    pred_d, gold_d, _ = _gold_dirs(tmp_path)
    image_d = tmp_path / "images"
    image_d.mkdir()
    gray = image_d / "im0.ppm"  # a P5 file under the fundus-photo name
    data.write_image(Image(pixels=np.full((16, 16, 1), 200, np.uint8), maxval=255), gray)
    out = tmp_path / "report"
    rc = run(["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
              "--image-dir", str(image_d), "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert str(gray) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "source, message",
    [
        ("pred", "prediction (16, 12) and gold (16, 16) differ"),
        ("mask-dir", "mask (12, 16) and gold (16, 16) differ"),
        ("image-dir", "mask (16, 20) and gold (16, 16) differ"),
    ],
    ids=["pred", "mask-dir", "image-dir"],
)
def test_eval_refuses_a_map_whose_size_differs_from_its_gold(tmp_path, capsys, source, message):
    pred_d, gold_d, mask_d = _gold_dirs(tmp_path)
    argv = ["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d)]
    if source == "pred":
        data.write_image(Image(pixels=np.zeros((16, 12, 1), np.uint16), maxval=65535),
                         pred_d / "im1.pgm")
        argv += ["--mask-dir", str(mask_d)]
    elif source == "mask-dir":
        data.write_image(Image(pixels=np.full((12, 16, 1), 255, np.uint8), maxval=255),
                         mask_d / "im1.pgm")
        argv += ["--mask-dir", str(mask_d)]
    else:  # the FOV detected from a bright photo is the whole photo
        image_d = tmp_path / "images"
        image_d.mkdir()
        for stem, shape in (("im0", (16, 16, 3)), ("im1", (16, 20, 3))):
            data.write_image(Image(pixels=np.full(shape, 200, np.uint8), maxval=255),
                             image_d / f"{stem}.ppm")
        argv += ["--image-dir", str(image_d)]
    out = tmp_path / "report"
    assert run(argv + ["--out", str(out)]) == cli.EXIT_DATA
    assert capsys.readouterr().err.splitlines()[-1] == f"data error: im1: {message}"
    assert not out.exists()


@pytest.mark.parametrize("bad", ["-0.5", "nan", "1.5", "inf"])
def test_eval_fov_threshold_out_of_range_is_config_exit(tmp_path, capsys, bad):
    pred_d, gold_d, _ = _gold_dirs(tmp_path)
    image_d = tmp_path / "images"
    image_d.mkdir()
    data.write_image(Image(pixels=np.full((16, 16, 3), 200, np.uint8), maxval=255),
                     image_d / "im0.ppm")
    out = tmp_path / "report"
    rc = run(["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
              "--image-dir", str(image_d), "--fov-threshold", bad, "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert "--fov-threshold" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edge", ["0", "1"])
def test_eval_fov_threshold_range_is_closed(tmp_path, edge):
    pred_d, gold_d, mask_d = _gold_dirs(tmp_path)
    rc = run(["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
              "--mask-dir", str(mask_d), "--fov-threshold", edge, "--out", str(tmp_path / "r")])
    assert rc == 0


def test_eval_black_fundus_names_the_photo(tmp_path, capsys):
    pred_d, gold_d, _ = _gold_dirs(tmp_path)
    image_d = tmp_path / "images"
    image_d.mkdir()
    black = image_d / "im0.ppm"
    data.write_image(Image(pixels=np.zeros((16, 16, 3), np.uint8), maxval=255), black)
    out = tmp_path / "report"
    rc = run(["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
              "--image-dir", str(image_d), "--out", str(out)])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"{black}: no blob found" in err
    assert not out.exists()


def _golden_eval_inputs(root, size=40):
    """Three tie-heavy 16-bit maps; im1's FOV is detected from a P6 photo."""
    pred_d, gold_d, image_d = root / "pred", root / "gold", root / "images"
    for d in (pred_d, gold_d, image_d):
        d.mkdir()
    rng = np.random.default_rng(20240)
    u = rng.uniform(size=(3, size, size))
    gold = rng.uniform(size=(3, size, size)) < 0.2
    p = np.clip(0.6 * u + 0.4 * gold, 0.0, 1.0)
    maps = [
        np.round(p[0] * 16) * 4095,  # 17 levels
        np.round(p[1] * 255) * 257,  # 8-bit levels
        np.round(np.round(p[2], 2) * 65535),  # two decimals
    ]
    for i, (m, g) in enumerate(zip(maps, gold)):
        data.write_image(Image(pixels=m.astype(np.uint16)[:, :, None], maxval=65535),
                         pred_d / f"im{i}.pgm")
        data.write_image(Image(pixels=(g[:, :, None] * 255).astype(np.uint8), maxval=255),
                         gold_d / f"im{i}.pgm")
    yy, xx = np.mgrid[:size, :size]
    disc = (yy - size / 2) ** 2 + (xx - size / 2) ** 2 <= (0.4 * size) ** 2
    photo = disc[:, :, None] * rng.integers(60, 200, (size, size, 3))
    data.write_image(Image(pixels=photo.astype(np.uint8), maxval=255), image_d / "im1.ppm")
    return pred_d, gold_d, image_d


# sha256 of the CSVs of `eval` on _golden_eval_inputs, recorded from the
# argsort-grouping implementation that preceded the one-sort grouping; the
# per-image summary.csv was re-recorded when it gained its threshold column
_GOLDEN_CURVES = {
    "roc.csv": "6296376ad3911960cb20bdae892b86ba56b7eae62ff4d789e86eacf8fdbf8adc",
    "pr.csv": "3fffc7ec25d7dacac71341f24abafebd688a505541ad14defa4849f0be2dd56d",
}
GOLDEN_EVAL_SHA256 = {
    False: {**_GOLDEN_CURVES,
            "summary.csv": "4bf3e01b699c60cab299c77be9d55422c94b35d498eb0aa5f1e0594591b1e269"},
    True: {**_GOLDEN_CURVES,
           "summary.csv": "7c0f6bfbc60b5f4f5a4995210f911ff234a5c49c98b419fe46f3c97b9993cafb"},
}


@pytest.mark.parametrize("per_image", [False, True])
def test_eval_csv_bytes_pinned(tmp_path, per_image):
    pred_d, gold_d, image_d = _golden_eval_inputs(tmp_path)
    out = tmp_path / "report"
    argv = ["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
            "--image-dir", str(image_d), "--out", str(out)]
    assert run(argv + ["--per-image-otsu"] * per_image) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("roc.csv", "pr.csv", "summary.csv")}
    assert digests == GOLDEN_EVAL_SHA256[per_image]


def test_eval_notes_name_an_image_dir_that_is_not_utf8_by_its_bytes(tmp_path):
    pred_d, gold_d, image_d = _golden_eval_inputs(tmp_path)
    image_d = image_d.rename(tmp_path / os.fsdecode(b"fundus\xff"))
    out = tmp_path / "report"
    assert run(["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
                "--image-dir", str(image_d), "--out", str(out)]) == 0
    notes = (out / "notes.txt").read_bytes()
    assert b"im1: FOV mask synthesized from " + os.fsencode(image_d / "im1.ppm") + b"\n" in notes


@pytest.mark.parametrize("per_image,dice,otsu",
                         [(False, "0.571541", "0.390625"), (True, "0.565759", "per-image")])
def test_eval_stdout_names_the_threshold_it_applied(tmp_path, capsys, per_image, dice, otsu):
    # per-image mode cuts each image at its own threshold, so it prints no pooled one
    pred_d, gold_d, image_d = _golden_eval_inputs(tmp_path)
    argv = ["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
            "--image-dir", str(image_d), "--out", str(tmp_path / "report")]
    assert run(argv + ["--per-image-otsu"] * per_image) == 0
    assert capsys.readouterr().out == f"roc_auc=0.947165 pr_auc=0.864835 dice={dice} otsu={otsu}\n"


def test_eval_per_image_otsu_writes_the_thresholds_it_applied(tmp_path):
    pred_d, gold_d, image_d = _golden_eval_inputs(tmp_path)
    out = tmp_path / "report"
    assert run(["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
                "--image-dir", str(image_d), "--per-image-otsu", "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == "image_id,dice,tp,fp,fn,tn,threshold"
    assert lines[4].startswith("ALL,") and lines[4].endswith(",")
    thresholds = set()
    for line in lines[1:4]:
        stem, _, tp, fp, fn, _, thr = line.split(",")
        assert thr == metrics.fmt(float(thr))
        scores = data.load_image(pred_d / f"{stem}.pgm").pixels[:, :, 0] / 65535
        gold = data.load_binary(gold_d / f"{stem}.pgm").astype(bool)
        fov = np.ones_like(gold)  # im1's FOV is detected from its photo, as eval does
        if (image_d / f"{stem}.ppm").exists():
            fov = data.generate_fov_mask(data.load_photo(image_d / f"{stem}.ppm")).astype(bool)
        pred = scores >= float(thr)
        want = (pred & gold & fov).sum(), (pred & ~gold & fov).sum(), (~pred & gold & fov).sum()
        assert (int(tp), int(fp), int(fn)) == want, stem
        thresholds.add(thr)
    assert len(thresholds) > 1  # the images do not share one threshold


def _framed_eval_inputs(root, frame_rows, n=12, side=96, pred_maxval=65535):
    """n tie-heavy side x side images (17 levels, so the CSVs stay small), each
    at the top of a frame frame_rows times as tall; the mask is the image."""
    dirs = root / "pred", root / "gold", root / "mask"
    for d in dirs:
        d.mkdir()
    rng = np.random.default_rng(5)
    for i in range(n):
        gold = rng.uniform(size=(side, side)) < 0.2
        level = np.round(np.clip(0.6 * rng.uniform(size=gold.shape) + 0.4 * gold, 0, 1) * 16)
        for d, values, maxval in ((dirs[0], level * (pred_maxval // 16), pred_maxval),
                                  (dirs[1], gold * 255, 255),
                                  (dirs[2], np.full(gold.shape, 255), 255)):
            frame = np.zeros((frame_rows * side, side, 1), np.uint16 if maxval > 255 else np.uint8)
            frame[:side, :, 0] = values
            data.write_image(Image(pixels=frame, maxval=maxval), d / f"im{i}.pgm")
    return dirs


def _eval_traced_peak(root, frame_rows, n, side, pred_maxval=65535):
    pred_d, gold_d, mask_d = _framed_eval_inputs(root, frame_rows, n, side, pred_maxval)
    argv = ["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
            "--mask-dir", str(mask_d), "--out", str(root / "report")]
    assert run(argv) == 0  # a first run imports and caches what eval needs
    tracemalloc.start()
    try:
        assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_peak_memory_follows_fov_pixels_not_frame_size(tmp_path):
    # the same FOV pixels in frames four times as tall: an eval that kept
    # every full-size map, gold and mask (4 bytes a pixel) until the end
    # would peak 4 bytes higher per added frame pixel; each image is reduced
    # to its FOV pixels as it is read, so the peak may grow by less than one
    n, side = 12, 96
    small, large = tmp_path / "small", tmp_path / "large"
    small.mkdir()
    large.mkdir()
    peak_small = _eval_traced_peak(small, 1, n, side)
    peak_large = _eval_traced_peak(large, 4, n, side)
    for name in ("roc.csv", "pr.csv", "summary.csv"):
        assert (small / "report" / name).read_bytes() == (large / "report" / name).read_bytes()
    added_pixels = n * 3 * side * side
    assert peak_large - peak_small < added_pixels, (peak_small, peak_large)


def test_eval_peak_memory_does_not_follow_the_image_count(tmp_path):
    # four times the images, 8-bit so that the curves keep their length: an
    # eval that pooled every FOV pixel (3 bytes each) would peak at least 3
    # bytes higher per added pixel; each image is reduced to counts as it is
    # read, so the peak may grow by less than one
    side = 96
    few, many = tmp_path / "few", tmp_path / "many"
    few.mkdir()
    many.mkdir()
    peak_few = _eval_traced_peak(few, 1, 12, side, pred_maxval=255)
    peak_many = _eval_traced_peak(many, 1, 48, side, pred_maxval=255)
    for name in ("roc.csv", "pr.csv"):
        rows = (few / "report" / name).read_text().count("\n")
        assert rows == (many / "report" / name).read_text().count("\n") == 19, name
    added_pixels = (48 - 12) * side * side
    assert peak_many - peak_few < added_pixels, (peak_few, peak_many)


def _drive_size_eval_inputs(root, n=4, hw=(584, 565)):
    """n 16-bit maps at DRIVE size, with gold maps and the photos FOV masks are detected from."""
    pred_d, gold_d, image_d = root / "pred", root / "gold", root / "images"
    for d in (pred_d, gold_d, image_d):
        d.mkdir()
    rng = np.random.default_rng(11)
    yy, xx = np.mgrid[: hw[0], : hw[1]]
    disc = (yy - hw[0] / 2) ** 2 + (xx - hw[1] / 2) ** 2 <= (0.45 * hw[1]) ** 2
    for i in range(n):
        gold = rng.uniform(size=hw) < 0.12
        level = np.clip(0.6 * rng.uniform(size=hw) + 0.4 * gold, 0, 1) * 65535
        photo = disc[:, :, None] * rng.integers(60, 200, (*hw, 3))
        data.write_image(Image(pixels=level.astype(np.uint16)[:, :, None], maxval=65535),
                         pred_d / f"im{i}.pgm")
        data.write_image(Image(pixels=(gold[:, :, None] * 255).astype(np.uint8), maxval=255),
                         gold_d / f"im{i}.pgm")
        data.write_image(Image(pixels=photo.astype(np.uint8), maxval=255), image_d / f"im{i}.ppm")
    return pred_d, gold_d, image_d


_EVAL_MINOR_FAULTS = """
import contextlib, io, json, resource, sys
from vesselseg import cli
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's")
def test_repeated_eval_keeps_its_working_memory_mapped(tmp_path):
    # glibc's defaults hand each image's freed working set back to the kernel
    # and fault it in again for the next image: thousands of minor faults per
    # call; in a fresh process, so no earlier test's heap state can hide that
    pred_d, gold_d, image_d = _drive_size_eval_inputs(tmp_path)
    argv = ["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
            "--image-dir", str(image_d), "--out", str(tmp_path / "report")]
    faults = json.loads(_python(["-c", _EVAL_MINOR_FAULTS, *argv]).stdout)
    assert faults[1] < 500 and faults[2] < 500, faults


def test_eval_without_mallopt_writes_the_same_files(tmp_path, monkeypatch):
    pred_d, gold_d, image_d = _golden_eval_inputs(tmp_path)
    argv = ["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
            "--image-dir", str(image_d), "--out"]
    assert run(argv + [str(tmp_path / "policy")]) == 0
    looked_up = []

    class NoMallopt:  # a C library without mallopt
        def __init__(self, name):
            looked_up.append(name)

    monkeypatch.setattr(cli.ctypes, "CDLL", NoMallopt)
    assert run(argv + [str(tmp_path / "no-policy")]) == 0
    assert looked_up == [None]
    for name in ("roc.csv", "pr.csv", "summary.csv", "notes.txt"):
        a, b = (tmp_path / d / name for d in ("policy", "no-policy"))
        assert a.read_bytes() == b.read_bytes(), name


def test_main_sets_the_allocator_policy_once_before_any_command(tmp_path, monkeypatch):
    events = []
    monkeypatch.setattr(cli, "_keep_freed_memory_mapped", lambda: events.append("policy"))

    def recorded(name):
        command = getattr(cli, name)

        def run_command(args):
            events.append(name)
            return command(args)

        return run_command

    for name in ("cmd_train", "cmd_infer", "cmd_eval", "cmd_overlay"):
        monkeypatch.setattr(cli, name, recorded(name))
    pred_d, gold_d, _ = _gold_dirs(tmp_path)
    photo = tmp_path / "photo.ppm"
    data.write_image(Image(pixels=np.full((16, 16, 3), 128, np.uint8), maxval=255), photo)
    cfg = write_cfg(tmp_path / "c.cfg", image_size=16, rounds=1)
    commands = {
        "cmd_train": ["train", "--config", str(cfg), "--out", str(tmp_path / "t")],
        "cmd_infer": ["infer", "--checkpoint", str(tmp_path / "t" / "best.ckpt"),
                      "--image", str(photo), "--out", str(tmp_path / "p.pgm")],
        "cmd_eval": ["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
                     "--out", str(tmp_path / "report")],
        "cmd_overlay": ["overlay", "--pred", str(pred_d / "im0.pgm"), "--gold", str(gold_d / "im0.pgm"),
                        "--out", str(tmp_path / "ov.ppm")],
    }  # fmt: skip
    for name, argv in commands.items():
        events.clear()
        assert run(argv) == cli.EXIT_OK
        assert events == ["policy", name]
    events.clear()
    assert run(["infer", "--image", str(photo)]) == cli.EXIT_CONFIG  # a usage error
    assert events == ["policy"]


def test_load_prob_keeps_16bit_levels_without_copies(tmp_path, monkeypatch):
    levels = np.random.default_rng(6).integers(0, 65536, (7, 5, 1)).astype(np.uint16)
    path = tmp_path / "p.pgm"
    data.write_image(Image(pixels=levels, maxval=65535), path)
    loaded = []
    original = data.load_image

    def recording(p):
        loaded.append(original(p))
        return loaded[-1]

    monkeypatch.setattr(data, "load_image", recording)
    got = cli._load_prob(path)
    assert got.dtype == np.uint16 and np.array_equal(got, levels[:, :, 0])
    assert np.shares_memory(got, loaded[0].pixels)


@pytest.mark.parametrize("command", ["eval", "infer"])
def test_memory_error_is_data_exit_naming_the_command(trained_run, tmp_path, capsys,
                                                      monkeypatch, command):
    def out_of_memory(path):
        raise MemoryError("Unable to allocate 2.62 TiB for an array")

    if command == "eval":
        pred_d, gold_d, image_d = _golden_eval_inputs(tmp_path)
        argv = ["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
                "--image-dir", str(image_d), "--out", str(tmp_path / "report")]
        out = tmp_path / "report"
    else:
        img_path = tmp_path / "f.ppm"
        _as_p6(trained_run[1], img_path)
        out = tmp_path / "p.pgm"
        argv = ["infer", "--checkpoint", str(trained_run[0] / "best.ckpt"),
                "--image", str(img_path), "--out", str(out)]
    monkeypatch.setattr(data, "load_image", out_of_memory)
    assert run(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err == (f"data error: {command}: out of memory: "
                   "Unable to allocate 2.62 TiB for an array\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# overlay


def _overlay_inputs(tmp_path):
    rng = np.random.default_rng(4)
    gold = (rng.uniform(size=(12, 12)) > 0.7).astype(np.uint8)
    gold_p = tmp_path / "gold.pgm"
    pred_p = tmp_path / "pred.pgm"
    data.write_image(Image(pixels=(gold[:, :, None] * 255).astype(np.uint8), maxval=255), gold_p)
    data.write_image(Image(pixels=(gold[:, :, None].astype(np.uint16) * 65535), maxval=65535), pred_p)
    return pred_p, gold_p


def test_overlay_perfect_green_black(tmp_path):
    pred_p, gold_p = _overlay_inputs(tmp_path)
    out = tmp_path / "ov.ppm"
    assert run(["overlay", "--pred", str(pred_p), "--gold", str(gold_p), "--out", str(out)]) == 0
    img = data.load_image(out)
    colors = {tuple(c) for c in img.pixels.reshape(-1, 3)}
    assert colors <= {(0, 0, 0), (0, 255, 0)}


def test_overlay_threshold_flag(tmp_path):
    pred_p, gold_p = _overlay_inputs(tmp_path)
    out = tmp_path / "ov.ppm"
    assert run(["overlay", "--pred", str(pred_p), "--gold", str(gold_p),
                "--threshold", "0.5", "--out", str(out)]) == 0
    rc = run(["overlay", "--pred", str(pred_p), "--gold", str(gold_p),
              "--threshold", "2.5", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("bad", ["1.5", "-0.25", "nan"])
def test_overlay_threshold_outside_unit_interval_names_it(tmp_path, capsys, bad):
    pred_p, gold_p = _overlay_inputs(tmp_path)
    out = tmp_path / "ov.ppm"
    rc = run(["overlay", "--pred", str(pred_p), "--gold", str(gold_p),
              "--threshold", bad, "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert f"--threshold {float(bad)} outside [0, 1]" in capsys.readouterr().err
    assert not out.exists()


# numbers a config file refuses ("seed=1_0", "seed=+3", non-ASCII digits) that int() and
# float() alone would take; the command line refuses them too
CLI_NUMBER_FORMS = {
    "int": ["1_0", "+3", "\u0663", "\uff17", " 7"],
    "float": ["0.3_5", "\u0660.\u0665", "\uff10.\uff15", "1_0e-1"],
}


@pytest.mark.parametrize("bad", CLI_NUMBER_FORMS["int"])
def test_train_seed_refuses_what_a_config_int_refuses(tmp_path, capsys, bad):
    out = tmp_path / "run"
    assert run(["train", "--out", str(out), "--seed", bad]) == cli.EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", CLI_NUMBER_FORMS["float"])
def test_eval_fov_threshold_refuses_what_a_config_float_refuses(tmp_path, capsys, bad):
    pred_d, gold_d, _ = _gold_dirs(tmp_path)
    out = tmp_path / "report"
    rc = run(["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
              "--fov-threshold", bad, "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert "--fov-threshold" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", CLI_NUMBER_FORMS["float"])
def test_overlay_threshold_refuses_what_a_config_float_refuses(tmp_path, capsys, bad):
    pred_p, gold_p = _overlay_inputs(tmp_path)
    out = tmp_path / "ov.ppm"
    argv = ["overlay", "--pred", str(pred_p), "--gold", str(gold_p), "--out", str(out)]
    assert run(argv + ["--threshold", bad]) == cli.EXIT_CONFIG
    assert "--threshold" in capsys.readouterr().err
    assert not out.exists()
    assert run(argv + ["--threshold", "0.35"]) == 0
    assert out.exists()


@pytest.mark.parametrize("bad", ["mask_shape", "gold_shape", "empty_mask"])
def test_overlay_bad_input_is_data_exit(tmp_path, capsys, bad):
    pred_p, gold_p = _overlay_inputs(tmp_path)
    mask_p = tmp_path / "mask.pgm"
    shape = (12, 12) if bad == "empty_mask" else (12, 10)
    data.write_image(Image(pixels=np.zeros((*shape, 1), np.uint8), maxval=255), mask_p)
    args = ["--mask", str(mask_p)]
    if bad == "gold_shape":
        gold_p, args = mask_p, []
    out = tmp_path / "ov.ppm"
    rc = run(["overlay", "--pred", str(pred_p), "--gold", str(gold_p), *args, "--out", str(out)])
    assert rc == cli.EXIT_DATA
    assert str(mask_p) in capsys.readouterr().err
    assert not out.exists()


def test_overlay_byte_identical(tmp_path):
    pred_p, gold_p = _overlay_inputs(tmp_path)
    a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
    for p in (a, b):
        assert run(["overlay", "--pred", str(pred_p), "--gold", str(gold_p), "--out", str(p)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _golden_overlay_inputs(root, maxval):
    """A tie-heavy map with FOV pixels at, just below and just above the level
    of 0.2 (8-bit 51, 16-bit 13107), a gold map and a disc FOV mask."""
    rng = np.random.default_rng(20241)
    shape = (24, 20)
    gold = rng.uniform(size=shape) < 0.25
    k = np.clip(np.round(rng.normal(51 + 40 * gold, 6)), 0, 255)
    if maxval == 255:
        pred = k.astype(np.uint8)
    else:
        pred = np.clip(k * 257 + rng.integers(-1, 2, shape), 0, 65535).astype(np.uint16)
    yy, xx = np.mgrid[: shape[0], : shape[1]]
    mask = (yy - 12) ** 2 + (xx - 10) ** 2 <= 81
    paths = root / "pred.pgm", root / "gold.pgm", root / "mask.pgm"
    data.write_image(Image(pixels=pred[:, :, None], maxval=maxval), paths[0])
    for arr, path in ((gold, paths[1]), (mask, paths[2])):
        data.write_image(Image(pixels=(arr[:, :, None] * 255).astype(np.uint8), maxval=255), path)
    return paths


# sha256 of `overlay` on _golden_overlay_inputs, recorded from the
# implementation that thresholded float64 maps
GOLDEN_OVERLAY_SHA256 = {
    (255, "otsu"): "2f90a08553503806d9eb26cb870047b26f47b15e89162a1bf346c7acb0b25404",
    (255, "0.2"): "e40604bc6ff73fe069310775f47c7a7b1c98a0bb044664b414c8729c92308007",
    (65535, "otsu"): "2f90a08553503806d9eb26cb870047b26f47b15e89162a1bf346c7acb0b25404",
    (65535, "0.2"): "52f7015e4457592609baf99c8aa8c89eb6f1e0417e3e7d9b61c722d2e2fdfccc",
}


@pytest.mark.parametrize("maxval", [255, 65535])
@pytest.mark.parametrize("threshold", ["otsu", "0.2"])
def test_overlay_bytes_pinned(tmp_path, maxval, threshold):
    pred_p, gold_p, mask_p = _golden_overlay_inputs(tmp_path, maxval)
    out = tmp_path / "ov.ppm"
    assert run(["overlay", "--pred", str(pred_p), "--gold", str(gold_p), "--mask", str(mask_p),
                "--threshold", threshold, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_OVERLAY_SHA256[maxval, threshold]


# ---------------------------------------------------------------------------
# mutated netpbm inputs through main


def _netpbm_files(root, maxval):
    """A 16x16 disc photo (P6), probability map, gold and FOV mask (P5) at maxval, as paths."""
    rng = np.random.default_rng(41)
    yy, xx = np.mgrid[:16, :16]
    disc = (yy - 8) ** 2 + (xx - 8) ** 2 <= 36
    scale = maxval // 255
    photo = disc[:, :, None] * rng.integers(60, 200, (16, 16, 3)) * scale
    gold = rng.uniform(size=(16, 16, 1)) < 0.3
    gold[8, 8], gold[9, 9] = True, False
    images = {
        "photo.ppm": photo,
        "pred.pgm": rng.integers(0, maxval + 1, (16, 16, 1)),
        "gold.pgm": gold * maxval,
        "mask.pgm": disc[:, :, None] * maxval,
    }
    dtype = np.uint8 if maxval == 255 else np.uint16
    paths = {}
    for name, pixels in images.items():
        stem, suffix = name.split(".")
        (root / stem).mkdir(exist_ok=True)
        paths[name] = root / stem / f"im.{suffix}"  # one file per directory, for eval
        data.write_image(Image(pixels=pixels.astype(dtype), maxval=maxval), paths[name])
    return paths


@st.composite
def _mutations(draw):
    """(kind, argument) of one edit of a netpbm file's bytes."""
    kind = draw(st.sampled_from(["flip", "truncate", "token", "junk"]))
    if kind == "flip":  # a byte of the header or just past it
        return kind, (draw(st.integers(0, 20)), draw(st.integers(1, 255)))
    if kind == "truncate":  # to a length within the header or the payload
        return kind, draw(st.integers(0, 20) | st.integers(0, 1600))
    if kind == "token":
        text = st.text("0123456789+-_ #\t\nxP٣", max_size=7).map(str.encode)
        return kind, (draw(st.integers(0, 2)), draw(text | st.binary(max_size=4)))
    return kind, draw(st.binary(min_size=1, max_size=24))


def _mutated(raw, kind, arg):
    if kind == "flip":
        at, mask = arg
        out = bytearray(raw)
        out[at] ^= mask
        return bytes(out)
    if kind == "truncate":
        return raw[: min(arg, len(raw) - 1)]
    if kind == "token":  # write_image's header is b"P5\n<width> <height>\n<maxval>\n"
        index, token = arg
        magic, size, maxval, payload = raw.split(b"\n", 3)
        fields = [*size.split(b" "), maxval]
        fields[index] = token
        return b"%s\n%s %s\n%s\n" % (magic, *fields) + payload
    return raw + arg


@pytest.fixture(scope="module")
def netpbm_root(tmp_path_factory):
    return tmp_path_factory.mktemp("netpbm")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from([255, 65535]),
    st.sampled_from([
        ("infer", "photo.ppm"),
        ("eval", "pred.pgm"), ("eval", "gold.pgm"), ("eval", "photo.ppm"), ("eval", "mask.pgm"),
        ("overlay", "pred.pgm"), ("overlay", "gold.pgm"), ("overlay", "mask.pgm"),
    ]),
    _mutations(),
)
def test_mutated_netpbm_inputs_end_in_exit_0_or_2(trained_run, netpbm_root, maxval, case, mutation):
    command, target = case
    paths = _netpbm_files(netpbm_root, maxval)
    paths[target].write_bytes(_mutated(paths[target].read_bytes(), *mutation))
    out = netpbm_root / "out"
    out.mkdir(exist_ok=True)
    if command == "infer":
        argv = ["infer", "--checkpoint", str(trained_run[0] / "best.ckpt"),
                "--image", str(paths["photo.ppm"]), "--out", str(out / "p.pgm")]
    elif command == "eval":
        fov = ["--mask-dir", str(paths["mask.pgm"].parent)] if target == "mask.pgm" else \
              ["--image-dir", str(paths["photo.ppm"].parent)]
        argv = ["eval", "--pred-dir", str(paths["pred.pgm"].parent),
                "--gold-dir", str(paths["gold.pgm"].parent), *fov, "--out", str(out)]
    else:
        argv = ["overlay", "--pred", str(paths["pred.pgm"]), "--gold", str(paths["gold.pgm"]),
                "--mask", str(paths["mask.pgm"]), "--out", str(out / "o.ppm")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    event(f"{command} exit {rc}")
    assert rc in (cli.EXIT_OK, cli.EXIT_DATA), stderr.getvalue()
    if rc == cli.EXIT_DATA:
        assert stderr.getvalue().startswith("data error: "), stderr.getvalue()


# ---------------------------------------------------------------------------
# program entry


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# the directory vesselseg is imported from, which is not the checkout's src/ under an install
SRC = Path(cli.__file__).resolve().parents[1]
REPO = Path(__file__).resolve().parents[1]


def _python(args, check=True, **preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60, check=check
    )


def _blas_env_after_import(**preset):
    code = f"import os, vesselseg.cli; print(*(os.environ[k] for k in {BLAS_VARS!r}))"
    return _python(["-c", code], **preset).stdout.split()


def test_import_pins_blas_threads_unless_set():
    assert _blas_env_after_import() == ["1", "1"]
    assert _blas_env_after_import(OPENBLAS_NUM_THREADS="3", OMP_NUM_THREADS="2") == ["3", "2"]


def test_program_exits_with_the_code_main_returns(tmp_path):
    # each error ends in its exit code and one stderr line, with no traceback
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus=1\n")
    absent = tmp_path / "absent.ckpt"
    overflow = write_cfg(tmp_path / "overflow.cfg", image_size=16, synthetic_count=4, rounds=1,
                         lr="1e38")
    cases = [
        (["train", "--config", str(bad), "--out", str(tmp_path / "bad")], cli.EXIT_CONFIG,
         f"config error: {bad}:1: unknown key 'bogus'\n"),
        (["infer", "--checkpoint", str(absent), "--image", str(tmp_path / "f.ppm"),
          "--out", str(tmp_path / "p.pgm")], cli.EXIT_DATA,
         f"data error: [Errno 2] No such file or directory: '{absent}'\n"),
        (["train", "--config", str(overflow), "--out", str(tmp_path / "overflow")],
         cli.EXIT_NUMERICAL, "numerical failure: round 1: overflow"),
    ]
    for argv, code, err in cases:
        done = _python(["-m", "vesselseg.cli", *argv], check=False)
        assert done.returncode == code and done.stderr.startswith(err), done.stderr
        assert done.stderr.count("\n") == 1, done.stderr
    assert not (tmp_path / "bad").exists()


def test_no_command_imports_scipy(trained_run, tmp_path):
    # with scipy unimportable: infer, eval detecting a FOV mask, train on a directory
    out_dir, sample, _ = trained_run
    img_path = tmp_path / "f.ppm"
    _as_p6(sample, img_path)
    infer = ["infer", "--checkpoint", str(out_dir / "best.ckpt"), "--image", str(img_path),
             "--out", str(tmp_path / "p.pgm")]
    pred_d, gold_d, image_d = _golden_eval_inputs(tmp_path)
    report = tmp_path / "report"
    evaluate = ["eval", "--pred-dir", str(pred_d), "--gold-dir", str(gold_d),
                "--image-dir", str(image_d), "--out", str(report)]
    root = _dataset(tmp_path / "ds")
    cfg = write_cfg(tmp_path / "c.cfg", dataset="custom", data_dir=str(root), rounds=1)
    train = ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]
    code = (
        "import sys\nsys.modules['scipy'] = None\nfrom vesselseg import cli\n"
        f"for argv in {[infer, evaluate, train]!r}:\n    assert cli.main(argv) == 0, argv\n"
    )
    _python(["-c", code])
    assert "im1: FOV mask synthesized" in (report / "notes.txt").read_text()
    assert (tmp_path / "run" / "best.ckpt").is_file()


@pytest.mark.parametrize("script", ["run_synthetic_pipeline.py", "run_discriminator_ablation.py"])
def test_script_runs_end_to_end(tmp_path, script):
    path = REPO / "scripts" / script
    args = [str(path), "--out", str(tmp_path), "--rounds", "1", "--image-size", "16", "--count", "3"]
    _python(args)
    report = "report/summary.csv" if script.startswith("run_synthetic") else "ablation.csv"
    assert (tmp_path / report).is_file()


def test_bench_desk_config_matches_the_scripts():
    # bench/workloads.py keeps its own copy of the desk config text
    train_config = runpy.run_path(str(REPO / "bench" / "workloads.py"))["train_config"]
    for seed, rounds, size, count in [(7, 300, 64, 8), (1, 8, 16, 3)]:
        bench_cfg = cli.parse_config_text(train_config(seed, rounds, size, count))
        desk_cfg = cli.parse_config_text(cli.desk_config("image", rounds, seed, size, count))
        assert bench_cfg == desk_cfg
