import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_defaults_documented_for_every_key():
    cfg = cli.parse_config_text("")
    assert set(cfg) == set(cli.CONFIG_SCHEMA)


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


def _dataset(root, n=3, size=16):
    rng = np.random.default_rng(6)
    for sub in ("images", "labels"):
        (root / sub).mkdir(parents=True)
    for i in range(n):
        px = rng.integers(40, 200, (size, size, 3)).astype(np.uint8)
        gold = (rng.uniform(size=(size, size, 1)) > 0.7).astype(np.uint8) * 255
        data.write_image(Image(pixels=px, maxval=255), root / "images" / f"im{i}.ppm")
        data.write_image(Image(pixels=gold, maxval=255), root / "labels" / f"im{i}.pgm")
    return root


@pytest.mark.parametrize("dataset,fraction", [("stare", 0.2), ("custom", 1.0)])
def test_unsplittable_dataset_is_data_exit(capsys, tmp_path, dataset, fraction):
    root = _dataset(tmp_path / "ds")
    cfg = write_cfg(tmp_path / "c.cfg", dataset=dataset, data_dir=str(root), test_fraction=fraction)
    out = tmp_path / "o"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(root) in err and f"dataset={dataset}" in err
    assert not out.exists()


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
        ("fov_threshold", -0.5),
        ("fov_threshold", "nan"),
        ("fov_threshold", 1.5),
    ],
)
def test_bad_config_value_is_located_config_exit(capsys, tmp_path, key, value):
    cfg = write_cfg(tmp_path / "c.cfg", **{key: value})
    out = tmp_path / "o"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()  # refused before anything is written


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


def test_train_without_discriminator(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", discriminator="none")
    out = tmp_path / "o"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "history.csv").read_text().strip().splitlines()[1:]
    for line in lines:
        _, d, gan, seg, val = line.split(",")
        assert d == "nan" and gan == "nan"
        assert float(seg) > 0 and np.isfinite(float(val))
    ckpt = training.load_checkpoint(out / "best.ckpt")
    assert ckpt.disc_spec is None


def test_train_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", seed=1)
    out = tmp_path / "o"
    assert run(["train", "--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
    assert "seed=9" in (out / "config.resolved").read_text()


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
    raw = bytearray((out_dir / "best.ckpt").read_bytes())
    raw[len(raw) // 3] ^= 0x40
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(raw))
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


def test_train_black_fundus_names_the_photo(tmp_path, capsys):
    root = _dataset(tmp_path / "ds", n=1)
    black = root / "images" / "im0.ppm"
    data.write_image(Image(pixels=np.zeros((16, 16, 3), np.uint8), maxval=255), black)
    cfg = write_cfg(tmp_path / "c.cfg", dataset="custom", data_dir=str(root))
    out = tmp_path / "o"
    assert run(["train", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_DATA
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
# argsort-grouping implementation that preceded the one-sort grouping
_GOLDEN_CURVES = {
    "roc.csv": "6296376ad3911960cb20bdae892b86ba56b7eae62ff4d789e86eacf8fdbf8adc",
    "pr.csv": "3fffc7ec25d7dacac71341f24abafebd688a505541ad14defa4849f0be2dd56d",
}
GOLDEN_EVAL_SHA256 = {
    False: {**_GOLDEN_CURVES,
            "summary.csv": "4bf3e01b699c60cab299c77be9d55422c94b35d498eb0aa5f1e0594591b1e269"},
    True: {**_GOLDEN_CURVES,
           "summary.csv": "846bdcd4179b017061ed67d8a020363601113f483705da3cc9fa704974acb52b"},
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


# ---------------------------------------------------------------------------
# program entry

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SRC = Path(cli.__file__).resolve().parents[1]


def _python(args, **preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60, check=True
    )


def _blas_env_after_import(**preset):
    code = f"import os, vesselseg.cli; print(*(os.environ[k] for k in {BLAS_VARS!r}))"
    return _python(["-c", code], **preset).stdout.split()


def test_import_pins_blas_threads_unless_set():
    assert _blas_env_after_import() == ["1", "1"]
    assert _blas_env_after_import(OPENBLAS_NUM_THREADS="3", OMP_NUM_THREADS="2") == ["3", "2"]


@pytest.mark.parametrize("script", ["run_synthetic_pipeline.py", "run_discriminator_ablation.py"])
def test_script_runs_end_to_end(tmp_path, script):
    path = SRC.parent / "scripts" / script
    args = [str(path), "--out", str(tmp_path), "--rounds", "1", "--image-size", "16", "--count", "3"]
    _python(args)
    report = "report/summary.csv" if script.startswith("run_synthetic") else "ablation.csv"
    assert (tmp_path / report).is_file()
