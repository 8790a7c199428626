"""Tests of the benchmark itself, on its smoke sizes (about a minute in all):

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_and_passes_checks(workload, trace):
    proc = bench("--smoke", "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace))  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    if trace and workload == "eval-drive20":
        assert all(v == 0 for k, v in calls.items() if k.split(".")[0] in ("autograd", "models"))
        assert calls["data.load_image.calls"] == 9  # 3 maps, 3 golds, 3 photos
    if trace and workload == "infer-drive":
        assert calls["autograd.backward.calls"] == 0 and calls["autograd.Adam.step.calls"] == 0
        assert calls["models.generator_forward.calls"] == 1
    if trace and workload == "train-64":
        assert calls["autograd.backward.calls"] > 0 and calls["autograd.Adam.step.calls"] > 0


def test_same_seed_gives_same_computed_counts():
    runs = [bench("--smoke", "--workload", "train-64", "--seed", "5", "--seconds", "1",
                  "--trace", "1") for _ in range(2)]  # fmt: skip
    counts = []
    for proc in runs:
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        timed = ("s", "incl_s", "overhead_s")
        counts.append({k: v["value"] for k, v in metrics.items() if k.rsplit(".", 1)[1] not in timed})
    assert "autograd.conv2d.calls" in counts[0]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "train-64", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_is_highest_percentile_with_ten_samples_above():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 6)]) == (5.0, 100.0)


def test_self_time_is_clipped_to_ops_and_excludes_children():
    # span: [name, start, end, parent, op, counts]; one op from t=1 to t=9
    spans = [
        ["cli.main", 0.0, 10.0, -1, -1, None],
        ["training.fit", 0.5, 9.0, 0, -1, None],
        ["training.train_round", 1.0, 5.0, 1, 0, None],
        ["autograd.add", 2.0, 3.0, 2, 0, {"alloc_mb": 4_000_000}],
        ["autograd.conv2d", 3.0, 4.0, 2, 0, {"gflop": 2 * 10**9, "im2col_mb": 10**6}],
    ]
    m = tracing.per_layer(spans, [(1.0, 9.0)])
    assert m["training.train_round.s"] == 2.0
    assert m["training.fit.s"] == 4.0  # 8 s inside the op, 4 of them in train_round
    assert m["cli.main.s"] == 0.0
    assert m["autograd.pointwise.calls"] == 1 and m["autograd.pointwise.s"] == 1.0
    assert m["autograd.conv2d.gflop"] == 2.0 and m["autograd.conv2d.im2col_mb"] == 1.0
    assert m["autograd.alloc_mb"] == 4.0
