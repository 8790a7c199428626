"""The workload process: imports the program, runs one workload's ops in a
closed loop, and writes its timings (and, when traced, its spans) as JSON.

    python3 bench/worker.py SPEC.json RESULT.json

run.py writes SPEC.json and starts one such process per set-up, so its peak
RSS is the program's alone: inputs come from files and checks run after it
exits.
"""

import os
import time

T_START = time.perf_counter()  # before numpy and the program are imported
# one BLAS thread: default OpenBLAS threading slowed rounds 10x under load
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402


def _call(main, argv):
    """Exit code of one CLI call; an exception counts as a failed op."""
    try:
        return main(argv)
    except Exception:  # a failing op is recorded, the loop goes on
        traceback.print_exc()
        return -1


def run_calls(vs, argvs, share_s, tracer):
    """infer / eval: one op per cli.main call, until share_s has passed."""
    ops = []
    cpu0 = time.process_time()
    deadline = time.perf_counter() + share_s
    while not ops or ops[-1][1] < deadline:
        i = len(ops)
        argv = [a.replace("{i}", str(i)) for a in argvs[i % len(argvs)]]
        if tracer:
            tracer.op = i
        start = time.perf_counter()
        rc = _call(vs.cli.main, argv)
        ops.append([start, time.perf_counter(), rc])
        if tracer:
            tracer.op = -1
    return ops, time.process_time() - cpu0


def run_train(vs, argv, tracer):
    """train: one op per round, from one train_round call to the next; the
    last round ends when fit returns."""
    starts, fit_end, cpu = [], [], []
    train_round, fit = vs.training.train_round, vs.training.fit

    def round_hook(*args, **kwargs):
        if not starts:
            cpu.append(time.process_time())
        if tracer:
            tracer.op = len(starts)
        starts.append(time.perf_counter())
        return train_round(*args, **kwargs)

    def fit_hook(*args, **kwargs):
        try:
            return fit(*args, **kwargs)
        finally:
            fit_end.append(time.perf_counter())
            cpu.append(time.process_time())
            if tracer:
                tracer.op = -1

    vs.training.train_round, vs.training.fit = round_hook, fit_hook
    call_start = time.perf_counter()
    rc = _call(vs.cli.main, argv)
    if not starts or not fit_end:  # failed before a round could be timed
        return [[call_start, time.perf_counter(), rc if rc else -1]], 0.0
    ends = starts[1:] + fit_end
    return [[s, e, rc] for s, e in zip(starts, ends)], cpu[-1] - cpu[0]


def blas_info():
    """BLAS build and its live thread count, read from the loaded library."""
    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"blas": blas.get("name"), "blas_version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):  # fmt: skip
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    from vesselseg import autograd, cli, data, metrics, models, training

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"vesselseg was imported from {cli.__file__}, not from {src}")
    vs = types.SimpleNamespace(
        autograd=autograd, cli=cli, data=data, metrics=metrics, models=models, training=training
    )
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(vs)

    if spec["workload"] == "train-64":
        ops, cpu_s = run_train(vs, spec["argvs"][0], tracer)
    else:
        ops, cpu_s = run_calls(vs, spec["argvs"], spec["share_s"], tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    import numpy
    import scipy

    result = {
        "setup_s": ops[0][0] - T_START,
        "ops": ops,
        "cpu_s": cpu_s,
        "wall_s": ops[-1][1] - ops[0][0],
        "peak_rss_mb": peak_rss_mb,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            **blas_info(),
        },
    }
    if tracer:
        windows = [(s, e) for s, e, _ in ops]
        result["per_layer"] = tracing.per_layer(tracer.spans, windows)
        Path(spec["spans_out"]).write_text(
            json.dumps({"windows": windows, "spans": tracer.spans}, separators=(",", ":"))
        )
    Path(sys.argv[2]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
