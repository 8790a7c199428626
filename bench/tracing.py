"""Spans around the program's public functions, and the per-layer metrics
derived from them.

The wrappers live here, not in the program: each replaces a module attribute
(or ``Adam.step``) with a function that records a span (name, start, end,
parent span, op id) in memory and, for some functions, counts computed from
array shapes or file sizes. The program calls these functions through their
module attributes, so its internal calls are traced too.

Backward time cannot be split per op from outside: the backward closures are
private to the engine, so ``autograd.backward`` shows only as one span. The
split waits for a profiler inside the engine.
"""

from __future__ import annotations

import bisect
import functools
import os
import time

POINTWISE = (
    "add", "sub", "neg", "rsub", "mul", "log", "clamp", "relu", "leaky_relu",
    "sigmoid", "global_mean", "spatial_mean", "concat_channels",
)  # fmt: skip

# (span name, metrics) for every traced function. Metric kinds: "calls"
# counts calls started inside ops; "s" is self time and "incl_s" inclusive
# time inside ops; any other name is a count summed from the span's counters.
# Every figure is per op.
LAYERS = {
    "autograd.conv2d": ("calls", "s", "gflop", "im2col_mb"),
    "autograd.transposed_conv2d": ("calls", "s", "gflop"),
    "autograd.maxpool2x2": ("calls", "s"),
    "autograd.pointwise": ("calls", "s"),
    "autograd.backward": ("calls", "incl_s"),
    "autograd.Adam.step": ("calls", "s"),
    "models.generator_forward": ("calls", "incl_s"),
    "models.discriminator_forward": ("calls", "incl_s"),
    "training.train_round": ("s",),
    "training.validation_loss": ("s",),
    "training.fit": ("s",),
    "training.load_checkpoint": ("s",),
    "training.rebuild_models": ("s",),
    "data.load_image": ("calls", "s", "mb"),
    "data.generate_fov_mask": ("calls", "s"),
    "data.write_image": ("calls", "s", "mb"),
    "data.zscore_normalize": ("s",),
    "metrics.evaluate": ("s",),
    "metrics.roc_auc": ("s",),
    "metrics.pr_auc": ("s",),
    "metrics.otsu_threshold": ("calls", "s"),
    "metrics.write_curve_csv": ("s",),
    "metrics.write_summary_csv": ("s",),
    "cli.main": ("s",),
}
# Counters not tied to one span name: summed over every span inside ops.
TOTALS = ("autograd.alloc_mb", "training.checkpoint_mb", "metrics.fov_pixels", "metrics.curve_points")
# Called only while the program sets up, before the first op: per set-up.
SETUP_LAYERS = {"data.generate_synthetic_sample": ("s",)}

UNITS = {"calls": "count", "s": "s", "incl_s": "s", "gflop": "GFLOP", "mb": "MB"}
_SCALE = {"gflop": 10**9, "mb": 10**6, "im2col_mb": 10**6, "alloc_mb": 10**6, "checkpoint_mb": 10**6}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layers in (LAYERS, SETUP_LAYERS):
        for span, kinds in layers.items():
            out += [(f"{span}.{k}", UNITS.get(k, "MB")) for k in kinds]
    out += [(name, "MB" if name.endswith("_mb") else "count") for name in TOTALS]
    out.append(("trace.overhead_s", "s"))
    return out


# ---------------------------------------------------------------------------
# counters: exact integers from shapes and file sizes


def _alloc(out):
    return out.data.nbytes + (out.grad.nbytes if out.grad is not None else 0)


def _conv_counts(args, kwargs, out):
    x, kernel = args[0], args[1]
    n, cout, ho, wo = out.data.shape
    _, cin, kh, kw = kernel.data.shape
    cols = n * ho * wo * cin * kh * kw
    return {"gflop": 2 * cols * cout, "im2col_mb": cols * x.data.itemsize}


def _tconv_counts(args, kwargs, out):
    x, kernel = args[0], args[1]
    n, cin, h, w = x.data.shape
    _, cout, kh, kw = kernel.data.shape
    return {"gflop": 2 * n * h * w * cin * cout * kh * kw}


def _file_size(path):
    return os.stat(path).st_size


# ---------------------------------------------------------------------------
# recording


class Tracer:
    """Spans kept in memory as [name, start, end, parent, op, counts]."""

    def __init__(self):
        self.spans = []
        self.op = -1  # -1 while the program sets up or tears down
        self._stack = []
        self._last_alloc = None  # an op that returns another op's tensor counts once

    def wrap(self, owner, attr, name, counter=None):
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, out)
            return out

        setattr(owner, attr, traced)

    def _op_counts(self, extra=None):
        def count(args, kwargs, out):
            got = dict(extra(args, kwargs, out)) if extra else {}
            if out is not self._last_alloc:
                self._last_alloc = out
                got["alloc_mb"] = _alloc(out)
            return got

        return count

    def install(self, vs):
        """Wrap the public functions of the program's modules (a namespace
        with autograd, models, training, data, metrics and cli)."""
        ag, w = vs.autograd, self.wrap
        w(ag, "conv2d", "autograd.conv2d", self._op_counts(_conv_counts))
        w(ag, "transposed_conv2d", "autograd.transposed_conv2d", self._op_counts(_tconv_counts))
        w(ag, "maxpool2x2", "autograd.maxpool2x2", self._op_counts())
        for op in POINTWISE:
            w(ag, op, f"autograd.{op}", self._op_counts())
        w(ag, "backward", "autograd.backward")
        w(ag.Adam, "step", "autograd.Adam.step")
        for fn in ("generator_forward", "discriminator_forward"):
            w(vs.models, fn, f"models.{fn}")
        for fn in ("train_round", "validation_loss", "fit", "rebuild_models"):
            w(vs.training, fn, f"training.{fn}")
        w(vs.training, "load_checkpoint", "training.load_checkpoint",
          lambda a, k, out: {"checkpoint_mb": _file_size(a[0])})  # fmt: skip
        w(vs.data, "load_image", "data.load_image", lambda a, k, out: {"mb": _file_size(a[0])})
        w(vs.data, "write_image", "data.write_image", lambda a, k, out: {"mb": _file_size(a[1])})
        for fn in ("generate_fov_mask", "zscore_normalize", "generate_synthetic_sample"):
            w(vs.data, fn, f"data.{fn}")
        w(vs.metrics, "roc_auc", "metrics.roc_auc",
          lambda a, k, out: {"fov_pixels": a[0].scores.size, "curve_points": len(out[0].points)})
        w(vs.metrics, "pr_auc", "metrics.pr_auc",
          lambda a, k, out: {"curve_points": len(out[0].points)})  # fmt: skip
        for fn in ("evaluate", "otsu_threshold", "write_curve_csv", "write_summary_csv"):
            w(vs.metrics, fn, f"metrics.{fn}")
        w(vs.cli, "main", "cli.main")


# ---------------------------------------------------------------------------
# derivation


def _group(name):
    if name.startswith("autograd.") and name[len("autograd."):] in POINTWISE:
        return "autograd.pointwise"
    return name


def _merge(windows):
    merged = []
    for start, end in sorted(windows):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def _overlap_fn(windows):
    merged = _merge(windows)
    starts = [s for s, _ in merged]

    def overlap(a, b):
        total = 0.0
        i = max(0, bisect.bisect_right(starts, a) - 1)
        while i < len(merged) and merged[i][0] < b:
            total += max(0.0, min(b, merged[i][1]) - max(a, merged[i][0]))
            i += 1
        return total

    return overlap


def per_layer(spans, windows):
    """Per-layer metrics from spans and op windows [(start, end)].

    Time is clipped to the op windows, so a span that straddles set-up and
    ops (cli.main and fit in train-64) counts only its part inside ops. Self
    time is the clipped span minus its clipped children. SETUP_LAYERS are
    reported for the process's one set-up instead, from spans started before
    any op.
    """
    n_ops = len(windows)
    overlap = _overlap_fn(windows)
    clipped = [overlap(s[1], s[2]) for s in spans]
    child = [0.0] * len(spans)
    raw_child = [0.0] * len(spans)
    for s, c in zip(spans, clipped):
        if s[3] >= 0:
            child[s[3]] += c
            raw_child[s[3]] += s[2] - s[1]

    acc = {}

    def add(key, v):
        acc[key] = acc.get(key, 0) + v

    for i, (name, start, end, _, op, counts) in enumerate(spans):
        group = _group(name)
        if group in SETUP_LAYERS:
            if op < 0:
                add(f"{group}.s", (end - start) - raw_child[i])
            continue
        add(f"{group}.s", clipped[i] - child[i])
        add(f"{group}.incl_s", clipped[i])
        if op < 0:
            continue
        add(f"{group}.calls", 1)
        for k, v in (counts or {}).items():
            add(f"{group}.{k}" if k in ("gflop", "im2col_mb", "mb") else k, v)

    metrics = {}
    for span, kinds in LAYERS.items():
        for k in kinds:
            metrics[f"{span}.{k}"] = _per(acc.get(f"{span}.{k}", 0), n_ops, k)
    for span, kinds in SETUP_LAYERS.items():
        for k in kinds:
            metrics[f"{span}.{k}"] = _per(acc.get(f"{span}.{k}", 0), 1, k)
    for name in TOTALS:
        k = name.split(".")[1]
        metrics[name] = _per(acc.get(k, 0), n_ops, k)
    return metrics


def _per(total, n, kind):
    # an integer total over an integer divisor rounds once, so counts repeat
    # bit for bit
    return total / (n * _SCALE.get(kind, 1)) if n else 0.0
