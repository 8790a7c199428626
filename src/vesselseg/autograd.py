"""Dense float tensors with reverse-mode automatic differentiation and Adam.

Activations follow the NCHW layout, convolution kernels are
(out_channels, in_channels, kh, kw), transposed-convolution kernels are
(in_channels, out_channels, kh, kw).  Training runs in float32; every
operation preserves the dtype of its inputs, so float64 graphs can be built
for high-precision checks.

Graphs are built only where gradients can flow.  Inside ``with no_grad():``
no op records parents or a backward closure, so every intermediate buffer
(padded convolution inputs, activations) is freed as soon as the next op
has consumed it; use it for any forward pass nobody calls :func:`backward`
on.  Inside ``with frozen(params):`` the given parameters act as constants, so backward
computes no gradient for them but still flows through them to whatever else
tracks gradients.  Both restore their previous state on exit, also when the
block raises, and both nest.

Gradient-tracking leaves (``Tensor(..., requires_grad=True)``) hold a zeroed
``grad`` from construction; interior op results start with ``grad = None``
and allocate it on the first accumulation during :func:`backward`.

The convolutions are BLAS matrix products; ``conv2d`` builds no im2col
columns.  It copies the input once into a zero-padded buffer split into
stride x stride phase planes (one plane at stride 1), each flattened
row-major with row width ``wq = Wo + (kw - 1) // stride``.  Kernel tap
(i, j) then reads a contiguous slice of plane (i % stride, j % stride)
starting at ``(i // stride) * wq + j // stride``, and the (N, Cout, Ho*wq)
output accumulates the tap's (Cout, Cin) kernel matrix times that slice; a
view drops the ``wq - Wo`` columns of each row that wrap into the next plane
row.  The backward runs the same slices against the output grad with those
columns zeroed, so a closure keeps the planes (about the input's size), not
kh*kw copies of it.  Both walk the flattened output in blocks so that a
block's per-tap products stay in cache.  A 1x1, stride-1, unpadded conv
multiplies the input itself.  ``transposed_conv2d`` (kernel == stride) is
one product of the kernel matrix with the (Cin, H*W) input per image, whose
bias add writes it interleaved into the output.

The other layers make as few full-size passes as they can.
``maxpool2x2`` takes the elementwise max of the four strided views
``x[..., a::2, b::2]``, one per window position, and its backward routes
each window's gradient by comparing those views with the max; no window
copy and no index array are made.  ``relu`` and ``leaky_relu`` keep the
boolean mask ``x > 0`` for their backward, made only when a graph is
recorded, and ``sigmoid`` evaluates both branches from one
``exp(-|x|)``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class NumericalError(RuntimeError):
    """Raised when a non-finite value makes further training meaningless."""


class Tensor:
    """A dense n-d array that records how it was computed.

    ``grad`` is zero-initialized on gradient-tracking leaves and accumulated
    by summation during :func:`backward`; callers zero it explicitly between
    optimizer steps (see :func:`zero_grads`).  Op results are interior
    tensors: their ``grad`` stays ``None`` until backward first reaches them,
    and under :func:`no_grad` they track nothing at all.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None, name=None):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float32
        self.data = arr.astype(dtype, copy=False)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return rsub(self, other)


_grad_enabled = True


@contextmanager
def no_grad():
    """Build no graph inside the block: op results track no gradients."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def frozen(params):
    """Treat the given tensors as constants inside the block.

    Backward skips their gradients (their ``grad`` is left untouched) but
    still propagates through them to other gradient-tracking inputs.
    """
    params = list(params)
    prev = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, r in zip(params, prev):
            p.requires_grad = r


def _tracked(*parents):
    """Whether an op over these inputs records a graph edge."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _result(values, parents, backward_fn):
    """Wrap an op result, keeping graph edges only where gradients can flow.

    The result's ``grad`` starts as ``None``; :func:`_accum` allocates it.
    """
    out = Tensor(values)
    if _tracked(*parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t, g):
    if t.grad is None:
        # a copy: g may be a view, or the same array handed to another input
        t.grad = np.empty_like(t.data)
        t.grad[...] = g
    else:
        t.grad += g


def _same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b):
    if not isinstance(b, Tensor):
        c = float(b)

        def bw_scalar(g):
            if a.requires_grad:
                _accum(a, g)

        return _result(a.data + c, (a,), bw_scalar)
    _same_shape(a, b, "add")

    def bw(g):
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g)

    return _result(a.data + b.data, (a, b), bw)


def neg(a):
    def bw(g):
        if a.requires_grad:
            _accum(a, -g)

    return _result(-a.data, (a,), bw)


def sub(a, b):
    if not isinstance(b, Tensor):
        return add(a, -float(b))
    return add(a, neg(b))


def rsub(a, scalar):
    """scalar - a, elementwise."""
    c = float(scalar)

    def bw(g):
        if a.requires_grad:
            _accum(a, -g)

    return _result(c - a.data, (a,), bw)


def mul(a, b):
    if not isinstance(b, Tensor):
        c = float(b)

        def bw_scalar(g):
            if a.requires_grad:
                _accum(a, g * c)

        return _result(a.data * c, (a,), bw_scalar)
    _same_shape(a, b, "mul")

    def bw(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _result(a.data * b.data, (a, b), bw)


def log(a):
    x = a.data

    def bw(g):
        if a.requires_grad:
            _accum(a, g / x)

    return _result(np.log(x), (a,), bw)


def clamp(a, lo, hi):
    """Clip values to [lo, hi]; gradient passes only strictly inside."""
    x = a.data

    def bw(g):
        if a.requires_grad:
            _accum(a, g * ((x > lo) & (x < hi)))

    return _result(np.clip(x, lo, hi), (a,), bw)


# ---------------------------------------------------------------------------
# activations

# relu and leaky_relu closures keep the mask ``x > 0``, made only when a
# graph is recorded, so their backward needs no pass over the input

def relu(a):
    x = a.data
    pos = x > 0 if _tracked(a) else None

    def bw(g):
        if a.requires_grad:
            _accum(a, g * pos)

    return _result(np.maximum(x, 0), (a,), bw)


def leaky_relu(a, alpha=0.2):
    """max(x, alpha * x), which is the leaky relu only for 0 <= alpha <= 1."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"leaky_relu: alpha must lie in [0, 1], got {alpha}")
    x = a.data
    pos = x > 0 if _tracked(a) else None
    out = np.empty_like(x)
    np.multiply(x, alpha, out=out)
    np.maximum(out, x, out=out)

    def bw(g):
        if a.requires_grad:
            _accum(a, np.where(pos, g, g * alpha))

    return _result(out, (a,), bw)


_SIG_EPS = 1e-7


def sigmoid(a):
    """Numerically stable logistic, clipped into the open interval (0, 1)."""
    x = a.data
    e = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) below: never overflows
    d = 1.0 + e
    out = np.where(x >= 0, 1.0 / d, e / d)
    np.clip(out, _SIG_EPS, 1.0 - _SIG_EPS, out=out)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * out * (1.0 - out))

    return _result(out, (a,), bw)


# ---------------------------------------------------------------------------
# reductions and shape ops

def global_mean(a):
    """Arithmetic mean over every element, as a scalar tensor."""
    if a.data.size == 0:
        raise ValueError("global_mean: empty tensor")
    n = a.data.size

    def bw(g):
        if a.requires_grad:
            _accum(a, np.full_like(a.data, float(g) / n))

    return _result(a.data.mean(), (a,), bw)


def spatial_mean(a):
    """Mean over the two trailing spatial axes of an NCHW tensor."""
    if a.data.ndim != 4:
        raise ValueError(f"spatial_mean: expected 4-d input, got shape {a.data.shape}")
    n_hw = a.data.shape[2] * a.data.shape[3]

    def bw(g):
        if a.requires_grad:
            _accum(a, np.broadcast_to(g / n_hw, a.data.shape))

    return _result(a.data.mean(axis=(2, 3), keepdims=True), (a,), bw)


def concat_channels(a, b):
    """Concatenate two NCHW tensors along the channel axis, a first."""
    if a.data.ndim != 4 or b.data.ndim != 4:
        raise ValueError(
            f"concat_channels: expected 4-d inputs, got {a.data.shape} and {b.data.shape}"
        )
    sa, sb = a.data.shape, b.data.shape
    if sa[0] != sb[0] or sa[2:] != sb[2:]:
        raise ValueError(f"concat_channels: batch/spatial mismatch {sa} vs {sb}")
    ca = sa[1]

    def bw(g):
        if a.requires_grad:
            _accum(a, g[:, :ca])
        if b.requires_grad:
            _accum(b, g[:, ca:])

    return _result(np.concatenate([a.data, b.data], axis=1), (a, b), bw)


# ---------------------------------------------------------------------------
# convolution family

def _out_size(size, k, stride, padding):
    return (size + 2 * padding - k) // stride + 1


def _phase_windows(x_shape, stride, padding, hq, wq):
    """For each phase (a, b): the region of its (hq, wq) plane that holds
    input pixels, and the input slice those pixels come from.

    Plane (a, b) holds padded rows a, a + s, ... and padded columns
    b, b + s, ...; padded rows and columns past hq*s, wq*s are never read.
    """
    h, w = x_shape[2:]
    s, p = stride, padding
    for a in range(s):
        rows = range((a - p) % s, min(h, hq * s - p), s)
        r0 = (rows.start + p) // s
        for b in range(s):
            cols = range((b - p) % s, min(w, wq * s - p), s)
            c0 = (cols.start + p) // s
            plane_win = (..., slice(r0, r0 + len(rows)), slice(c0, c0 + len(cols)))
            x_win = (..., slice(rows.start, rows.stop, s), slice(cols.start, cols.stop, s))
            yield a, b, plane_win, x_win


# Flattened output columns per block, at least: a block's operand, product
# and accumulator rows stay in cache across its taps, and blocks are long
# enough that the per-GEMM call overhead stays small.
_BLOCK = 4096


def conv2d(x, kernel, bias, stride=1, padding=0):
    """2-d cross-correlation with zero padding, differentiable in all inputs."""
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ValueError(
            f"conv2d: expected 4-d input and kernel, got {x.data.shape} and {kernel.data.shape}"
        )
    n, cin, h, w = x.data.shape
    cout, kcin, kh, kw = kernel.data.shape
    if cin != kcin:
        raise ValueError(
            f"conv2d: input channels {x.data.shape} do not match kernel {kernel.data.shape}"
        )
    if bias.data.shape != (cout,):
        raise ValueError(f"conv2d: bias shape {bias.data.shape} does not match ({cout},)")
    if stride < 1 or padding < 0:
        raise ValueError(f"conv2d: invalid stride={stride} padding={padding}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ValueError(
            f"conv2d: padded input {x.data.shape} smaller than kernel {kernel.data.shape}"
        )

    s, dtype = stride, np.result_type(x.data, kernel.data, bias.data)
    ho, wo = _out_size(h, kh, s, padding), _out_size(w, kw, s, padding)
    hq, wq = ho + (kh - 1) // s, wo + (kw - 1) // s
    length = ho * wq
    size = hq * wq + (kw - 1) // s  # the last tap's slice runs past row hq
    if s == 1 and padding == 0 and kw == 1:
        # the input is its own (only) plane and no slice runs past its end
        planes = x.data.reshape(1, 1, n, cin, h * w)
    else:
        planes = np.zeros((s, s, n, cin, size), dtype=x.data.dtype)
        grid = planes[..., : hq * wq].reshape(s, s, n, cin, hq, wq)
        for a, b, plane_win, x_win in _phase_windows(x.data.shape, s, padding, hq, wq):
            grid[a, b][plane_win] = x.data[x_win]
    taps = [(i, j, (i % s, j % s), (i // s) * wq + j // s) for i in range(kh) for j in range(kw)]
    ktap = np.ascontiguousarray(kernel.data.transpose(2, 3, 0, 1))  # (kh, kw, Cout, Cin)
    step = -(-length // max(1, length // _BLOCK))
    blocks = [slice(b, min(b + step, length)) for b in range(0, length, step)]

    def window(arr, phase, offset, blk):
        """Tap slice of a phase-plane buffer for one block of the output."""
        return arr[phase][..., offset + blk.start : offset + blk.stop]

    # out[:, :, y*wq + x] is output pixel (y, x) for x < wo; the wq - wo
    # columns past it wrap into the next plane row and are dropped
    out = np.empty((n, cout, length), dtype=dtype)
    prod = np.empty((n, cout, step), dtype=dtype)
    for blk in blocks:
        acc, p = out[..., blk], prod[..., : blk.stop - blk.start]
        acc[...] = bias.data[:, None]
        for i, j, phase, offset in taps:
            acc += np.matmul(ktap[i, j], window(planes, phase, offset, blk), out=p)

    def bw(g):
        if bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2, 3)))
        # the output grad in the (ho, wq) layout, zero in the wrap columns
        gq = np.zeros((n, cout, ho, wq), dtype=dtype)
        gq[..., :wo] = g
        gq = gq.reshape(n, cout, length)
        if kernel.requires_grad:
            dk = np.zeros_like(ktap)
            for blk in blocks:
                gb = gq[..., blk]
                for i, j, phase, offset in taps:
                    dk[i, j] += (gb @ window(planes, phase, offset, blk).transpose(0, 2, 1)).sum(axis=0)
            _accum(kernel, dk.transpose(2, 3, 0, 1))
        if x.requires_grad:
            dplanes = np.zeros((s, s, n, cin, size), dtype=dtype)
            dprod = np.empty((n, cin, step), dtype=dtype)
            for blk in blocks:
                gb, p = gq[..., blk], dprod[..., : blk.stop - blk.start]
                for i, j, phase, offset in taps:
                    window(dplanes, phase, offset, blk)[...] += np.matmul(ktap[i, j].T, gb, out=p)
            dgrid = dplanes[..., : hq * wq].reshape(s, s, n, cin, hq, wq)
            dx = np.zeros(x.data.shape, dtype=dtype)
            for a, b, plane_win, x_win in _phase_windows(x.data.shape, s, padding, hq, wq):
                dx[x_win] = dgrid[a, b][plane_win]
            _accum(x, dx)

    return _result(out.reshape(n, cout, ho, wq)[..., :wo], (x, kernel, bias), bw)


def transposed_conv2d(x, kernel, bias, stride):
    """Stride-factor upsampling; the adjoint of conv2d with the same kernel.

    Requires kh == kw == stride so the output is exactly stride times the
    input spatially (the only configuration the models use).
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ValueError(
            f"transposed_conv2d: expected 4-d input and kernel, got {x.data.shape} and {kernel.data.shape}"
        )
    n, cin, h, w = x.data.shape
    kcin, cout, kh, kw = kernel.data.shape
    if cin != kcin:
        raise ValueError(
            f"transposed_conv2d: input channels {x.data.shape} do not match kernel {kernel.data.shape}"
        )
    if kh != stride or kw != stride:
        raise ValueError(
            f"transposed_conv2d: kernel {kh}x{kw} incompatible with stride {stride};"
            " need kh == kw == stride"
        )
    if bias.data.shape != (cout,):
        raise ValueError(f"transposed_conv2d: bias shape {bias.data.shape} does not match ({cout},)")

    # taps never overlap, so each (input pixel, tap) product is one output
    # pixel: a GEMM gives (N, Cout*s*s, H*W), and one add of the bias writes
    # it interleaved into the output
    s = stride
    k2 = kernel.data.reshape(cin, cout * s * s)
    x2 = x.data.reshape(n, cin, h * w)
    y = k2.T @ x2
    out = np.empty((n, cout, h * s, w * s), dtype=y.dtype)
    np.add(
        y.reshape(n, cout, s, s, h, w).transpose(0, 1, 4, 2, 5, 3),
        bias.data[:, None, None, None, None],
        out=out.reshape(n, cout, h, s, w, s),
    )

    def bw(g):
        g2 = g.reshape(n, cout, h, s, w, s).transpose(0, 1, 3, 5, 2, 4).reshape(n, cout * s * s, h * w)
        if x.requires_grad:
            _accum(x, (k2 @ g2).reshape(x.data.shape))
        if kernel.requires_grad:
            _accum(kernel, (x2 @ g2.transpose(0, 2, 1)).sum(axis=0).reshape(kernel.data.shape))
        if bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2, 3)))

    return _result(out, (x, kernel, bias), bw)


def maxpool2x2(x):
    """Disjoint 2x2 max pooling; gradient goes to the first max in scan order.

    The four views ``x[..., a::2, b::2]`` each hold one position of every
    window.  The forward is their elementwise max; the backward sends a
    window's gradient to the first view, in scan order, equal to that max,
    or to its first NaN when the max is NaN.
    """
    if x.data.ndim != 4:
        raise ValueError(f"maxpool2x2: expected 4-d input, got shape {x.data.shape}")
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2x2: spatial size {h}x{w} must be even")
    views = [(..., slice(a, None, 2), slice(b, None, 2)) for a in (0, 1) for b in (0, 1)]
    # equal values can differ only in the sign of zero; where np.maximum
    # returns its second operand unless the first is greater (as on x86),
    # folding from the last view keeps the earliest of them
    out = np.maximum(x.data[views[3]], x.data[views[2]])
    np.maximum(out, x.data[views[1]], out=out)
    np.maximum(out, x.data[views[0]], out=out)

    def bw(g):
        if not x.requires_grad:
            return
        dx = np.zeros(x.data.shape, dtype=g.dtype)
        taken = np.zeros(out.shape, dtype=bool)
        for view in views:
            v = x.data[view]
            hit = (v == out) | (v != v)
            hit &= ~taken
            np.copyto(dx[view], g, where=hit)
            taken |= hit
        _accum(x, dx)

    return _result(out, (x,), bw)


# ---------------------------------------------------------------------------
# backward pass

def _topo_order(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss):
    """Populate grads of every reachable gradient-tracking tensor.

    Gradients of a node used by several consumers sum; leaves keep whatever
    was already accumulated, so zero them between steps.  Each node's closure
    and parent links are dropped once it has run, which frees the buffers
    the closure holds during the pass; the graph cannot be walked again.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    order = _topo_order(loss)
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad += np.ones_like(loss.data)
    while order:
        node = order.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node._backward = None
            node._parents = ()


def zero_grads(tensors):
    for t in tensors:
        if t.grad is not None:
            t.grad[...] = 0.0


# ---------------------------------------------------------------------------
# Adam

def adam_step(value, grad, m, v, t, lr, beta1, beta2, eps):
    """One bias-corrected Adam update for a single parameter array.

    Pure: returns (new_value, new_m, new_v, new_t) without touching inputs.
    """
    t = t + 1
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return value - lr * m_hat / (np.sqrt(v_hat) + eps), m, v, t


class Adam:
    """Adam over a named parameter list, updating tensors in place."""

    def __init__(self, named_params, lr=2e-4, beta1=0.5, beta2=0.999, eps=1e-8):
        self.named_params = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def step(self):
        t_next = self.t
        for name, p in self.named_params:
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient for parameter '{name}'")
            new, self.m[name], self.v[name], t_next = adam_step(
                p.data, g, self.m[name], self.v[name], self.t, self.lr, self.beta1, self.beta2, self.eps
            )
            p.data = new
        self.t = t_next

    def zero_grad(self):
        zero_grads(p for _, p in self.named_params)
