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

An op result records its backward as a closure over what the forward
kept.  Where each input's grad is a function of the output grad alone, the
op hands ``_each`` one (input, grad function) pair per input, and ``_each``
builds the closure that accumulates each grad into the inputs that still
track gradients.  The two convolutions write their own closures, as their
input grads share work: ``conv2d`` masks the output grad by the activation
and lays it out with zeroed wrap columns once for its kernel and input
grads, and ``transposed_conv2d`` de-interleaves it once for both.

The convolutions are BLAS matrix products; ``conv2d`` builds no im2col
columns.  It reads the input from a zero-padded buffer split into stride x
stride phase planes (one plane at stride 1), each flattened row-major with
row width ``wq = Wo + (kw - 1) // stride``.  Kernel tap (i, j) then reads a
contiguous slice of plane (i % stride, j % stride) starting at
``(i // stride) * wq + j // stride``, and the (N, Cout, Ho*wq) output
accumulates the tap's (Cout, Cin) kernel matrix times that slice; the
``wq - Wo`` columns of each output row wrap into the next plane row.  The
backward runs the same slices against the output grad with those columns
zeroed, so a closure keeps the planes (about the input's size), not kh*kw
copies of it.  Both walk the flattened output in blocks so that a block's
per-tap products stay in cache.  The input grad of every conv is one
stride-1 conv per phase plane (Dumoulin & Visin 2016, arXiv:1603.07285,
§4): the output grad is laid out once after as many zeros as the farthest
tap's offset, and the forward's block loop reads it with the transposed
kernel matrix of each tap of that plane, in tap order, shifted back by the
tap's offset.  It fills the plane rows that hold input pixels, whose
input columns are those pixels' grads; at stride 1 they are the whole
input grad, a view that ``_accum`` reads as it is.

Zero-bordered buffers are a layout that ops produce, so that a stride-1
conv rarely copies its input.  A map of (H, W) with border p lives in an
(N, C, (H + 2p) * (W + 2p) + 2p) buffer that is zero except for the map,
which starts at offset ``p * (W + 2p) + p``: exactly the plane a stride-1
conv with padding p reads.  A tensor's ``data`` is the map's view into its
buffer.  A same-size stride-1 ``conv2d`` (kernel 2p + 1, padding p) writes
its output straight into such a buffer, then zeroes the wrap columns,
which land on the next row's border.  A stride-1 conv whose padding equals
its input's border reads its taps from the input's buffer; any other input
is copied into phase planes as above.  A C-contiguous array is its own
buffer with border 0, so a 1x1 unpadded conv multiplies it in place.
``maxpool2x2`` writes into a buffer with its input's border.

``conv2d(..., act=)`` applies ``"relu"`` or a leaky slope in [0, 1] to
each output block in place.  The output is positive exactly where its
pre-activation is, so the backward takes its mask from the output's sign
and no mask or pre-activation is kept.  ``transposed_conv2d`` (kernel ==
stride) is a product of the kernel matrix with bands of the (Cin, H*W)
input rows, read from the input's buffer; the bias add writes each of a
band's s*s taps straight into the output's strided rows and columns, and
the backward de-interleaves the output grad with one strided copy per tap.
Given ``skip``, its result is the channel concat ``[skip, upsampled]`` in
one buffer with skip's border: skip is copied in once and the upsample is
written after it, so the decoder conv that follows reads the concat in
place.

The other layers make as few full-size passes as they can.
``maxpool2x2`` takes the elementwise max of the four strided views
``x[..., a::2, b::2]``, one per window position, and its backward routes
each window's gradient by comparing those views with the max; no window
copy and no index array are made.  The standalone ``relu`` and
``leaky_relu`` keep the boolean mask ``x > 0`` for their backward, made
only when a graph is recorded, and ``sigmoid`` evaluates both branches
from one ``exp(-|x|)``.
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
    optimizer steps (see :meth:`Adam.zero_grad`).  Op results are interior
    tensors: their ``grad`` stays ``None`` until backward first reaches them,
    and under :func:`no_grad` they track nothing at all.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_buffer")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float32
        self.data = arr.astype(dtype, copy=False)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents = ()
        self._backward = None
        self._buffer = None  # (buffer, border) when data is a bordered buffer's interior

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


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


def _result(values, parents, backward_fn, buffer=None):
    """Wrap an op result, keeping graph edges only where gradients can flow.

    The result's ``grad`` starts as ``None``; :func:`_accum` allocates it.
    ``buffer`` is the (buffer, border) pair of a bordered result.
    """
    out = Tensor(values)
    out._buffer = buffer
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


def _each(values, *pairs, buffer=None):
    """``_result`` for an op whose inputs' grads are independent of each other.

    Each pair is (input, grad_fn): the backward accumulates ``grad_fn(g)``
    into each input that still tracks gradients when it runs, in pair order.
    """

    def bw(g):
        for t, grad_fn in pairs:
            if t.requires_grad:
                _accum(t, grad_fn(g))

    return _result(values, [t for t, _ in pairs], bw, buffer)


def _same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b):
    if not isinstance(b, Tensor):
        return _each(a.data + float(b), (a, lambda g: g))
    _same_shape(a, b, "add")
    return _each(a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def neg(a):
    return _each(-a.data, (a, lambda g: -g))


def sub(a, b):
    if not isinstance(b, Tensor):
        return add(a, -float(b))
    return add(a, neg(b))


def rsub(a, scalar):
    """scalar - a, elementwise."""
    return _each(float(scalar) - a.data, (a, lambda g: -g))


def mul(a, b):
    if not isinstance(b, Tensor):
        c = float(b)
        return _each(a.data * c, (a, lambda g: g * c))
    _same_shape(a, b, "mul")
    return _each(a.data * b.data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def log(a):
    x = a.data
    return _each(np.log(x), (a, lambda g: g / x))


def clamp(a, lo, hi):
    """Clip values to [lo, hi]; gradient passes only strictly inside."""
    x = a.data
    return _each(np.clip(x, lo, hi), (a, lambda g: g * ((x > lo) & (x < hi))))


# ---------------------------------------------------------------------------
# activations

# relu and leaky_relu closures keep the mask ``x > 0``, made only when a
# graph is recorded, so their backward needs no pass over the input

def relu(a):
    x = a.data
    pos = x > 0 if _tracked(a) else None
    return _each(np.maximum(x, 0), (a, lambda g: g * pos))


def leaky_relu(a, alpha=0.2):
    """max(x, alpha * x), which is the leaky relu only for 0 <= alpha <= 1."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"leaky_relu: alpha must lie in [0, 1], got {alpha}")
    x = a.data
    pos = x > 0 if _tracked(a) else None
    out = np.empty_like(x)
    np.multiply(x, alpha, out=out)
    np.maximum(out, x, out=out)
    return _each(out, (a, lambda g: np.where(pos, g, g * alpha)))


_SIG_EPS = 1e-7


def sigmoid(a):
    """Numerically stable logistic, clipped into the open interval (0, 1)."""
    x = a.data
    e = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) below: never overflows
    d = 1.0 + e
    out = np.where(x >= 0, 1.0 / d, e / d)
    np.clip(out, _SIG_EPS, 1.0 - _SIG_EPS, out=out)
    return _each(out, (a, lambda g: g * out * (1.0 - out)))


# ---------------------------------------------------------------------------
# reductions and shape ops

def global_mean(a):
    """Arithmetic mean over every element, as a scalar tensor."""
    if a.data.size == 0:
        raise ValueError("global_mean: empty tensor")
    n = a.data.size
    return _each(a.data.mean(), (a, lambda g: np.full_like(a.data, float(g) / n)))


def spatial_mean(a):
    """Mean over the two trailing spatial axes of an NCHW tensor."""
    if a.data.ndim != 4:
        raise ValueError(f"spatial_mean: expected 4-d input, got shape {a.data.shape}")
    n_hw = a.data.shape[2] * a.data.shape[3]
    return _each(
        a.data.mean(axis=(2, 3), keepdims=True),
        (a, lambda g: np.broadcast_to(g / n_hw, a.data.shape)),
    )


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
    return _each(
        np.concatenate([a.data, b.data], axis=1), (a, lambda g: g[:, :ca]), (b, lambda g: g[:, ca:])
    )


# ---------------------------------------------------------------------------
# convolution family

def _out_size(size, k, stride, padding):
    return (size + 2 * padding - k) // stride + 1


def _bordered(n, c, h, w, border, dtype):
    """A zeroed (N, C, L) buffer with room for an (N, C, h, w) map inside a
    zero border, and the view of that map.

    Rows are ``w + 2 * border`` wide and the map starts at ``border`` rows
    and ``border`` columns in; ``L`` adds ``2 * border`` zeros after the
    last row, which the widest tap slice of a stride-1 conv reads.
    """
    wq = w + 2 * border
    start = border * wq + border
    buf = np.zeros((n, c, (h + 2 * border) * wq + 2 * border), dtype=dtype)
    return buf, buf[..., start : start + h * wq].reshape(n, c, h, wq)[..., :w]


def _layout(t):
    """(buffer, border) that t's (N, C, H, W) data lives in, or None.

    A C-contiguous array is its own buffer with border 0.
    """
    if t._buffer is not None:
        return t._buffer
    if t.data.ndim == 4 and t.data.flags.c_contiguous:
        n, c, h, w = t.data.shape
        return t.data.reshape(n, c, h * w), 0
    return None


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


def _window(planes, phase, offset, blk):
    """Tap slice of a phase-plane buffer for one block of the flattened output."""
    return planes[phase][..., offset + blk.start : offset + blk.stop]


def _blocks(length):
    """Slices of ``length`` flattened output columns, in blocks of at least
    ``_BLOCK`` columns (one block when shorter, none when empty)."""
    step = max(1, -(-length // max(1, length // _BLOCK)))
    return [slice(b, min(b + step, length)) for b in range(0, length, step)]


def _tap_loop(planes, kernels, first, out, act=None):
    """Fill the (N, R, L) ``out`` block by block: ``first`` plus, in the
    order given, each (R, C) kernel matrix times its window of ``planes``.

    ``kernels`` holds (matrix, phase, offset) triples, read as in
    :func:`_window`; ``act`` is :func:`conv2d`'s activation, applied to each
    block in place.
    """
    n, rows, length = out.shape
    blocks = _blocks(length)
    if not blocks:
        return
    # a block accumulates in a contiguous buffer, as ufuncs run several
    # times faster on it than on a block's strided view of the output
    prod = np.empty((n, rows, blocks[0].stop), dtype=out.dtype)
    for blk in blocks:
        m = blk.stop - blk.start
        acc, p = np.empty((n, rows, m), dtype=out.dtype), prod[..., :m]
        acc[...] = first
        for kmat, phase, offset in kernels:
            acc += np.matmul(kmat, _window(planes, phase, offset, blk), out=p)
        if act == "relu":
            np.maximum(acc, 0, out=acc)
        elif act is not None:
            np.maximum(np.multiply(acc, act, out=p), acc, out=acc)
        out[..., blk] = acc


def conv2d(x, kernel, bias, stride=1, padding=0, act=None):
    """2-d cross-correlation with zero padding, differentiable in all inputs.

    ``act`` applies an activation to the output in place: ``"relu"``, or a
    slope alpha in [0, 1] for the leaky ``max(alpha * y, y)``.  A same-size
    stride-1 result is the interior of a zero-bordered buffer that the next
    stride-1 conv reads its taps from (see the module docstring).
    """
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
    slope = isinstance(act, (int, float)) and not isinstance(act, bool) and 0.0 <= act <= 1.0
    if act not in (None, "relu") and not slope:
        raise ValueError(f"conv2d: act must be None, 'relu' or a slope in [0, 1], got {act!r}")

    s, dtype = stride, np.result_type(x.data, kernel.data, bias.data)
    ho, wo = _out_size(h, kh, s, padding), _out_size(w, kw, s, padding)
    hq, wq = ho + (kh - 1) // s, wo + (kw - 1) // s
    layout = _layout(x) if s == 1 else None
    if layout is not None and layout[1] == padding and kw <= 2 * padding + 1:
        # the input's zero-bordered buffer is its one plane
        planes = layout[0][None, None]
    else:
        size = hq * wq + (kw - 1) // s  # the last tap's slice runs past row hq
        planes = np.zeros((s, s, n, cin, size), dtype=x.data.dtype)
        grid = planes[..., : hq * wq].reshape(s, s, n, cin, hq, wq)
        for a, b, plane_win, x_win in _phase_windows(x.data.shape, s, padding, hq, wq):
            grid[a, b][plane_win] = x.data[x_win]
    length = ho * wq
    taps = [(i, j, (i % s, j % s), (i // s) * wq + j // s) for i in range(kh) for j in range(kw)]
    ktap = np.ascontiguousarray(kernel.data.transpose(2, 3, 0, 1))  # (kh, kw, Cout, Cin)

    # out[:, :, y*wq + x] is output pixel (y, x) for x < wo; the wq - wo
    # columns past it wrap into the next plane row.  A same-size stride-1
    # output is written into a bordered buffer of the same row width, where
    # those columns are the border and are zeroed after the activation.
    bordered = s == 1 and (ho, wo) == (h, w)
    if bordered:
        buf, _ = _bordered(n, cout, ho, wo, padding, dtype)
        start = padding * wq + padding
        out = buf[..., start : start + length]
    else:
        out = np.empty((n, cout, length), dtype=dtype)
    kernels = [(ktap[i, j], phase, offset) for i, j, phase, offset in taps]
    _tap_loop(planes, kernels, bias.data[:, None], out, act)
    y = out.reshape(n, cout, ho, wq)
    if bordered:
        y[..., wo:] = 0
    y = y[..., :wo]

    def bw(g):
        # the output grad in the (ho, wq) layout, zero in the wrap columns,
        # after as many zeros as the farthest tap's offset and padded with
        # zeros to hq rows: every tap window below stays inside the buffer
        front = taps[-1][3]
        gbuf = np.zeros((n, cout, front + hq * wq), dtype=dtype)
        gq = gbuf[..., front : front + length]
        gv = gq.reshape(n, cout, ho, wq)[..., :wo]
        # masked as it is laid out: the output is positive exactly where its
        # pre-activation is, for any slope in [0, 1]
        if act == "relu":
            np.multiply(g, y > 0, out=gv)
        elif act is not None:
            np.multiply(g, act, out=gv)
            np.copyto(gv, g, where=y > 0)
        else:
            gv[...] = g
        if bias.requires_grad:
            _accum(bias, gv.sum(axis=(0, 2, 3)))
        if kernel.requires_grad:
            dk = np.zeros_like(ktap)
            # each block's tap products, summed over the batch once per block
            dkn = np.empty((kh, kw, n, cout, cin), dtype=dtype)
            for blk in _blocks(length):
                gb = gq[..., blk]
                for i, j, phase, offset in taps:
                    np.matmul(gb, _window(planes, phase, offset, blk).transpose(0, 2, 1), out=dkn[i, j])
                dk += dkn.sum(axis=2)
            _accum(kernel, dk.transpose(2, 3, 0, 1))
        if not x.requires_grad:
            return
        # a phase plane's grad is a stride-1 conv of the output grad: plane
        # position r sums, over the taps that read the plane, the tap's
        # transposed kernel times the grad at r - offset
        dx = np.zeros(x.data.shape, dtype=dtype) if s > 1 else None
        for a, b, (_, rows, cols), x_win in _phase_windows(x.data.shape, s, padding, hq, wq):
            base = front + rows.start * wq
            kernels = [(ktap[i, j].T, (0, 0), base - off) for i, j, ph, off in taps if ph == (a, b)]
            part = np.empty((n, cin, (rows.stop - rows.start) * wq), dtype=dtype)
            _tap_loop(gbuf[None, None], kernels, 0, part)
            part = part.reshape(n, cin, rows.stop - rows.start, wq)[..., cols]
            if s == 1:
                dx = part
            else:
                dx[x_win] = part
        _accum(x, dx)

    return _result(y, (x, kernel, bias), bw, (buf, padding) if bordered else None)


def transposed_conv2d(x, kernel, bias, stride, skip=None):
    """Stride-factor upsampling; the adjoint of conv2d with the same kernel.

    Requires kh == kw == stride so the output is exactly stride times the
    input spatially (the only configuration the models use).  Given
    ``skip``, the result is the channel concat ``[skip, upsampled]``, built
    in one buffer with skip's border (see the module docstring).
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
    s = stride
    if skip is not None:
        sk = skip.data.shape
        if skip.data.ndim != 4 or sk[0] != n or sk[2:] != (h * s, w * s):
            raise ValueError(
                f"transposed_conv2d: skip {sk} does not match the upsampled ({n}, {cout}, {h * s}, {w * s})"
            )

    # taps never overlap, so each (input pixel, tap) product is one output
    # pixel: a GEMM over a band of input rows gives (N, Cout*s*s, rows*wq),
    # and one add of the bias writes it interleaved into the output, after
    # the skip channels.  The GEMM reads x's own buffer of row width wq.
    k2 = kernel.data.reshape(cin, cout * s * s)
    src, xb = _layout(x) or (np.ascontiguousarray(x.data).reshape(n, cin, h * w), 0)
    wq = w + 2 * xb
    first = xb * wq + xb
    layout = _layout(skip) if skip is not None else None
    border = layout[1] if layout is not None else 0
    cs = 0 if skip is None else sk[1]
    dtype = np.result_type(k2, src) if skip is None else np.result_type(k2, src, skip.data)
    buf, out = _bordered(n, cs + cout, h * s, w * s, border, dtype)
    if skip is not None:
        out[:, :cs] = skip.data
    # each of a band's s*s taps is added to the bias straight into the
    # output's strided rows and columns
    band = max(1, _BLOCK // wq)
    for r in range(0, h, band):
        rows = min(band, h - r)
        y = k2.T @ src[..., first + r * wq : first + (r + rows) * wq]
        y = y.reshape(n, cout, s, s, rows, wq)
        for a in range(s):
            for b in range(s):
                np.add(
                    y[:, :, a, b, :, :w],
                    bias.data[:, None, None],
                    out=out[:, cs:, r * s + a : (r + rows) * s : s, b::s],
                )

    def bw(g):
        if skip is not None and skip.requires_grad:
            _accum(skip, g[:, :cs])
        g = np.ascontiguousarray(g[:, cs:])
        # de-interleaved: tap (a, b) of every input pixel, one strided copy per tap
        g2 = np.empty((n, cout, s, s, h, w), dtype=g.dtype)
        for a in range(s):
            for b in range(s):
                g2[:, :, a, b] = g[..., a::s, b::s]
        g2 = g2.reshape(n, cout * s * s, h * w)
        if x.requires_grad:
            _accum(x, (k2 @ g2).reshape(x.data.shape))
        if kernel.requires_grad:
            x2 = x.data.reshape(n, cin, h * w)  # a copy when x is a bordered map
            _accum(kernel, (x2 @ g2.transpose(0, 2, 1)).sum(axis=0).reshape(kernel.data.shape))
        if bias.requires_grad:
            _accum(bias, g.sum(axis=(0, 2, 3)))

    parents = (x, kernel, bias) if skip is None else (x, kernel, bias, skip)
    return _result(out, parents, bw, (buf, border))


def maxpool2x2(x):
    """Disjoint 2x2 max pooling; gradient goes to the first max in scan order.

    The four views ``x[..., a::2, b::2]`` each hold one position of every
    window.  The forward is their elementwise max, written into a buffer
    with x's border; the backward sends a window's gradient to the first
    view, in scan order, equal to that max, or to its first NaN when the
    max is NaN.
    """
    if x.data.ndim != 4:
        raise ValueError(f"maxpool2x2: expected 4-d input, got shape {x.data.shape}")
    n, c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2x2: spatial size {h}x{w} must be even")
    views = [(..., slice(a, None, 2), slice(b, None, 2)) for a in (0, 1) for b in (0, 1)]
    layout = _layout(x)
    border = layout[1] if layout is not None else 0
    buf, out = _bordered(n, c, h // 2, w // 2, border, x.data.dtype)
    # equal values can differ only in the sign of zero; where np.maximum
    # returns its second operand unless the first is greater (as on x86),
    # folding from the last view keeps the earliest of them.  The fold runs
    # on a contiguous array, which ufuncs handle faster than the strided out.
    pooled = np.maximum(x.data[views[3]], x.data[views[2]])
    np.maximum(pooled, x.data[views[1]], out=pooled)
    np.maximum(pooled, x.data[views[0]], out=pooled)
    out[...] = pooled

    def dx(g):
        grad = np.zeros(x.data.shape, dtype=g.dtype)
        taken = np.zeros(out.shape, dtype=bool)
        for view in views:
            v = x.data[view]
            hit = (v == out) | (v != v)
            hit &= ~taken
            np.copyto(grad[view], g, where=hit)
            taken |= hit
        return grad

    return _each(out, (x, dx), buffer=(buf, border))


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


# ---------------------------------------------------------------------------
# Adam

ADAM_EPS = 1e-8  # added to Adam's denominator


class Adam:
    """Adam over a named parameter list, updating tensors and moments in place.

    The values, grads and both moments of all parameters each live in one
    flat buffer: construction copies every parameter's data and grad in and
    rebinds both to views of those buffers, and ``m`` and ``v`` map each
    name to its view of a moment buffer.  A step is then one fixed sequence
    of whole-buffer operations, however many parameters there are.
    """

    def __init__(self, named_params, lr, beta1, beta2):
        self.named_params = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.t = 0
        dtypes = {p.data.dtype for _, p in self.named_params}
        if len(dtypes) > 1:
            raise ValueError(f"Adam: parameters of several dtypes {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.float32
        total = sum(p.data.size for _, p in self.named_params)
        self._value, self._grad, self._m, self._v = (np.zeros(total, dtype) for _ in range(4))
        self.m, self.v = {}, {}
        end = 0
        for name, p in self.named_params:
            start, end = end, end + p.data.size
            value, grad = (buf[start:end].reshape(p.data.shape) for buf in (self._value, self._grad))
            value[...], grad[...] = p.data, p.grad
            p.data, p.grad = value, grad
            self.m[name] = self._m[start:end].reshape(p.data.shape)
            self.v[name] = self._v[start:end].reshape(p.data.shape)

    def _update(self, value, g, m, v, t):
        """The new (m, v, value) of step t, as new arrays: value - lr * m_hat /
        (sqrt(v_hat) + eps), operation for operation."""
        b1, b2 = self.beta1, self.beta2
        m = m * b1
        m += (1.0 - b1) * g
        v = v * b2
        v += (1.0 - b2) * g * g
        den = np.sqrt(v / (1.0 - b2**t))
        den += ADAM_EPS
        return m, v, value - self.lr * (m / (1.0 - b1**t)) / den

    def _failure(self, t):
        """The NumericalError of the first parameter, in list order, whose
        update fails: a non-finite gradient, or an overflow."""
        for name, p in self.named_params:
            if not np.all(np.isfinite(p.grad)):
                return NumericalError(f"non-finite gradient for parameter '{name}'")
            try:
                with np.errstate(over="raise", invalid="raise"):
                    self._update(p.data, p.grad, self.m[name], self.v[name], t)
            except FloatingPointError as exc:
                return NumericalError(f"Adam step {t}: parameter '{name}' overflowed ({exc})")
        return NumericalError(f"Adam step {t}: overflow")

    def step(self):
        """One bias-corrected update; raises NumericalError naming the parameter and the
        step on a non-finite gradient or on an overflow, say of the squared gradient, after
        which every later update of that parameter would silently be 0.  Nothing is
        updated then."""
        t = self.t + 1
        try:
            with np.errstate(over="raise", invalid="raise"):
                new = self._update(self._value, self._grad, self._m, self._v, t)
        except FloatingPointError:
            new = None
        if new is None or not np.all(np.isfinite(self._grad)):
            raise self._failure(t)
        self._m[...], self._v[...], self._value[...] = new
        self.t = t

    def zero_grad(self):
        self._grad[...] = 0.0
