import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesselseg import autograd as ag
from vesselseg.autograd import Tensor


def numerical_grad(fn, arr, h=1e-3):
    """Central finite differences of a scalar-valued fn, in float64."""
    arr = arr.astype(np.float64)
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = arr[ix]
        arr[ix] = orig + h
        fp = fn(arr)
        arr[ix] = orig - h
        fm = fn(arr)
        arr[ix] = orig
        grad[ix] = (fp - fm) / (2.0 * h)
        it.iternext()
    return grad


def max_rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_grad(build_loss, arrays, wrt, h=1e-3, tol=1e-3):
    """Compare autodiff gradient of arrays[wrt] against central differences.

    build_loss receives float64 ndarrays and must return a scalar Tensor
    built through the ops under test.
    """
    arrays = [a.astype(np.float64) for a in arrays]
    tensors = [Tensor(a, requires_grad=(i == wrt)) for i, a in enumerate(arrays)]
    loss = build_loss(*tensors)
    ag.backward(loss)
    analytic = tensors[wrt].grad.copy()

    def f(x):
        alt = list(arrays)
        alt[wrt] = x
        return float(build_loss(*[Tensor(a) for a in alt]).data)

    numeric = numerical_grad(f, arrays[wrt], h=h)
    err = max_rel_err(analytic, numeric)
    assert err < tol, f"max relative error {err:.3g} >= {tol}"


def weighted_sum(t, weights):
    n = t.data.size
    return ag.mul(ag.global_mean(ag.mul(t, Tensor(weights))), float(n))


# ---------------------------------------------------------------------------
# conv2d forward oracles


def conv2d_naive(x, k, b, stride, padding):
    """Quadruple-loop reference convolution in float64."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    xp = np.zeros((n, cin, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + w] = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for a in range(kh):
                            for bb in range(kw):
                                acc += xp[ni, ci, i * stride + a, j * stride + bb] * k[co, ci, a, bb]
                    out[ni, co, i, j] = acc + b[co]
    return out


def test_conv2d_hand_example():
    x = Tensor(np.arange(1, 10, dtype=np.float64).reshape(1, 1, 3, 3))
    k = Tensor(np.ones((1, 1, 2, 2)))
    b = Tensor(np.zeros(1))
    out = ag.conv2d(x, k, b, stride=1, padding=0)
    expected = conv2d_naive(x.data, k.data, b.data, 1, 0)
    np.testing.assert_allclose(out.data, [[[[12, 16], [24, 28]]]])
    np.testing.assert_allclose(out.data, expected)


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-1, 1, (2, 1, 5, 7)).astype(np.float32))
    k = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
    b = Tensor(np.zeros(1, dtype=np.float32))
    out = ag.conv2d(x, k, b)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv2d_zero_kernel_annihilates():
    rng = np.random.default_rng(1)
    x = Tensor(rng.uniform(-1, 1, (1, 3, 4, 4)))
    k = Tensor(np.zeros((2, 3, 3, 3)))
    b = Tensor(np.zeros(2))
    out = ag.conv2d(x, k, b, stride=1, padding=1)
    assert np.all(out.data == 0)


# edges of the phase-plane layout: stride 3, non-square kernels up to 5x5,
# padding at least half the kernel or the whole kernel, trailing rows or
# columns no tap reads ((h + 2p - k) % s != 0), n = 2
CONV_EDGES = [  # n, cin, cout, kh, kw, stride, padding, h, w
    (2, 2, 3, 3, 3, 3, 2, 8, 10),
    (2, 1, 2, 5, 3, 2, 3, 7, 6),
    (1, 2, 2, 2, 5, 3, 2, 6, 9),
    (2, 3, 1, 4, 1, 3, 5, 2, 3),
    (1, 2, 2, 5, 5, 1, 4, 3, 4),
    (2, 2, 2, 1, 4, 2, 0, 7, 9),
    (1, 1, 1, 3, 2, 3, 6, 1, 1),
    (2, 2, 3, 5, 4, 2, 2, 11, 10),
]


def test_conv2d_matches_naive_oracle_random():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n, cin, cout = rng.integers(1, 3), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 3))
        h = int(rng.integers(kh, kh + 5))
        w = int(rng.integers(kw, kw + 5))
        x = rng.uniform(-1, 1, (n, cin, h, w))
        k = rng.uniform(-1, 1, (cout, cin, kh, kw))
        b = rng.uniform(-1, 1, cout)
        got = ag.conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(got.data, conv2d_naive(x, k, b, stride, padding), atol=1e-12)
    edges = list(CONV_EDGES)
    for _ in range(12):
        kh, kw, stride, padding = (int(v) for v in rng.integers(1, (6, 6, 4, 7)))
        h = int(rng.integers(max(1, kh - 2 * padding), kh + 7))
        w = int(rng.integers(max(1, kw - 2 * padding), kw + 7))
        edges.append((int(rng.integers(1, 3)), 2, 2, kh, kw, stride, padding, h, w))
    for n, cin, cout, kh, kw, stride, padding, h, w in edges:
        x = rng.uniform(-1, 1, (n, cin, h, w))
        k = rng.uniform(-1, 1, (cout, cin, kh, kw))
        b = rng.uniform(-1, 1, cout)
        got = ag.conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(got.data, conv2d_naive(x, k, b, stride, padding), atol=1e-12)


def test_conv2d_block_split_matches_one_block(monkeypatch):
    # the flattened output is processed in blocks; splitting it differently
    # changes neither the output nor any gradient
    rng = np.random.default_rng(23)
    for n, cin, cout, kh, kw, stride, padding, h, w in [
        (2, 2, 3, 3, 3, 1, 1, 9, 7),
        (1, 3, 2, 3, 4, 2, 1, 11, 10),
        (2, 2, 2, 5, 2, 3, 2, 10, 8),
        (1, 4, 1, 1, 1, 1, 0, 6, 5),
        (1, 2, 3, 1, 1, 2, 0, 9, 8),  # three of the four phases get no tap
        (2, 2, 2, 3, 3, 1, 0, 8, 7),  # valid, not same-size
    ]:
        arrays = [
            rng.uniform(-1, 1, (n, cin, h, w)),
            rng.uniform(-1, 1, (cout, cin, kh, kw)),
            rng.uniform(-1, 1, cout),
        ]

        def run():
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            out = ag.conv2d(*leaves, stride=stride, padding=padding)
            ag.backward(weighted_sum(out, np.linspace(-1, 1, out.data.size).reshape(out.data.shape)))
            return [out.data.copy()] + [t.grad for t in leaves]

        whole = run()
        for block in (1, 3, 7):
            monkeypatch.setattr(ag, "_BLOCK", block)
            for got, want in zip(run(), whole):
                np.testing.assert_allclose(got, want, atol=1e-12)
            monkeypatch.undo()


@pytest.mark.parametrize("bordered", [False, True])
@pytest.mark.parametrize("geometry", CONV_EDGES + [(1, 3, 2, 3, 3, 2, 1, 200, 200)])
def test_conv2d_input_grad_is_the_forward_adjoint(geometry, bordered):
    # <dx, v> == <conv(v) - b, g> for the output grad g, at phases and rows
    # no tap reads and, at 200x200 stride 2, phase grads of several blocks;
    # a bordered input (a same-size identity conv's output) is read in
    # place at stride 1, also by a kernel smaller than 2p + 1
    n, cin, cout, kh, kw, stride, padding, h, w = geometry
    rng = np.random.default_rng(34)
    x, v = rng.uniform(-1, 1, (2, n, cin, h, w))
    k, b = rng.uniform(-1, 1, (cout, cin, kh, kw)), rng.uniform(-1, 1, cout)
    xt = Tensor(x, requires_grad=True)
    src = xt
    if bordered:
        eye = np.zeros((cin, cin, 2 * padding + 1, 2 * padding + 1))
        eye[range(cin), range(cin), padding, padding] = 1
        src = ag.conv2d(xt, Tensor(eye), Tensor(np.zeros(cin)), 1, padding)
        assert src._buffer[1] == padding
    out = ag.conv2d(src, Tensor(k), Tensor(b), stride, padding)
    g = rng.uniform(-1, 1, out.data.shape)
    ag.backward(weighted_sum(out, g))
    conv_v = conv2d_naive(v, k, np.zeros(cout), stride, padding)
    got, want = float((xt.grad * v).sum()), float((conv_v * g).sum())
    assert abs(got - want) <= 1e-12 * float(np.abs(xt.grad * v).sum()), (got, want)


def test_conv2d_1x1_reads_input_in_place():
    # a 1x1, stride-1, unpadded conv multiplies the input itself: no copy
    x = Tensor(np.random.default_rng(24).uniform(-1, 1, (1, 8, 256, 256)).astype(np.float32))
    k = Tensor(np.full((1, 8, 1, 1), 0.5, dtype=np.float32))
    b = Tensor(np.zeros(1, dtype=np.float32))
    tracemalloc.start()
    try:
        with ag.no_grad():
            out = ag.conv2d(x, k, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(out.data, 0.5 * x.data.sum(axis=1, keepdims=True), rtol=1e-5, atol=1e-5)
    assert peak < x.data.nbytes, (peak, x.data.nbytes)


def test_conv2d_shape_mismatch_names_both_shapes():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    k = Tensor(np.zeros((2, 4, 3, 3)))
    b = Tensor(np.zeros(2))
    with pytest.raises(ValueError) as e:
        ag.conv2d(x, k, b)
    assert "(1, 3, 4, 4)" in str(e.value) and "(2, 4, 3, 3)" in str(e.value)


# ---------------------------------------------------------------------------
# transposed conv


def transposed_conv2d_naive(x, k, b, stride):
    """Loop reference: each input pixel scatters kernel-weighted copies of
    itself onto its own stride x stride output block, in float64."""
    n, cin, h, w = x.shape
    _, cout, kh, kw = k.shape
    out = np.zeros((n, cout, h * stride, w * stride))
    for ni in range(n):
        for ci in range(cin):
            for i in range(h):
                for j in range(w):
                    for co in range(cout):
                        for a in range(kh):
                            for bb in range(kw):
                                out[ni, co, i * stride + a, j * stride + bb] += x[ni, ci, i, j] * k[ci, co, a, bb]
    return out + b[None, :, None, None]


def test_tconv_matches_naive_oracle_random():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n, stride = 1 + trial % 2, int(rng.integers(1, 4))
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = rng.uniform(-1, 1, (n, cin, h, w))
        k = rng.uniform(-1, 1, (cin, cout, stride, stride))
        b = rng.uniform(-1, 1, cout)
        got = ag.transposed_conv2d(Tensor(x), Tensor(k), Tensor(b), stride=stride)
        np.testing.assert_allclose(got.data, transposed_conv2d_naive(x, k, b, stride), atol=1e-12)


def test_tconv_bit_equal_to_copy_then_add():
    rng = np.random.default_rng(34)
    for dtype in (np.float32, np.float64):
        x = rng.standard_normal((2, 3, 5, 7)).astype(dtype)
        k = rng.standard_normal((3, 4, 2, 2)).astype(dtype)
        b = rng.standard_normal(4).astype(dtype)
        y = k.reshape(3, 16).T @ x.reshape(2, 3, 35)
        want = y.reshape(2, 4, 2, 2, 5, 7).transpose(0, 1, 4, 2, 5, 3).reshape(2, 4, 10, 14)
        want += b[:, None, None]
        got = ag.transposed_conv2d(Tensor(x), Tensor(k), Tensor(b), stride=2).data
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_tconv_single_pixel_broadcast():
    x = Tensor(np.full((1, 1, 1, 1), 3.5))
    k = Tensor(np.ones((1, 1, 2, 2)))
    b = Tensor(np.zeros(1))
    out = ag.transposed_conv2d(x, k, b, stride=2)
    np.testing.assert_allclose(out.data, np.full((1, 1, 2, 2), 3.5))


def test_tconv_zero_input_zero_output():
    k = Tensor(np.random.default_rng(3).uniform(-1, 1, (2, 3, 2, 2)))
    out = ag.transposed_conv2d(Tensor(np.zeros((1, 2, 3, 3))), k, Tensor(np.zeros(3)), stride=2)
    assert np.all(out.data == 0)


def test_tconv_is_adjoint_of_conv2d():
    # forward(tconv) must equal the input-gradient of conv2d with the same kernel
    rng = np.random.default_rng(4)
    for _ in range(5):
        cin, cout, h, w = 2, 3, int(rng.integers(1, 4)), int(rng.integers(1, 4))
        kern = rng.uniform(-1, 1, (cin, cout, 2, 2))
        x = rng.uniform(-1, 1, (1, cin, h, w))
        fwd = ag.transposed_conv2d(Tensor(x), Tensor(kern), Tensor(np.zeros(cout)), stride=2)

        z = Tensor(rng.uniform(-1, 1, (1, cout, h * 2, w * 2)), requires_grad=True)
        conv_out = ag.conv2d(z, Tensor(kern), Tensor(np.zeros(cin)), stride=2, padding=0)
        loss = ag.global_mean(ag.mul(conv_out, Tensor(x)))
        ag.backward(loss)
        # d loss / d z = tconv(x/size) by the adjoint identity
        np.testing.assert_allclose(z.grad * conv_out.data.size, fwd.data, atol=1e-10)


def test_tconv_rejects_incompatible_kernel():
    with pytest.raises(ValueError):
        ag.transposed_conv2d(
            Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))), Tensor(np.zeros(1)), stride=2
        )


# ---------------------------------------------------------------------------
# pooling, concat, mean


def test_maxpool_basic_and_constant():
    x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    np.testing.assert_allclose(ag.maxpool2x2(x).data, [[[[4.0]]]])
    c = Tensor(np.full((1, 2, 4, 4), 7.0))
    np.testing.assert_allclose(ag.maxpool2x2(c).data, np.full((1, 2, 2, 2), 7.0))


def test_maxpool_rejects_odd():
    with pytest.raises(ValueError):
        ag.maxpool2x2(Tensor(np.zeros((1, 1, 3, 4))))


def test_maxpool_gradient_one_per_window():
    rng = np.random.default_rng(5)
    x = Tensor(rng.permutation(16).astype(np.float64).reshape(1, 1, 4, 4), requires_grad=True)
    out = ag.maxpool2x2(x)
    loss = ag.mul(ag.global_mean(out), 4.0)  # sum of the 4 outputs
    ag.backward(loss)
    g = x.grad.reshape(2, 2, 2, 2)
    for i in range(2):
        for j in range(2):
            assert g[i, :, j, :].sum() == 1.0


def test_maxpool_tie_break_first_in_scan_order():
    x = Tensor(np.array([[[[5.0, 5.0], [5.0, 5.0]]]]), requires_grad=True)
    out = ag.maxpool2x2(x)
    ag.backward(ag.global_mean(out))
    np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])


def maxpool2x2_argmax(x):
    """The reshape/argmax pooling the strided-view version replaced: output
    and the (N, C, H, W) gradient routing of an all-ones output grad."""
    n, c, h, w = x.shape
    win = x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h // 2, w // 2, 4)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    g4 = np.zeros(win.shape)
    np.put_along_axis(g4, idx[..., None], 1.0, axis=-1)
    route = g4.reshape(n, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
    return out, route


def _maxpool_oracle_cases():
    rng = np.random.default_rng(31)
    yield rng.integers(0, 3, (2, 3, 6, 8)).astype(np.float32)  # ties in most windows
    yield rng.integers(-2, 2, (2, 3, 4, 4)).astype(np.float64)
    zeros = rng.choice([0.0, -0.0], (2, 3, 4, 6)).astype(np.float32)
    zeros[0, 0, :2, :2] = [[-0.0, 0.0], [0.0, -0.0]]
    yield zeros
    nans = rng.integers(0, 3, (2, 3, 4, 4)).astype(np.float64)
    nans[0, 0, 0, 1] = np.nan  # one NaN after a finite entry
    nans[1, 2, 2:, 2:] = [[1.0, 5.0], [np.nan, np.nan]]  # two NaNs after the max
    nans[0, 1, :2, :2] = np.nan  # all NaN
    yield nans


def test_maxpool_matches_argmax_oracle():
    for x in _maxpool_oracle_cases():
        want, route = maxpool2x2_argmax(x)
        t = Tensor(x, requires_grad=True)
        out = ag.maxpool2x2(t)
        assert out.data.dtype == x.dtype
        np.testing.assert_array_equal(out.data, want)
        ag.backward(ag.mul(ag.global_mean(out), float(out.data.size)))  # all-ones grad
        np.testing.assert_array_equal(t.grad, route)


def test_concat_channels_shapes_and_roundtrip():
    rng = np.random.default_rng(6)
    a = rng.uniform(size=(1, 3, 8, 8)).astype(np.float32)
    b = rng.uniform(size=(1, 5, 8, 8)).astype(np.float32)
    out = ag.concat_channels(Tensor(a), Tensor(b))
    assert out.data.shape == (1, 8, 8, 8)
    np.testing.assert_array_equal(out.data[:, :3], a)
    np.testing.assert_array_equal(out.data[:, 3:], b)


def test_concat_channels_rejects_mismatch():
    with pytest.raises(ValueError):
        ag.concat_channels(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 5, 4))))


def test_concat_gradient_split():
    a = Tensor(np.random.default_rng(7).uniform(size=(1, 2, 3, 3)), requires_grad=True)
    b = Tensor(np.random.default_rng(8).uniform(size=(1, 1, 3, 3)))
    out = ag.concat_channels(a, b)
    loss = ag.mul(ag.global_mean(out), float(out.data.size))  # plain sum
    ag.backward(loss)
    np.testing.assert_allclose(a.grad, np.ones_like(a.data))


def test_global_mean_values():
    t = Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
    assert float(ag.global_mean(t).data) == 2.5
    c = Tensor(np.full((3, 3), 9.25))
    assert float(ag.global_mean(c).data) == 9.25


def test_global_mean_gradient_uniform():
    t = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
    ag.backward(ag.global_mean(t))
    np.testing.assert_allclose(t.grad, np.full((2, 3), 1.0 / 6.0))


# ---------------------------------------------------------------------------
# activations


def test_activation_values():
    assert float(ag.sigmoid(Tensor(np.array(0.0))).data) == 0.5
    np.testing.assert_array_equal(
        ag.relu(Tensor(np.array([-3.0, 2.0]))).data, np.array([0.0, 2.0], dtype=np.float32)
    )
    assert float(ag.leaky_relu(Tensor(np.array(-5.0)), alpha=0.2).data) == pytest.approx(-1.0)


def test_sigmoid_strictly_open_interval():
    x = Tensor(np.array([-100.0, -30.0, 0.0, 30.0, 100.0], dtype=np.float32))
    out = ag.sigmoid(x).data
    assert np.all(out > 0.0) and np.all(out < 1.0)


def sigmoid_gathered(x):
    """The boolean gather/scatter sigmoid the one-pass version replaced."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    np.clip(out, 1e-7, 1.0 - 1e-7, out=out)
    return out


def test_sigmoid_bit_equal_to_gathered_formula():
    edges = [0.0, -0.0, 1e-8, -1e-8, 20.0, -20.0, 100.0, -100.0, np.inf, -np.inf]
    normals = np.random.default_rng(32).standard_normal(4096) * 8
    for dtype in (np.float32, np.float64):
        for x in (np.array(edges, dtype=dtype), normals.astype(dtype)):
            got = ag.sigmoid(Tensor(x)).data
            assert got.dtype == dtype
            assert got.tobytes() == sigmoid_gathered(x).tobytes()


def test_leaky_relu_rejects_alpha_outside_unit_interval():
    x = Tensor(np.array([-1.0, 1.0]))
    for alpha in (-0.1, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            ag.leaky_relu(x, alpha)


def test_leaky_relu_bit_equal_to_where_formula():
    x = np.random.default_rng(33).standard_normal(4096).astype(np.float32)
    x[:4] = [0.0, -0.0, np.inf, -np.inf]
    for alpha in (0.2, 1.0):
        want = np.where(x > 0, x, x * alpha)
        assert ag.leaky_relu(Tensor(x), alpha).data.tobytes() == want.tobytes()


def test_first_grad_does_not_alias_its_source():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = ag.mul(x, 3.0)  # interior: grad starts as None
    g = np.array([0.5, -0.25])
    ag._accum(y, g)
    g[:] = 7.0
    np.testing.assert_array_equal(y.grad, [0.5, -0.25])
    ag._accum(y, np.array([1.0, 1.0]))
    np.testing.assert_array_equal(y.grad, [1.5, 0.75])


# ---------------------------------------------------------------------------
# zero-bordered buffers and fused activations


def interior_mask(length, h, w, border):
    """Which positions of a bordered buffer's rows hold the (h, w) map."""
    wq = w + 2 * border
    assert length == (h + 2 * border) * wq + 2 * border
    mask = np.zeros(length, dtype=bool)
    start = border * wq + border
    mask[start : start + h * wq].reshape(h, wq)[:, :w] = True
    return mask


def assert_bordered(t, border):
    """t's data is the interior of a zero-bordered buffer of that border."""
    buf, got = t._buffer
    n, c, h, w = t.data.shape
    assert got == border and buf.shape[:2] == (n, c)
    mask = interior_mask(buf.shape[-1], h, w, border)
    assert np.shares_memory(buf, t.data)
    np.testing.assert_array_equal(buf[..., mask].reshape(t.data.shape), t.data)
    assert not buf[..., ~mask].any(), "border or wrap columns are not zero"


@pytest.mark.parametrize("k", [3, 5])
def test_borders_and_wrap_columns_stay_zero(k, monkeypatch):
    # a positive bias fills the wrap columns before they are zeroed, and
    # only the first conv copies its input into phase planes
    copies = []
    windows = ag._phase_windows
    monkeypatch.setattr(ag, "_phase_windows", lambda *a: copies.append(a) or windows(*a))
    rng = np.random.default_rng(30 + k)
    p = k // 2

    def conv(t, cin, cout, act):
        kern = Tensor(rng.uniform(-1, 1, (cout, cin, k, k)))
        return ag.conv2d(t, kern, Tensor(np.full(cout, 0.5)), 1, p, act=act)

    x = Tensor(rng.uniform(-1, 1, (2, 3, 8, 6)))
    h1 = conv(x, 3, 4, "relu")
    assert len(copies) == 1
    h2 = conv(h1, 4, 4, 0.2)
    h3 = conv(h2, 4, 2, None)
    pooled = ag.maxpool2x2(h2)
    h4 = conv(pooled, 4, 4, "relu")
    up = ag.transposed_conv2d(h4, Tensor(rng.uniform(-1, 1, (4, 3, 2, 2))), Tensor(np.ones(3)), 2, skip=h2)
    h5 = conv(up, 7, 2, "relu")
    assert len(copies) == 1, "a conv copied a bordered input"
    for t in (h1, h2, h3, pooled, h4, up, h5):
        assert_bordered(t, p)
    np.testing.assert_array_equal(up.data[:, :4], h2.data)


def test_conv2d_activation_equals_standalone_ops():
    # output and every grad bit-equal to relu / leaky_relu after the conv,
    # also where the pre-activation is exactly 0 (zero input rows, zero bias)
    rng = np.random.default_rng(31)
    for dtype in (np.float32, np.float64):
        for stride, padding in [(1, 1), (2, 1), (1, 0)]:
            x = rng.standard_normal((2, 3, 6, 8)).astype(dtype)
            x[:, :, :3] = 0
            k, b = rng.standard_normal((4, 3, 3, 3)).astype(dtype), rng.standard_normal(4).astype(dtype)
            b[:2] = 0
            for act, standalone in [("relu", ag.relu), (0.2, lambda t: ag.leaky_relu(t, 0.2))]:
                runs = []
                for fused in (True, False):
                    leaves = [Tensor(a, requires_grad=True) for a in (x, k, b)]
                    if fused:
                        out = ag.conv2d(*leaves, stride, padding, act=act)
                    else:
                        out = standalone(ag.conv2d(*leaves, stride, padding))
                    w = np.linspace(-1, 1, out.data.size).reshape(out.data.shape)
                    ag.backward(weighted_sum(out, w))
                    runs.append([np.ascontiguousarray(out.data)] + [t.grad for t in leaves])
                for got, want in zip(*runs):
                    assert got.dtype == dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("act", [-0.1, 1.5, "tanh", True, False])
def test_conv2d_rejects_unknown_activation(act):
    zeros = Tensor(np.zeros((1, 1, 3, 3)))
    with pytest.raises(ValueError):
        ag.conv2d(zeros, zeros, Tensor(np.zeros(1)), act=act)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bordered_skip", [False, True])
def test_tconv_with_skip_equals_concat_of_tconv(n, dtype, bordered_skip):
    # values and every grad bit-equal to concat_channels(skip, tconv(x))
    rng = np.random.default_rng(32)
    arrays = [
        rng.standard_normal(shape).astype(dtype)
        for shape in [(n, 4, 5, 3), (4, 3, 2, 2), (3,), (n, 2, 10, 6), (2, 2, 3, 3), (2,)]
    ]
    w = rng.standard_normal((n, 5, 10, 6)).astype(dtype)

    def run(fused):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        x, k, b, s0, sk, sb = leaves
        skip = ag.conv2d(s0, sk, sb, 1, 1, act="relu") if bordered_skip else s0
        if fused:
            out = ag.transposed_conv2d(x, k, b, 2, skip=skip)
        else:
            out = ag.concat_channels(skip, ag.transposed_conv2d(x, k, b, 2))
        ag.backward(weighted_sum(out, w))
        return [np.ascontiguousarray(out.data)] + [t.grad for t in leaves]

    for got, want in zip(run(True), run(False)):
        assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()


def test_tconv_rejects_misaligned_skip():
    x, k, b = Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros((2, 2, 2, 2))), Tensor(np.zeros(2))
    for shape in [(1, 2, 6, 5), (2, 2, 6, 6), (2, 6, 6)]:
        with pytest.raises(ValueError) as e:
            ag.transposed_conv2d(x, k, b, 2, skip=Tensor(np.zeros(shape)))
        assert str(shape) in str(e.value)


# ---------------------------------------------------------------------------
# finite-difference gradient checks for every operator


FD_INSTANCES = 20


def test_grad_conv2d_all_inputs():
    rng = np.random.default_rng(10)
    for trial in range(FD_INSTANCES):
        x = rng.uniform(-1, 1, (1, 2, 4, 5))
        k = rng.uniform(-1, 1, (3, 2, 3, 3))
        b = rng.uniform(-1, 1, 3)
        w = rng.uniform(0.2, 1.0, (1, 3, 4, 5)) * rng.choice([-1, 1], (1, 3, 4, 5))

        def loss(xt, kt, bt):
            return weighted_sum(ag.conv2d(xt, kt, bt, stride=1, padding=1), w)

        check_grad(loss, [x, k, b], wrt=trial % 3)


def test_grad_conv2d_strided():
    rng = np.random.default_rng(11)
    for trial in range(6):
        x = rng.uniform(-1, 1, (2, 2, 6, 6))
        k = rng.uniform(-1, 1, (2, 2, 3, 3))
        b = rng.uniform(-1, 1, 2)
        w = rng.uniform(0.2, 1.0, (2, 2, 3, 3))

        def loss(xt, kt, bt):
            return weighted_sum(ag.conv2d(xt, kt, bt, stride=2, padding=1), w)

        check_grad(loss, [x, k, b], wrt=trial % 3)


def test_grad_conv2d_stride23_nonsquare_batch2():
    # strides 2 and 3 read several phase planes; at padding 1, h + 2p - k is
    # 7 on both axes, so a trailing padded row and column is never read
    rng = np.random.default_rng(25)
    for trial in range(6):
        stride, padding = 2 + trial % 2, 1 + (trial // 2) % 2
        x = rng.uniform(-1, 1, (2, 2, 8, 9))
        k = rng.uniform(-1, 1, (3, 2, 3, 4))
        b = rng.uniform(-1, 1, 3)
        out_shape = ag.conv2d(Tensor(x), Tensor(k), Tensor(b), stride, padding).data.shape
        w = rng.uniform(0.2, 1.0, out_shape) * rng.choice([-1, 1], out_shape)

        def loss(xt, kt, bt):
            return weighted_sum(ag.conv2d(xt, kt, bt, stride=stride, padding=padding), w)

        check_grad(loss, [x, k, b], wrt=trial % 3)


def _clear_of_kink(pre, gap=1e-2):
    """Whether every pre-activation is far enough from 0 that no finite
    difference step crosses the activation's kink."""
    return np.abs(pre).min() > gap


@pytest.mark.parametrize("act", ["relu", 0.2])
@pytest.mark.parametrize("stride", [1, 2])
def test_grad_conv2d_fused_activation(stride, act):
    # at stride 1 the output is a bordered buffer's interior; either way the
    # backward takes its mask from the output's sign
    rng = np.random.default_rng(26 + stride)
    done = 0
    while done < 6:
        x = rng.uniform(-1, 1, (2, 2, 5, 6))
        k = rng.uniform(-1, 1, (3, 2, 3, 3))
        b = rng.uniform(-1, 1, 3)
        pre = ag.conv2d(Tensor(x), Tensor(k), Tensor(b), stride, 1)
        if not _clear_of_kink(pre.data):
            continue
        assert (pre._buffer is not None) == (stride == 1)
        w = rng.uniform(0.2, 1.0, pre.data.shape) * rng.choice([-1, 1], pre.data.shape)

        def loss(xt, kt, bt):
            return weighted_sum(ag.conv2d(xt, kt, bt, stride, 1, act=act), w)

        check_grad(loss, [x, k, b], wrt=done % 3)
        done += 1


@pytest.mark.parametrize("act", ["relu", 0.2])
def test_grad_conv2d_reading_a_bordered_input(act):
    # the second conv reads its taps from the first one's buffer, and hands
    # back the interior of its plane grad as its input grad
    rng = np.random.default_rng(28)
    done = 0
    while done < 8:
        x = rng.uniform(-1, 1, (1, 2, 5, 6))
        k1, b1 = rng.uniform(-1, 1, (3, 2, 3, 3)), rng.uniform(-1, 1, 3)
        k2, b2 = rng.uniform(-1, 1, (2, 3, 3, 3)), rng.uniform(-1, 1, 2)
        pre1 = ag.conv2d(Tensor(x), Tensor(k1), Tensor(b1), 1, 1)
        h = ag.conv2d(Tensor(x), Tensor(k1), Tensor(b1), 1, 1, act=act)
        pre = ag.conv2d(h, Tensor(k2), Tensor(b2), 1, 1)
        if not (_clear_of_kink(pre1.data) and _clear_of_kink(pre.data)):
            continue
        w = rng.uniform(0.2, 1.0, pre.data.shape) * rng.choice([-1, 1], pre.data.shape)

        def loss(xt, k1t, b1t, k2t, b2t):
            h = ag.conv2d(xt, k1t, b1t, 1, 1, act=act)
            return weighted_sum(ag.conv2d(h, k2t, b2t, 1, 1, act=act), w)

        check_grad(loss, [x, k1, b1, k2, b2], wrt=done % 5, h=1e-5)
        done += 1


@pytest.mark.parametrize("act", ["relu", 0.2, None])
def test_conv2d_same_size_input_grad_across_blocks(act):
    # a same-size stride-1 input grad is the forward's tap loop over the
    # zero-padded output grad with the flipped, transposed kernel; 120 rows
    # of 122 flattened columns make several blocks
    rng = np.random.default_rng(32)
    n, cin, cout, h, w = 1, 4, 3, 120, 120
    assert h * (w + 2) >= 2 * ag._BLOCK
    x, k, b = rng.uniform(-1, 1, (n, cin, h, w)), rng.uniform(-1, 1, (cout, cin, 3, 3)), rng.uniform(-1, 1, cout)
    pre = ag.conv2d(Tensor(x), Tensor(k), Tensor(b), 1, 1).data
    # no weight where float32 rounding could flip the activation's mask
    wts = rng.uniform(-1, 1, pre.shape) * (np.abs(pre) > 1e-3)
    grads = {}
    for dtype in (np.float32, np.float64):
        xt = Tensor(x.astype(dtype), requires_grad=True)
        out = ag.conv2d(xt, Tensor(k.astype(dtype)), Tensor(b.astype(dtype)), 1, 1, act=act)
        ag.backward(weighted_sum(out, wts.astype(dtype)))
        grads[dtype] = xt.grad
    g = wts if act is None else wts * np.where(pre > 0, 1.0, 0.0 if act == "relu" else act)
    gpad = np.pad(g, ((0, 0), (0, 0), (1, 1), (1, 1)))
    want = sum(
        np.einsum("oc,noyx->ncyx", k[:, :, i, j], gpad[:, :, 2 - i : 2 - i + h, 2 - j : 2 - j + w])
        for i in range(3)
        for j in range(3)
    )
    np.testing.assert_allclose(grads[np.float64], want, rtol=1e-12, atol=1e-12)
    assert grads[np.float32].dtype == np.float32
    rounding = 16 * np.finfo(np.float32).eps * np.abs(want).max()
    np.testing.assert_allclose(grads[np.float32], want, rtol=0, atol=rounding)


def test_grad_transposed_conv2d_with_skip():
    rng = np.random.default_rng(29)
    for trial in range(8):
        x = rng.uniform(-1, 1, (2, 2, 3, 2))
        k = rng.uniform(-1, 1, (2, 3, 2, 2))
        b = rng.uniform(-1, 1, 3)
        skip = rng.uniform(-1, 1, (2, 2, 6, 4))
        w = rng.uniform(0.2, 1.0, (2, 5, 6, 4)) * rng.choice([-1, 1], (2, 5, 6, 4))

        def loss(xt, kt, bt, st):
            return weighted_sum(ag.transposed_conv2d(xt, kt, bt, 2, skip=st), w)

        check_grad(loss, [x, k, b, skip], wrt=trial % 4)


def test_grad_transposed_conv2d():
    rng = np.random.default_rng(12)
    for trial in range(FD_INSTANCES):
        x = rng.uniform(-1, 1, (1, 2, 3, 3))
        k = rng.uniform(-1, 1, (2, 3, 2, 2))
        b = rng.uniform(-1, 1, 3)
        w = rng.uniform(0.2, 1.0, (1, 3, 6, 6)) * rng.choice([-1, 1], (1, 3, 6, 6))

        def loss(xt, kt, bt):
            return weighted_sum(ag.transposed_conv2d(xt, kt, bt, stride=2), w)

        check_grad(loss, [x, k, b], wrt=trial % 3)


def test_grad_conv2d_batch2_padded():
    # kernel and bias grads sum over the batch
    rng = np.random.default_rng(18)
    for trial in range(6):
        x = rng.uniform(-1, 1, (2, 2, 4, 5))
        k = rng.uniform(-1, 1, (3, 2, 3, 3))
        b = rng.uniform(-1, 1, 3)
        w = rng.uniform(0.2, 1.0, (2, 3, 4, 5)) * rng.choice([-1, 1], (2, 3, 4, 5))

        def loss(xt, kt, bt):
            return weighted_sum(ag.conv2d(xt, kt, bt, stride=1, padding=1), w)

        check_grad(loss, [x, k, b], wrt=trial % 3)


def test_grad_transposed_conv2d_batch2():
    rng = np.random.default_rng(19)
    for trial in range(6):
        x = rng.uniform(-1, 1, (2, 2, 3, 4))
        k = rng.uniform(-1, 1, (2, 3, 2, 2))
        b = rng.uniform(-1, 1, 3)
        w = rng.uniform(0.2, 1.0, (2, 3, 6, 8)) * rng.choice([-1, 1], (2, 3, 6, 8))

        def loss(xt, kt, bt):
            return weighted_sum(ag.transposed_conv2d(xt, kt, bt, stride=2), w)

        check_grad(loss, [x, k, b], wrt=trial % 3)


def test_grad_maxpool():
    rng = np.random.default_rng(13)
    done = 0
    while done < FD_INSTANCES:
        x = rng.uniform(-1, 1, (1, 2, 4, 4))
        # keep window entries well separated so the argmax is FD-stable
        win = x.reshape(1, 2, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4)
        gaps = np.diff(np.sort(win, axis=1), axis=1)
        if gaps.min() < 5e-3:
            continue
        w = rng.uniform(0.2, 1.0, (1, 2, 2, 2))
        check_grad(lambda xt: weighted_sum(ag.maxpool2x2(xt), w), [x], wrt=0)
        done += 1


def test_grad_activations():
    rng = np.random.default_rng(14)
    for _ in range(FD_INSTANCES):
        x = rng.uniform(-1, 1, (3, 4))
        x = np.where(np.abs(x) < 5e-3, x + 0.01, x)  # keep away from relu kink
        w = rng.uniform(0.2, 1.0, (3, 4))
        check_grad(lambda t: weighted_sum(ag.relu(t), w), [x], wrt=0)
        check_grad(lambda t: weighted_sum(ag.leaky_relu(t, 0.2), w), [x], wrt=0)
        check_grad(lambda t: weighted_sum(ag.sigmoid(t), w), [x], wrt=0)


def test_grad_concat_and_means():
    rng = np.random.default_rng(15)
    for _ in range(FD_INSTANCES):
        a = rng.uniform(-1, 1, (2, 2, 3, 3))
        b = rng.uniform(-1, 1, (2, 1, 3, 3))
        w = rng.uniform(0.2, 1.0, (2, 3, 3, 3))
        check_grad(lambda at, bt: weighted_sum(ag.concat_channels(at, bt), w), [a, b], wrt=0)
        check_grad(lambda at, bt: weighted_sum(ag.concat_channels(at, bt), w), [a, b], wrt=1)
        check_grad(lambda at: ag.global_mean(ag.mul(at, at)), [a], wrt=0)
        w2 = rng.uniform(0.2, 1.0, (2, 2, 1, 1))
        check_grad(lambda at: weighted_sum(ag.spatial_mean(at), w2), [a], wrt=0)


def test_grad_elementwise_chain():
    rng = np.random.default_rng(16)
    for _ in range(FD_INSTANCES):
        x = rng.uniform(0.05, 0.95, (4, 4))
        w = rng.uniform(0.2, 1.0, (4, 4))

        def loss(t):
            return weighted_sum(ag.log(ag.clamp(t, 1e-7, 1 - 1e-7)), w)

        check_grad(loss, [x], wrt=0)


# ---------------------------------------------------------------------------
# backward-pass semantics


def test_backward_square_gradient():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = ag.mul(x, x)
    ag.backward(y)
    assert float(x.grad) == pytest.approx(6.0)


def test_backward_rejects_non_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ag.backward(ag.mul(x, 2.0))


def test_disconnected_leaf_keeps_zero_grad():
    x = Tensor(np.array(2.0), requires_grad=True)
    other = Tensor(np.array(5.0), requires_grad=True)
    ag.backward(ag.mul(x, x))
    np.testing.assert_array_equal(other.grad, np.zeros(()))


def test_two_consumer_accumulation():
    x = Tensor(np.array(1.5), requires_grad=True)
    a = ag.mul(x, 2.0)
    b = ag.mul(x, 3.0)
    ag.backward(ag.add(a, b))
    assert float(x.grad) == pytest.approx(5.0)


def test_conv_backward_sum_conservation():
    # with no padding, every (output, tap) pair lands on a real input pixel:
    # sum of input-gradient == output count * kernel sum
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = Tensor(rng.uniform(-1, 1, (1, 2, 5, 5)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, (3, 2, 2, 2)))
        b = Tensor(np.zeros(3))
        out = ag.conv2d(x, k, b, stride=1, padding=0)
        loss = ag.mul(ag.global_mean(out), float(out.data.size))  # all-ones output grad
        ag.backward(loss)
        per_out_position = out.data.shape[0] * out.data.shape[2] * out.data.shape[3]
        expected = per_out_position * k.data.sum()
        assert float(x.grad.sum()) == pytest.approx(float(expected), rel=1e-5)


def test_backward_releases_every_closure():
    def graph():
        rng = np.random.default_rng(20)
        x = Tensor(rng.uniform(-1, 1, (2, 2, 4, 4)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
        kt = Tensor(rng.uniform(-1, 1, (3, 2, 2, 2)), requires_grad=True)
        b3, b2 = Tensor(rng.uniform(-1, 1, 3), requires_grad=True), Tensor(np.zeros(2), requires_grad=True)
        h = ag.maxpool2x2(ag.relu(ag.conv2d(x, k, b3, stride=1, padding=1)))
        up = ag.transposed_conv2d(h, kt, b2, stride=2)
        loss = ag.global_mean(ag.sigmoid(ag.concat_channels(x, up)))
        return loss, [x, k, kt, b3, b2]

    # reference: run every closure in the same order and keep the graph
    loss, leaves = graph()
    loss.grad = np.ones_like(loss.data)
    for node in reversed(ag._topo_order(loss)):
        if node._backward is not None:
            node._backward(node.grad)
    expected = [t.grad.copy() for t in leaves]

    loss, leaves = graph()
    nodes = ag._topo_order(loss)
    assert sum(t._backward is not None for t in nodes) == 7
    ag.backward(loss)
    assert all(t._backward is None and t._parents == () for t in nodes)
    for t, e in zip(leaves, expected):
        np.testing.assert_array_equal(t.grad, e)


def test_interior_grad_is_lazy():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    y = ag.mul(x, x)
    z = ag.global_mean(ag.mul(y, 3.0))
    assert y.requires_grad and y.grad is None and z.grad is None
    ag.backward(z)
    np.testing.assert_allclose(y.grad, [1.5, 1.5])
    np.testing.assert_allclose(x.grad, [3.0, -6.0])


# ---------------------------------------------------------------------------
# no_grad and frozen


def _every_op(rng):
    def leaf(*shape):
        return Tensor(rng.uniform(0.1, 1.0, shape), requires_grad=True)

    x, y = leaf(1, 2, 4, 4), leaf(1, 2, 4, 4)
    k, kt, b = leaf(3, 2, 3, 3), leaf(2, 3, 2, 2), leaf(3)
    return {
        "add": lambda: ag.add(x, y),
        "add_scalar": lambda: ag.add(x, 2.0),
        "neg": lambda: ag.neg(x),
        "sub": lambda: ag.sub(x, y),
        "sub_scalar": lambda: ag.sub(x, 2.0),
        "rsub": lambda: ag.rsub(x, 1.0),
        "mul": lambda: ag.mul(x, y),
        "mul_scalar": lambda: ag.mul(x, 2.0),
        "log": lambda: ag.log(x),
        "clamp": lambda: ag.clamp(x, 0.3, 0.7),
        "relu": lambda: ag.relu(x),
        "leaky_relu": lambda: ag.leaky_relu(x),
        "sigmoid": lambda: ag.sigmoid(x),
        "global_mean": lambda: ag.global_mean(x),
        "spatial_mean": lambda: ag.spatial_mean(x),
        "concat_channels": lambda: ag.concat_channels(x, y),
        "conv2d": lambda: ag.conv2d(x, k, b, stride=1, padding=1),
        "transposed_conv2d": lambda: ag.transposed_conv2d(x, kt, b, stride=2),
        "maxpool2x2": lambda: ag.maxpool2x2(x),
    }


def test_no_grad_ops_keep_no_graph():
    for name, op in _every_op(np.random.default_rng(21)).items():
        tracked = op()
        assert tracked.requires_grad and tracked._backward is not None, name
        with ag.no_grad():
            out = op()
        assert not out.requires_grad, name
        assert out._parents == () and out._backward is None and out.grad is None, name
        np.testing.assert_array_equal(out.data, tracked.data, err_msg=name)


def _tracks():
    return ag.mul(Tensor(np.ones(2), requires_grad=True), 2.0).requires_grad


def test_no_grad_restores_after_nesting_and_exception():
    with ag.no_grad():
        with ag.no_grad():
            assert not _tracks()
        assert not _tracks()
    assert _tracks()
    with pytest.raises(RuntimeError):
        with ag.no_grad():
            raise RuntimeError("inside no_grad")
    assert _tracks()


def test_frozen_skips_grads_and_restores_on_exception():
    rng = np.random.default_rng(22)
    x = Tensor(rng.uniform(-1, 1, (1, 2, 4, 4)), requires_grad=True)
    k = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    const = Tensor(np.ones(3))
    with ag.frozen([k, b, const]):
        assert not (k.requires_grad or b.requires_grad or const.requires_grad)
        ag.backward(ag.global_mean(ag.conv2d(x, k, b, stride=1, padding=1)))
    np.testing.assert_array_equal(k.grad, np.zeros_like(k.data))
    np.testing.assert_array_equal(b.grad, np.zeros_like(b.data))
    assert np.any(x.grad != 0)
    assert k.requires_grad and b.requires_grad and not const.requires_grad
    with pytest.raises(RuntimeError):
        with ag.frozen([k, b]):
            raise RuntimeError("inside frozen")
    assert k.requires_grad and b.requires_grad


@pytest.mark.parametrize("op", ["add", "mul", "concat_channels"])
@pytest.mark.parametrize("frozen_first", [True, False])
def test_two_input_op_under_frozen_grads_only_the_other(op, frozen_first):
    rng = np.random.default_rng(23)
    x, y = rng.uniform(0.5, 1.5, (2, 1, 1, 4, 4))
    w = rng.uniform(-1, 1, (1, 2, 4, 4) if op == "concat_channels" else (1, 1, 4, 4))
    a, b = Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)
    with ag.frozen([a] if frozen_first else [b]):
        ag.backward(weighted_sum(getattr(ag, op)(a, b), w))
    frozen_t, live, other = (a, b, x) if frozen_first else (b, a, y)
    np.testing.assert_array_equal(frozen_t.grad, np.zeros_like(frozen_t.data))
    if op == "add":
        want = w
    elif op == "mul":
        want = w * other
    else:
        want = w[:, 1:] if frozen_first else w[:, :1]
    np.testing.assert_allclose(live.grad, want, rtol=1e-12)


@pytest.mark.parametrize("op", ["add", "mul", "concat_channels"])
def test_two_input_op_on_one_tensor_sums_both_grads(op):
    rng = np.random.default_rng(24)
    x = rng.uniform(0.5, 1.5, (1, 1, 4, 4))
    w = rng.uniform(-1, 1, (1, 2, 4, 4) if op == "concat_channels" else (1, 1, 4, 4))
    a = Tensor(x, requires_grad=True)
    ag.backward(weighted_sum(getattr(ag, op)(a, a), w))
    want = {"add": 2 * w, "mul": 2 * w * x, "concat_channels": w[:, :1] + w[:, 1:]}[op]
    np.testing.assert_allclose(a.grad, want, rtol=1e-12)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_grad_keeps_params():
    p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    opt = ag.Adam([("p", p)], lr=2e-4, beta1=0.5, beta2=0.999)
    opt.step()
    np.testing.assert_array_equal(p.data, np.array([1.0, -2.0], dtype=np.float32))


def test_adam_first_step_closed_form():
    p = Tensor(np.array([0.0], dtype=np.float32), requires_grad=True)
    p.grad[...] = 4.0
    opt = ag.Adam([("p", p)], lr=2e-4, beta1=0.5, beta2=0.999)
    opt.step()
    # bias correction makes m_hat = g, v_hat = g^2, so the step is -lr*g/|g|
    assert float(p.data[0]) == pytest.approx(-2e-4, rel=1e-5)


def test_adam_rejects_non_finite_named():
    p = Tensor(np.array([0.0], dtype=np.float32), requires_grad=True)
    p.grad[...] = np.nan
    opt = ag.Adam([("enc0_conv1_w", p)], lr=2e-4, beta1=0.5, beta2=0.999)
    with pytest.raises(ag.NumericalError) as e:
        opt.step()
    assert "enc0_conv1_w" in str(e.value)


def adam_formula(value, grad, m, v, t, lr, beta1, beta2, eps):
    """One bias-corrected Adam update on fresh arrays: (new_value, new_m, new_v, new_t)."""
    t = t + 1
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return value - lr * m_hat / (np.sqrt(v_hat) + eps), m, v, t


@pytest.mark.parametrize(
    "lr, beta1, beta2, eps",
    [(2e-4, 0.5, 0.999, 1e-8), (2e-3, 0.9, 0.999, 1e-8), (0.1, 0.0, 0.5, 1e-3)],
)
def test_adam_step_in_place_matches_formula_bit_for_bit(monkeypatch, lr, beta1, beta2, eps):
    monkeypatch.setattr(ag, "ADAM_EPS", eps)  # the step reads the constant at each update
    rng = np.random.default_rng(18)
    p = Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    opt = ag.Adam([("p", p)], lr, beta1, beta2)
    arrays = (p.data, opt.m["p"], opt.v["p"])
    want = (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data), 0)
    for scale in (1.0, 1e-3, 30.0, 1e-30, 1.0):
        p.grad[...] = rng.standard_normal(p.data.shape).astype(np.float32) * np.float32(scale)
        want = adam_formula(want[0], p.grad, *want[1:], lr, beta1, beta2, eps)
        opt.step()
        got = (p.data, opt.m["p"], opt.v["p"], opt.t)
        for a, b in zip(got[:3], want[:3]):
            assert a.dtype == b.dtype == np.float32 and a.tobytes() == b.tobytes()
        assert got[3] == want[3]
    assert all(a is b for a, b in zip(arrays, got))  # updated in place


@pytest.mark.parametrize(
    "value, grad, lr",
    [(0.5, 1e20, 2e-4), (-3e38, 1.0, 1e38)],
    ids=["squared-gradient", "new-value"],
)
def test_adam_overflow_is_named_numerical_error(value, grad, lr):
    p = Tensor(np.array([value], dtype=np.float32), requires_grad=True)
    q = Tensor(np.zeros(1, np.float32), requires_grad=True)
    opt = ag.Adam([("enc0_conv1_w", q), ("head_b", p)], lr=lr, beta1=0.5, beta2=0.999)
    p.grad[...] = np.float32(grad)
    with pytest.raises(ag.NumericalError, match=r"Adam step 1: parameter 'head_b' overflowed"):
        opt.step()


def test_adam_keeps_every_parameter_in_its_flat_buffers():
    rng = np.random.default_rng(19)
    shapes = {"w": (3, 2, 3, 3), "b": (3,), "up": (2, 3, 2, 2)}
    params = [(k, Tensor(rng.uniform(-1, 1, s).astype(np.float32), requires_grad=True)) for k, s in shapes.items()]
    before = {k: p.data.copy() for k, p in params}
    params[1][1].grad[...] = 5.0  # a grad taken before construction is kept
    opt = ag.Adam(params, lr=2e-3, beta1=0.9, beta2=0.999)
    for k, p in params:
        assert p.data.tobytes() == before[k].tobytes()
        pairs = [(p.data, opt._value), (p.grad, opt._grad), (opt.m[k], opt._m), (opt.v[k], opt._v)]
        assert all(np.shares_memory(a, buf) for a, buf in pairs)
    assert not any(np.shares_memory(a.data, b.data) for (_, a), (_, b) in zip(params, params[1:]))
    assert np.all(params[1][1].grad == 5.0)
    # one step updates each parameter's view as the formula updates it alone
    for _, p in params:
        p.grad[...] = rng.standard_normal(p.data.shape).astype(np.float32)
    want = {k: adam_formula(p.data, p.grad, 0.0, 0.0, 0, 2e-3, 0.9, 0.999, ag.ADAM_EPS)[0] for k, p in params}
    opt.step()
    assert all(p.data.tobytes() == want[k].tobytes() for k, p in params)
    opt.zero_grad()
    assert all(np.all(p.grad == 0.0) for _, p in params)


# ---------------------------------------------------------------------------
# no NaN/Inf from finite inputs


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)
def test_ops_finite_on_finite_inputs(seed, scale):
    rng = np.random.default_rng(seed)
    x = (rng.uniform(-1, 1, (1, 2, 4, 4)) * scale).astype(np.float32)
    k = (rng.uniform(-1, 1, (2, 2, 3, 3)) * scale).astype(np.float32)
    b = (rng.uniform(-1, 1, 2) * scale).astype(np.float32)
    kt = (rng.uniform(-1, 1, (2, 2, 2, 2)) * scale).astype(np.float32)
    outs = [
        ag.conv2d(Tensor(x), Tensor(k), Tensor(b), stride=1, padding=1),
        ag.transposed_conv2d(Tensor(x), Tensor(kt), Tensor(b), stride=2),
        ag.maxpool2x2(Tensor(x)),
        ag.relu(Tensor(x)),
        ag.leaky_relu(Tensor(x)),
        ag.sigmoid(Tensor(x)),
        ag.global_mean(Tensor(x)),
        ag.spatial_mean(Tensor(x)),
        ag.concat_channels(Tensor(x), Tensor(x)),
    ]
    for out in outs:
        assert np.all(np.isfinite(out.data))
