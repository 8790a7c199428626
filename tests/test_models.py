import tracemalloc

import numpy as np
import pytest

from vesselseg import autograd as ag
from vesselseg import models
from vesselseg.autograd import Tensor
from vesselseg.models import DiscriminatorVariant, GeneratorSpec


def rand_input(shape, seed=0):
    return Tensor(np.random.default_rng(seed).uniform(-1, 1, shape).astype(np.float32))


# ---------------------------------------------------------------------------
# generator


def test_generator_shape_and_range():
    g = models.build_generator(GeneratorSpec(scales=2, base_channels=8), seed=1)
    out = models.generator_forward(g, rand_input((1, 3, 64, 64)))
    assert out.data.shape == (1, 1, 64, 64)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


def test_generator_parameter_count_hand_tally():
    # scales=1, base=4, in=3:
    #   enc conv 3->4 and 4->4, bottleneck 4->8 and 8->8 (3x3),
    #   tconv 8->4 (2x2), dec conv 8->4 and 4->4 (3x3), head 4->1 (1x1)
    def conv_n(cout, cin, k):
        return cout * cin * k * k + cout

    expected = (
        conv_n(4, 3, 3)
        + conv_n(4, 4, 3)
        + conv_n(8, 4, 3)
        + conv_n(8, 8, 3)
        + (8 * 4 * 2 * 2 + 4)
        + conv_n(4, 8, 3)
        + conv_n(4, 4, 3)
        + conv_n(1, 4, 1)
    )
    g = models.build_generator(GeneratorSpec(scales=1, base_channels=4), seed=0)
    assert g.parameter_count() == expected


def test_generator_build_deterministic():
    a = models.build_generator(GeneratorSpec(scales=2, base_channels=8), seed=42)
    b = models.build_generator(GeneratorSpec(scales=2, base_channels=8), seed=42)
    assert list(a.params) == list(b.params)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)


def test_generator_forward_deterministic():
    g = models.build_generator(GeneratorSpec(scales=2, base_channels=4), seed=3)
    x = rand_input((1, 3, 32, 32), seed=4)
    out1 = models.generator_forward(g, x)
    out2 = models.generator_forward(g, x)
    np.testing.assert_array_equal(out1.data, out2.data)


def test_no_grad_generator_forward_is_bit_equal_and_smaller():
    g = models.build_generator(GeneratorSpec(scales=2, base_channels=8), seed=2)
    x = rand_input((1, 3, 128, 128), seed=5)

    def traced_peak(forward):
        tracemalloc.start()
        try:
            out = forward()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def graph_free():
        with ag.no_grad():
            return models.generator_forward(g, x)

    # memory allocated before tracemalloc.start() is not counted in a peak
    graph_out, graph_peak = traced_peak(lambda: models.generator_forward(g, x))
    free_out, free_peak = traced_peak(graph_free)
    np.testing.assert_array_equal(free_out.data, graph_out.data)
    assert not free_out.requires_grad
    assert free_peak <= graph_peak / 2, (free_peak, graph_peak)


def test_no_grad_generator_forward_needs_no_column_buffer():
    # convolutions multiply shifted slices of a padded input: none builds
    # the 9x im2col column matrix of its widest layer, not even briefly
    g = models.build_generator(GeneratorSpec(scales=2, base_channels=8), seed=2)
    x = rand_input((1, 3, 128, 128), seed=5)
    widest_columns = 16 * 9 * 128 * 128 * 4  # dec0_conv1: 16 input channels, 3x3, float32
    tracemalloc.start()
    try:
        with ag.no_grad():
            models.generator_forward(g, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < widest_columns, (peak, widest_columns)


def test_generator_rejects_indivisible_size():
    g = models.build_generator(GeneratorSpec(scales=3, base_channels=4), seed=0)
    with pytest.raises(ValueError) as e:
        models.generator_forward(g, rand_input((1, 3, 36, 36)))
    assert "8" in str(e.value)


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(scales=0)
    with pytest.raises(ValueError):
        GeneratorSpec(kernel_size=4)


# ---------------------------------------------------------------------------
# discriminators


def pair(n=1, size=64, seed=0):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-1, 1, (n, 3, size, size)).astype(np.float32))
    y = Tensor(rng.uniform(0, 1, (n, 1, size, size)).astype(np.float32))
    return x, y


def test_decision_map_sizes_by_variant():
    x, y = pair(size=64)
    d = models.build_discriminator(DiscriminatorVariant.pixel(), (64, 64), 4, seed=0)
    assert models.discriminator_forward(d, x, y).data.shape == (1, 1, 64, 64)

    d = models.build_discriminator(DiscriminatorVariant.image(), (64, 64), 4, seed=0)
    out = models.discriminator_forward(d, x, y)
    assert out.data.shape == (1, 1, 1, 1)
    assert models.decisions_per_image(out) == 1

    d = models.build_discriminator(DiscriminatorVariant.patch(10), (64, 64), 4, seed=0)
    out = models.discriminator_forward(d, x, y)
    n_dec = models.decisions_per_image(out)
    assert 1 < n_dec < 64 * 64

    d = models.build_discriminator(DiscriminatorVariant.patch(64), (64, 64), 4, seed=0)
    out = models.discriminator_forward(d, x, y)
    n_dec = models.decisions_per_image(out)
    assert 1 < n_dec < 64 * 64


def test_decision_values_in_open_interval():
    x, y = pair(size=32, seed=5)
    for variant in (
        DiscriminatorVariant.pixel(),
        DiscriminatorVariant.patch(10),
        DiscriminatorVariant.image(),
    ):
        d = models.build_discriminator(variant, (32, 32), 4, seed=2)
        out = models.discriminator_forward(d, x, y).data
        assert np.all(out > 0.0) and np.all(out < 1.0)


def test_patch_depth_matches_receptive_field_recurrence():
    # independent recurrence: R(0)=1, R(d) = R(d-1) + 2 * product of strides so far
    def oracle_depth(k):
        r, prod, d = 1, 1, 0
        while r < k:
            r += 2 * prod
            prod *= 2
            d += 1
        return d

    for k in (2, 3, 7, 10, 15, 16, 31, 50):
        assert models.depth_for_patch(k) == oracle_depth(k)
    # selected stack is the smallest reaching >= k
    for k in (5, 10, 20):
        d = models.depth_for_patch(k)
        assert models.receptive_field(d) >= k
        assert d == 0 or models.receptive_field(d - 1) < k


def test_patch_rejects_oversized():
    with pytest.raises(ValueError):
        models.build_discriminator(DiscriminatorVariant.patch(100), (64, 64), 4, seed=0)


def test_discriminator_rejects_misaligned():
    d = models.build_discriminator(DiscriminatorVariant.pixel(), (16, 16), 4, seed=0)
    x = rand_input((1, 3, 16, 16))
    y = rand_input((1, 1, 8, 8))
    with pytest.raises(ValueError):
        models.discriminator_forward(d, x, y)


def test_pixel_discriminator_is_spatially_equivariant():
    rng = np.random.default_rng(9)
    d = models.build_discriminator(DiscriminatorVariant.pixel(), (8, 8), 4, seed=1)
    x = rng.uniform(-1, 1, (1, 3, 8, 8)).astype(np.float32)
    y = rng.uniform(0, 1, (1, 1, 8, 8)).astype(np.float32)
    base = models.discriminator_forward(d, Tensor(x), Tensor(y)).data

    perm = rng.permutation(64)
    xp = x.reshape(1, 3, 64)[:, :, perm].reshape(1, 3, 8, 8)
    yp = y.reshape(1, 1, 64)[:, :, perm].reshape(1, 1, 8, 8)
    permuted = models.discriminator_forward(d, Tensor(xp), Tensor(yp)).data
    np.testing.assert_allclose(permuted.reshape(64), base.reshape(64)[perm], rtol=1e-6)


def test_no_dead_parameters_on_random_batch():
    from vesselseg import training

    rng = np.random.default_rng(11)
    g = models.build_generator(GeneratorSpec(scales=2, base_channels=4), seed=7)
    x = Tensor(rng.uniform(-1, 1, (2, 3, 32, 32)).astype(np.float32))
    gold = Tensor((rng.uniform(0, 1, (2, 1, 32, 32)) > 0.8).astype(np.float32))

    d = models.build_discriminator(DiscriminatorVariant.patch(10), (32, 32), 4, seed=8)
    pred = models.generator_forward(g, x)
    dm_fake = models.discriminator_forward(d, x, pred)
    loss = training.g_total_loss(training.g_gan_loss(dm_fake), training.seg_loss(pred, gold), 10.0)
    ag.backward(loss)

    all_params = g.parameters() + d.parameters()
    nonzero = sum(np.any(p.grad != 0) for _, p in all_params)
    assert nonzero / len(all_params) >= 0.99


def test_parse_variant_names():
    assert models.parse_variant("none", (64, 64)) is None
    assert models.parse_variant("pixel", (64, 64)).kind == "pixel"
    assert models.parse_variant("image", (64, 64)).kind == "image"
    assert models.parse_variant("patch10", (64, 64)).patch_size == 10
    assert models.parse_variant("patch80", (64, 64)).patch_size == 64  # capped
    with pytest.raises(ValueError):
        models.parse_variant("gibberish", (64, 64))
    with pytest.raises(ValueError):
        models.parse_variant("patch12", (64, 64))  # only the documented sizes
