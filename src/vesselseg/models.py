"""U-Net style generator and the pixel/patch/image discriminator family.

Models are plain containers of named parameter tensors plus an immutable
spec; forward passes rebuild the graph on every call, so two builds from
the same spec and seed behave bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor


@dataclass(frozen=True)
class GeneratorSpec:
    in_channels: int = 3
    scales: int = 2
    base_channels: int = 8
    kernel_size: int = 3

    def __post_init__(self):
        if self.in_channels < 1 or self.scales < 1 or self.base_channels < 1:
            raise ValueError(f"invalid generator spec {self}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError(f"generator kernel size must be odd, got {self.kernel_size}")

    @property
    def divisor(self):
        """Spatial sizes must be divisible by this."""
        return 2**self.scales


@dataclass(frozen=True)
class DiscriminatorVariant:
    kind: str  # "pixel" | "patch" | "image"
    patch_size: int | None = None

    def __post_init__(self):
        if self.kind not in ("pixel", "patch", "image"):
            raise ValueError(f"unknown discriminator kind {self.kind!r}")
        if self.kind == "patch":
            if self.patch_size is None or self.patch_size < 2:
                raise ValueError("patch discriminator needs patch_size >= 2 (1x1 is the pixel variant)")
        elif self.patch_size is not None:
            raise ValueError(f"{self.kind} discriminator takes no patch size")

    @staticmethod
    def pixel():
        return DiscriminatorVariant("pixel")

    @staticmethod
    def patch(k):
        return DiscriminatorVariant("patch", k)

    @staticmethod
    def image():
        return DiscriminatorVariant("image")


@dataclass(frozen=True)
class DiscriminatorSpec:
    variant: DiscriminatorVariant
    input_size: tuple[int, int]
    base_channels: int
    channels: tuple[int, ...]  # output width of each conv block, head excluded


@dataclass
class Model:
    spec: object
    params: dict[str, Tensor] = field(default_factory=dict)

    def parameters(self):
        return list(self.params.items())

    def parameter_count(self):
        return sum(p.data.size for p in self.params.values())


def parameter(name, data):
    """A trainable leaf tensor."""
    return Tensor(data, requires_grad=True, name=name)


def param_shapes(layout):
    """Yield (name, shape) of every parameter a layout describes, in build order."""
    for name, kernel_shape, cout in layout:
        yield f"{name}_w", kernel_shape
        yield f"{name}_b", (cout,)


def _init(spec, layout, seed):
    """Kernels uniform in +-1/sqrt(fan-in) and zero biases, drawn in layout order."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    m = Model(spec=spec)
    for name, kernel_shape, cout in layout:
        s = math.sqrt(1.0 / (math.prod(kernel_shape) // cout))
        w = rng.uniform(-s, s, kernel_shape).astype(np.float32)
        m.params[f"{name}_w"] = parameter(f"{name}_w", w)
        m.params[f"{name}_b"] = parameter(f"{name}_b", np.zeros(cout, dtype=np.float32))
    return m


def _conv(model, name, x, stride=1, padding=0):
    return ag.conv2d(x, model.params[f"{name}_w"], model.params[f"{name}_b"], stride, padding)


# ---------------------------------------------------------------------------
# generator


def generator_layout(spec: GeneratorSpec):
    """Yield (name, kernel shape, output channels) of every conv, in build order.

    Per encoder level: two same-padded convs + relu, then 2x2 maxpool.
    Channel width doubles per level from base_channels.  The decoder mirrors
    with stride-2 transposed convs, whose kernels are laid out
    (cin, cout, 2, 2), and channel concatenation.
    """
    k, cin = spec.kernel_size, spec.in_channels
    for lvl in range(spec.scales):
        cout = spec.base_channels * 2**lvl
        yield f"enc{lvl}_conv1", (cout, cin, k, k), cout
        yield f"enc{lvl}_conv2", (cout, cout, k, k), cout
        cin = cout
    mid = spec.base_channels * 2**spec.scales
    yield "mid_conv1", (mid, cin, k, k), mid
    yield "mid_conv2", (mid, mid, k, k), mid
    cin = mid
    for lvl in reversed(range(spec.scales)):
        cout = spec.base_channels * 2**lvl
        yield f"dec{lvl}_up", (cin, cout, 2, 2), cout
        yield f"dec{lvl}_conv1", (cout, 2 * cout, k, k), cout
        yield f"dec{lvl}_conv2", (cout, cout, k, k), cout
        cin = cout
    yield "head", (1, cin, 1, 1), 1


def build_generator(spec: GeneratorSpec, seed: int) -> Model:
    """Encoder/decoder with skip connections and a sigmoid 1-channel head."""
    return _init(spec, generator_layout(spec), seed)


def generator_forward(model: Model, x: Tensor) -> Tensor:
    """Map (N,3,H,W) to a same-size vessel probability map in (0,1)."""
    spec = model.spec
    if x.data.ndim != 4 or x.data.shape[1] != spec.in_channels:
        raise ValueError(
            f"generator expects (N,{spec.in_channels},H,W) input, got {x.data.shape}"
        )
    h, w = x.data.shape[2], x.data.shape[3]
    div = spec.divisor
    if h % div or w % div:
        raise ValueError(
            f"generator input {h}x{w} must have spatial sizes divisible by {div}"
        )
    pad = spec.kernel_size // 2
    skips = []
    t = x
    for lvl in range(spec.scales):
        t = ag.relu(_conv(model, f"enc{lvl}_conv1", t, padding=pad))
        t = ag.relu(_conv(model, f"enc{lvl}_conv2", t, padding=pad))
        skips.append(t)
        t = ag.maxpool2x2(t)
    t = ag.relu(_conv(model, "mid_conv1", t, padding=pad))
    t = ag.relu(_conv(model, "mid_conv2", t, padding=pad))
    for lvl in reversed(range(spec.scales)):
        t = ag.transposed_conv2d(
            t, model.params[f"dec{lvl}_up_w"], model.params[f"dec{lvl}_up_b"], stride=2
        )
        t = ag.concat_channels(skips.pop(), t)
        t = ag.relu(_conv(model, f"dec{lvl}_conv1", t, padding=pad))
        t = ag.relu(_conv(model, f"dec{lvl}_conv2", t, padding=pad))
    return ag.sigmoid(_conv(model, "head", t))


# ---------------------------------------------------------------------------
# discriminators


def receptive_field(depth, kernel=3, stride=2):
    """Receptive field of a stack of `depth` equal conv layers."""
    r, jump = 1, 1
    for _ in range(depth):
        r += (kernel - 1) * jump
        jump *= stride
    return r


def depth_for_patch(k):
    """Smallest stride-2 3x3 stack whose receptive field reaches k."""
    d = 0
    while receptive_field(d) < k:
        d += 1
    return d


def _halvings_keeping_patches(size):
    # deepest stride-2 stack that still leaves a spatial grid of decisions
    d = 0
    while size // 2 ** (d + 1) >= 2:
        d += 1
    return d


LEAKY_SLOPE = 0.2
MAX_WIDTH_FACTOR = 8


def discriminator_spec(variant: DiscriminatorVariant, input_size, base_channels: int):
    """Layer widths of a judge of (fundus, vessel-map) pairs at the variant's level.

    Input is the 4-channel concat of fundus and vessel map.  Pixel stacks
    1x1 convs; patch stacks stride-2 3x3 blocks until the receptive field
    first reaches the requested size (bounded so a grid of decisions
    remains); image reduces until the map is at most 4x4, then averages
    over space before the final sigmoid.
    """
    h, w = input_size
    if h < 1 or w < 1:
        raise ValueError(f"invalid discriminator input size {input_size}")
    if variant.kind == "patch" and variant.patch_size > min(h, w):
        raise ValueError(
            f"patch size {variant.patch_size} exceeds input size {h}x{w}"
        )

    if variant.kind == "pixel":
        depth = 2
    elif variant.kind == "patch":
        depth = min(depth_for_patch(variant.patch_size), _halvings_keeping_patches(min(h, w)))
        depth = max(depth, 1)
    else:
        depth = 0
        while min(h, w) // 2**depth > 4:
            depth += 1

    widths = []
    c = base_channels
    for _ in range(depth):
        widths.append(c)
        c = min(c * 2, base_channels * MAX_WIDTH_FACTOR)
    return DiscriminatorSpec(variant, (h, w), base_channels, tuple(widths))


def discriminator_layout(spec: DiscriminatorSpec):
    """Yield (name, kernel shape, output channels) of every conv, in build order."""
    kernel = 1 if spec.variant.kind == "pixel" else 3
    cin = 4
    for i, cout in enumerate(spec.channels):
        yield f"layer{i}", (cout, cin, kernel, kernel), cout
        cin = cout
    yield "head", (1, cin, 1, 1), 1


def build_discriminator(
    variant: DiscriminatorVariant, input_size, base_channels: int, seed: int
) -> Model:
    """A discriminator of :func:`discriminator_spec`'s widths, seeded."""
    spec = discriminator_spec(variant, input_size, base_channels)
    return _init(spec, discriminator_layout(spec), seed)


def discriminator_forward(model: Model, x: Tensor, y: Tensor) -> Tensor:
    """Decision map in (0,1): (N,1,H,W) pixel, (N,1,h,w) patch, (N,1,1,1) image."""
    if x.data.ndim != 4 or y.data.ndim != 4:
        raise ValueError(f"expected 4-d inputs, got {x.data.shape} and {y.data.shape}")
    if (
        x.data.shape[0] != y.data.shape[0]
        or x.data.shape[2:] != y.data.shape[2:]
        or y.data.shape[1] != 1
        or x.data.shape[1] != 3
    ):
        raise ValueError(
            f"misaligned discriminator inputs: fundus {x.data.shape}, vessel map {y.data.shape}"
        )
    spec = model.spec
    t = ag.concat_channels(x, y)
    kind = spec.variant.kind
    n_layers = len(spec.channels)
    for i in range(n_layers):
        if kind == "pixel":
            t = _conv(model, f"layer{i}", t)
        else:
            t = _conv(model, f"layer{i}", t, stride=2, padding=1)
        t = ag.leaky_relu(t, LEAKY_SLOPE)
    t = _conv(model, "head", t)
    if kind == "image":
        t = ag.spatial_mean(t)
    return ag.sigmoid(t)


def decisions_per_image(decision_map: Tensor) -> int:
    return decision_map.data.shape[2] * decision_map.data.shape[3]


# ---------------------------------------------------------------------------
# CLI-facing variant names


VARIANT_NAMES = ("none", "pixel", "patch10", "patch80", "image")


def parse_variant(name: str, input_size) -> DiscriminatorVariant | None:
    """Resolve one of VARIANT_NAMES ("none" is None); patch sizes cap at the input."""
    if name not in VARIANT_NAMES:
        raise ValueError(f"bad discriminator name {name!r}")
    if name == "none":
        return None
    if name.startswith("patch"):
        return DiscriminatorVariant.patch(min(int(name[len("patch") :]), *input_size))
    return DiscriminatorVariant(name)
