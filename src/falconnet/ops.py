"""Reference numerical kernels for rank-4 feature maps.

Arrays are float32 throughout, laid out batch, channel, height, width.
Every function here is a pure function of its inputs. Convolution is
computed tap by tap with plain array arithmetic (no im2col buffers, no
Winograd), which keeps the summation order fixed and the results
reproducible on a given machine.

Both convolution kernels walk a batch one image at a time and write each
image's result straight into the batch output. A call zeroes one image's
padded buffer once, rewrites its interior for each image, and lays out its
weights once, so its temporaries are one image's whatever the batch size.
An image's arithmetic is the same whatever batch it arrives in.

Convolutions whose groups read one input channel each (depthwise, channel
multiplier) run on one branch-sum kernel: the sum over branches of a
branch's tap sum times a scale plus a shift. Depthwise ``conv2d`` is its
one-branch case (every tap, the bias as the shift); ``spatial.repso_forward``
runs all its branches through it in one pass. The kernel picks the memory
layout from the input shape, and only it knows the layout and tiling. Large
planes, and planes of one channel, are walked as NCHW planes stored row
after row, one tile of channels at a time. At stride 1 the tile is written
into one buffer that holds kw copies of its padded planes, and tap (i, j)
is read from copy j, so each tap is one strided view covering a whole
output plane per channel and no tap axis has the unit stride; there a
branch's taps are summed in one ``np.einsum`` pass, the channel weights
broadcast along the row. Strided convs keep one copy, and each of their
taps is a float32 multiply into scratch and an add into the accumulator.
Small stride-1 planes of several channels with one output channel per
group are padded and transposed channels-last, so each output row of a tap
is one contiguous run over all channels, with each tap's weights tiled
along the row; there too a branch's taps are summed in one ``np.einsum``
pass. einsum zero-fills the accumulator and adds each float32-rounded
product in (i, j) order. Either way an image is walked in tiles of about
256 KiB of accumulator, so that it stays in L2, and every stride-1 and
strided path gives the bits of a plain tap-by-tap sum. Two properties of
numpy's einsum hold that up for every stride-1 one-input-channel conv, and
``tests/test_ops.py`` pins both in each layout:

* its float32 loop rounds each product before the add only where numpy's
  SIMD baseline lacks FMA, as the ``X86_V2`` baseline of numpy 2.4.6's
  x86-64 wheel does; on a baseline with FMA (aarch64, for one) it fuses
  them and the bits change;
* it keeps the (i, j) order only while no tap axis has the unit stride of
  a row: channels-last the tap columns are C floats apart, so one channel
  takes NCHW, and in NCHW they are a copy apart.

einsum raises no numpy ``RuntimeWarning``, so an overflow in a stride-1
depthwise sum is a silent ``inf``; callers that care check their result for
finiteness.

Groups that read several input channels (the stem, dense 1x1) take one
``matmul`` per tap, one product per group, written straight into the
image's NCHW output; those per-tap bits are numpy's, from the same call the
test reference makes.

Each row of ``linear`` is its own vector-matrix product, so a batched
forward pass gives every image the bits it gets when run alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "Tensor",
    "ShapeError",
    "ConvSpec",
    "BnParams",
    "fuse_bn_into_linear",
    "conv2d",
    "batch_norm_infer",
    "relu",
    "global_avg_pool",
    "linear",
    "add",
]

Tensor = np.ndarray


class ShapeError(ValueError):
    """An operand's shape violates the operation's contract."""


def as_f32(a) -> np.ndarray:
    """Coerce to a float32 ndarray (no copy when already float32)."""
    return np.asarray(a, dtype=np.float32)


@dataclass(frozen=True)
class ConvSpec:
    """Shape contract of a 2-d convolution.

    ``groups`` partitions the channel axes: output channel ``o`` reads only
    the input slice of group ``o // (out_channels // groups)``. The
    depthwise case is ``groups == in_channels``. Padding is zero padding
    and there is no dilation.
    """

    in_channels: int
    out_channels: int
    kernel_h: int = 1
    kernel_w: int = 1
    stride_h: int = 1
    stride_w: int = 1
    pad_h: int = 0
    pad_w: int = 0
    groups: int = 1
    has_bias: bool = False

    def __post_init__(self):
        for name in ("in_channels", "out_channels", "kernel_h", "kernel_w",
                     "stride_h", "stride_w", "groups"):
            if getattr(self, name) <= 0:
                raise ShapeError(f"ConvSpec.{name} must be positive, got {getattr(self, name)}")
        if self.pad_h < 0 or self.pad_w < 0:
            raise ShapeError(f"ConvSpec padding must be non-negative, got {self.pad_h}x{self.pad_w}")
        if self.in_channels % self.groups:
            raise ShapeError(f"groups={self.groups} does not divide in_channels={self.in_channels}")
        if self.out_channels % self.groups:
            raise ShapeError(f"groups={self.groups} does not divide out_channels={self.out_channels}")

    @property
    def is_depthwise(self) -> bool:
        return self.groups == self.in_channels

    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels // self.groups,
                self.kernel_h, self.kernel_w)

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        """Output extents for an ``h`` x ``w`` input; empty outputs are errors."""
        oh = (h + 2 * self.pad_h - self.kernel_h) // self.stride_h + 1
        ow = (w + 2 * self.pad_w - self.kernel_w) // self.stride_w + 1
        if oh <= 0 or ow <= 0:
            raise ShapeError(
                f"empty convolution output ({oh}x{ow}) for input {h}x{w} with "
                f"kernel {self.kernel_h}x{self.kernel_w}, stride "
                f"{self.stride_h}x{self.stride_w}, padding {self.pad_h}x{self.pad_w}")
        return oh, ow


@dataclass(frozen=True)
class BnParams:
    """Inference-form batch normalization, i.e. a fixed per-channel affine map.

    y = gamma * (x - mean) / sqrt(var + eps) + beta

    Construction checks the statistics and computes the scale and shift
    once, by ``_bn_scale_shift``, as RepSO and RefCO do for all branches.
    """

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5
    # The (low, high) of the uniform draws of `random` and `init_weights`.
    RANGES = MappingProxyType({"gamma": (0.5, 1.5), "beta": (-0.3, 0.3),
                               "mean": (-0.3, 0.3), "var": (0.5, 2.0)})

    def __post_init__(self):
        for name in _BN_STATS:  # copies, so the caller's arrays may change afterwards
            object.__setattr__(self, name, np.array(getattr(self, name), np.float32).reshape(-1))
        s, t = _bn_scale_shift([(self.gamma, self.beta, self.mean, self.var, self.eps)],
                               self.channels)
        object.__setattr__(self, "_st", (s[0], t[0]))

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def scale_shift(self) -> tuple[np.ndarray, np.ndarray]:
        """The (s, t) of the equivalent map y = s * x + t, as fresh arrays."""
        return self._st[0].copy(), self._st[1].copy()

    @classmethod
    def identity(cls, channels: int, eps: float = 0.0) -> "BnParams":
        return cls(np.ones(channels), np.zeros(channels),
                   np.zeros(channels), np.ones(channels), eps)

    @classmethod
    def random(cls, channels: int, rng: np.random.Generator, *,
               gamma_range=RANGES["gamma"], beta_range=RANGES["beta"],
               mean_range=RANGES["mean"], var_range=RANGES["var"],
               eps: float = eps) -> "BnParams":
        u = rng.uniform
        return cls(u(*gamma_range, channels), u(*beta_range, channels),
                   u(*mean_range, channels), u(*var_range, channels), eps)


_BN_STATS = ("gamma", "beta", "mean", "var")


def _bn_scale_shift(rows, channels: int, misfit: str = "", prefix=None) -> tuple[np.ndarray, np.ndarray]:
    """The float32 (B, C) scale s = gamma / sqrt(var + eps) and shift t = beta - mean * s
    of B BNs of ``channels`` channels, each a row (gamma, beta, mean, var, eps).
    Checked in turn, each at its first failure in row-major order: the lengths, the
    widths (worded by ``misfit``), var + eps > 0, finite statistics, finite s and t.
    ``prefix``, if given, maps a row's index to its key prefix, which then leads the
    message of a failed value check: ``{prefix}.mean must be finite``."""
    stats = [[as_f32(a).reshape(-1) for a in row[:4]] for row in rows]
    for i, row in enumerate(stats):
        c = len(row[0])
        for name, a in zip(_BN_STATS, row):
            if len(a) != c:
                raise ShapeError(f"BnParams.{name} has length {len(a)}, expected {c}")
        if c != channels:
            raise ShapeError(misfit.format(i, c, channels))
    stats = np.array(stats, np.float32)  # (B, 4, C)
    denom = stats[:, 3] + np.array([row[4] for row in rows], np.float32)[:, None]
    _check_bn(denom > 0, "var + eps must be positive", prefix)  # `not > 0` rejects a NaN var too
    _check_bn(np.isfinite(stats), "{} must be finite", prefix)
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below reject overflow
        s = np.divide(stats[:, 0], np.sqrt(denom, out=denom), out=denom)  # no third (B, C)
        t = stats[:, 1] - stats[:, 2] * s
    _check_bn(np.isfinite(s), "scale must be finite", prefix)
    _check_bn(np.isfinite(t), "shift must be finite", prefix)
    return s, t


def _check_bn(ok: np.ndarray, what: str, prefix=None) -> None:
    """Raise ``what`` (naming the statistic if ``ok`` is (B, 4, C), after the
    row's ``prefix`` if given) at ``ok``'s first False."""
    if not ok.all():
        bad = np.argwhere(~ok)[0]
        what = what.format(_BN_STATS[bad[1]]) if ok.ndim == 3 else what
        what = what if prefix is None else f"{prefix(bad[0])}.{what}"
        raise ValueError(f"{what}, violated at channel {bad[-1]}")


def fuse_bn_into_linear(weight: np.ndarray, bias, bn: BnParams):
    """Fold a per-channel affine normalization into the preceding linear op.

    ``weight`` has output channels on axis 0. Returns (weight', bias') with
    weight'[o] = weight[o] * s[o] and bias'[o] = t[o] + bias[o] * s[o],
    where (s, t) is the normalization's scale and shift. BN(op(x)) == op'(x)
    holds as an algebraic identity.
    """
    w = as_f32(weight)
    if w.shape[0] != bn.channels:
        raise ShapeError(
            f"normalization has {bn.channels} channels, operator has {w.shape[0]} outputs")
    s, t = bn.scale_shift()
    w2 = w * s.reshape((-1,) + (1,) * (w.ndim - 1))
    if bias is None:
        b2 = t.copy()
    else:
        b = as_f32(bias).reshape(-1)
        if b.shape[0] != bn.channels:
            raise ShapeError(f"bias has length {b.shape[0]}, expected {bn.channels}")
        b2 = t + b * s
    return w2, b2


def _check_input(x: np.ndarray, who: str) -> np.ndarray:
    x = as_f32(x)
    if x.ndim != 4:
        raise ShapeError(f"{who} expects a rank-4 input, got rank {x.ndim}")
    return x


def conv2d(x: Tensor, w: Tensor, b, spec: ConvSpec) -> Tensor:
    """Grouped 2-d convolution with zero padding.

    ``x`` is (N, C, H, W) with C == spec.in_channels; ``w`` is
    (out_channels, in_channels // groups, kernel_h, kernel_w); ``b`` is an
    optional length-out_channels bias. Accumulation is float32 with a fixed
    tap order, so repeated runs give identical bits.
    """
    x = _check_input(x, "conv2d")
    w = as_f32(w)
    _, c, h, width = x.shape
    if c != spec.in_channels:
        raise ShapeError(f"conv2d input has {c} channels, spec expects {spec.in_channels}")
    if w.shape != spec.weight_shape():
        raise ShapeError(f"conv2d kernel shape {w.shape} does not match spec {spec.weight_shape()}")
    bias = None
    if b is not None:
        bias = as_f32(b).reshape(-1)
        if bias.shape[0] != spec.out_channels:
            raise ShapeError(f"conv2d bias has length {bias.shape[0]}, expected {spec.out_channels}")
    oh, ow = spec.out_hw(h, width)

    if spec.is_depthwise:  # one branch: every tap, with the bias as its shift
        window = (slice(0, spec.kernel_h), slice(0, spec.kernel_w))
        return _branch_sum(x, spec, oh, ow, [(window, w, None, bias)])
    return _conv2d_grouped(x, w, bias, spec, oh, ow)


# Accumulator floats per tile of the branch sum: 256 KiB, so the
# accumulator and its scratch stay in L2. A sweep of 16K, 64K and 256K on a
# 2-core x86 host gave the lowest latency at 64K.
_TILE_FLOATS = 1 << 16

def _branch_sum(x, spec: ConvSpec, oh: int, ow: int, branches) -> np.ndarray:
    """Sum over ``branches`` of ``tap_sum * scale + shift``, in one tiled pass.

    For groups that read one input channel each. A branch is ``(window, w,
    scale, shift)``: ``window``, a (rows, columns) pair of slices, is the
    rectangle of ``spec``'s kernel grid whose taps it reads; ``w``,
    reshapable to (C, og, rows, columns), holds their weights, or is None
    for one bare tap, which then needs a scale; ``scale`` and ``shift``,
    reshapable to (C, og), may be None. A branch sums its taps' products
    from zero in (i, j) order, and the branches are added in order into the
    first one's sum, so the bits are those of that plain per-tap,
    per-branch arithmetic.
    """
    planes = _plane_taps(x, spec, oh, ow)
    c, og = planes.c, spec.out_channels // spec.groups
    plan = []
    for window, w, scale, shift in branches:
        taps = planes.grid[window]
        plan.append((taps,
                     None if w is None else _row_weights(planes, as_f32(w).reshape(
                         c, og, *taps.shape[:2])),
                     *(None if v is None else _row_weights(planes, as_f32(v).reshape(
                         c, og, 1, 1))[0, 0] for v in (scale, shift))))
    return _walk_row_tiles(x, planes, og, plan)


class _Planes(NamedTuple):
    """A zero-padded buffer for a batch's images and a view of every kernel tap on it.

    ``image`` is the interior of the padded buffer: writing an image there
    pads it, since the border stays zero. ``grid[i, j]`` is a read-only view
    of tap (i, j), with ``aw`` columns per output row.

    Channels-last, the buffer holds one whole image, ``image`` is it viewed
    (C, H, W), and a tap is (oh, ow*C), one row per output row with the
    channels innermost; ``aw == ow``.

    In NCHW the buffer holds one tile of channels, and ``image`` is
    (copies, tile, H, W): a tile's (k, H, W) images are written into
    ``image[:, :k]``, every copy at once, and ``grid[:, :, :k]`` reads them.
    At stride 1 there are kw copies and a tap is (tile, 1, oh*aw), each
    channel's output plane as one run whose last ``aw - ow`` columns of
    every row are not part of the output. At larger strides there is one
    copy and a tap is (tile, 1, oh, ow).
    """

    image: np.ndarray
    grid: np.ndarray
    c: int
    oh: int
    ow: int
    aw: int
    channels_last: bool


# Stride-1 planes with one output channel per group, and more than one
# channel, are walked channels-last when the padded output plane, oh * wp,
# holds fewer floats than this. In NCHW a branch's taps are one einsum pass
# per tile of channel planes under a per-channel weight broadcast along the
# plane; channels-last they are one einsum pass over output rows of ow * C
# floats under tiled weight rows, at the cost of a transposing copy in and
# out. A sweep of 3x3 depthwise convs with bias (7x7 to 112x112 planes, 16
# to 1024 channels, batch 1 and 8, three processes, numpy 2.4 on a 2-core
# x86 host, one thread) found channels-last faster in 47 of the 51 shapes
# below 600 floats (up to 21x21; median speed-up 1.40, at most 3.9), in 16
# of the 23 at 24x24 and 28x28 (median 1.09; it lost from 256 or 512
# channels on), and in 26 of the 93 above (median 0.90, at least 0.28). The
# presets' 28x28 steps have 384 channels (840 floats), where NCHW took 1.27
# against 1.46 ms per depthwise conv and 4.2 against 4.9 ms per 7-branch
# RepSO at batch 1, so the limit sits between 24x24 (624) and 28x28.
_CL_PLANE_FLOATS = 800


def _plane_taps(x, spec: ConvSpec, oh: int, ow: int) -> _Planes:
    """Zero a padded buffer for ``x``'s images, in the layout their shape
    favours, and view every tap on it.

    Channels-last is taken only at stride 1 with one output channel per
    group and at least two channels: einsum keeps the (i, j) order of the
    taps only while the stride between tap columns, C floats, exceeds the
    unit stride (with one channel the two layouts are the same memory
    anyway). Every other spec keeps NCHW planes for one tile of channels,
    each plane with one spare bottom row that keeps the last tap's flat run
    (below) in bounds.
    """
    _, c, h, width = x.shape
    kh, kw, sh, sw = spec.kernel_h, spec.kernel_w, spec.stride_h, spec.stride_w
    ph, pw = spec.pad_h, spec.pad_w
    wp = width + 2 * pw
    unit = sh == sw == 1
    if unit and spec.out_channels == spec.groups > 1 and oh * wp < _CL_PLANE_FLOATS:
        # The channels are innermost, so row y of tap (i, j) is the run of
        # ow*c floats starting at padded pixel (i + y, j).
        xp = np.zeros((h + 2 * ph, wp, c), dtype=np.float32)
        s_row, s_col, s_c = xp.strides
        grid = as_strided(xp, (kh, kw, oh, ow * c), (s_row, s_col, s_row, s_c), writeable=False)
        image = xp[ph:ph + h, pw:pw + width].transpose(2, 0, 1)
        return _Planes(image, grid, c, oh, ow, ow, True)
    # A row of at least 2 floats keeps a one-column plane's row taps off the
    # unit stride too.
    wp = max(wp, 2) if unit else wp
    aw = wp if unit else ow
    og = spec.out_channels // spec.groups
    tile = min(c, max(1, _TILE_FLOATS // (og * oh * aw)))
    xp = np.zeros((kw if unit else 1, tile, h + 2 * ph + 1, wp), dtype=np.float32)
    s_copy, s_c, s_row, s_col = xp.strides
    if unit:
        # kw copies of the tile's planes, each laid out row after row, G =
        # tile * plane floats apart. Tap (i, j) is the flat run starting at
        # i*wp + j in copy j, a whole output plane: its column stride is
        # G + 1 floats, so no tap axis has the unit stride and einsum keeps
        # the (i, j) order.
        # Columns ow..wp-1 wrap into the next row and are cropped at the end.
        grid = as_strided(xp, (kh, kw, tile, 1, oh * wp),
                          (s_row, s_copy + s_col, s_c, 0, s_col), writeable=False)
    else:
        grid = as_strided(xp, (kh, kw, tile, 1, oh, ow),
                          (s_row, s_col, s_c, 0, s_row * sh, s_col * sw), writeable=False)
    return _Planes(xp[:, :, ph:ph + h, pw:pw + width], grid, c, oh, ow, aw, False)


def _row_weights(planes: _Planes, w: np.ndarray) -> np.ndarray:
    """Per-tap weights (C, og, kh, kw) laid out to multiply a tile of ``planes``.

    NCHW: (kh, kw, C, og, 1, ...), one weight per channel row, with as many
    trailing unit axes as a tap has row axes.
    Channels-last (og == 1): (kh, kw, ow*C), the channel weights tiled
    along the output row.
    """
    if planes.channels_last:
        return np.tile(w[:, 0].transpose(1, 2, 0), (1, 1, planes.ow))
    w = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    return w.reshape(w.shape + (1,) * (planes.grid.ndim - 4))


def _walk_row_tiles(x, planes: _Planes, og: int, plan) -> np.ndarray:
    """Compute the (N, C*og, oh, ow) branch sum of ``x``, one image at a time.

    ``plan`` holds per branch its taps, and its weights, scale and shift
    laid out by ``_row_weights``. A channels-last image is written into the
    padded buffer of ``planes`` and walked one tile of rows at a time, each
    tile's sum transposed into the image's output. An NCHW image is walked
    one tile of channels at a time, each written into every copy of the
    padded planes and its sum cropped to ``ow`` columns into the output.
    """
    n, c, oh, ow, aw = len(x), planes.c, planes.oh, planes.ow, planes.aw
    if planes.channels_last:
        out = np.empty((n, c, oh, ow), dtype=np.float32)
        row = ow * c
        ys = min(oh, max(1, _TILE_FLOATS // row))
        # The running sum and, for later branches, a second sum.
        bufs = [np.empty((ys, row), dtype=np.float32) for _ in range(min(2, len(plan)))]
        for image, y in zip(x, out):
            planes.image[...] = image
            for y0 in range(0, oh, ys):
                y1 = min(oh, y0 + ys)
                acc = _tile_sum(plan, slice(y0, y1), ..., *(b[:y1 - y0] for b in bufs))
                y[:, y0:y1] = acc.reshape(y1 - y0, ow, c).transpose(2, 0, 1)
        return out
    out = np.empty((n, c, og, oh, ow), dtype=np.float32)
    tile, rows = planes.grid.shape[2], planes.grid.shape[4:]
    # The running sum, a second sum for later branches and, where a tap's
    # rows are strided, a scratch buffer for each tap's products.
    bufs = [np.empty((tile, og, *rows), dtype=np.float32)
            for _ in range(min(2, len(plan)) if len(rows) == 1 else 3)]
    for image, y in zip(x, out):
        for r0 in range(0, c, tile):
            sel = slice(r0, min(c, r0 + tile))
            k = sel.stop - r0
            planes.image[:, :k] = image[sel]
            acc = _tile_sum(plan, slice(0, k), sel, *(b[:k] for b in bufs))
            y[sel] = acc.reshape(k, og, oh, aw)[..., :ow]
    return out.reshape(n, c * og, oh, ow)


def _tile_sum(plan, rows, wrows, total, y=None, scratch=None) -> np.ndarray:
    """The branch sum over one tile: ``rows`` indexes the taps, ``wrows`` the
    weights. The first branch is computed straight into ``total``, the
    others into ``y`` and then added. Tiles whose taps have strided rows
    pass a ``scratch`` buffer for the per-tap products; every other tile
    sums each branch's taps in one einsum."""
    for k, (taps, wt, s, t) in enumerate(plan):
        y_k = y if k else total
        taps = taps[:, :, rows]
        if wt is None:
            np.multiply(taps[0, 0], s[wrows], out=y_k)
        else:
            wt = wt[:, :, wrows]
            if scratch is None:
                # Zero-fills y_k, then adds each rounded product in (i, j)
                # order: the bits of the per-tap loop below, in one pass.
                np.einsum("ij...,ij...->...", taps, wt, out=y_k)
            else:
                y_k.fill(0)
                for tap_row, w_row in zip(taps, wt):
                    for tap, w in zip(tap_row, w_row):
                        np.multiply(tap, w, out=scratch)
                        y_k += scratch
            if s is not None:
                y_k *= s[wrows]
        if t is not None:
            y_k += t[wrows]
        if k:
            total += y_k
    return total


def _conv2d_grouped(x, w, bias, spec: ConvSpec, oh: int, ow: int) -> np.ndarray:
    """Groups that read several input channels: one ``matmul`` per tap.

    The batch is walked one image at a time, padded into one buffer whose
    border is zeroed once. Tap (i, j)'s (g, og, cg) weights multiply the
    image's tap viewed as (g, cg, oh*ow), one product per group, whose
    result is already the image's NCHW output. The first tap is written into
    the output and later ones are added from one scratch buffer, in (i, j)
    order; the bias is added in place last.
    """
    n, c, h, width = x.shape
    ph, pw = spec.pad_h, spec.pad_w
    g = spec.groups
    og = spec.out_channels // g
    cg = spec.in_channels // g
    # Per-tap weights, each a contiguous (g, og, cg) block as BLAS takes it.
    wt = np.ascontiguousarray(w.reshape(g, og, cg, -1).transpose(3, 0, 1, 2))
    # A sum begun on a zero accumulator, (0 + tap 0) + ... + bias, differs
    # from tap 0 + ... only where every tap is -0: it gives +0 there. Adding
    # 0, or bias + 0, gives its bits in one pass.
    shift = np.float32(0) if bias is None else (bias + np.float32(0)).reshape(g, og, 1)
    out = np.empty((n, g, og, oh * ow), dtype=np.float32)
    scratch = np.empty((g, og, oh * ow), dtype=np.float32) if len(wt) > 1 else None
    xp = np.zeros((c, h + 2 * ph, width + 2 * pw), dtype=np.float32) if ph or pw else None
    for image, y in zip(x, out):
        if xp is not None:
            xp[:, ph:ph + h, pw:pw + width] = image
            image = xp
        for k, w_k in enumerate(wt):
            i, j = divmod(k, spec.kernel_w)
            tap = image[:,
                        i: i + (oh - 1) * spec.stride_h + 1: spec.stride_h,
                        j: j + (ow - 1) * spec.stride_w + 1: spec.stride_w]
            np.matmul(w_k, tap.reshape(g, cg, oh * ow), out=scratch if k else y)
            if k:
                y += scratch
        y += shift
    return out.reshape(n, spec.out_channels, oh, ow)


def batch_norm_infer(x: Tensor, p: BnParams) -> Tensor:
    """Apply the per-channel affine map y = s * x + t derived from ``p``."""
    return _channel_affine(x, *p.scale_shift())


def _channel_affine(x, s: np.ndarray, t: np.ndarray, in_place: bool = False) -> np.ndarray:
    """``x * s + t`` with length-C vectors ``s`` and ``t``, the product rounded
    before the sum; written over ``x`` when ``in_place``."""
    x = _check_input(x, "batch_norm_infer")
    if x.shape[1] != s.shape[0]:
        raise ShapeError(
            f"batch_norm_infer input has {x.shape[1]} channels, params have {s.shape[0]}")
    y = np.multiply(x, s.reshape(1, -1, 1, 1), out=x if in_place else None)
    y += t.reshape(1, -1, 1, 1)
    return y


def relu(x: Tensor) -> Tensor:
    return np.maximum(as_f32(x), np.float32(0))


def _relu_in_place(x: np.ndarray) -> np.ndarray:
    """ReLU written over ``x`` when ``x`` is writable."""
    return np.maximum(x, np.float32(0), out=x if x.flags.writeable else None)


def global_avg_pool(x: Tensor) -> Tensor:
    """Per-channel spatial mean, shape (N, C, 1, 1)."""
    x = _check_input(x, "global_avg_pool")
    if x.shape[2] < 1 or x.shape[3] < 1:
        raise ShapeError("global_avg_pool requires H, W >= 1")
    return x.mean(axis=(2, 3), keepdims=True, dtype=np.float32)


def linear(x, w, b) -> np.ndarray:
    """Affine map y = x @ w.T + b; ``x`` is a vector or a (N, in) batch."""
    x = as_f32(x)
    w = as_f32(w)
    if x.ndim > 2:
        raise ShapeError(f"linear input must be rank 1 or 2, got rank {x.ndim}")
    if w.ndim != 2:
        raise ShapeError(f"linear weight must be rank 2, got rank {w.ndim}")
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear input has {x.shape[-1]} features, weight expects {w.shape[1]}")
    # One vector-matrix product per row, as for a single input, so a row's
    # result does not depend on the batch it arrives in.
    y = np.matmul(x[..., None, :], w.T)[..., 0, :]
    if b is not None:
        bias = as_f32(b).reshape(-1)
        if bias.shape[0] != w.shape[0]:
            raise ShapeError(f"linear bias has length {bias.shape[0]}, expected {w.shape[0]}")
        y += bias
    return y


def add(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise sum of two identically shaped arrays."""
    x = as_f32(x)
    y = as_f32(y)
    if x.shape != y.shape:
        raise ShapeError(f"add operands differ in shape: {x.shape} vs {y.shape}")
    return x + y
