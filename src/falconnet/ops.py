"""Reference numerical kernels for rank-4 feature maps.

Arrays are float32 throughout, laid out batch, channel, height, width.
Every function here is a pure function of its inputs. Convolution is
computed tap by tap with plain array arithmetic (no im2col buffers, no
Winograd), which keeps the summation order fixed and the results
reproducible on a given machine.

Convolutions whose groups read one input channel each (depthwise, channel
multiplier) take a row-contiguous path, which ``spatial.repso_forward``
also walks for all its branches in one pass: at stride 1
each zero-padded (image, channel) plane is stored row after row, so a
kernel tap is one contiguous slice covering the whole output plane, and
the planes are walked in tiles of about 256 KiB of accumulator so that it
and its scratch buffer stay in L2. Every tap is a float32 multiply into
scratch and an add into the accumulator, in the same order as a plain
tap-by-tap sum, so the result is bitwise equal to that sum. Groups that
read several input channels (the stem, dense 1x1) contract per tap with
``einsum``.

Each row of ``linear`` is its own vector-matrix product, so a batched
forward pass gives every image the bits it gets when run alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "ConvSpec",
    "BnParams",
    "as_f32",
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
    """

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        for name in ("gamma", "beta", "mean", "var"):
            object.__setattr__(self, name, as_f32(getattr(self, name)).reshape(-1))
        c = self.gamma.shape[0]
        for name in ("beta", "mean", "var"):
            if getattr(self, name).shape[0] != c:
                raise ShapeError(
                    f"BnParams.{name} has length {getattr(self, name).shape[0]}, "
                    f"expected {c}")
        bad = np.nonzero(self.var + np.float32(self.eps) <= 0)[0]
        if bad.size:
            raise ValueError(f"var + eps must be positive, violated at channel {bad[0]}")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def scale_shift(self) -> tuple[np.ndarray, np.ndarray]:
        """The (s, t) of the equivalent map y = s * x + t."""
        s = self.gamma / np.sqrt(self.var + np.float32(self.eps))
        t = self.beta - self.mean * s
        return s.astype(np.float32), t.astype(np.float32)

    @classmethod
    def identity(cls, channels: int, eps: float = 0.0) -> "BnParams":
        return cls(np.ones(channels), np.zeros(channels),
                   np.zeros(channels), np.ones(channels), eps)

    @classmethod
    def random(cls, channels: int, rng: np.random.Generator, *,
               gamma_range=(0.5, 1.5), beta_range=(-0.3, 0.3),
               mean_range=(-0.3, 0.3), var_range=(0.5, 2.0),
               eps: float = 1e-5) -> "BnParams":
        u = rng.uniform
        return cls(u(*gamma_range, channels), u(*beta_range, channels),
                   u(*mean_range, channels), u(*var_range, channels), eps)


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

    if spec.is_depthwise:
        out = _conv2d_one_input(x, w, spec, oh, ow)
    else:
        out = _conv2d_grouped(x, w, spec, oh, ow)
    if bias is not None:
        out += bias.reshape(1, -1, 1, 1)
    return out


# Accumulator floats per row tile of the one-input path: 256 KiB, so the
# accumulator and its scratch stay in L2. A sweep of 16K, 64K and 256K on a
# 2-core x86 host gave the lowest latency at 64K.
_TILE_FLOATS = 1 << 16


def _conv2d_one_input(x, w, spec: ConvSpec, oh: int, ow: int) -> np.ndarray:
    """Groups that read one input channel each (depthwise, channel multiplier).

    Each tap is a broadcast multiply into a scratch buffer and an add into
    the accumulator, in the same (i, j) order and float32 arithmetic as a
    per-tap product, so the bits match the plain tap-by-tap sum.
    """
    n, c = x.shape[:2]
    og = spec.out_channels // spec.groups
    taps, aw = _plane_taps(x, spec, oh, ow)
    wt = _row_weights(w.reshape(c, og, -1), n)
    out = np.empty((n * c, og, oh, ow), dtype=np.float32)
    _walk_row_tiles(out, aw, 2, lambda r0, r1, acc, scratch:
                    _tap_sum(acc, scratch, taps, wt, r0, r1))
    return out.reshape(n, spec.out_channels, oh, ow)


def _plane_taps(x, spec: ConvSpec, oh: int, ow: int):
    """Pad ``x`` once into N*C planes and view every tap of ``spec``'s kernel.

    Returns ``(taps, aw)``: ``taps[i * kernel_w + j]`` is tap (i, j) as a
    (N*C, 1, oh, aw) view, where the last ``aw - ow`` columns are not part
    of the output.
    """
    n, c, h, width = x.shape
    kh, kw, sh, sw = spec.kernel_h, spec.kernel_w, spec.stride_h, spec.stride_w
    rows = n * c
    # One spare bottom row keeps the last tap's flat slice (below) in bounds.
    xp = np.pad(x.reshape(rows, h, width),
                ((0, 0), (spec.pad_h, spec.pad_h + 1), (spec.pad_w, spec.pad_w)))
    wp = xp.shape[2]
    if sh == sw == 1:
        # Padded planes laid out row after row: tap (i, j) is then the flat
        # slice starting at i*wp + j, a whole output plane in one contiguous
        # run. Columns ow..wp-1 wrap into the next row and are cropped at the
        # end.
        flat = xp.reshape(rows, 1, -1)
        taps = [flat[:, :, i * wp + j: i * wp + j + oh * wp].reshape(rows, 1, oh, wp)
                for i in range(kh) for j in range(kw)]
        return taps, wp
    taps = [xp[:, None, i: i + (oh - 1) * sh + 1: sh, j: j + (ow - 1) * sw + 1: sw]
            for i in range(kh) for j in range(kw)]
    return taps, ow


def _row_weights(w: np.ndarray, n: int) -> np.ndarray:
    """Per-(image, channel) row weights: (C, og, taps) -> (taps, N*C, og, 1, 1)."""
    wt = np.tile(w, (n, 1, 1)).transpose(2, 0, 1)
    return np.ascontiguousarray(wt)[..., None, None]


def _walk_row_tiles(out: np.ndarray, aw: int, buffers: int, fill) -> None:
    """Fill ``out`` (rows, og, oh, ow) one tile of rows at a time.

    ``fill(r0, r1, *bufs)`` gets ``buffers`` scratch arrays of shape
    (r1 - r0, og, oh, aw) and returns the one holding rows r0..r1 of the
    result, which is cropped to ``ow`` columns into ``out``.
    """
    rows, og, oh, ow = out.shape
    tile = max(1, _TILE_FLOATS // (og * oh * aw))
    bufs = [np.empty((min(tile, rows), og, oh, aw), dtype=np.float32) for _ in range(buffers)]
    for r0 in range(0, rows, tile):
        r1 = min(rows, r0 + tile)
        out[r0:r1] = fill(r0, r1, *(b[:r1 - r0] for b in bufs))[..., :ow]


def _tap_sum(acc, scratch, taps, wt, r0: int, r1: int) -> np.ndarray:
    """acc = 0 + tap_0 * w_0 + tap_1 * w_1 + ..., over rows r0..r1, in tap order."""
    acc.fill(0)
    for t, tap in enumerate(taps):
        np.multiply(tap[r0:r1], wt[t, r0:r1], out=scratch)
        acc += scratch
    return acc


def _conv2d_grouped(x, w, spec: ConvSpec, oh: int, ow: int) -> np.ndarray:
    """Groups that read several input channels: one contraction per tap."""
    n = x.shape[0]
    if spec.pad_h or spec.pad_w:
        xp = np.pad(x, ((0, 0), (0, 0), (spec.pad_h,) * 2, (spec.pad_w,) * 2))
    else:
        xp = x
    g = spec.groups
    og = spec.out_channels // g
    cg = spec.in_channels // g
    wg = w.reshape(g, og, cg, spec.kernel_h, spec.kernel_w)

    out = np.zeros((n, g, og, oh, ow), dtype=np.float32)
    for i in range(spec.kernel_h):
        for j in range(spec.kernel_w):
            tap = xp[:, :,
                     i: i + (oh - 1) * spec.stride_h + 1: spec.stride_h,
                     j: j + (ow - 1) * spec.stride_w + 1: spec.stride_w]
            tap = tap.reshape(n, g, cg, oh, ow)
            out += np.einsum("gok,ngkhw->ngohw", wg[:, :, :, i, j], tap, optimize=True)
    return out.reshape(n, spec.out_channels, oh, ow)


def batch_norm_infer(x: Tensor, p: BnParams) -> Tensor:
    """Apply the per-channel affine map y = s * x + t derived from ``p``."""
    x = _check_input(x, "batch_norm_infer")
    if x.shape[1] != p.channels:
        raise ShapeError(
            f"batch_norm_infer input has {x.shape[1]} channels, params have {p.channels}")
    s, t = p.scale_shift()
    return x * s.reshape(1, -1, 1, 1) + t.reshape(1, -1, 1, 1)


def relu(x: Tensor) -> Tensor:
    return np.maximum(as_f32(x), np.float32(0))


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
