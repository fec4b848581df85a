"""Tensor kernel tests.

conv2d is checked against an independently coded direct sliding-window
oracle (plain Python loops, float64 accumulation) over an exhaustive sweep
of small shapes, plus hand-derived fixed cases. It is also pinned bitwise to
the tap-by-tap float32 sum of ``reference_kernels.conv2d_per_tap``.
"""

import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from falconnet import (BnParams, ConvSpec, ShapeError, add, batch_norm_infer, conv2d,
                       fuse_bn_into_linear, global_avg_pool, linear, relu)
from falconnet import ops
from reference_kernels import conv2d_per_tap


def conv2d_loops(x, w, b, spec):
    """Direct triple-loop convolution oracle; independent of the library path."""
    n, c, h, width = x.shape
    oh = (h + 2 * spec.pad_h - spec.kernel_h) // spec.stride_h + 1
    ow = (width + 2 * spec.pad_w - spec.kernel_w) // spec.stride_w + 1
    og = spec.out_channels // spec.groups
    cg = spec.in_channels // spec.groups
    out = np.zeros((n, spec.out_channels, oh, ow), dtype=np.float64)
    for ni in range(n):
        for o in range(spec.out_channels):
            group = o // og
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for k in range(cg):
                        ci = group * cg + k
                        for ky in range(spec.kernel_h):
                            for kx in range(spec.kernel_w):
                                iy = oy * spec.stride_h + ky - spec.pad_h
                                ix = ox * spec.stride_w + kx - spec.pad_w
                                if 0 <= iy < h and 0 <= ix < width:
                                    acc += float(x[ni, ci, iy, ix]) * float(w[o, k, ky, kx])
                    if b is not None:
                        acc += float(b[o])
                    out[ni, o, oy, ox] = acc
    return out


def test_depthwise_all_ones_box():
    x = np.ones((1, 1, 3, 3), np.float32)
    w = np.ones((1, 1, 3, 3), np.float32)
    spec = ConvSpec(1, 1, 3, 3, 1, 1, 1, 1, groups=1)
    expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], np.float32)
    got = conv2d(x, w, None, spec)
    np.testing.assert_array_equal(got[0, 0], expected)
    np.testing.assert_allclose(conv2d_loops(x, w, None, spec)[0, 0], expected)


def test_identity_pointwise_depthwise_returns_input():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 5, 4, 3)).astype(np.float32)
    w = np.ones((5, 1, 1, 1), np.float32)
    spec = ConvSpec(5, 5, groups=5)
    np.testing.assert_array_equal(conv2d(x, w, None, spec), x)


def test_dense_pointwise_hand_case():
    x = np.array([3.0, 5.0], np.float32).reshape(1, 2, 1, 1)
    w = np.array([[1.0, 1.0], [2.0, 0.0]], np.float32).reshape(2, 2, 1, 1)
    out = conv2d(x, w, None, ConvSpec(2, 2))
    np.testing.assert_array_equal(out.reshape(-1), [8.0, 6.0])


def test_exhaustive_small_shapes_match_oracle():
    rng = np.random.default_rng(42)
    kernel_grid = [(1, 1), (2, 2), (3, 3), (1, 3), (3, 1)]
    checked = 0
    for n in range(1, 5):
        for c in range(1, 5):
            for h in range(1, 5):
                for w in range(1, 5):
                    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
                    for kh, kw in kernel_grid:
                        for stride in (1, 2):
                            for pad in (0, 1):
                                if h + 2 * pad < kh or w + 2 * pad < kw:
                                    continue
                                spec = ConvSpec(c, 2, kh, kw, stride, stride, pad, pad)
                                wt = rng.standard_normal(spec.weight_shape()).astype(np.float32)
                                got = conv2d(x, wt, None, spec)
                                ref = conv2d_loops(x, wt, None, spec)
                                np.testing.assert_allclose(got, ref, atol=1e-5)
                                checked += 1
    assert checked > 2000


def test_grouped_and_biased_match_oracle():
    rng = np.random.default_rng(7)
    cases = [
        ConvSpec(4, 6, 3, 3, 1, 1, 1, 1, groups=2, has_bias=True),
        ConvSpec(6, 6, 3, 3, 2, 2, 1, 1, groups=6, has_bias=True),
        ConvSpec(4, 8, 2, 2, 2, 2, 0, 0, groups=4),
        ConvSpec(8, 4, 1, 1, groups=4),
    ]
    for spec in cases:
        x = rng.standard_normal((2, spec.in_channels, 6, 5)).astype(np.float32)
        wt = rng.standard_normal(spec.weight_shape()).astype(np.float32)
        b = rng.standard_normal(spec.out_channels).astype(np.float32) if spec.has_bias else None
        np.testing.assert_allclose(conv2d(x, wt, b, spec), conv2d_loops(x, wt, b, spec),
                                   atol=1e-5)


@st.composite
def conv_cases(draw):
    """A conv2d case: mostly groups that read one input channel (depthwise,
    channel multiplier 2), some with several input channels per group."""
    if draw(st.integers(0, 4)):
        groups = draw(st.integers(1, 4))
        c_in, c_out = groups, groups * draw(st.sampled_from([1, 2]))
        kh, kw = draw(st.sampled_from([(1, 1), (1, 3), (3, 1), (2, 2), (3, 3)]))
    else:
        groups = draw(st.integers(1, 2))
        c_in = groups * draw(st.integers(2, 3))
        c_out = groups * draw(st.integers(1, 2))
        kh, kw = draw(st.sampled_from([(1, 1), (2, 2), (3, 3)]))
    stride, pad = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    h = draw(st.integers(max(1, kh - 2 * pad), 9))
    w = draw(st.integers(max(1, kw - 2 * pad), 9))
    spec = ConvSpec(c_in, c_out, kh, kw, stride, stride, pad, pad, groups=groups,
                    has_bias=draw(st.booleans()))
    return spec, draw(st.integers(1, 3)), h, w, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(conv_cases())
def test_conv2d_bitwise_equals_per_tap_sum(case):
    spec, n, h, w, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, spec.in_channels, h, w)).astype(np.float32)
    wt = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    b = rng.standard_normal(spec.out_channels).astype(np.float32) if spec.has_bias else None
    got = conv2d(x, wt, b, spec)
    ref = conv2d_per_tap(x, wt, b, spec)
    assert got.dtype == np.float32 and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("spec, h, w", [
    (ConvSpec(24, 48, 3, 3, 1, 1, 1, 1, groups=24, has_bias=True), 30, 34),
    (ConvSpec(96, 96, 3, 3, 1, 1, 1, 1, groups=96), 30, 34),
    (ConvSpec(72, 144, 2, 2, 2, 2, 0, 0, groups=72), 60, 68),
])
def test_conv2d_bitwise_across_row_tiles(spec, h, w):
    # Large enough that the one-input-channel path walks several row tiles,
    # the last one partial.
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, spec.in_channels, h, w)).astype(np.float32)
    wt = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    b = rng.standard_normal(spec.out_channels).astype(np.float32) if spec.has_bias else None
    assert conv2d(x, wt, b, spec).tobytes() == conv2d_per_tap(x, wt, b, spec).tobytes()


def _case(spec, n, h, w, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, spec.in_channels, h, w)).astype(np.float32)
    wt = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    b = rng.standard_normal(spec.out_channels).astype(np.float32) if spec.has_bias else None
    return x, wt, b


def _assert_nchw_bits(spec, n, h, w, seed):
    x, wt, b = _case(spec, n, h, w, seed)
    got = conv2d(x, wt, b, spec)
    ref = conv2d_per_tap(x, wt, b, spec)
    assert got.dtype == np.float32 and got.flags.c_contiguous
    assert got.shape == ref.shape == (n, spec.out_channels) + spec.out_hw(h, w)
    assert got.tobytes() == ref.tobytes()


def _dw(c, bias=False):
    return ConvSpec(c, c, 3, 3, 1, 1, 1, 1, groups=c, has_bias=bias)


def _takes_channels_last(spec, h, w):
    x = np.zeros((1, spec.in_channels, h, w), np.float32)
    return ops._bind_branch_sum(spec, x.shape[1:], ()).channels_last


@pytest.mark.parametrize("spec, n, h, w, channels_last", [
    (_dw(1536, bias=True), 2, 7, 7, True),
    (_dw(768, bias=True), 2, 14, 14, True),
    (_dw(384), 1, 21, 21, True),            # several row tiles of one image
    (_dw(96, bias=True), 3, 9, 23, True),   # non-square, several images per tile
    (_dw(64, bias=True), 1, 56, 60, False),  # large plane: NCHW row tiles
    (_dw(384), 1, 28, 28, False),           # the presets' 28x28 steps: NCHW tiles
])
def test_conv2d_layout_bits(spec, n, h, w, channels_last):
    # The layout follows the plane size; both give the per-tap bits.
    assert _takes_channels_last(spec, h, w) == channels_last
    _assert_nchw_bits(spec, n, h, w, 9)


def test_conv2d_bitwise_on_both_sides_of_the_layout_crossover():
    # The largest square plane walked channels-last, and the next size up.
    h = max(k for k in range(1, 200) if k * (k + 2) < ops._CL_PLANE_FLOATS)
    spec = _dw(6, bias=True)
    assert _takes_channels_last(spec, h, h) and not _takes_channels_last(spec, h + 1, h + 1)
    for size in (h, h + 1):
        _assert_nchw_bits(spec, 2, size, size, size)


def test_conv2d_nchw_rows_on_small_planes(monkeypatch):
    # Small planes normally go channels-last; with the crossover at zero the
    # same stride-1 depthwise shapes are walked as NCHW rows.
    monkeypatch.setattr(ops, "_CL_PLANE_FLOATS", 0)
    for (kh, kw), pad, (h, w), bias in itertools.product(
            [(1, 1), (1, 3), (3, 1), (2, 2), (3, 3)], [0, 1], [(3, 4), (6, 5)], [False, True]):
        spec = ConvSpec(3, 3, kh, kw, 1, 1, pad, pad, groups=3, has_bias=bias)
        assert not _takes_channels_last(spec, h, w)
        _assert_nchw_bits(spec, 2, h, w, kh * 10 + kw + pad)


def test_conv2d_forced_channels_last_sweep(monkeypatch):
    # Every small stride-1 depthwise shape walked channels-last where it
    # can be (two or more channels); one channel stays NCHW.
    monkeypatch.setattr(ops, "_CL_PLANE_FLOATS", 1 << 30)
    for c, (kh, kw), pad, bias in itertools.product(
            range(1, 5), itertools.product(range(1, 4), repeat=2), [0, 1], [False, True]):
        for h, w in itertools.product(range(1, 10), repeat=2):
            if h + 2 * pad < kh or w + 2 * pad < kw:
                continue
            spec = ConvSpec(c, c, kh, kw, 1, 1, pad, pad, groups=c, has_bias=bias)
            assert _takes_channels_last(spec, h, w) == (c > 1)
            x, wt, b = _case(spec, 2, h, w, h * 10 + w)
            assert conv2d(x, wt, b, spec).tobytes() == conv2d_per_tap(x, wt, b, spec).tobytes()


@pytest.mark.parametrize("limit", [0, ops._CL_PLANE_FLOATS, 1 << 30])
def test_one_channel_takes_nchw_at_any_plane_size(monkeypatch, limit):
    # With one channel einsum could reorder the taps, and the two layouts
    # are the same memory anyway.
    monkeypatch.setattr(ops, "_CL_PLANE_FLOATS", limit)
    for size in (1, 3, 7, 14, 28, 51, 52, 112):
        assert not _takes_channels_last(_dw(1), size, size)
        assert _takes_channels_last(_dw(2), size, size) == (size * (size + 2) < limit)


def test_einsum_rounds_each_product_before_the_add():
    # The channels-last tap sum is one einsum; it keeps the per-tap bits
    # only if each product is rounded to float32 before it is added. c + a*a
    # is 0 so; fused into one FMA it is 2**-24.
    a, c = np.float32(1 + 2 ** -12), np.float32(-(1 + 2 ** -11))
    taps = np.array([c, c, a, a], np.float32).reshape(1, 2, 1, 2)
    weights = np.array([1, 1, a, a], np.float32).reshape(1, 2, 2)
    got = np.einsum("ijyr,ijr->yr", taps, weights)
    assert not got.any(), (
        f"np.einsum fused a float32 multiply and add (got {got.ravel()}): this numpy's SIMD "
        f"baseline has FMA, so channels-last depthwise sums lose the per-tap bits")


def _nchw_tap_sum(rows, weights):
    """The library's einsum of a one-channel stride-1 NCHW tile: image row i
    holds ``rows[i]`` in each of 40 columns, so every output pixel sums the
    products ``rows[i] * weights[i][j]``. The taps are ``_plane_taps``'s grid
    and the weights those ``_bind_branch_sum`` lays out, one per channel
    broadcast along the row (a stride-0 operand)."""
    kh, kw = np.shape(weights)
    x = np.repeat(np.array(rows, np.float32)[:, None], 40, axis=1)[None, None]
    spec = ConvSpec(1, 1, kh, kw)
    planes = ops._bind_branch_sum(spec, x.shape[1:], [(
        (slice(0, kh), slice(0, kw)), np.array(weights, np.float32).reshape(1, 1, kh, kw),
        None, None)])
    assert not planes.channels_last
    xp, grid = ops._plane_taps(planes)
    ops._fill(planes, xp, x[0])
    wt = planes.branches[0][1]
    return np.einsum("ij...,ij...->...", grid, wt)[..., :planes.ow]


def test_nchw_einsum_rounds_each_product_before_the_add():
    # Tap products c * 1 and a * a: rounded before the add they sum to 0;
    # fused into one FMA, to 2**-24.
    a, c = np.float32(1 + 2 ** -12), np.float32(-(1 + 2 ** -11))
    got = _nchw_tap_sum([c, a], [[1], [a]])
    assert not got.any(), (
        f"np.einsum fused a float32 multiply and add (got {np.unique(got)}): this numpy's "
        f"SIMD baseline has FMA, so stride-1 NCHW depthwise sums lose the per-tap bits")


def test_nchw_einsum_sums_taps_in_index_order():
    # Tap products h, 1, h, h with h half an ulp of 1: in (i, j) order each
    # add after the 1 rounds back to 1, while in (j, i) order, pairwise or
    # reversed two h are added first.
    h = 2.0 ** -24
    got = _nchw_tap_sum([1, 1], [[h, 1], [h, h]])
    assert (got == 1).all(), (
        f"np.einsum did not sum the taps in (i, j) order (got {np.unique(got)}), so "
        f"stride-1 NCHW depthwise sums lose the per-tap bits")


def _channels_last_tap_sum(rows, weights):
    """The library's einsum of a two-channel stride-1 channels-last image:
    image row i holds ``rows[i]`` in each of 8 columns of both channels, so
    every output pixel sums the products ``rows[i] * weights[i][j]``. The
    taps are ``_plane_taps``'s grid, (kh, kw, oh, ow, C), and the weights
    those ``_bind_branch_sum`` lays out, (kh, kw, 1, C), broadcast along the
    tap's rows and columns."""
    kh, kw = np.shape(weights)
    x = np.repeat(np.array(rows, np.float32)[None, :, None], 8, axis=2).repeat(2, axis=0)[None]
    spec = ConvSpec(2, 2, kh, kw, groups=2)
    w = np.repeat(np.array(weights, np.float32)[None, None], 2, axis=0)
    planes = ops._bind_branch_sum(spec, x.shape[1:], [
        ((slice(0, kh), slice(0, kw)), w, None, None)])
    assert planes.channels_last
    xp, grid = ops._plane_taps(planes)
    ops._fill(planes, xp, x[0])
    return np.einsum("ij...,ij...->...", grid, planes.branches[0][1])


def test_channels_last_einsum_rounds_each_product_before_the_add():
    # As the NCHW probe: c * 1 + a * a is 0 rounded, 2**-24 fused.
    a, c = np.float32(1 + 2 ** -12), np.float32(-(1 + 2 ** -11))
    got = _channels_last_tap_sum([c, a], [[1], [a]])
    assert got.size and not got.any(), (
        f"np.einsum fused a float32 multiply and add (got {np.unique(got)}): this numpy's "
        f"SIMD baseline has FMA, so channels-last depthwise sums lose the per-tap bits")


def test_channels_last_einsum_sums_taps_in_index_order():
    # As the NCHW probe: in (i, j) order the products h, 1, h, h sum to 1.
    h = 2.0 ** -24
    got = _channels_last_tap_sum([1, 1], [[h, 1], [h, h]])
    assert got.size and (got == 1).all(), (
        f"np.einsum did not sum the taps in (i, j) order (got {np.unique(got)}) over the "
        f"broadcast channels-last weights, so channels-last depthwise sums lose the per-tap bits")


@pytest.mark.parametrize("spec, h, w", [
    (_dw(32, bias=True), 112, 112),                           # every preset's stem.dw
    (_dw(1), 9, 9),                                           # one channel
    (ConvSpec(2, 2, 5, 5, 1, 1, 2, 2, groups=2), 40, 41),     # 5x5
    (ConvSpec(3, 6, 3, 3, 1, 1, 1, 1, groups=3), 30, 30),     # channel multiplier
    (ConvSpec(1, 1, 3, 1, 1, 1, 1, 0, groups=1), 40, 1),      # one-column planes
    (ConvSpec(2, 4, 4, 1, 1, 1, 0, 0, groups=2), 60, 1),      # ... with a multiplier
    (ConvSpec(32, 32, 3, 3, 2, 2, 1, 1, groups=32, has_bias=True), 112, 112),  # stem.down
    (ConvSpec(4, 8, 2, 2, 2, 2, 0, 0, groups=4), 14, 14),     # a sub conv, multiplier 2
    (ConvSpec(2, 2, 3, 3, 3, 2, 2, 2, groups=2), 11, 10),     # unequal strides, padding 2
    (ConvSpec(3, 3, 3, 3, 2, 2, 1, 1, groups=3), 9, 2),       # strided, one output column
])
def test_nchw_tap_axes_are_off_the_unit_stride(spec, h, w):
    # einsum keeps the (i, j) order of the taps only while neither tap axis
    # has a row's unit stride: tap columns are a copy of the tile apart, tap
    # rows a row of the copy apart, and a row of one column is padded to two
    # floats.
    x = np.zeros((1, spec.in_channels, h, w), np.float32)
    planes = ops._bind_branch_sum(spec, x.shape[1:], ())
    _, grid = ops._plane_taps(planes)
    assert not planes.channels_last and grid.strides[-1] == 4
    assert 4 not in grid.strides[:2]
    _assert_nchw_bits(spec, 2, h, w, h + w)


def test_nchw_one_input_convs_bitwise_sweep(monkeypatch):
    # Every one-input conv walked as NCHW planes, strided ones included,
    # against the per-tap reference: kernels 1-3, strides 1-3 (unequal
    # too) and padding 0-2 per axis, 1-3 channels, multiplier 1-2, on
    # planes of at most 9x9 down to 1x1.
    monkeypatch.setattr(ops, "_CL_PLANE_FLOATS", 0)
    cases = 0
    for (kh, kw), (sh, sw), (ph, pw) in itertools.product(
            itertools.product(range(1, 4), repeat=2), itertools.product(range(1, 4), repeat=2),
            itertools.product(range(3), repeat=2)):
        for c, m, (h, w) in itertools.product((1, 2, 3), (1, 2), ((1, 1), (5, 2), (9, 8))):
            if h + 2 * ph < kh or w + 2 * pw < kw:
                continue
            spec = ConvSpec(c, c * m, kh, kw, sh, sw, ph, pw, groups=c, has_bias=cases % 2 == 0)
            assert not _takes_channels_last(spec, h, w)
            x, wt, b = _case(spec, 1, h, w, cases)
            assert conv2d(x, wt, b, spec).tobytes() == conv2d_per_tap(x, wt, b, spec).tobytes()
            cases += 1
    assert cases == 10908


# RefCO's scaled sums over branches b: stage 1 as (B, N, win, hid, H*W)
# products times (B, hid) scales, stage 2 as (B, N, hid, m, H*W) times (B,
# hid, m).
REFCO_SUMS = ["bnphq,bh->nphq", "bnpmq,bpm->npmq"]


def _refco_sum(pattern, products, scales):
    """``pattern``'s einsum of branch b's products, all ``products[b]``, and
    its scales, all ``scales[b]``, written as RefCO writes it: into a block
    of the stacked axis p of a larger output, with rows of 37 pixels."""
    (y_axes, s_axes), (out_axes,) = (side.split(",") for side in pattern.split("->"))
    extent = {"b": len(products), "n": 2, "p": 3, "h": 2, "m": 2, "q": 37}

    def full(values, axes):
        values = np.array(values, np.float32).reshape(-1, *[1] * (len(axes) - 1))
        return np.broadcast_to(values, [extent[a] for a in axes]).copy()

    out = np.empty([extent[a] + (a == "p") for a in out_axes], np.float32)[:, 1:]
    np.einsum(pattern, full(products, y_axes), full(scales, s_axes), out=out)
    return out


@pytest.mark.parametrize("pattern", REFCO_SUMS)
def test_refco_einsum_rounds_each_product_before_the_add(pattern):
    # Branch products c * 1 and a * a: rounded before the add they sum to 0;
    # fused into one FMA, to 2**-24.
    a, c = np.float32(1 + 2 ** -12), np.float32(-(1 + 2 ** -11))
    got = _refco_sum(pattern, [c, a], [1, a])
    assert not got.any(), (
        f"np.einsum({pattern!r}) fused a float32 multiply and add (got {np.unique(got)}): "
        f"this numpy's SIMD baseline has FMA, so RefCO's sums lose the per-branch bits")


@pytest.mark.parametrize("pattern", REFCO_SUMS)
def test_refco_einsum_sums_branches_in_index_order(pattern):
    # 1, then three half-ulps of 1: in branch order each add rounds back to
    # 1, while reversed, pairwise or split sums add two half-ulps first.
    half_ulp = 2.0 ** -24
    got = _refco_sum(pattern, [1, half_ulp, half_ulp, half_ulp], [1, 1, 1, 1])
    assert (got == 1).all(), (
        f"np.einsum({pattern!r}) did not sum the branches in index order (got "
        f"{np.unique(got)}), so RefCO's sums lose the per-branch bits")


@pytest.mark.parametrize("spec, h, w", [
    (_dw(8, bias=True), 7, 7),                          # channels-last
    (_dw(4, bias=True), 60, 60),                        # NCHW rows
    (ConvSpec(4, 8, 2, 2, 2, 2, 0, 0, groups=4), 8, 8),  # strided, channel multiplier
    (ConvSpec(3, 8, 3, 3, 2, 2, 1, 1, has_bias=True), 9, 9),  # grouped
])
def test_conv2d_empty_batch(spec, h, w):
    # An empty batch gives an empty output of the right shape on every path.
    _assert_nchw_bits(spec, 0, h, w, 1)


@pytest.mark.parametrize("spec, n, h, w", [
    (ConvSpec(3, 32, 3, 3, 2, 2, 1, 1, has_bias=True), 2, 64, 64),   # the stem
    (ConvSpec(32, 192, 1, 1, has_bias=True), 2, 28, 28),             # dense 1x1
])
def test_conv2d_grouped_bits_at_model_size(spec, n, h, w):
    _assert_nchw_bits(spec, n, h, w, 4)


def _conv2d_einsum(x, w, b, spec):
    """Grouped conv2d as one ``einsum`` per tap, summed on a zero accumulator
    in (i, j) order, then the bias: the arithmetic the grouped path had
    before it took one ``matmul`` per tap."""
    n = x.shape[0]
    oh, ow = spec.out_hw(x.shape[2], x.shape[3])
    xp = np.pad(x, ((0, 0), (0, 0), (spec.pad_h,) * 2, (spec.pad_w,) * 2))
    g = spec.groups
    og, cg = spec.out_channels // g, spec.in_channels // g
    wg = w.reshape(g, og, cg, spec.kernel_h, spec.kernel_w)
    out = np.zeros((n, g, og, oh, ow), np.float32)
    for i in range(spec.kernel_h):
        for j in range(spec.kernel_w):
            tap = xp[:, :, i: i + (oh - 1) * spec.stride_h + 1: spec.stride_h,
                     j: j + (ow - 1) * spec.stride_w + 1: spec.stride_w]
            out += np.einsum("gok,ngkhw->ngohw", wg[:, :, :, i, j],
                             tap.reshape(n, g, cg, oh, ow), optimize=True)
    out = out.reshape(n, spec.out_channels, oh, ow)
    return out if b is None else out + b.reshape(1, -1, 1, 1)


try:
    from numpy._core import einsumfunc as _einsumfunc
except ImportError:  # numpy < 2
    _einsumfunc = None

def _pw(c_in, c_out):
    return ConvSpec(c_in, c_out, has_bias=True)


@pytest.mark.skipif(not hasattr(_einsumfunc, "bmm_einsum"),
                    reason="numpy < 2.3 runs einsum as c_einsum, which no BLAS product matches")
@pytest.mark.parametrize("n", [1, 8])
@pytest.mark.parametrize("spec, h", [
    (ConvSpec(3, 32, 3, 3, 2, 2, 1, 1), 224),                 # stem, train form
    (ConvSpec(3, 32, 3, 3, 2, 2, 1, 1, has_bias=True), 224),  # stem, fused
    (_pw(32, 32), 112),                                       # stem.pw
    (_pw(32, 192), 56), (_pw(192, 32), 56),                   # lightnet expand/reduce
    (_pw(64, 384), 28), (_pw(384, 64), 28),
    (_pw(128, 768), 14), (_pw(768, 128), 14),
    (_pw(256, 1536), 7), (_pw(1536, 256), 7),
    (_pw(256, 1024), 7),                                      # head.mix
])
def test_conv2d_grouped_equals_einsum_at_model_shapes(spec, h, n):
    # At the presets' 224 px shapes the per-image matmul gives the bits of
    # the batched-matmul einsum, which computes the transposed product over
    # the whole batch. At other shapes (few channels, small planes) BLAS may
    # pick another kernel for one of the two and the last bit can differ.
    x, wt, b = _case(spec, n, h, h, 6)
    assert conv2d(x, wt, b, spec).tobytes() == _conv2d_einsum(x, wt, b, spec).tobytes()


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("spec, h, w", [
    (ConvSpec(3, 32, 3, 3, 2, 2, 1, 1, has_bias=True), 30, 32),  # stem-shaped: strided taps
    # Unpadded 1x1, x viewed as is; one product over the whole batch gives
    # other bits than per-image products at this shape.
    (ConvSpec(32, 16, has_bias=True), 7, 7),
    (_dw(6, bias=True), 51, 51),                  # depthwise, channels-last
    (_dw(6, bias=True), 52, 52),                  # depthwise, NCHW rows
    (ConvSpec(8, 8, 3, 3, 2, 2, 1, 1, groups=8, has_bias=True), 15, 17),  # 3x3 stride 2
    (ConvSpec(4, 8, 2, 2, 2, 2, 0, 0, groups=4), 12, 10),  # 2x2 stride 2, multiplier 2
])
def test_conv2d_is_pure_unaliased_and_batch_invariant(spec, h, w):
    x, wt, b = _case(spec, 3, h, w, 8)
    before = [_sha(a) for a in (x, wt, b)]
    y = conv2d(x, wt, b, spec)
    assert [_sha(a) for a in (x, wt, b)] == before
    assert y.dtype == np.float32 and y.flags.c_contiguous
    assert not np.shares_memory(y, x)
    # The batch is walked one image at a time, so every image gets the bits
    # it gets alone.
    for r in range(len(x)):
        assert y[r].tobytes() == conv2d(x[r:r + 1], wt, b, spec)[0].tobytes()


@pytest.mark.parametrize("spec, shape", [
    (_dw(192), (8, 192, 56, 56)),                                          # NCHW rows
    (ConvSpec(3, 32, 3, 3, 2, 2, 1, 1, has_bias=True), (8, 3, 224, 224)),  # the stem
])
def test_conv2d_temporaries_do_not_grow_with_the_batch(spec, shape):
    # A call's temporaries, all it allocates but its output, stay within a
    # few times one image's output or padded input, whichever is larger,
    # however large the batch.
    n, c, h, w = shape
    x, wt, b = _case(spec, n, h, w, 10)
    oh, ow = spec.out_hw(h, w)
    image = 4 * max(spec.out_channels * oh * ow,
                    c * (h + 2 * spec.pad_h) * (w + 2 * spec.pad_w))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        idle = tracemalloc.get_traced_memory()[0]
        y = conv2d(x, wt, b, spec)
        peak = tracemalloc.get_traced_memory()[1] - idle
    finally:
        if started:
            tracemalloc.stop()
    assert peak - y.nbytes <= 3 * image


def test_conv_linearity():
    rng = np.random.default_rng(3)
    spec = ConvSpec(3, 4, 3, 3, 1, 1, 1, 1)
    wt = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    for _ in range(10):
        x = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
        y = rng.standard_normal((1, 3, 5, 5)).astype(np.float32)
        a, b = rng.uniform(-2, 2, 2).astype(np.float32)
        lhs = conv2d(a * x + b * y, wt, None, spec)
        rhs = a * conv2d(x, wt, None, spec) + b * conv2d(y, wt, None, spec)
        np.testing.assert_allclose(lhs, rhs, atol=1e-4)


def test_grouped_connectivity_is_sparse():
    rng = np.random.default_rng(11)
    spec = ConvSpec(8, 8, 3, 3, 1, 1, 1, 1, groups=4)
    wt = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    x = rng.standard_normal((1, 8, 4, 4)).astype(np.float32)
    base = conv2d(x, wt, None, spec)
    for o in range(8):
        group = o // 2
        masked = x.copy()
        keep = slice(group * 2, group * 2 + 2)
        mask = np.ones(8, bool)
        mask[keep] = False
        masked[:, mask] = 0.0
        np.testing.assert_array_equal(conv2d(masked, wt, None, spec)[:, o], base[:, o])


def test_conv_errors():
    x = np.zeros((1, 3, 4, 4), np.float32)
    spec = ConvSpec(3, 2, 3, 3)
    with pytest.raises(ShapeError, match="channels"):
        conv2d(np.zeros((1, 2, 4, 4), np.float32), np.zeros(spec.weight_shape()), None, spec)
    with pytest.raises(ShapeError, match="kernel shape"):
        conv2d(x, np.zeros((2, 3, 2, 2), np.float32), None, spec)
    with pytest.raises(ShapeError, match="bias"):
        conv2d(x, np.zeros(spec.weight_shape(), np.float32), np.zeros(3), spec)
    with pytest.raises(ShapeError, match="empty"):
        conv2d(np.zeros((1, 3, 2, 2), np.float32), np.zeros(spec.weight_shape(), np.float32),
               None, spec)
    with pytest.raises(ShapeError, match="does not divide"):
        ConvSpec(3, 2, groups=2)


class TestBatchNorm:
    def test_identity_params(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(batch_norm_infer(x, BnParams.identity(3)), x)

    def test_hand_case(self):
        p = BnParams([3.0], [5.0], [1.0], [4.0], eps=0.0)
        x = np.full((1, 1, 1, 1), 2.0, np.float32)
        assert batch_norm_infer(x, p)[0, 0, 0, 0] == pytest.approx(6.5)

    def test_constant_input_at_mean_gives_beta(self):
        p = BnParams([2.0, 0.5], [0.7, -0.3], [1.5, -2.0], [3.0, 0.25])
        x = np.broadcast_to(np.array([1.5, -2.0], np.float32).reshape(1, 2, 1, 1),
                            (1, 2, 3, 3)).copy()
        out = batch_norm_infer(x, p)
        np.testing.assert_allclose(out[0, 0], 0.7, atol=1e-6)
        np.testing.assert_allclose(out[0, 1], -0.3, atol=1e-6)

    def test_is_affine_map(self):
        rng = np.random.default_rng(5)
        p = BnParams.random(4, rng, var_range=(0.1, 10.0))
        s, t = p.scale_shift()
        x = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        expected = x * s.reshape(1, -1, 1, 1) + t.reshape(1, -1, 1, 1)
        np.testing.assert_array_equal(batch_norm_infer(x, p), expected)

    def test_errors(self):
        with pytest.raises(ShapeError):
            batch_norm_infer(np.zeros((1, 2, 1, 1), np.float32), BnParams.identity(3))
        with pytest.raises(ValueError, match="positive"):
            BnParams([1.0], [0.0], [0.0], [-1.0], eps=0.5)
        with pytest.raises(ShapeError, match="length"):
            BnParams([1.0, 1.0], [0.0], [0.0], [1.0])

    def test_nan_variance_is_rejected(self):
        # `var + eps <= 0` is False for NaN, so only `not var + eps > 0`
        # catches it; a NaN variance would turn every later value NaN.
        with pytest.raises(ValueError, match="channel 0"):
            BnParams([1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [np.nan, 1.0])
        with pytest.raises(ValueError, match="channel 1"):
            BnParams([1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, np.nan])

    @pytest.mark.parametrize("stat", ["gamma", "beta", "mean", "var"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_statistic_is_rejected(self, stat, value):
        # A NaN or infinite statistic would make the scale or shift non-finite
        # and with them every later value. A variance of -inf (or NaN) fails
        # the variance check first, with its message.
        stats = {name: np.ones(3, np.float32) for name in ("gamma", "beta", "mean", "var")}
        stats[stat][2] = value
        message = ("var + eps must be positive, violated at channel 2"
                   if stat == "var" and not value > 0
                   else f"{stat} must be finite, violated at channel 2")
        with pytest.raises(ValueError, match=re.escape(message)):
            BnParams(**stats)

    @pytest.mark.parametrize("stats, message", [
        # The variance check comes first, then the first non-finite
        # statistic in gamma, beta, mean, var order, then channel order.
        (([np.nan, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0, -2.0]), "var \\+ eps .* channel 1"),
        (([1.0, 1.0], [0.0, np.inf], [np.nan, 0.0], [1.0, 1.0]), "beta .* channel 1"),
        (([1.0, 1.0], [0.0, 0.0], [0.0, -np.inf], [np.inf, 1.0]), "mean .* channel 1"),
    ])
    def test_first_failing_statistic_is_named(self, stats, message):
        with pytest.raises(ValueError, match=message):
            BnParams(*stats)

    @pytest.mark.parametrize("stats, message", [
        # Finite statistics whose float32 scale or shift overflows: the scale
        # is checked first, then the shift, each at its first channel.
        (([3e38], [0.0], [1e30], [0.0]), "scale must be finite, violated at channel 0"),
        (([1.0, 3e38], [0.0, 0.0], [0.0, 1e30], [1.0, 0.0]),
         "scale must be finite, violated at channel 1"),
        (([1.0, 1.0], [0.0, 0.0], [0.0, 3e38], [1.0, 1e-30]),
         "shift must be finite, violated at channel 1"),
    ])
    def test_overflowing_scale_or_shift_is_rejected(self, stats, message):
        # Under pytest, a numpy RuntimeWarning is an error, so an overflow
        # warning instead of this error would fail the test too.
        with pytest.raises(ValueError, match=re.escape(message)):
            BnParams(*stats)

    def test_scale_shift_gives_fresh_arrays(self):
        p = BnParams([2.0], [1.0], [0.5], [4.0], eps=0.0)
        s, t = p.scale_shift()
        s += 1
        t += 1
        assert [a.tolist() for a in p.scale_shift()] == [[1.0], [0.5]]

    def test_statistics_are_copied(self):
        # Writing the caller's float32 arrays afterwards changes neither the
        # statistics nor the scale and shift made from them.
        stats = [np.array(v, np.float32) for v in ([2.0, 1.0], [1.0, 0.0], [0.5, 0.0],
                                                   [4.0, 1.0])]
        p = BnParams(*stats, eps=0.0)
        for a in stats:
            a[0] = np.nan
        assert [p.gamma.tolist(), p.beta.tolist(), p.mean.tolist(), p.var.tolist()] == [
            [2.0, 1.0], [1.0, 0.0], [0.5, 0.0], [4.0, 1.0]]
        assert [a.tolist() for a in p.scale_shift()] == [[1.0, 1.0], [0.5, 0.0]]


def test_relu_cases():
    x = np.array([-1.0, 0.0, 2.5], np.float32)
    np.testing.assert_array_equal(relu(x), [0.0, 0.0, 2.5])


def test_global_avg_pool():
    const = np.full((1, 2, 3, 5), 7.0, np.float32)
    np.testing.assert_array_equal(global_avg_pool(const).reshape(-1), [7.0, 7.0])
    x = np.array([1.0, 2.0, 3.0, 6.0], np.float32).reshape(1, 1, 2, 2)
    assert global_avg_pool(x)[0, 0, 0, 0] == pytest.approx(3.0)
    one = np.random.default_rng(0).standard_normal((2, 3, 1, 1)).astype(np.float32)
    np.testing.assert_array_equal(global_avg_pool(one), one)


def test_linear_cases():
    x = np.array([1.0, 2.0], np.float32)
    np.testing.assert_array_equal(linear(x, np.eye(2, dtype=np.float32), np.zeros(2)), x)
    np.testing.assert_array_equal(
        linear(x, np.zeros((3, 2), np.float32), np.array([4.0, 5.0, 6.0])), [4.0, 5.0, 6.0])
    w = np.array([[1.0, 1.0], [0.0, 3.0]], np.float32)
    np.testing.assert_array_equal(linear(x, w, np.zeros(2)), [3.0, 6.0])
    with pytest.raises(ShapeError):
        linear(np.zeros(3), w, None)
    # A spatial input is refused even when its last axis fits the weight.
    with pytest.raises(ShapeError, match="linear input must be rank 1 or 2, got rank 4"):
        linear(np.zeros((1, 2, 2, 2)), w, None)


def test_add_cases():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 2, 2)).astype(np.float32)
    y = rng.standard_normal((1, 2, 2, 2)).astype(np.float32)
    np.testing.assert_array_equal(add(x, np.zeros_like(x)), x)
    assert add(np.ones((1,)), np.ones((1,)))[0] == 2.0
    np.testing.assert_array_equal(add(x, y), add(y, x))
    with pytest.raises(ShapeError):
        add(x, np.zeros((1, 2, 2, 3), np.float32))


def test_all_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(9)
    x = (rng.standard_normal((1, 4, 5, 5)) * 10).astype(np.float32)
    spec = ConvSpec(4, 4, 3, 3, 1, 1, 1, 1, groups=2)
    w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    p = BnParams.random(4, rng, var_range=(0.1, 10.0))
    for out in (conv2d(x, w, None, spec), batch_norm_infer(x, p), relu(x),
                global_avg_pool(x)):
        assert np.all(np.isfinite(out))


@pytest.mark.parametrize("call, message", [
    (lambda: ConvSpec(0, 4), "ConvSpec.in_channels must be positive, got 0"),
    (lambda: ConvSpec(4, 4, stride_w=-1), "ConvSpec.stride_w must be positive, got -1"),
    (lambda: ConvSpec(4, 4, pad_h=-1), "ConvSpec padding must be non-negative, got -1x0"),
    (lambda: ConvSpec(6, 4, groups=4), "groups=4 does not divide in_channels=6"),
    (lambda: ConvSpec(4, 6, groups=4), "groups=4 does not divide out_channels=6"),
    (lambda: linear(np.zeros((1, 2, 3)), np.zeros((4, 3)), None),
     "linear input must be rank 1 or 2, got rank 3"),
    (lambda: linear(np.zeros(3), np.zeros(3), None), "linear weight must be rank 2, got rank 1"),
    (lambda: linear(np.zeros(3), np.zeros((4, 2)), None),
     "linear input has 3 features, weight expects 2"),
    (lambda: linear(np.zeros(3), np.zeros((4, 3)), np.zeros(5)),
     "linear bias has length 5, expected 4"),
    (lambda: global_avg_pool(np.zeros((1, 2, 3))),
     "global_avg_pool expects a rank-4 input, got rank 3"),
    (lambda: global_avg_pool(np.zeros((1, 2, 0, 3))), "global_avg_pool requires H, W >= 1"),
    (lambda: fuse_bn_into_linear(np.zeros((3, 2)), None, BnParams.identity(4)),
     "normalization has 4 channels, operator has 3 outputs"),
    (lambda: fuse_bn_into_linear(np.zeros((4, 2)), np.zeros(3), BnParams.identity(4)),
     "bias has length 3, expected 4"),
], ids=["conv-channels", "conv-stride", "conv-padding", "conv-groups-in", "conv-groups-out",
        "linear-input-rank", "linear-weight-rank", "linear-features", "linear-bias",
        "pool-rank", "pool-empty", "fuse-bn-channels", "fuse-bn-bias"])
def test_invalid_argument_is_shape_error(call, message):
    with pytest.raises(ShapeError) as e:
        call()
    assert str(e.value) == message
