"""Plain-arithmetic float32 reference kernels for the fast library paths.

``conv2d_per_tap`` sums one product per kernel tap in (i, j) order into a
zero accumulator; ``sfconv_stage1_einsum``/``sfconv_stage2_einsum`` contract
the SF-Conv stages with ``einsum``; ``linear_whole_batch`` is one matrix
product over the batch. Tests swap them into the model executor to check
the library's logits against this arithmetic. The stage references take the
library stages' optional ``out`` buffer and leave it unused: a stage returns
its result, which need not live in ``out``.

``repso_per_branch`` and ``refco_per_branch`` are the training-form
operators composed branch by branch, out of place: each branch's output,
then its normalization, then a running sum in branch order.
``merge_repso_per_branch`` merges RepSO the same way: each branch's BN
folded into its kernel, the kernel padded onto the 3x3 frame, then a
running sum in branch order.
"""

import numpy as np

import falconnet.channel as channel
from falconnet import (ConvSpec, FusedDWConv, batch_norm_infer, fuse_bn_into_linear,
                       pad_kernel_to_3x3)


def conv2d_per_tap(x, w, b, spec):
    """Grouped conv2d, one product per tap. A group reading one input channel
    takes a broadcast product; wider groups take one ``matmul`` per image and
    group, of the tap's (g, og, cg) weights and its (N, g, cg, oh*ow) view."""
    x = np.asarray(x, np.float32)
    w = np.asarray(w, np.float32)
    n = x.shape[0]
    oh, ow = spec.out_hw(x.shape[2], x.shape[3])
    xp = np.pad(x, ((0, 0), (0, 0), (spec.pad_h,) * 2, (spec.pad_w,) * 2))
    g = spec.groups
    og = spec.out_channels // g
    cg = spec.in_channels // g
    wg = w.reshape(g, og, cg, spec.kernel_h, spec.kernel_w)
    out = np.zeros((n, g, og, oh, ow), np.float32)
    for i in range(spec.kernel_h):
        for j in range(spec.kernel_w):
            tap = xp[:, :, i: i + (oh - 1) * spec.stride_h + 1: spec.stride_h,
                     j: j + (ow - 1) * spec.stride_w + 1: spec.stride_w]
            tap = tap.reshape(n, g, cg, oh, ow)
            if cg == 1:
                out += wg[None, :, :, 0, i, j, None, None] * tap
            else:
                out += np.matmul(np.ascontiguousarray(wg[:, :, :, i, j]),
                                 tap.reshape(n, g, cg, oh * ow)).reshape(out.shape)
    out = out.reshape(n, spec.out_channels, oh, ow)
    if b is not None:
        out = out + np.asarray(b, np.float32).reshape(1, -1, 1, 1)
    return out


def sfconv_stage1_einsum(xw, w1, out=None):
    return np.einsum("hpt,nptij->nhpij", w1, xw, optimize=True)


def sfconv_stage2_einsum(hidden, w2, spec, out=None):
    n = hidden.shape[0]
    w2r = w2.reshape(spec.hidden_channels, spec.width_multiplier, spec.windows)
    y = np.einsum("hmp,nhpij->nhmij", w2r, hidden, optimize=True)
    return y.reshape(n, spec.c_out, hidden.shape[3], hidden.shape[4])


def linear_whole_batch(x, w, b):
    y = np.asarray(x, np.float32) @ np.asarray(w, np.float32).T
    return y if b is None else y + np.asarray(b, np.float32)


def repso_per_branch(x, w, cfg):
    """Sum in branch order of BN(per-tap depthwise conv(x)); identity adds BN(x)."""
    c = cfg.channels
    out = None
    for br in w.branches:
        if br.kind == "identity":
            y = batch_norm_infer(x, br.bn)
        else:
            kh, kw = br.kernel.shape[2:]
            spec = ConvSpec(c, c, kh, kw, 1, 1, kh // 2, kw // 2, groups=c)
            y = batch_norm_infer(conv2d_per_tap(x, br.kernel, None, spec), br.bn)
        out = y if out is None else out + y
    return out


def merge_repso_per_branch(w, cfg):
    """``merge_repso`` with identity as a 1x1 kernel of ones, each branch
    through ``fuse_bn_into_linear`` and ``pad_kernel_to_3x3``, summed out of
    place."""
    c = cfg.channels
    kernel = np.zeros((c, 1, 3, 3), dtype=np.float32)
    bias = np.zeros(c, dtype=np.float32)
    for br in w.branches:
        if br.kind == "identity":
            raw, kind = np.ones((c, 1, 1, 1), dtype=np.float32), "1x1"
        else:
            raw, kind = br.kernel, br.kind
        kb, bb = fuse_bn_into_linear(raw, None, br.bn)
        kernel = kernel + pad_kernel_to_3x3(kb, kind, c)
        bias = bias + bb
    return FusedDWConv(kernel, bias)


def refco_per_branch(x, spec, branches1, branches2):
    """Per branch the library's SF-Conv stage, then ``y * s + t``, summed
    out of place in branch order; stage 2 reads the stage-1 sum."""
    xw = channel._split_windows(np.asarray(x, np.float32), spec)
    hidden = None
    for br in branches1:
        s, t = br.bn.scale_shift()
        y = channel._stage1(xw, br.weight) * s[None, :, None, None, None] \
            + t[None, :, None, None, None]
        hidden = y if hidden is None else hidden + y
    out = None
    for br in branches2:
        s, t = br.bn.scale_shift()
        y = channel._stage2(hidden, br.weight, spec) * s.reshape(1, -1, 1, 1) \
            + t.reshape(1, -1, 1, 1)
        out = y if out is None else out + y
    return out
