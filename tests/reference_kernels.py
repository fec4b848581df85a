"""Plain-arithmetic float32 reference kernels for the fast library paths.

``conv2d_per_tap`` sums one product per kernel tap in (i, j) order into a
zero accumulator; ``sfconv_stage1_einsum``/``sfconv_stage2_einsum`` contract
the SF-Conv stages with ``einsum``, with the library stages' optional
leading branch axis; ``linear_whole_batch`` is one matrix product over the
batch. Tests swap them into the model executor to check the library's
logits against this arithmetic. The stage references take the library
stages' optional ``out`` buffer and leave it unused: a stage returns its
result, which need not live in ``out``.

``repso_per_branch`` and ``refco_per_branch`` are the training-form
operators composed branch by branch, out of place. ``repso_per_branch``
takes each branch's output, then its normalization, then a running sum in
branch order. ``refco_per_branch`` takes, per stage, each branch's output
times its BN scale in a running sum in branch order, then adds the
stage's BN shifts, summed from zeros in branch order, once: BN distributes
over the sum, so this is the same map with one pass fewer per branch.
``merge_repso_per_branch`` merges RepSO the same way: each branch's BN
folded into its kernel, the kernel padded onto the 3x3 frame, then a
running sum in branch order; ``merge_refco_per_branch`` merges RefCO the
same way, stage by stage.

``receptive_range_loops`` builds each pattern kind's connection matrix
with Python loops, one output (or hidden node) at a time, and multiplies
the two SF stages as boolean matrices.
"""

import numpy as np

import falconnet.channel as channel
from falconnet import (ConvSpec, FusedDWConv, SFConvWeights, batch_norm_infer,
                       fuse_bn_into_linear, pad_kernel_to_3x3)


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
    return np.einsum("...hpt,nptij->...nhpij", w1, xw, optimize=True)


def sfconv_stage2_einsum(hidden, w2, out=None):
    n, hid, win, h, w = hidden.shape
    lead = w2.shape[:-2]
    y = np.einsum("...hmp,nhpij->...nhmij", w2.reshape(*lead, hid, -1, win), hidden,
                  optimize=True)
    return y.reshape(*lead, n, w2.shape[-2], h, w)


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


def merge_refco_per_branch(spec, branches1, branches2):
    """``merge_refco`` with each branch through ``fuse_bn_into_linear``,
    summed out of place from zeros in branch order; stage 1's shift is
    broadcast across windows."""
    w1 = np.zeros((spec.hidden_channels, spec.windows, spec.kernel), dtype=np.float32)
    b1 = np.zeros((spec.hidden_channels, spec.windows), dtype=np.float32)
    for br in branches1:
        w, b = fuse_bn_into_linear(br.weight, None, br.bn)
        w1, b1 = w1 + w, b1 + b[:, None]
    w2 = np.zeros((spec.c_out, spec.windows), dtype=np.float32)
    b2 = np.zeros(spec.c_out, dtype=np.float32)
    for br in branches2:
        w, b = fuse_bn_into_linear(br.weight, None, br.bn)
        w2, b2 = w2 + w, b2 + b
    return SFConvWeights(spec, w1, w2, b1, b2)


def refco_per_branch(x, spec, branches1, branches2):
    """Per stage, each branch's library SF-Conv stage times its BN scale,
    summed out of place in branch order, plus the stage's BN shifts summed
    from zeros in branch order; stage 2 reads the stage-1 result."""
    xw = channel._split_windows(np.asarray(x, np.float32), spec)

    def stage(branches, output, axes):
        out = None
        shift = np.zeros(branches[0].bn.channels, np.float32)
        for br in branches:
            s, t = br.bn.scale_shift()
            y = output(br.weight) * s.reshape(axes)
            out = y if out is None else out + y
            shift = shift + t
        return out + shift.reshape(axes)

    hidden = stage(branches1, lambda w: channel._stage1(xw, w), (1, -1, 1, 1, 1))
    return stage(branches2, lambda w: channel._stage2(hidden, w), (1, -1, 1, 1))


def receptive_range_loops(pattern):
    """``receptive_range`` with each connection matrix filled row by row."""
    c_in, c_out = pattern.c_in, pattern.c_out
    if pattern.kind == "dense":
        direct = np.ones((c_out, c_in), dtype=bool)
    elif pattern.kind == "group":
        g = pattern.groups
        direct = np.zeros((c_out, c_in), dtype=bool)
        in_per, out_per = c_in // g, c_out // g
        for o in range(c_out):
            gi = o // out_per
            direct[o, gi * in_per:(gi + 1) * in_per] = True
    elif pattern.kind == "channel_wise":
        k = pattern.window
        direct = np.zeros((c_out, c_in), dtype=bool)
        for o in range(c_out):
            start = (o * c_in) // c_out
            direct[o, (start + np.arange(k)) % c_in] = True
    else:
        spec = pattern.spec
        hid, win, k = spec.hidden_channels, spec.windows, spec.kernel
        # hidden node (h, p) is row h*win + p
        a1 = np.zeros((hid * win, c_in), dtype=bool)
        for h in range(hid):
            for p in range(win):
                a1[h * win + p, p * k:(p + 1) * k] = True
        a2 = np.zeros((c_out, hid * win), dtype=bool)
        m = spec.width_multiplier
        for o in range(c_out):
            h = o // m
            a2[o, h * win:(h + 1) * win] = True
        direct = a2 @ a1
    return direct.sum(axis=1)
