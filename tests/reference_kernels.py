"""Plain-arithmetic float32 reference kernels for the fast library paths.

``conv2d_per_tap`` sums one product per kernel tap in (i, j) order into a
zero accumulator; ``sfconv_stage1_einsum``/``sfconv_stage2_einsum`` contract
the SF-Conv stages with ``einsum``; ``linear_whole_batch`` is one matrix
product over the batch. Tests swap them into the model executor to check
the library's logits against this arithmetic.
"""

import numpy as np


def conv2d_per_tap(x, w, b, spec):
    """Grouped conv2d, one product per tap. A group reading one input channel
    takes a broadcast product; wider groups contract with ``einsum``."""
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
                out += np.einsum("gok,ngkhw->ngohw", wg[:, :, :, i, j], tap, optimize=True)
    out = out.reshape(n, spec.out_channels, oh, ow)
    if b is not None:
        out = out + np.asarray(b, np.float32).reshape(1, -1, 1, 1)
    return out


def sfconv_stage1_einsum(xw, w1):
    return np.einsum("hpt,nptij->nhpij", w1, xw, optimize=True)


def sfconv_stage2_einsum(hidden, w2, spec):
    n = hidden.shape[0]
    w2r = w2.reshape(spec.hidden_channels, spec.width_multiplier, spec.windows)
    out = np.einsum("hmp,nhpij->nhmij", w2r, hidden, optimize=True)
    return out.reshape(n, spec.c_out, hidden.shape[3], hidden.shape[4])


def linear_whole_batch(x, w, b):
    y = np.asarray(x, np.float32) @ np.asarray(w, np.float32).T
    return y if b is None else y + np.asarray(b, np.float32)
