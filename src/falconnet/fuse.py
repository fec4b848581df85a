"""Structural reparameterization: folding normalization into linear operators
and merging parallel training branches into single inference operators.

All transforms here are exact algebra over the weights; the only residual
discrepancy between training and inference forms is float32 rounding from
the reordered summations, which verify_equivalence measures empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SFConvSpec, SFConvWeights, _check_refco
from .ops import BnParams, ShapeError, Tensor, as_f32
from .spatial import _KERNEL_HW, RepSOConfig, RepSOWeights, check_repso_weights

__all__ = [
    "FusedDWConv",
    "FusionReport",
    "fuse_bn_into_linear",
    "pad_kernel_to_3x3",
    "merge_repso",
    "merge_refco",
    "verify_equivalence",
]


@dataclass(frozen=True)
class FusedDWConv:
    """A single biased 3x3 depthwise kernel, the inference form of the
    multi-branch spatial operator."""
    kernel: Tensor  # (C, 1, 3, 3)
    bias: np.ndarray  # (C,)


@dataclass(frozen=True)
class FusionReport:
    """Outcome of an empirical train/inference equivalence check."""
    max_abs_error: float
    trials: int
    input_shape: tuple
    tolerance: float
    seed: int
    passed: bool


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


def pad_kernel_to_3x3(kernel, kind: str, channels: int) -> Tensor:
    """Center a depthwise kernel of the given kind inside a 3x3 frame.

    1x3 lands in the middle row, 3x1 in the middle column, 1x1 at the
    center; identity (which carries no kernel) becomes a center-1 kernel.
    """
    if kind == "identity":
        if kernel is not None:
            raise ShapeError("identity takes no kernel")
        out = np.zeros((channels, 1, 3, 3), dtype=np.float32)
        out[:, 0, 1, 1] = 1.0
        return out
    if kind not in _KERNEL_HW:
        raise ShapeError(f"unknown kernel kind '{kind}'")
    kh, kw = _KERNEL_HW[kind]
    k = as_f32(kernel)
    if k.shape != (channels, 1, kh, kw):
        raise ShapeError(f"kernel shape {k.shape} does not match kind {kind} "
                         f"with {channels} channels")
    out = np.zeros((channels, 1, 3, 3), dtype=np.float32)
    r0, c0 = (3 - kh) // 2, (3 - kw) // 2
    out[:, :, r0:r0 + kh, c0:c0 + kw] = k
    return out


def merge_repso(w: RepSOWeights, cfg: RepSOConfig) -> FusedDWConv:
    """Collapse all spatial branches into one biased 3x3 depthwise kernel.

    Each branch's normalization is folded into its kernel (the identity
    branch is treated as a depthwise 1x1 kernel of ones), the kernels are
    centered on the 3x3 frame, and kernels and biases are summed.
    """
    check_repso_weights(w, cfg)
    c = cfg.channels
    kernel = np.zeros((c, 1, 3, 3), dtype=np.float32)
    bias = np.zeros(c, dtype=np.float32)
    for br in w.branches:
        if br.kind == "identity":
            raw = np.ones((c, 1, 1, 1), dtype=np.float32)
            kind = "1x1"
        else:
            raw = br.kernel
            kind = br.kind
        kb, bb = fuse_bn_into_linear(raw, None, br.bn)
        kernel = kernel + pad_kernel_to_3x3(kb, kind, c)
        bias = bias + bb
    return FusedDWConv(kernel, bias)


def merge_refco(spec: SFConvSpec, branches1, branches2) -> SFConvWeights:
    """Collapse parallel factorized-conv branches into a single SF-Conv.

    Per stage, each branch's normalization scale is folded into its weight
    bank and the banks are summed; the shifts accumulate into the stage
    bias. Stage-1 normalization is per hidden channel, so its shift
    broadcasts across window positions.
    """
    branches1 = tuple(branches1)
    branches2 = tuple(branches2)
    _check_refco(spec, branches1, branches2)

    w1 = np.zeros((spec.hidden_channels, spec.windows, spec.kernel), dtype=np.float32)
    b1 = np.zeros((spec.hidden_channels, spec.windows), dtype=np.float32)
    for br in branches1:
        s, t = br.bn.scale_shift()
        w1 = w1 + as_f32(br.weight) * s[:, None, None]
        b1 = b1 + t[:, None]

    w2 = np.zeros((spec.c_out, spec.windows), dtype=np.float32)
    b2 = np.zeros(spec.c_out, dtype=np.float32)
    for br in branches2:
        s, t = br.bn.scale_shift()
        w2 = w2 + as_f32(br.weight) * s[:, None]
        b2 = b2 + t
    return SFConvWeights(spec, w1, w2, b1, b2)


def verify_equivalence(reference, candidate, trials: int, input_shape,
                       tolerance: float = 1e-4, seed: int = 0) -> FusionReport:
    """Run both callables on fixed-seed pseudo-random inputs and record the
    worst absolute output discrepancy. A non-finite output from either side
    makes that discrepancy non-finite, and the report fails."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    shape = tuple(int(d) for d in input_shape)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = rng.standard_normal(shape).astype(np.float32)
        a = np.asarray(reference(x))
        b = np.asarray(candidate(x))
        if a.shape != b.shape:
            raise ShapeError(f"model outputs differ in shape: {a.shape} vs {b.shape}")
        err = float(np.max(np.abs(a - b))) if a.size else 0.0
        if err > worst or np.isnan(err):  # max() would drop a NaN
            worst = err
    return FusionReport(worst, trials, shape, float(tolerance), seed, worst <= tolerance)
