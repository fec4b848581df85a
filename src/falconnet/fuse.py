"""Structural reparameterization: folding normalization into linear operators
and merging parallel training branches into single inference operators.

All transforms here are exact algebra over the weights; the only residual
discrepancy between training and inference forms is float32 rounding from
the reordered summations, which verify_equivalence measures empirically.
The merges fold the set-up that the training forms run, so their checks and
BN scales and shifts are those of ``_repso_terms`` and ``_refco_stages``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SFConvSpec, SFConvWeights, _branch_rows, _refco_stages
from .ops import BnParams, ShapeError, Tensor, as_f32
from .spatial import (RepSOConfig, RepSOWeights, _grid_window, _repso_terms,
                      branch_kernel_shape)

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
    shape = branch_kernel_shape(kind, channels)
    if shape is None:
        if kernel is not None:
            raise ShapeError("identity takes no kernel")
        k = np.float32(1)
    else:
        k = as_f32(kernel)
        if k.shape != shape:
            raise ShapeError(f"kernel shape {k.shape} does not match kind {kind} "
                             f"with {channels} channels")
    rows, cols = _grid_window(kind)
    out = np.zeros((channels, 1, 3, 3), dtype=np.float32)
    out[:, :, rows, cols] = k
    return out


def merge_repso(w: RepSOWeights, cfg: RepSOConfig) -> FusedDWConv:
    """Collapse all spatial branches into one biased 3x3 depthwise kernel.

    Folds the checked terms that ``repso_forward`` runs: in branch order,
    each branch's kernel times its BN's scale is added into its centred
    window of the 3x3 frame (identity adds the bare scale at the centre),
    and its BN's shift into the bias.
    """
    kernel = np.zeros((cfg.channels, 1, 3, 3), dtype=np.float32)
    bias = np.zeros(cfg.channels, dtype=np.float32)
    for br, (_, k, s, t) in zip(w.branches, _repso_terms(w, cfg)):
        rows, cols = _grid_window(br.kind)
        window, s = kernel[:, :, rows, cols], s[:, None, None, None]
        window += s if k is None else as_f32(k) * s
        bias += t
    return FusedDWConv(kernel, bias)


def merge_refco(spec: SFConvSpec, branches1, branches2) -> SFConvWeights:
    """Collapse parallel factorized-conv branches into a single SF-Conv.

    Per stage, each branch's normalization scale is folded into its weight
    bank and the banks are summed; the shifts accumulate into the stage
    bias. Stage-1 normalization is per hidden channel, so its shift
    broadcasts across window positions.
    """
    return _merge_refco(spec, _refco_stages(spec, _branch_rows(branches1),
                                            _branch_rows(branches2)))


def _merge_refco(spec: SFConvSpec, stages) -> SFConvWeights:
    """``merge_refco`` of the stages as ``_refco_stages`` gives them."""
    (w1s, s1, t1), (w2s, s2, t2) = stages
    w1 = np.zeros((spec.hidden_channels, spec.windows, spec.kernel), dtype=np.float32)
    b1 = np.zeros((spec.hidden_channels, spec.windows), dtype=np.float32)
    for w, s, t in zip(w1s, s1, t1):
        w1 += w * s[:, None, None]
        b1 += t[:, None]

    w2 = np.zeros((spec.c_out, spec.windows), dtype=np.float32)
    b2 = np.zeros(spec.c_out, dtype=np.float32)
    for w, s, t in zip(w2s, s2, t2):
        w2 += w * s[:, None]
        b2 += t
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
