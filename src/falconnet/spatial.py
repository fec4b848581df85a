"""Multi-branch depthwise spatial operator (RepSO), its merge, and kernel-magnitude analysis.

The training-time operator runs several depthwise branches side by side,
each followed by its own normalization, and sums the results: N parallel
3x3 kernels plus optional 1x3, 3x1, 1x1 and identity branches. Per-branch
padding keeps every branch aligned with the 3x3 output grid, so the sum is
well defined and ``merge_repso`` collapses the whole stack into one biased
3x3 kernel. The merge is exact algebra over the set-up that the training
form runs, so only float32 rounding separates the two forms, and
``verify_equivalence`` measures it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import (BnParams, ConvSpec, ShapeError, Tensor, _bn_scale_shift, _bind_branch_sum,
                  _run_branch_sum, as_f32)

__all__ = [
    "RepSOConfig",
    "RepSOBranch",
    "RepSOWeights",
    "repso_forward",
    "kernel_magnitude_matrix",
    "random_repso_weights",
    "FusedDWConv",
    "pad_kernel_to_3x3",
    "merge_repso",
]

# Branch kind -> kernel extent; each kernel sits centred on the 3x3 grid.
_KERNEL_HW = {"3x3": (3, 3), "1x3": (1, 3), "3x1": (3, 1), "1x1": (1, 1)}


@dataclass(frozen=True)
class RepSOConfig:
    """Branch layout of the spatial operator; the default is the 7-branch form."""

    channels: int
    n_parallel_3x3: int = 3
    include_1x3: bool = True
    include_3x1: bool = True
    include_1x1: bool = True
    include_identity: bool = True

    def __post_init__(self):
        if self.channels <= 0:
            raise ShapeError(f"RepSOConfig.channels must be positive, got {self.channels}")
        if self.n_parallel_3x3 <= 0:
            raise ShapeError(f"RepSOConfig.n_parallel_3x3 must be positive, got {self.n_parallel_3x3}")

    def branch_kinds(self) -> tuple[str, ...]:
        kinds = ["3x3"] * self.n_parallel_3x3
        if self.include_1x3:
            kinds.append("1x3")
        if self.include_3x1:
            kinds.append("3x1")
        if self.include_1x1:
            kinds.append("1x1")
        if self.include_identity:
            kinds.append("identity")
        return tuple(kinds)

    @property
    def branch_count(self) -> int:
        return len(self.branch_kinds())


def branch_kernel_shape(kind: str, channels: int):
    """Depthwise kernel shape for a branch kind; identity carries no kernel."""
    if kind == "identity":
        return None
    if kind not in _KERNEL_HW:
        raise ShapeError(f"unknown branch kind '{kind}'")
    kh, kw = _KERNEL_HW[kind]
    return (channels, 1, kh, kw)


def _grid_window(kind: str) -> tuple[slice, slice]:
    """The (rows, columns) of the 3x3 grid that a branch of ``kind`` covers
    when centred; identity, the one kind not in _KERNEL_HW, is the centre tap."""
    kh, kw = _KERNEL_HW.get(kind, (1, 1))
    r0, c0 = (3 - kh) // 2, (3 - kw) // 2
    return slice(r0, r0 + kh), slice(c0, c0 + kw)


@dataclass(frozen=True)
class RepSOBranch:
    kind: str
    kernel: Tensor | None
    bn: BnParams


@dataclass(frozen=True)
class RepSOWeights:
    branches: tuple[RepSOBranch, ...]


def _repso_rows(w: RepSOWeights, cfg: RepSOConfig) -> tuple:
    """``w``'s branches, their kinds checked, as rows for ``_repso_terms``."""
    got = tuple(br.kind for br in w.branches)
    if got != cfg.branch_kinds():
        raise ShapeError(f"branch kinds {got} do not match configuration {cfg.branch_kinds()}")
    return tuple((br.kernel, br.bn.gamma, br.bn.beta, br.bn.mean, br.bn.var, br.bn.eps)
                 for br in w.branches)


def repso_forward(x: Tensor, w: RepSOWeights, cfg: RepSOConfig) -> Tensor:
    """Sum of per-branch BN(depthwise conv(x)); the identity branch adds BN(x).

    Stride is 1 and each branch is padded onto the 3x3 output grid, so the
    output shape equals the input shape. The branches are set up as rows by
    ``_repso_terms``, as a RepSO node sets up its own.

    One pass of the ``ops`` branch sum on the 3x3 depthwise grid, the kernel
    that depthwise ``conv2d`` runs as its one-branch case. A branch reads
    the grid taps of its ``_grid_window``, the window that ``merge_repso``
    folds its kernel into; identity is the bare centre tap. Each branch sums
    its taps in (i, j) order, applies its BN as a scale and shift and is
    added into the output in branch order, so the bits equal those of the
    per-branch ``conv2d``, ``batch_norm_infer`` and ``add``.
    """
    terms = _repso_terms(_repso_rows(w, cfg), cfg)
    x = as_f32(x)
    if x.ndim != 4:
        raise ShapeError(f"repso_forward input has ? channels, expected {cfg.channels}")
    return _run_branch_sum(x, _bind_repso(x.shape[1:], cfg, terms))


def _repso_terms(branches, cfg: RepSOConfig, prefix=None) -> list:
    """The branches, each ``(kernel, gamma, beta, mean, var, eps)`` and of
    the kinds ``cfg`` lists, checked, as the branch-sum terms that
    ``_bind_repso`` binds and ``_merge_repso`` folds: per branch its
    ``_grid_window``, kernel and BN scale and shift. One ``_bn_scale_shift``
    call sets up every branch's BN, naming a failing one by the key
    ``prefix`` of its index if given; then each kernel's shape is checked."""
    s, t = _bn_scale_shift([br[1:] for br in branches], cfg.channels,
                           "branch {} normalization has {} channels, expected {}", prefix)
    terms = []
    for i, (kind, (kernel, *_)) in enumerate(zip(cfg.branch_kinds(), branches)):
        expect = branch_kernel_shape(kind, cfg.channels)
        got = None if kernel is None else tuple(kernel.shape)
        if got != expect:
            raise ShapeError(f"branch {i} (identity) must not carry a kernel" if expect is None
                             else f"branch {i} ({kind}) kernel shape {got}, expected {expect}")
        terms.append((_grid_window(kind), kernel, s[i], t[i]))
    return terms


def _bind_repso(shape, cfg: RepSOConfig, terms: list):
    """RepSO given its weights as ``_repso_terms``, bound to one image of
    ``shape``, (C, H, W)."""
    c = shape[0]
    if c != cfg.channels:
        raise ShapeError(f"repso_forward input has {c} channels, expected {cfg.channels}")
    return _bind_branch_sum(ConvSpec(c, c, 3, 3, 1, 1, 1, 1, groups=c), shape, terms)


@dataclass(frozen=True)
class FusedDWConv:
    """A single biased 3x3 depthwise kernel, the inference form of the
    multi-branch spatial operator."""
    kernel: Tensor  # (C, 1, 3, 3)
    bias: np.ndarray  # (C,)


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

    Folds the terms that ``repso_forward`` runs, from one ``_repso_terms``
    set-up: in branch order, each branch's kernel times its BN's scale is
    added into its centred window of the 3x3 frame (identity adds the bare
    scale at the centre), and its BN's shift into the bias.
    """
    return _merge_repso(cfg, _repso_terms(_repso_rows(w, cfg), cfg))


def _merge_repso(cfg: RepSOConfig, terms) -> FusedDWConv:
    """``merge_repso`` of the branches as ``_repso_terms`` gives them."""
    kernel = np.zeros((cfg.channels, 1, 3, 3), dtype=np.float32)
    bias = np.zeros(cfg.channels, dtype=np.float32)
    for (rows, cols), k, s, t in terms:
        window, s = kernel[:, :, rows, cols], s[:, None, None, None]
        window += s if k is None else as_f32(k) * s
        bias += t
    return FusedDWConv(kernel, bias)


def random_repso_weights(cfg: RepSOConfig, rng: np.random.Generator, **bn) -> RepSOWeights:
    """Draw branch kernels and normalization statistics from a generator;
    ``bn`` holds keywords of ``BnParams.random``."""
    branches = []
    for kind in cfg.branch_kinds():
        shape = branch_kernel_shape(kind, cfg.channels)
        kernel = None
        if shape is not None:
            kernel = (rng.standard_normal(shape) * 0.3).astype(np.float32)
        branches.append(RepSOBranch(kind, kernel, BnParams.random(cfg.channels, rng, **bn)))
    return RepSOWeights(tuple(branches))


def kernel_magnitude_matrix(kernels, kh: int, kw: int) -> np.ndarray:
    """Positionwise mean of absolute weights, normalized by the matrix maximum.

    Averages jointly across every kernel and every channel; leading axes of
    each kernel array are flattened. An all-zero input yields the all-zero
    matrix rather than dividing by zero.
    """
    kernels = list(kernels)
    if not kernels:
        raise ShapeError("kernel_magnitude_matrix requires at least one kernel")
    flats = []
    for k in kernels:
        a = as_f32(k)
        if a.ndim < 2 or a.shape[-2:] != (kh, kw):
            got = a.shape[-2:] if a.ndim >= 2 else tuple(a.shape)
            raise ShapeError(f"kernel spatial extent {got} does not match {kh}x{kw}")
        flats.append(np.abs(a).reshape(-1, kh, kw))
    mean = np.concatenate(flats, axis=0).mean(axis=0, dtype=np.float64)
    peak = float(mean.max())
    if peak == 0.0:
        return np.zeros((kh, kw), dtype=np.float32)
    return (mean / peak).astype(np.float32)
