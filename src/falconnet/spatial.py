"""Multi-branch depthwise spatial operator (RepSO) and kernel-magnitude analysis.

The training-time operator runs several depthwise branches side by side,
each followed by its own normalization, and sums the results: N parallel
3x3 kernels plus optional 1x3, 3x1, 1x1 and identity branches. Per-branch
padding keeps every branch aligned with the 3x3 output grid, so the sum is
well defined and the whole stack can later collapse into one padded 3x3
kernel (see falconnet.fuse.merge_repso).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import BnParams, ConvSpec, ShapeError, Tensor, _branch_sum, as_f32

__all__ = [
    "RepSOConfig",
    "RepSOBranch",
    "RepSOWeights",
    "repso_forward",
    "kernel_magnitude_matrix",
    "branch_kernel_shape",
    "random_repso_weights",
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


def check_repso_weights(w: RepSOWeights, cfg: RepSOConfig) -> None:
    kinds = cfg.branch_kinds()
    got = tuple(br.kind for br in w.branches)
    if got != kinds:
        raise ShapeError(f"branch kinds {got} do not match configuration {kinds}")
    for i, br in enumerate(w.branches):
        expect = branch_kernel_shape(br.kind, cfg.channels)
        if expect is None:
            if br.kernel is not None:
                raise ShapeError(f"branch {i} (identity) must not carry a kernel")
        else:
            if br.kernel is None or tuple(br.kernel.shape) != expect:
                shape = None if br.kernel is None else tuple(br.kernel.shape)
                raise ShapeError(f"branch {i} ({br.kind}) kernel shape {shape}, expected {expect}")
        if br.bn.channels != cfg.channels:
            raise ShapeError(
                f"branch {i} normalization has {br.bn.channels} channels, expected {cfg.channels}")


def repso_forward(x: Tensor, w: RepSOWeights, cfg: RepSOConfig) -> Tensor:
    """Sum of per-branch BN(depthwise conv(x)); the identity branch adds BN(x).

    Stride is 1 and each branch is padded onto the 3x3 output grid, so the
    output shape equals the input shape.

    One pass of ``ops._branch_sum`` on the 3x3 depthwise grid, the kernel
    that depthwise ``conv2d`` runs as its one-branch case. A branch reads
    the grid taps of its ``_grid_window``, the window that ``merge_repso``
    folds its kernel into; identity is the bare centre tap. Each branch sums
    its taps in (i, j) order, applies its BN as a scale and shift and is
    added into the output in branch order, so the bits equal those of the
    per-branch ``conv2d``, ``batch_norm_infer`` and ``add``.
    """
    return _repso(x, cfg, _repso_terms(w, cfg))


def _repso_terms(w: RepSOWeights, cfg: RepSOConfig) -> list:
    """The checked branches of ``w`` as ``_branch_sum`` terms, which
    ``merge_repso`` folds: per branch its grid taps, kernel and BN scale and shift."""
    check_repso_weights(w, cfg)
    terms = []
    for br in w.branches:
        rows, cols = _grid_window(br.kind)
        taps = [i * 3 + j for i in range(rows.start, rows.stop)
                for j in range(cols.start, cols.stop)]
        terms.append((taps, br.kernel, *br.bn.scale_shift()))
    return terms


def _repso(x, cfg: RepSOConfig, terms: list) -> np.ndarray:
    """RepSO of ``x`` given its weights as ``_repso_terms``."""
    x = as_f32(x)
    if x.ndim != 4 or x.shape[1] != cfg.channels:
        raise ShapeError(
            f"repso_forward input has {x.shape[1] if x.ndim == 4 else '?'} channels, "
            f"expected {cfg.channels}")
    c, h, width = x.shape[1:]
    grid = ConvSpec(c, c, 3, 3, 1, 1, 1, 1, groups=c)
    return _branch_sum(x, grid, *grid.out_hw(h, width), terms)


def random_repso_weights(cfg: RepSOConfig, rng: np.random.Generator, *,
                         kernel_scale: float = 0.3,
                         gamma_range=(0.5, 1.5), beta_range=(-0.3, 0.3),
                         mean_range=(-0.3, 0.3), var_range=(0.5, 2.0),
                         eps: float = 1e-5) -> RepSOWeights:
    """Draw branch kernels and normalization statistics from a generator."""
    branches = []
    for kind in cfg.branch_kinds():
        shape = branch_kernel_shape(kind, cfg.channels)
        kernel = None
        if shape is not None:
            kernel = (rng.standard_normal(shape) * kernel_scale).astype(np.float32)
        bn = BnParams.random(cfg.channels, rng, gamma_range=gamma_range,
                             beta_range=beta_range, mean_range=mean_range,
                             var_range=var_range, eps=eps)
        branches.append(RepSOBranch(kind, kernel, bn))
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
